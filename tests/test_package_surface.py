"""The package surface: frames and notation load on first access.

The fresh-interpreter tests run in a subprocess, because this test process
has long since imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tensorcalc
from tensorcalc import cli, notation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = ("errors", "tensors", "frames", "metric", "fields", "curvilinear", "notation")
LAZY = ("tensorcalc.frames", "tensorcalc.notation")

SHEAR = {
    "name": "shear",
    "forward": [[{"coeff": 1.0, "powers": [1, 0, 0]}, {"coeff": 0.5, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [0, 0, 1]}]],
    "inverse": [[{"coeff": 1.0, "powers": [1, 0, 0]}, {"coeff": -0.5, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [0, 0, 1]}]],
    "bounds": {"min": [-2, -2, -2], "max": [2, 2, 2]},
}
SQUARED_RADIUS = {"r": 0, "s": 0, "components": [[
    {"coeff": 1.0, "powers": [2, 0, 0]}, {"coeff": 1.0, "powers": [0, 2, 0]},
    {"coeff": 1.0, "powers": [0, 0, 2]}]]}


def fresh(script: str, *args: str) -> str:
    """stdout of ``script`` run in a fresh interpreter that imports from src."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_chart_commands_load_neither_frames_nor_notation(tmp_path):
    chart = tmp_path / "shear.json"
    chart.write_text(json.dumps(SHEAR))
    field = tmp_path / "field.json"
    field.write_text(json.dumps(SQUARED_RADIUS))
    out = fresh("""
        import contextlib, io, json, sys
        from tensorcalc import cli
        codes = []
        for chart in (["--chart", "spherical"], ["--chart-file", sys.argv[1]]):
            for argv in (["christoffel", *chart, "--point", "0.5,0.5,0.5"],
                         ["field-op", "laplace", *chart, "--field", sys.argv[2],
                          "--point", "0.5,0.5,0.5"],
                         ["audit", *chart, "--points", "5"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli.main(argv))
        print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("tensorcalc"))]))
        """, str(chart), str(field))
    codes, loaded = json.loads(out)
    assert codes == [0] * 6
    assert "tensorcalc.cli" in loaded and "tensorcalc.curvilinear" in loaded
    assert not set(LAZY) & set(loaded)


def test_check_and_eval_load_notation_when_they_run(tmp_path):
    bindings = tmp_path / "b.json"
    bindings.write_text(json.dumps({"c": {"r": 0, "s": 0, "dim": 3, "components": 2.5}}))
    out = fresh("""
        import contextlib, io, json, sys
        from tensorcalc import cli
        before = "tensorcalc.notation" in sys.modules
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes = [cli.main(["check", "y^i = F^i_j x^j"]),
                     cli.main(["eval", "d = c", "--bindings", sys.argv[1]])]
        print(json.dumps([before, codes, buf.getvalue()]))
        """, str(bindings))
    before, codes, text = json.loads(out)
    assert (before, codes) == (False, [0, 0])
    assert text == ('{\n  "verdict": "valid",\n  "violations": []\n}\n'
                    '{\n  "components": [\n    2.5\n  ],\n  "dim": 3,\n  "r": 0,\n  "s": 0\n}\n')


def test_bare_import_resolves_every_public_name():
    out = fresh("""
        import json, sys
        import tensorcalc
        loaded = [m in sys.modules for m in ("tensorcalc.frames", "tensorcalc.notation")]
        resolved = [tensorcalc.notation.parse.__name__, tensorcalc.frames.Basis.__name__]
        names = [name for name in tensorcalc.__all__ if getattr(tensorcalc, name) is None]
        print(json.dumps([loaded, resolved, names]))
        """)
    assert json.loads(out) == [[False, False], ["parse", "Basis"], []]


def test_every_public_name_is_its_module_object():
    modules = [importlib.import_module(f"tensorcalc.{name}") for name in MODULES]
    for name in tensorcalc.__all__:
        value = getattr(tensorcalc, name)
        if name == "zeros":
            assert value == tensorcalc.DenseTensor.zeros
            continue
        homes = [vars(module)[name] for module in modules if name in vars(module)]
        assert homes and all(value is home for home in homes), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from tensorcalc import *", namespace)
    assert set(tensorcalc.__all__) <= namespace.keys()
    listed = dir(tensorcalc)
    assert set(tensorcalc.__all__) | {"frames", "notation"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'tensorcalc' has no attribute 'x'$"):
        tensorcalc.x


def test_lazy_names_are_looked_up_on_every_access(monkeypatch):
    # a tracer wraps module functions and restores them; the package must
    # neither keep the wrapper nor a stale original
    original = notation.parse
    tensorcalc.parse
    assert "parse" not in vars(tensorcalc)

    def wrapped(text):
        return original(text)

    monkeypatch.setattr(notation, "parse", wrapped)
    assert tensorcalc.parse is wrapped
    monkeypatch.undo()
    assert tensorcalc.parse is original



def test_python_dash_m_runs_the_cli(capsys):
    argv = ["check", "c = x^j y_j"]
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-m", "tensorcalc", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code = cli.main(argv)
    assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)


REPRS = {
    "Chart('spherical')": lambda: tensorcalc.builtin_chart("spherical"),
    "ChristoffelArray(point=[1.0, 0.5, 2.0])":
        lambda: tensorcalc.ChristoffelArray(np.zeros((3, 3, 3)), [1.0, 0.5, 2.0]),
    "DifferentiationScheme(order=4, step=0.01)":
        lambda: tensorcalc.DifferentiationScheme(4, 0.01),
    "TensorField(r=1, s=2, dim=2)": lambda: tensorcalc.TensorField((1, 2), abs, 2),
    "TensorField(r=0, s=0, dim=3, t)":
        lambda: tensorcalc.TensorField.scalar(max, has_parameter=True),
    "Basis(dim=2)": lambda: tensorcalc.Basis.standard(2),
    "CartesianSystem(dim=3, origin=[1.0, 0.0, -2.5])":
        lambda: tensorcalc.CartesianSystem(tensorcalc.Basis.standard(), [1.0, 0.0, -2.5]),
    "Metric(dim=4)": lambda: tensorcalc.Metric.euclidean(4),
    "DenseTensor(r=2, s=1, dim=3)": lambda: tensorcalc.DenseTensor.zeros((2, 1), 3),
    "TransitionPair(dim=2)": lambda: tensorcalc.TransitionPair(np.eye(2), np.eye(2)),
}


@pytest.mark.parametrize("text", REPRS)
def test_repr_names_the_class_and_its_shape(text):
    assert repr(REPRS[text]()) == text
