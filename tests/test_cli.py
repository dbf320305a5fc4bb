"""Command-line surface: subcommands, exit codes, output formats."""

import argparse
import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc import DenseTensor, ParameterError, ShapeError, curvilinear, load_chart
from tensorcalc import cli
from tensorcalc import errors as tc_errors
from tensorcalc.cli import _csv, main
from tensorcalc.fields import _row_texts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SHEAR_CONFIG = {
    "name": "shear",
    "forward": [
        [{"coeff": 1.0, "powers": [1, 0, 0]},
         {"coeff": 0.5, "powers": [0, 1, 0]}],
        [{"coeff": 1.0, "powers": [0, 1, 0]}],
        [{"coeff": 1.0, "powers": [0, 0, 1]}],
    ],
    "inverse": [
        [{"coeff": 1.0, "powers": [1, 0, 0]},
         {"coeff": -0.5, "powers": [0, 1, 0]}],
        [{"coeff": 1.0, "powers": [0, 1, 0]}],
        [{"coeff": 1.0, "powers": [0, 0, 1]}],
    ],
    "bounds": {"min": [-2, -2, -2], "max": [2, 2, 2]},
}


class TestCheck:
    def test_valid_expression_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "y^i = F^i_j x^j")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "valid"
        assert report["violations"] == []

    def test_invalid_expression_exits_one_with_rule(self, capsys):
        code, out, _ = run(capsys, "check", "c = x^i y^i")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "invalid"
        rules = {v["rule"] for v in report["violations"]}
        assert rules == {"5.2"}
        v = report["violations"][0]
        assert {"rule", "index", "start", "end", "message"} <= set(v)

    def test_level_mismatch_reported(self, capsys):
        code, out, _ = run(capsys, "check", "x^i = a^i + b_i")
        assert code == 1
        assert {v["rule"] for v in json.loads(out)["violations"]} == {"5.1"}

    def test_parse_error_exits_two(self, capsys):
        code, out, _ = run(capsys, "check", "y^i ==")
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "parse-error"
        assert isinstance(report["position"], int)

    def test_explicit_rendering_flag(self, capsys):
        code, out, _ = run(capsys, "check", "y^i = F^i_j x^j", "--explicit")
        assert code == 0
        assert "sum_{j=1..3}" in out


class TestEval:
    def test_operator_application(self, capsys, tmp_path):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps({
            "F": {"r": 1, "s": 1, "dim": 3,
                  "components": [1, 0, 0, 0, 2, 0, 0, 0, 3]},
            "x": {"r": 1, "s": 0, "dim": 3, "components": [1, 1, 1]},
        }))
        code, out, _ = run(capsys, "eval", "y^i = F^i_j x^j",
                           "--bindings", str(bindings))
        assert code == 0
        got = json.loads(out)
        assert got["r"] == 1 and got["s"] == 0
        assert got["components"] == [1.0, 2.0, 3.0]

    def test_pairing_value(self, capsys, tmp_path):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps({
            "a": {"r": 0, "s": 1, "dim": 3, "components": [1, 2, 3]},
            "x": {"r": 1, "s": 0, "dim": 3, "components": [4, 5, 6]},
        }))
        code, out, _ = run(capsys, "eval", "c = a_i x^i",
                           "--bindings", str(bindings))
        assert code == 0
        assert json.loads(out)["components"] == [32.0]

    def test_missing_binding_exits_three(self, capsys, tmp_path):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps({
            "x": {"r": 1, "s": 0, "dim": 3, "components": [1, 1, 1]},
        }))
        code, _, err = run(capsys, "eval", "y^i = F^i_j x^j",
                           "--bindings", str(bindings))
        assert code == 3
        assert "not bound" in err

    def test_invalid_expression_exits_three(self, capsys, tmp_path):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps({
            "x": {"r": 1, "s": 0, "dim": 3, "components": [1, 1, 1]},
            "y": {"r": 1, "s": 0, "dim": 3, "components": [1, 1, 1]},
        }))
        code, _, err = run(capsys, "eval", "c = x^i y^i",
                           "--bindings", str(bindings))
        assert code == 3

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bindings = tmp_path / "b.json"
        bindings.write_text("{}")
        code, _, err = run(capsys, "eval", "y^i = +",
                           "--bindings", str(bindings))
        assert code == 2

    def test_missing_bindings_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "c = 5",
                           "--bindings", str(tmp_path / "nope.json"))
        assert code == 2


class TestChristoffel:
    def test_cylindrical_grid_rows(self, capsys):
        code, out, _ = run(
            capsys, "christoffel", "--chart", "cylindrical",
            "--grid", "y1=1:2:2", "--grid", "y2=0:0:1", "--grid", "y3=0:0:1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y1,y2,y3,k,i,j,gamma"
        rows = [line.split(",") for line in lines[1:]]
        # radial entry of the angular-angular symbol: -r at r = 1 and 2
        assert ["1.0", "0.0", "0.0", "1", "2", "2", "-1.0"] in rows
        assert ["2.0", "0.0", "0.0", "1", "2", "2", "-2.0"] in rows
        assert ["2.0", "0.0", "0.0", "2", "1", "2", "0.5"] in rows

    def test_identity_chart_table_is_empty(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--chart", "identity",
                           "--point", "0.3,0.4,0.5")
        assert code == 0
        assert out.strip() == "y1,y2,y3,k,i,j,gamma"

    def test_singular_point_skipped_with_warning(self, capsys):
        code, out, err = run(capsys, "christoffel", "--chart", "spherical",
                             "--point", "1,0,0.3", "--point", "1,1.2,0.3")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(not line.startswith("1.0,0.0") for line in lines[1:])
        assert "skip" in err.lower() or "domain" in err.lower()
        # the regular point still contributes rows
        assert len(lines) > 1

    def test_all_points_outside_domain_exits_four(self, capsys):
        code, out, err = run(capsys, "christoffel", "--chart", "spherical",
                             "--point", "0,1,1", "--point", "1,0,0.3")
        assert code == 4
        assert out == ""
        assert err.splitlines() == [
            "warning: skipping [0.0, 1.0, 1.0]: point [0.0, 1.0, 1.0] outside "
            "domain of chart 'spherical'",
            "warning: skipping [1.0, 0.0, 0.3]: point [1.0, 0.0, 0.3] outside "
            "domain of chart 'spherical'",
            "error: every sample point failed",
        ]

    @pytest.mark.parametrize("chart, point, text", [
        ("spherical", "1,5e-324,0", "[1.0, 5e-324, 0.0]"),
        ("cylindrical", "5e-324,1,0", "[5e-324, 1.0, 0.0]"),
    ], ids=["spherical", "cylindrical"])
    def test_domain_edge_point_is_skipped_without_a_numpy_warning(
            self, capsys, chart, point, text):
        # the inverse Jacobian overflows in a division there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "christoffel", "--chart", chart, "--point", point)
        assert (code, out) == (4, "")
        assert err == (f"warning: skipping {text}: Jacobi matrices of chart {chart!r} at "
                       f"{text} are not mutually inverse (residual nan)\n"
                       "error: every sample point failed\n")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--chart", "cylindrical",
                           "--point", "2,0,0", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {"y": [2.0, 0.0, 0.0], "k": 1, "i": 2, "j": 2,
                "gamma": -2.0} in rows

    def test_unknown_chart_exits_two(self, capsys):
        code, _, err = run(capsys, "christoffel", "--chart", "nope",
                           "--point", "1,1,1")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "christoffel", "--chart", "cylindrical",
                           "--point", "2,0,0", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("y1,y2,y3,k,i,j,gamma")


class TestFieldOp:
    def write_field(self, tmp_path, spec, name="field.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    def test_laplacian_of_squared_radius_on_spherical_grid(
            self, capsys, tmp_path):
        field = self.write_field(tmp_path, {
            "r": 0, "s": 0,
            "components": [[{"coeff": 1.0, "powers": [2, 0, 0]}]],
        })
        code, out, _ = run(
            capsys, "field-op", "laplace", "--chart", "spherical",
            "--field", field,
            "--grid", "y1=0.7:2.5:3", "--grid", "y2=0.6:2.2:3",
            "--grid", "y3=-1:1:3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2,x3,component-path,value"
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert len(values) == 27
        assert all(abs(v - 6.0) < 1e-4 for v in values)

    def test_divergence_of_constant_field_is_zero(self, capsys, tmp_path):
        field = self.write_field(tmp_path, {
            "r": 1, "s": 0,
            "components": [
                [{"coeff": 2.0, "powers": [0, 0, 0]}],
                [{"coeff": -1.0, "powers": [0, 0, 0]}],
                [{"coeff": 0.5, "powers": [0, 0, 0]}],
            ],
        })
        code, out, _ = run(capsys, "field-op", "div", "--chart", "identity",
                           "--field", field, "--point", "0.3,0.1,-0.7")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[-1])
        assert abs(value) < 1e-9

    def test_rotation_field_curl(self, capsys, tmp_path):
        field = self.write_field(tmp_path, {
            "r": 1, "s": 0,
            "components": [
                [{"coeff": -1.0, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [1, 0, 0]}],
                [],
            ],
        })
        code, out, _ = run(capsys, "field-op", "rot", "--chart", "identity",
                           "--field", field, "--point", "0.3,0.7,0.2")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        got = {line.split(",")[3]: float(line.split(",")[4])
               for line in lines}
        assert abs(got["^1"]) < 1e-6
        assert abs(got["^2"]) < 1e-6
        assert abs(got["^3"] - 2.0) < 1e-6

    def test_gradient_json_output(self, capsys, tmp_path):
        field = self.write_field(tmp_path, {
            "r": 0, "s": 0,
            "components": [[{"coeff": 1.0, "powers": [1, 1, 0]}]],
        })
        code, out, _ = run(capsys, "field-op", "grad", "--chart", "identity",
                           "--field", field, "--point", "2,5,1",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["point"] == [2.0, 5.0, 1.0]
        assert np.allclose(rows[0]["tensor"]["components"], [5.0, 2.0, 0.0],
                           atol=1e-6)

    def test_all_points_outside_domain_exits_four(self, capsys, tmp_path):
        field = self.write_field(tmp_path, {
            "r": 0, "s": 0,
            "components": [[{"coeff": 1.0, "powers": [2, 0, 0]}]],
        })
        code, _, err = run(capsys, "field-op", "laplace", "--chart",
                           "spherical", "--field", field,
                           "--point", "1,0,0", "--point", "2,0,1")
        assert code == 4

    def test_some_points_outside_domain_are_skipped(self, capsys, tmp_path):
        field = self.write_field(tmp_path, {
            "r": 0, "s": 0,
            "components": [[{"coeff": 1.0, "powers": [2, 0, 0]}]],
        })
        code, out, err = run(capsys, "field-op", "laplace", "--chart",
                             "spherical", "--field", field,
                             "--point", "1,0,0", "--point", "1,1.3,0.4")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_missing_grid_axis_exits_two(self, capsys, tmp_path):
        field = self.write_field(tmp_path, {
            "r": 0, "s": 0,
            "components": [[{"coeff": 1.0, "powers": [2, 0, 0]}]],
        })
        code, _, err = run(capsys, "field-op", "laplace", "--chart",
                           "identity", "--field", field,
                           "--grid", "y1=0:1:2")
        assert code == 2


class TestAudit:
    def test_builtin_charts_pass(self, capsys):
        for chart in ("cylindrical", "spherical"):
            code, out, _ = run(capsys, "audit", "--chart", chart,
                               "--points", "25")
            assert code == 0
            assert "verdict: PASS" in out
            assert "concordance" in out

    def test_custom_chart_passes(self, capsys, tmp_path):
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(SHEAR_CONFIG))
        code, out, _ = run(capsys, "audit", "--chart-file", str(path),
                           "--points", "20")
        assert code == 0
        assert "verdict: PASS" in out

    def test_exact_chart_far_from_the_origin_passes(self, capsys, tmp_path):
        # the round trip is |inverse(forward(y)) - y| / max(1, |y|): an
        # absolute residual of 1e291 at |y| ~ 1e307 is rounding
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(dict(SHEAR_CONFIG, bounds={"min": [-1e308] * 3,
                                                              "max": [1e308] * 3})))
        code, out, _ = run(capsys, "audit", "--chart-file", str(path), "--points", "20")
        assert code == 0
        assert out.splitlines()[1] == ("inverse-roundtrip: max residual "
                                       "1.3671750224021017e-16 (tolerance 1e-09) ok")

    def test_broken_inverse_exits_five(self, capsys, tmp_path):
        config = json.loads(json.dumps(SHEAR_CONFIG))
        config["name"] = "broken"
        config["inverse"][0] = [{"coeff": 1.0, "powers": [1, 0, 0]}]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "audit", "--chart-file", str(path),
                           "--points", "20")
        assert code == 5
        assert "verdict: FAIL" in out

    def test_grad_on_a_broken_inverse_exits_four(self, capsys, tmp_path):
        # grad raises an index with T T^T, so it checks T against S first
        config = json.loads(json.dumps(SHEAR_CONFIG))
        config["name"] = "broken"
        config["inverse"][0] = [{"coeff": 1.0, "powers": [1, 0, 0]}]
        chart = tmp_path / "broken.json"
        chart.write_text(json.dumps(config))
        field = _field_arg(tmp_path, {"r": 0, "s": 0,
                                      "components": [[{"coeff": 1.0, "powers": [2, 1, 0]}]]})
        code, out, err = run(capsys, "field-op", "grad", "--chart-file", str(chart),
                             "--field", field, "--point", "0.5,0.5,0.5")
        assert (code, out) == (4, "")
        assert err == ("warning: skipping [0.5, 0.5, 0.5]: Jacobi matrices of chart 'broken' "
                       "at [0.5, 0.5, 0.5] are not mutually inverse (residual 0.5)\n"
                       "error: every sample point failed\n")

    def test_seed_controls_sampling(self, capsys):
        _, out_a, _ = run(capsys, "audit", "--chart", "spherical",
                          "--points", "10", "--seed", "7")
        _, out_b, _ = run(capsys, "audit", "--chart", "spherical",
                          "--points", "10", "--seed", "7")
        _, out_c, _ = run(capsys, "audit", "--chart", "spherical",
                          "--points", "10", "--seed", "8")
        assert out_a == out_b
        assert out_a != out_c


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        field = tmp_path / "f.json"
        field.write_text(json.dumps({
            "r": 0, "s": 0,
            "components": [[{"coeff": 1.0, "powers": [2, 1, 0]}]],
        }))
        argv = ["field-op", "grad", "--chart", "cylindrical",
                "--field", str(field),
                "--grid", "y1=0.5:2:3", "--grid", "y2=-1:1:4",
                "--grid", "y3=0:1:2"]
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert out_a == out_b

    def test_floats_round_trip_through_text(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--chart", "spherical",
                           "--point", "1.7,0.9,2.1")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            value = line.split(",")[-1]
            assert repr(float(value)) == value

    def test_usage_error_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2


def _csv_oracle(header, points, table, keep, labels):
    """The CSV writer before its repr memo: one repr per printed float."""
    prefixes = [f"{a!r},{b!r},{c!r}," for a, b, c in points.tolist()]
    rows, cols = np.nonzero(keep)
    lines = [header]
    lines += [f"{prefixes[n]}{labels[c]}{value!r}"
              for n, c, value in zip(rows.tolist(), cols.tolist(),
                                     table[rows, cols].tolist())]
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0, 2.0, 1e16, -3.0,
                0.1, float("inf"), float("-inf"), float("nan")]


@st.composite
def _csv_inputs(draw):
    """A table drawn from a small pool of values, so most values repeat."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                                   st.floats(),
                                   st.floats(-1e-307, 1e-307),
                                   st.integers(-10**6, 10**6).map(float)),
                         min_size=1, max_size=6))
    n = draw(st.integers(0, 12))
    cols = draw(st.integers(1, 4))
    values = np.array(pool)

    def pick(width):
        picks = draw(st.lists(st.integers(0, len(pool) - 1),
                              min_size=n * width, max_size=n * width))
        return values[picks].reshape(n, width)

    points, table = pick(3), pick(cols)
    keep = np.array(draw(st.lists(st.booleans(), min_size=n * cols,
                                  max_size=n * cols)), dtype=bool).reshape(n, cols)
    if n:
        keep[draw(st.integers(0, n - 1))] = False  # at least one empty row
    return points, table, keep, [f"c{c}," for c in range(cols)]


class TestCsvFormatter:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_csv_inputs())
    def test_matches_one_repr_per_float(self, inputs):
        points, table, keep, labels = inputs
        assert (_csv("h", points, table, keep, labels)
                == _csv_oracle("h", points, table, keep, labels))

    def test_signed_zero_coordinates_keep_their_sign(self, capsys, tmp_path):
        field = tmp_path / "f.json"
        field.write_text(json.dumps({
            "r": 0, "s": 0,
            "components": [[{"coeff": 1.0, "powers": [1, 1, 1]}]],
        }))
        code, out, _ = run(capsys, "field-op", "grad", "--chart", "identity",
                           "--field", str(field),
                           "--point=-0.0,1,1", "--point", "0.0,1,1")
        assert code == 0
        prefixes = [line.rsplit(",", 2)[0] for line in out.splitlines()[1:]]
        assert prefixes == ["-0.0,1.0,1.0"] * 3 + ["0.0,1.0,1.0"] * 3


def _csv_per_row(header, points, table, keep, labels):
    """One f-string per printed row, straight from the CSV layout."""
    lines = [header]
    values = table.tolist()
    for n, (x, y, z) in enumerate(points.tolist()):
        for c, label in enumerate(labels):
            if keep[n, c]:
                lines.append(f"{x!r},{y!r},{z!r},{label}{values[n][c]!r}")
    return "\n".join(lines) + "\n"


# repr switches to exponent notation at 1e16 and below 1e-4
_SWITCH_FLOATS = [1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
                  1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
                  -1e16, -1e-4, 9999999999999998.0, 0.00011]
_SPECIAL_FLOATS = [0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324,
                   1e-310, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
                   float("nan"), -float("nan")]


@st.composite
def _csv_tables(draw):
    """A table and keep mask over a small pool of values, so values repeat."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_SWITCH_FLOATS + _SPECIAL_FLOATS),
                                   st.floats(allow_nan=False)),
                         min_size=1, max_size=8))
    if draw(st.booleans()):  # both signs of each value, zeros included
        pool += [-v for v in pool]
    n = draw(st.one_of(st.just(1), st.integers(0, 8)))
    width = draw(st.integers(1, 5))
    values = np.array(pool, dtype=float)

    def pick(cols):
        return values[draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * cols,
                                    max_size=n * cols))].reshape(n, cols)

    points, table = pick(3), pick(width)
    mask = draw(st.sampled_from(["empty", "full", "partial"]))
    if mask == "partial":
        keep = np.array(draw(st.lists(st.booleans(), min_size=n * width,
                                      max_size=n * width)), dtype=bool).reshape(n, width)
    else:
        keep = np.full((n, width), mask == "full")
    labels = draw(st.lists(st.sampled_from(["^1,", "_2.3,", "1,2,3,", "scalar,", ""]),
                           min_size=width, max_size=width))
    return points, table, keep, labels


class TestCsvRows:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_csv_tables())
    def test_matches_a_per_row_reference(self, inputs):
        points, table, keep, labels = inputs
        assert (_csv("x1,x2,x3,c,v", points, table, keep, labels)
                == _csv_per_row("x1,x2,x3,c,v", points, table, keep, labels))

    @settings(max_examples=150, deadline=None)
    @given(inputs=_csv_tables())
    def test_lines_of_a_point_do_not_depend_on_the_other_points(self, inputs):
        points, table, keep, labels = inputs
        lines = _csv("h", points, table, keep, labels).splitlines()[1:]
        start = 0
        for n in range(len(points)):
            alone = _csv("h", points[n:n + 1], table[n:n + 1], keep[n:n + 1],
                         labels).splitlines()[1:]
            assert lines[start:start + len(alone)] == alone
            start += len(alone)
        assert start == len(lines)

    @settings(max_examples=100, deadline=None)
    @given(inputs=_csv_tables())
    def test_row_texts_match_the_list_form_of_a_point(self, inputs):
        points = inputs[0]
        assert _row_texts(points) == [str(row) for row in points.tolist()]


@st.composite
def _edge_grids(draw):
    """A spherical or cylindrical grid of at most 5^3 points whose axes may
    reach the domain edge: r = 0 and, on the sphere, the poles."""
    name = draw(st.sampled_from(["spherical", "cylindrical"]))
    counts = st.integers(1, 5)
    radial = (draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
              draw(st.floats(0.5, 3.0)), draw(counts))
    if name == "spherical":
        polar = (draw(st.one_of(st.just(0.0), st.floats(0.0, math.pi))),
                 draw(st.one_of(st.just(math.pi), st.floats(0.0, math.pi))), draw(counts))
        third = (draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi)),
                 draw(counts))
    else:
        polar = (draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi)),
                 draw(counts))
        third = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)), draw(counts))
    return name, (radial, polar, third)


def _christoffel_per_row(name, axes):
    """The christoffel CSV one row at a time from ChartPoints, and the state."""
    mesh = np.meshgrid(*[np.linspace(*axis) for axis in axes], indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    state = curvilinear.ChartPoints(curvilinear.builtin_chart(name), points,
                                    christoffel=True)
    lines = ["y1,y2,y3,k,i,j,gamma"]
    for (a, b, c), gamma in zip(state.points.tolist(), state.gamma.tolist()):
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    value = gamma[k][i][j]
                    if abs(value) > 1e-12:
                        lines.append(f"{a!r},{b!r},{c!r},{k + 1},{i + 1},{j + 1},{value!r}")
    return "\n".join(lines) + "\n", state


class TestChristoffelGridEdges:
    @settings(max_examples=25, deadline=None)
    @given(grid=_edge_grids())
    def test_grid_table_matches_a_per_row_oracle(self, grid):
        name, axes = grid
        specs = []
        for axis, (lo, hi, count) in enumerate(axes, start=1):
            specs += ["--grid", f"y{axis}={lo!r}:{hi!r}:{count}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["christoffel", "--chart", name, *specs])
        out, err = out.getvalue(), err.getvalue()
        expected, state = _christoffel_per_row(name, axes)
        assert err.count("warning: skipping") == len(state.failures)
        if len(state.index):
            assert (code, out) == (0, expected)
        else:
            assert (code, out) == (4, "")


class TestNonFiniteFieldValues:
    OVERFLOWING = {"r": 0, "s": 0,
                   "components": [[{"coeff": 1e308, "powers": [3, 0, 0]}]]}

    def test_overflowing_point_is_skipped(self, capsys, tmp_path):
        field = tmp_path / "f.json"
        field.write_text(json.dumps(self.OVERFLOWING))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning
            code, out, err = run(capsys, "field-op", "grad", "--chart",
                                 "identity", "--field", str(field),
                                 "--point", "10,0,0", "--point", "0.5,0,0")
        assert code == 0
        assert err == ("warning: skipping [10.0, 0.0, 0.0]: "
                       "tensor components must all be finite\n")
        lines = out.splitlines()
        assert [line.split(",")[:4] for line in lines[1:]] == [
            ["0.5", "0.0", "0.0", path] for path in ("^1", "^2", "^3")]
        assert float(lines[1].split(",")[4]) == pytest.approx(7.5e307, rel=1e-6)

    def test_every_point_overflowing_exits_four(self, capsys, tmp_path):
        field = tmp_path / "f.json"
        field.write_text(json.dumps(self.OVERFLOWING))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "field-op", "grad", "--chart",
                                 "identity", "--field", str(field),
                                 "--point", "10,0,0")
        assert code == 4
        assert out == ""
        assert err.splitlines() == [
            "warning: skipping [10.0, 0.0, 0.0]: "
            "tensor components must all be finite",
            "error: every sample point failed"]


class TestMalformedTensorRecord:
    @pytest.mark.parametrize("components, message", [
        ([1, 2, "x"], "malformed tensor record: could not convert string to float: 'x'"),
        ({"a": 1}, "malformed tensor record: float() argument must be"),
        (None, "malformed tensor record: components is null"),
    ], ids=["string", "object", "null-is-malformed"])
    def test_eval_exits_three_with_an_error_line(self, capsys, tmp_path,
                                                 components, message):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps({
            "A": {"r": 1, "s": 0, "dim": 3, "components": components}}))
        code, out, err = run(capsys, "eval", "y^i = A^i",
                             "--bindings", str(bindings))
        assert code == 3
        assert out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1


    @pytest.mark.parametrize("r", [0, 1])
    def test_null_components_are_a_malformed_record(self, r):
        # np.asarray(None, dtype=float) is a NaN scalar; null must not reach it
        with pytest.raises(ShapeError, match="^malformed tensor record: components is null$"):
            DenseTensor.from_dict({"r": r, "s": 0, "dim": 3, "components": None})

    def test_eval_of_a_null_scalar_record_exits_three(self, capsys, tmp_path):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps({
            "c": {"r": 0, "s": 0, "dim": 3, "components": None}}))
        code, out, err = run(capsys, "eval", "y = c", "--bindings", str(bindings))
        assert code == 3
        assert out == ""
        assert err == "error: malformed tensor record: components is null\n"


class TestEvalBindingsShape:
    def test_bindings_file_holding_a_list_exits_three(self, capsys, tmp_path):
        bindings = tmp_path / "b.json"
        bindings.write_text("[1, 2]")
        code, out, err = run(capsys, "eval", "y = c", "--bindings", str(bindings))
        assert code == 3
        assert out == ""
        assert err == "error: bindings file must hold a JSON object\n"


# (case, bad term list, words the error line must contain)
MALFORMED_TERMS = [
    ("trig-not-object",
     [{"coeff": 1.0, "powers": [1, 0, 0]},
      {"coeff": 1.0, "trig": ["sin", None, None]}],
     ["term 1", "trig entries must be null or objects"]),
    ("coeff-not-numeric",
     [{"coeff": "one", "powers": [1, 0, 0]}],
     ["term 0", "coeff must be a finite number"]),
    ("freq-not-numeric",
     [{"coeff": 1.0, "powers": [1, 0, 0]},
      {"coeff": 0.5, "trig": [None, {"fn": "sin", "freq": [2]}, None]}],
     ["term 1", "trig freq must be a finite number"]),
    ("terms-not-a-list", 5, ["expected a term list"]),
    ("fractional-power",
     [{"coeff": 1.0, "powers": [1.5, 0, 0]}],
     ["term 0", "powers must be three counts"]),
    ("no-coeff",
     [{"coeff": 1.0, "powers": [1, 0, 0]}, {"powers": [0, 1, 0]}],
     ["term 1", "needs a 'coeff'"]),
    ("trig-two-entries",
     [{"coeff": 1.0, "trig": [None, {"fn": "sin"}]}],
     ["term 0", "trig must have three entries"]),
    ("trig-fn-tan",
     [{"coeff": 1.0, "trig": [{"fn": "tan", "freq": 1.0}, None, None]}],
     ["term 0", "trig fn must be sin or cos"]),
]


class TestMalformedTables:
    """A malformed coefficient table is a ParameterError naming the map,
    the component and the term: an error line and exit 2."""

    @pytest.mark.parametrize("terms, words", [case[1:] for case in MALFORMED_TERMS],
                             ids=[case[0] for case in MALFORMED_TERMS])
    def test_chart_file(self, capsys, tmp_path, terms, words):
        config = json.loads(json.dumps(SHEAR_CONFIG))
        config["forward"][0] = terms
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "christoffel", "--chart-file", str(path),
                             "--point", "0.5,0.5,0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: chart 'shear' forward[0]: ")
        assert err.count("\n") == 1
        assert all(word in err for word in words)

    @pytest.mark.parametrize("terms, words", [case[1:] for case in MALFORMED_TERMS],
                             ids=[case[0] for case in MALFORMED_TERMS])
    def test_field(self, capsys, tmp_path, terms, words):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"r": 1, "s": 0, "components": [
            [{"coeff": 1.0, "powers": [1, 0, 0]}], terms, []]}))
        code, out, err = run(capsys, "field-op", "div", "--chart", "identity",
                             "--field", str(path), "--point", "0.5,0.5,0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: field component 1: ")
        assert err.count("\n") == 1
        assert all(word in err for word in words)


class TestNegativePoints:
    """A --point whose first coordinate is negative is a point, not an option."""

    def test_christoffel_accepts_a_negative_first_coordinate(self, capsys):
        spaced = run(capsys, "christoffel", "--chart", "cylindrical",
                     "--point", "-1.5,0.2,0.3")
        attached = run(capsys, "christoffel", "--chart", "cylindrical",
                       "--point=-1.5,0.2,0.3")
        assert spaced == attached
        code, out, err = spaced
        assert code == 4
        assert err.startswith("warning: skipping [-1.5, 0.2, 0.3]: point [-1.5, 0.2, 0.3]")

    def test_field_op_accepts_negative_points(self, capsys, tmp_path):
        field = tmp_path / "f.json"
        field.write_text(json.dumps({"r": 0, "s": 0, "components": [
            [{"coeff": 1.0, "powers": [2, 1, 0]}]]}))
        code, out, err = run(capsys, "field-op", "grad", "--chart", "identity",
                             "--field", str(field), "--point", "-1.5,0.2,0.3",
                             "--point", "-2,-1,-0.5")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[:3] for row in rows[::3]] == [["-1.5", "0.2", "0.3"],
                                                  ["-2.0", "-1.0", "-0.5"]]

    @pytest.mark.parametrize("argv, message", [
        (["--point"], "argument --point: expected one argument"),
        (["--point", "-h"], "argument --point: expected one argument"),
        (["--point", "--grid", "1=0:1:2"], "argument --point: expected one argument"),
        (["--point", "-1.5,0.2"], "bad point '-1.5,0.2'; expected three numbers"),
        (["--point", "-1.5,a,0"], "argument --point: expected one argument"),
    ])
    def test_other_point_errors_stay_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "christoffel", "--chart", "identity", *argv)
        assert code == 2
        assert out == ""
        assert message in err


class TestErrorExitCodes:
    """An error that reaches main exits with the code of its class."""

    @pytest.mark.parametrize("error, code", [
        (tc_errors.DomainError, 4),
        (tc_errors.DegenerateTransition, 4),
        (tc_errors.DegenerateMetric, 4),
        (tc_errors.BindingError, 3),
        (tc_errors.ParameterError, 2),
        (tc_errors.ShapeError, 2),
        (tc_errors.TensorCalcError, 2),
    ])
    def test_exit_code_per_error_class(self, capsys, monkeypatch, error, code):
        def fail(ns):
            raise error("injected failure")

        monkeypatch.setattr(cli, "_chart", fail)
        got = run(capsys, "christoffel", "--chart", "spherical", "--point", "1,1,1")
        assert got == (code, "", "error: injected failure\n")


class TestChartConfigErrors:
    """Malformed chart configs beyond a single term: a ParameterError that
    names where the config is wrong."""

    @pytest.mark.parametrize("key, value, message", [
        ("forward", SHEAR_CONFIG["forward"][:2],
         "chart 'shear' forward: expected three component term lists"),
        ("bounds", {"min": [-2, 2, -2], "max": [2, 2, 2]},
         "chart 'shear' bounds: axis 2 min 2.0 is not below max 2.0"),
        ("bounds", {"min": [-2, -2], "max": [2, 2, 2]},
         "chart 'shear' bounds: min needs three entries, got [-2, -2]"),
        ("bounds", [[-2, -2, -2], [2, 2, 2]],
         "chart 'shear' bounds: expected an object with 'min' and 'max' lists, "
         "got [[-2, -2, -2], [2, 2, 2]]"),
        ("bounds", {"min": [-2, -2, -2], "max": [2, 2, "2"]},
         "chart 'shear' bounds: axis 3 max must be a finite number or null, got '2'"),
    ], ids=["map-with-two-components", "bounds-min-not-below-max", "bounds-min-of-two",
            "bounds-not-an-object", "bounds-max-not-a-number"])
    def test_config_error_names_where(self, key, value, message):
        with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
            load_chart({**SHEAR_CONFIG, key: value})


class TestJsonText:
    """Both table loaders take a JSON text as well as a dict or a path."""

    def test_load_chart_accepts_a_json_text(self):
        chart = load_chart(json.dumps(SHEAR_CONFIG))
        assert np.array_equal(chart.jac_forward(np.array([0.5, 0.5, 0.5])),
                              load_chart(SHEAR_CONFIG).jac_forward(np.array([0.5, 0.5, 0.5])))

    def test_load_field_accepts_a_json_text(self):
        spec = {"r": 0, "s": 0, "components": [[{"coeff": 2.0, "powers": [1, 1, 0]}]]}
        field = curvilinear.load_field("  " + json.dumps(spec))
        assert field.evaluate_array(np.array([1.5, 2.0, 0.0])) == 6.0
        assert cli.load_field is curvilinear.load_field


def _field_arg(tmp_path, spec):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    return str(path)


VECTOR_SPEC = {"r": 1, "s": 0, "components": [[{"coeff": 1.0, "powers": [1, 0, 0]}], [], []]}


class TestFieldSpecValency:
    """r and s are counts: an integral float passes; a bool, a string or a
    fraction is a malformed field spec (exit 2)."""

    @pytest.mark.parametrize("r, s", [
        (1.9, False), (True, 0), ("1", 0), (1, 0.5), (-1, 0), (None, 0), (math.inf, 0),
    ], ids=["fraction", "bool", "string", "fractional-s", "negative", "null", "infinite"])
    def test_non_count_valency_exits_two(self, capsys, tmp_path, r, s):
        field = _field_arg(tmp_path, {**VECTOR_SPEC, "r": r, "s": s})
        code, out, err = run(capsys, "field-op", "div", "--chart", "identity",
                             "--field", field, "--point", "0.5,0.5,0.5")
        assert (code, out) == (2, "")
        assert err == ("error: malformed field spec: r and s must be counts, "
                       f"got {r!r} and {s!r}\n")

    def test_integral_float_valency_loads(self, capsys, tmp_path):
        field = _field_arg(tmp_path, {**VECTOR_SPEC, "r": 1.0, "s": 0.0})
        code, out, err = run(capsys, "field-op", "div", "--chart", "identity",
                             "--field", field, "--point", "0.5,0.5,0.5")
        assert (code, out, err) == (0, "x1,x2,x3,component-path,value\n0.5,0.5,0.5,scalar,1.0\n", "")


class TestInputErrors:
    """Bad CLI input exits 2 with one specific error line and no output."""

    @pytest.mark.parametrize("argv, message", [
        (["christoffel", "--point", "1,1,1"], "no chart given; pass --chart or --chart-file"),
        (["christoffel", "--chart", "identity"], "no evaluation points; pass --point or --grid"),
        (["christoffel", "--chart", "identity", "--grid", "y1=0:1"],
         "bad grid spec 'y1=0:1'; expected axis=min:max:count"),
        (["christoffel", "--chart", "identity", "--grid", "y1=0:1:0"],
         "grid count must be at least 1, got 0"),
        (["christoffel", "--chart", "identity", "--grid", "y1=0:inf:2"],
         "grid range must be finite"),
        (["christoffel", "--chart", "identity", "--point", "1,a,0"],
         "bad point '1,a,0'; expected three numbers"),
    ], ids=["no-chart", "no-points", "bad-grid-spec", "grid-count-zero",
            "non-finite-grid", "non-numeric-point"])
    def test_sampling_and_chart_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec, extra, message", [
        ({"s": 0, "components": [[]]}, [], "malformed field spec: 'r'"),
        ({**VECTOR_SPEC, "components": [[], []]}, [],
         "field spec needs 3 component term lists for valency (1,0)"),
        (VECTOR_SPEC, ["--slot", "2"], "upper slot 2 out of range 1..1"),
    ], ids=["no-r", "wrong-component-count", "slot-beyond-upper-slots"])
    def test_field_errors(self, capsys, tmp_path, spec, extra, message):
        field = _field_arg(tmp_path, spec)
        got = run(capsys, "field-op", "div", "--chart", "identity", "--field", field,
                  "--point", "0.5,0.5,0.5", *extra)
        assert got == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("content, as_file", [
        ("[1, 2]", False), ("[1, 2]", True), ("5", True),
    ], ids=["list-text", "list-file", "number-file"])
    def test_field_spec_that_is_not_an_object(self, capsys, tmp_path, content, as_file):
        field = content
        if as_file:
            field = str(tmp_path / "field.json")
            (tmp_path / "field.json").write_text(content)
        got = run(capsys, "field-op", "div", "--chart", "identity", "--field", field,
                  "--point", "0.5,0.5,0.5")
        assert got == (2, "", f"error: field spec {field!r}: a field spec must be an "
                              "object with 'r', 's' and 'components'\n")


def test_divergence_of_a_mixed_field_prints_lower_slot_paths(capsys, tmp_path):
    # T^i_j = y_i on the diagonal and 1 off it: nabla_i T^i_j = 1 for every j
    components = [[{"coeff": 1.0, "powers": [int(i == 0), int(i == 1), int(i == 2)]}]
                  if i == j else [{"coeff": 1.0}] for i in range(3) for j in range(3)]
    field = _field_arg(tmp_path, {"r": 1, "s": 1, "components": components})
    code, out, err = run(capsys, "field-op", "div", "--chart", "identity",
                         "--field", field, "--point", "0.5,0.25,2")
    assert (code, err) == (0, "")
    assert out == ("x1,x2,x3,component-path,value\n"
                   "0.5,0.25,2.0,_1,1.0\n0.5,0.25,2.0,_2,1.0\n0.5,0.25,2.0,_3,1.0\n")


def test_divergence_of_a_two_upper_field_prints_mixed_paths(capsys, tmp_path):
    # T^ij_k = y_1 for every component: nabla_i T^ij_k = 1 for every j, k
    components = [[{"coeff": 1.0, "powers": [1, 0, 0]}]] * 27
    field = _field_arg(tmp_path, {"r": 2, "s": 1, "components": components})
    code, out, err = run(capsys, "field-op", "div", "--chart", "identity",
                         "--field", field, "--point", "0.5,0.25,2")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[3] for row in rows] == ["^1_1", "^1_2", "^1_3", "^2_1", "^2_2", "^2_3",
                                        "^3_1", "^3_2", "^3_3"]
    assert {row[4] for row in rows} == {"1.0"}


# argvs for main's dispatch; {bindings}, {field} and {dir} name files made in tmp_path
DISPATCH_ARGVS = [
    [],
    ["-h"],
    ["nope"],
    ["chris", "--chart", "identity", "--point", "1,1,1"],
    ["--", "check", "c = 5"],
    ["check", "-h"],
    ["eval", "-h"],
    ["christoffel", "-h"],
    ["field-op", "-h"],
    ["audit", "-h"],
    ["eval", "c = 5"],
    ["field-op", "grad", "--chart", "identity", "--point", "1,1,1"],
    ["christoffel", "--chart", "identity", "--point", "1,1,1", "--format", "xml"],
    ["field-op", "curl", "--chart", "identity", "--field", "{field}", "--point", "1,1,1"],
    ["christoffel", "--chart", "identity", "--point", "1,1,1", "--bogus"],
    ["christoffel", "--chart", "identity", "--point", "1,1,1", "-h", "--bogus"],
    ["check", "c = 5", "extra"],
    ["audit", "--chart", "spherical", "--points", "x"],
    ["christoffel", "--chart", "cylindrical", "--point", "-1.5,0,0"],
    ["christoffel", "--char", "spherical", "--point", "1,1,1"],
    ["check", "--explicit", "--", "y^i = F^i_j x^j"],
    ["check", "c = x^i y^i"],
    ["eval", "y^i = F^i_j x^j", "--bindings", "{bindings}"],
    ["eval", "c = 5", "--bindings", "{dir}"],
    ["christoffel", "--chart", "spherical", "--point", "1,0.5,0.5", "--format", "json"],
    ["field-op", "laplace", "--chart", "spherical", "--field", "{field}",
     "--grid", "y1=0.5:1:2", "--grid", "y2=0.5:1:2", "--grid", "y3=0:1:2"],
    ["audit", "--chart", "cylindrical", "--points", "5", "--seed", "3"],
]


class TestArgvDispatch:
    """main parses with the parser of the command argv[0] names, and gives
    the same exit code, stdout and stderr as parsing with the top-level
    parser alone."""

    @pytest.fixture
    def files(self, tmp_path):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps({
            "F": {"r": 1, "s": 1, "dim": 3, "components": [1, 0, 0, 0, 2, 0, 0, 0, 3]},
            "x": {"r": 1, "s": 0, "dim": 3, "components": [1, 1, 1]},
        }))
        field = tmp_path / "f.json"
        field.write_text(json.dumps({"r": 0, "s": 0, "components": [
            [{"coeff": 1.0, "powers": [2, 0, 0]}]]}))
        return {"bindings": str(bindings), "field": str(field), "dir": str(tmp_path)}

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=[" ".join(a) or "empty"
                                                          for a in DISPATCH_ARGVS])
    def test_same_result_as_the_top_level_parser(self, capsys, monkeypatch, files, argv):
        argv = [arg.format(**files) for arg in argv]
        parser = cli._build_parser()
        top_level = []
        monkeypatch.setattr(parser, "parse_args",
                            lambda args: top_level.append(args) or
                            argparse.ArgumentParser.parse_args(parser, args))
        dispatched = run(capsys, *argv)
        # the top-level parser runs only for a non-command or an unknown argument
        falls_back = (not argv or argv[0] not in parser.commands
                      or "unrecognized arguments" in dispatched[2])
        assert len(top_level) == falls_back
        monkeypatch.setattr(parser, "commands", {})  # every argv takes the top-level path
        assert dispatched == run(capsys, *argv)


class TestUnreadableInput:
    """Chart configs, field specs and bindings files are read by one rule: a
    text that starts with "{" or "[" is JSON, anything else a path, and a
    file that cannot be read or is not JSON exits 2 with an error that names
    the input."""

    def test_directories(self, capsys, tmp_path):
        d = str(tmp_path)
        assert run(capsys, "christoffel", "--chart-file", d, "--point", "1,1,1") == (
            2, "", f"error: chart config {d!r}: Is a directory\n")
        assert run(capsys, "field-op", "grad", "--chart", "identity", "--field", d,
                   "--point", "1,1,1") == (2, "", f"error: field spec {d!r}: Is a directory\n")
        assert run(capsys, "eval", "c = 5", "--bindings", d) == (
            2, "", f"error: bindings file {d!r}: Is a directory\n")

    def test_missing_file(self, capsys, tmp_path):
        path = str(tmp_path / "nope.json")
        assert run(capsys, "field-op", "grad", "--chart", "identity", "--field", path,
                   "--point", "1,1,1") == (
            2, "", f"error: field spec {path!r}: No such file or directory\n")

    @pytest.mark.parametrize("argv, what", [
        (["christoffel", "--chart-file", "{path}", "--point", "1,1,1"], "chart config"),
        (["field-op", "grad", "--chart", "identity", "--field", "{path}", "--point", "1,1,1"],
         "field spec"),
        (["eval", "c = 5", "--bindings", "{path}"], "bindings file"),
    ], ids=["chart", "field", "bindings"])
    def test_bytes_that_are_not_utf8(self, capsys, tmp_path, argv, what):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
        got = run(capsys, *[arg.format(path=path) for arg in argv])
        assert got == (2, "", f"error: {what} {str(path)!r}: 'utf-8' codec can't decode byte "
                              "0xe9 in position 13: invalid continuation byte\n")

    @pytest.mark.parametrize("ends", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_count_as_in_text_mode(self, capsys, tmp_path, ends):
        path = tmp_path / "chart.json"
        path.write_bytes(ends.join([b"{", b' "forward": 1', b' "inverse": 2', b"}"]))
        assert run(capsys, "christoffel", "--chart-file", str(path), "--point", "1,1,1") == (
            2, "", f"error: chart config {str(path)!r}: Expecting ',' delimiter: "
                   "line 3 column 2 (char 17)\n")

    def test_a_json_list_text_is_json(self, capsys):
        assert run(capsys, "christoffel", "--chart-file", "[1, 2]", "--point", "1,1,1") == (
            2, "", "error: chart config needs 'forward' and 'inverse' maps\n")
        assert run(capsys, "eval", "c = 5", "--bindings", " [1, 2]") == (
            3, "", "error: bindings file must hold a JSON object\n")

    def test_truncated_json_text(self, capsys):
        got = run(capsys, "christoffel", "--chart-file", '{"forward": 1', "--point", "1,1,1")
        assert got == (2, "", "error: chart config '{\"forward\": 1': Expecting ',' delimiter: "
                              "line 1 column 14 (char 13)\n")

    def test_json_syntax_error_in_a_file(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"c": ')
        assert run(capsys, "eval", "c = 5", "--bindings", str(path)) == (
            2, "", f"error: bindings file {str(path)!r}: Expecting value: "
                   "line 1 column 7 (char 6)\n")

    def test_output_to_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "christoffel", "--chart", "identity", "--point", "1,1,1",
                             "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
