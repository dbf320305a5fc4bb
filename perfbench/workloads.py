"""Seeded job generators for the three workloads, and the output checks.

A workload is a fixed cycle of jobs. Every cycle has the same composition
(commands, sizes, schemes, domain shares); the seed and the cycle number
only choose coordinates, coefficients and expressions. Fresh inputs are
drawn for every cycle, so nothing the program might cache repeats. Every
job carries its own reference from ``reference.py`` and a pinned tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np

import reference as ref

# Tolerances on |got - ref| <= tol * (1 + |ref|), pinned at 50-100x the worst
# error seen over many seeds. Analytic chart Jacobians leave only the
# field's finite differences; the table chart takes its Jacobians and their
# derivatives by finite differences as well.
TOL_SPHERICAL = {"grad": 1e-8, "div": 1e-7, "rot": 1e-7, "laplace": 2e-5,
                 "christoffel": 1e-12}
TOL_TABLE = {"grad": 1e-8, "div": 2e-6, "rot": 2e-6, "laplace": 2e-5,
             "christoffel": 2e-6}
TOL_ALGEBRA = 1e-10
NONZERO = 1e-12  # the CLI prints Christoffel symbols above this magnitude


def _f(x: float) -> str:
    return repr(float(x))


class Outcome:
    """What one job delivered, as judged against its reference."""

    __slots__ = ("items", "skipped", "problem", "out_bytes")

    def __init__(self, items=0, skipped=0, problem=None, out_bytes=0):
        self.items, self.skipped = items, skipped
        self.problem, self.out_bytes = problem, out_bytes


class CliJob:
    """One in-process ``tensorcalc.cli.main(argv)`` call, stdout in memory."""

    def __init__(self, kind, argv):
        self.kind, self.argv = kind, argv

    def run(self, tc):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tc.cli.main(self.argv)
        return code, out.getvalue()


class Sampling:
    """--point flags plus an optional grid, and the points they expand to."""

    def __init__(self, points=(), grid=None):
        self.points = [np.asarray(p, dtype=float) for p in points]
        self.grid = grid  # three (lo, hi, count) triples or None

    def argv(self):
        flags = ["--point=" + ",".join(_f(v) for v in p) for p in self.points]
        if self.grid:
            flags += [f"--grid=y{a + 1}={_f(lo)}:{_f(hi)}:{n}"
                      for a, (lo, hi, n) in enumerate(self.grid)]
        return flags

    def expand(self):
        pts = list(self.points)
        if self.grid:
            axes = [np.linspace(lo, hi, n) for lo, hi, n in self.grid]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts += list(np.stack([m.ravel() for m in mesh], axis=1))
        return np.array(pts).reshape(-1, 3)


def _domain_split(geom, sampling):
    pts = sampling.expand()
    inside = geom.contains(pts)
    return pts[inside], int(np.count_nonzero(~inside))


def _off(got, want, tol):
    """Largest breach of |got - want| <= tol * (1 + |want|), or None."""
    bad = np.abs(got - want) - tol * (1.0 + np.abs(want))
    worst = float(np.max(bad)) if bad.size else -1.0
    return None if worst <= 0.0 else worst


class FieldOpJob(CliJob):
    def __init__(self, kind, chart_argv, geom, op, field, path, sampling,
                 scheme, tol):
        argv = (["field-op", op] + chart_argv + ["--field", path]
                + sampling.argv() + ["--scheme", scheme])
        super().__init__(kind, argv)
        self.expected, self.skips = _domain_split(geom, sampling)
        want = ref.field_op(geom, op, field["components"], self.expected)
        self.want = want.reshape(len(self.expected), -1)
        self.tol = tol

    def check(self, result):
        code, text = result
        o = Outcome(out_bytes=len(text.encode()))
        if code != 0:
            o.problem = f"exit code {code}"
            return o
        lines = text.splitlines()
        if not lines or lines[0] != "x1,x2,x3,component-path,value":
            o.problem = "bad header"
            return o
        width = self.want.shape[1]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) % width:
            o.problem = "ragged rows"
            return o
        try:
            pts = np.array([[float(v) for v in r[:3]] for r in rows[::width]])
            got = np.array([float(r[4]) for r in rows]).reshape(-1, width)
        except (ValueError, IndexError):
            o.problem = "unparsable row"
            return o
        pts = pts.reshape(-1, 3)
        paths = ["scalar"] if width == 1 else ["^1", "^2", "^3"]
        if any(r[3] != paths[n % width] for n, r in enumerate(rows)):
            o.problem = "wrong component paths"
            return o
        o.items = len(pts)
        o.skipped = len(self.expected) + self.skips - o.items
        if pts.shape != self.expected.shape or not np.array_equal(pts, self.expected):
            o.problem = "delivered points differ from the in-domain points"
            return o
        breach = _off(got, self.want, self.tol)
        if breach is not None:
            o.problem = f"value off by {breach:.3g} beyond tolerance"
        return o


class ChristoffelJob(CliJob):
    def __init__(self, kind, chart_argv, geom, sampling, tol):
        super().__init__(kind, ["christoffel"] + chart_argv + sampling.argv())
        self.expected, self.skips = _domain_split(geom, sampling)
        self.want = ref.christoffel(geom, self.expected)
        self.tol = tol

    def check(self, result):
        code, text = result
        o = Outcome(out_bytes=len(text.encode()))
        if code != 0:
            o.problem = f"exit code {code}"
            return o
        head, _, body = text.partition("\n")
        if head != "y1,y2,y3,k,i,j,gamma":
            o.problem = "bad header"
            return o
        try:
            with warnings.catch_warnings():   # an empty table is judged below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        except ValueError:
            o.problem = "unparsable row"
            return o
        if rows.size == 0:
            rows = np.zeros((0, 7))
        # rows come grouped by point, in sampling order
        new_point = np.ones(len(rows), dtype=bool)
        new_point[1:] = np.any(rows[1:, :3] != rows[:-1, :3], axis=1)
        pts = rows[new_point, :3]
        o.items = len(pts)
        o.skipped = len(self.expected) + self.skips - o.items
        if pts.shape != self.expected.shape or not np.array_equal(pts, self.expected):
            o.problem = "delivered points differ from the in-domain points"
            return o
        which = np.cumsum(new_point) - 1
        k, i, j = (rows[:, c].astype(int) - 1 for c in (3, 4, 5))
        if np.any((k < 0) | (k > 2) | (i < 0) | (i > 2) | (j < 0) | (j > 2)):
            o.problem = "index out of range"
            return o
        breach = _off(rows[:, 6], self.want[which, k, i, j], self.tol)
        if breach is not None:
            o.problem = f"symbol off by {breach:.3g} beyond tolerance"
            return o
        listed = np.zeros(self.want.shape, dtype=bool)
        listed[which, k, i, j] = True
        required = np.abs(self.want) > NONZERO + self.tol * 10
        if np.any(required & ~listed):
            o.problem = "nonzero symbol missing"
        return o


class AuditJob(CliJob):
    def __init__(self, kind, chart_argv, n, seed, scheme):
        super().__init__(kind, ["audit"] + chart_argv + [
            "--points", str(n), "--seed", str(seed), "--scheme", scheme])
        self.n = n

    def check(self, result):
        code, text = result
        o = Outcome(out_bytes=len(text.encode()))
        lines = text.splitlines()
        if code != 0 or not lines or lines[-1] != "verdict: PASS":
            o.problem = f"audit did not pass (exit {code})"
        elif f"at {self.n} points" not in lines[0]:
            o.problem = "audit header names the wrong point count"
        else:
            o.items = self.n
        return o


# -- chart workloads ----------------------------------------------------------------

def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _term(rng, axis_choices):
    powers, trig = [], []
    for pw, fns, freqs in axis_choices:
        powers.append(int(rng.choice(pw)))
        fn = fns[int(rng.integers(len(fns)))]
        trig.append(None if fn is None else
                    {"fn": fn, "freq": float(rng.choice(freqs))})
    return {"coeff": round(_uniform(rng, -2.0, 2.0), 3), "powers": powers,
            "trig": trig}


def _field(rng, rank, axis_choices, slot):
    """A coefficient-table field; components alternate 1 and 2 terms by slot.

    The term counts are fixed by the job's slot in the cycle, so that every
    cycle costs about the same; the seed chooses powers, trig and
    coefficients.
    """
    count = 1 if rank == 0 else 3
    comps = [[_term(rng, axis_choices) for _ in range(1 + (slot + c) % 2)]
             for c in range(count)]
    return {"r": rank, "s": 0, "components": comps}


# (op, sampling size, scheme, span): span "inner" stays inside the domain,
# "full" runs the grid onto the domain's edge so those points are skipped.
# The big field-op grids are weighted so that field-op jobs, the fields FD
# and curvilinear operator path the chart workloads are chosen for, take
# most of the job time: about 70 % on grid-spherical and 60 % on
# table-chart, against about 25 % for christoffel (see README.md).
# Two thirds of the jobs are single points, so that job_p50_ms is a
# point job's latency and lies inside that group, not on its edge.
_POINT_JOBS = ([("point", op, 1, scheme, "inner")
                for op in ("laplace", "div", "rot", "grad")
                for scheme in ("central2", "central4") * 3]
               + [("christoffel", None, 1, None, "inner")] * 4)
_SMALL_GRIDS = [("grid", "laplace", 3, "central4", "inner"),
                ("grid", "div", 3, "central2", "inner"),
                ("grid", "rot", 3, "central4", "inner"),
                ("grid", "grad", 3, "central2", "inner"),
                ("christoffel", None, 3, None, "inner")]


def _big_grids(n):
    return [("grid", "laplace", n, "central2", "full"),
            ("grid", "laplace", n, "central4", "inner"),
            ("grid", "div", n, "central4", "inner"),
            ("grid", "rot", n, "central2", "inner"),
            ("grid", "grad", n, "central4", "inner")]


CHART_MIX = {
    "grid-spherical": (
        _POINT_JOBS + _SMALL_GRIDS
        + [("grid", "div", 5, "central4", "inner"),
           ("grid", "rot", 5, "central2", "inner"),
           ("audit", None, 100, "central2", None)]
        + _big_grids(10)
        + [("christoffel", None, 20, None, "full")]
    ),
    "table-chart": (
        _POINT_JOBS + _SMALL_GRIDS
        + [("grid", "div", 4, "central4", "inner"),
           ("grid", "rot", 4, "central2", "inner"),
           ("audit", None, 100, "central2", None)]
        + _big_grids(6)
        + [("christoffel", None, 10, None, "full")]
    ),
}

_SPH_AXES = (([0, 1, 2, 3], [None], [1.0]),
             ([0], [None, "sin", "cos"], [1.0, 2.0]),
             ([0], [None, "cos", "sin"], [1.0]))
_TABLE_AXES = (([0, 1, 2], [None], [1.0]),
               ([0, 1], [None, "sin", "cos"], [1.0, 0.5]),
               ([0, 1, 2], [None, "cos"], [1.0]))


class ChartWorkload:
    def __init__(self, name, workdir):
        self.name, self.workdir = name, workdir
        self.mix = CHART_MIX[name]
        self.spherical = name == "grid-spherical"

    def _geometry(self, rng):
        if self.spherical:
            return ref.SphericalGeometry(), ["--chart", "spherical"], None
        geom = ref.TableGeometry(_uniform(rng, 0.2, 0.4), _uniform(rng, 0.1, 0.3),
                                 -2.0, 2.0)
        path = os.path.join(self.workdir, "chart.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(geom.config(), fh)
        return geom, ["--chart-file", path], path

    def _box(self, rng, span, n):
        if self.spherical:
            r_lo = _uniform(rng, 0.5, 1.0)
            r = (r_lo, r_lo + _uniform(rng, 1.0, 2.0), n)
            if span == "full":
                t = (0.0, math.pi, n)   # both poles lie on the grid
            else:
                t = (_uniform(rng, 0.25, 0.5), _uniform(rng, math.pi - 0.5, math.pi - 0.25), n)
            p = (_uniform(rng, -math.pi, -2.0), _uniform(rng, 2.0, math.pi), n)
            return (r, t, p)
        y1 = (-2.0, 2.0, n) if span == "full" else (
            _uniform(rng, -1.8, -1.0), _uniform(rng, 1.0, 1.8), n)
        return (y1, (_uniform(rng, -math.pi, -1.0), _uniform(rng, 1.0, math.pi), n),
                (_uniform(rng, -2.0, -0.5), _uniform(rng, 0.5, 2.0), n))

    def _point(self, rng):
        if self.spherical:
            return [_uniform(rng, 0.5, 3.0), _uniform(rng, 0.3, math.pi - 0.3),
                    _uniform(rng, -math.pi, math.pi)]
        return [_uniform(rng, -1.8, 1.8), _uniform(rng, -math.pi, math.pi),
                _uniform(rng, -2.0, 2.0)]

    def cycle(self, rng):
        """One cycle of jobs plus the spec files it wrote, for set-up."""
        geom, chart_argv, chart_path = self._geometry(rng)
        tol = TOL_SPHERICAL if self.spherical else TOL_TABLE
        axes = _SPH_AXES if self.spherical else _TABLE_AXES
        jobs, fields = [], []
        for n, (shape, op, size, scheme, span) in enumerate(self.mix):
            if shape == "audit":
                jobs.append(AuditJob(f"audit {size}", chart_argv, size,
                                     int(rng.integers(1 << 30)), scheme))
                continue
            if size == 1:
                sampling = Sampling(points=[self._point(rng)])
                label = "point"
            else:
                sampling = Sampling(grid=self._box(rng, span, size))
                label = f"{size}^3"
            if shape == "christoffel":
                jobs.append(ChristoffelJob(f"christoffel {label}", chart_argv,
                                           geom, sampling, tol["christoffel"]))
                continue
            field = _field(rng, 1 if op in ("div", "rot") else 0, axes, n)
            path = os.path.join(self.workdir, f"field{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(field, fh)
            fields.append(path)
            jobs.append(FieldOpJob(f"field-op {op} {label} {scheme}", chart_argv,
                                   geom, op, field, path, sampling, scheme, tol[op]))
        specs = {"builtin": ["spherical"] if self.spherical else [],
                 "charts": [chart_path] if chart_path else [],
                 "fields": fields, "bindings": []}
        return jobs, specs


# -- notation-algebra -------------------------------------------------------------

LETTERS = "ijklmnpqrs"


class Expression:
    """A generated index equation, its label and its reference values."""

    def __init__(self, rng, n_terms, rank, n_sum, flaw):
        letters = list(rng.permutation(list(LETTERS)))
        free = [(letters.pop(), "u" if rng.random() < 0.5 else "l")
                for _ in range(rank)]
        self.lhs = ("T", [l for l, v in free if v == "u"],
                    [l for l, v in free if v == "l"])
        self.terms = []   # (sign, number or None, [(name, upper, lower)])
        serial = 0
        for t in range(n_terms):
            occ = list(free)
            for _ in range(n_sum):
                s = letters.pop()
                occ += [(s, "u"), (s, "l")]
            if t == n_terms - 1 and flaw:
                occ = self._spoil(occ, free, flaw)
            order = rng.permutation(len(occ))
            occ = [occ[k] for k in order]
            groups = self._split(rng, occ, 1 + t % 3)
            factors = []
            for g in groups:
                serial += 1
                name = "ABCDEFGH"[serial % 8] + str(serial)
                factors.append((name, [l for l, v in g if v == "u"],
                                [l for l, v in g if v == "l"]))
            number = round(_uniform(rng, 0.5, 3.0), 2) if rng.random() < 0.4 else None
            self.terms.append((-1.0 if rng.random() < 0.3 else 1.0, number, factors))
        self.flaw = flaw
        self.rule = {"same-level": "5.2", "triple": "5.2", "missing": "5.1",
                     "level": "5.1"}.get(flaw)
        self.text = self.render(self._written)
        self.explicit = self.render(self._explicit_factor, explicit=True)

    @staticmethod
    def _split(rng, occ, wanted):
        """Cut the occurrences into factors of rank at most 4.

        The factor count depends only on the expression's shape, so every
        cycle does the same count of tensor constructions.
        """
        n_fac = min(len(occ), max(wanted, math.ceil(len(occ) / 4)))
        while True:
            cuts = sorted(rng.choice(np.arange(1, len(occ)), size=n_fac - 1,
                                     replace=False).tolist())
            bounds = [0] + cuts + [len(occ)]
            groups = [occ[a:b] for a, b in zip(bounds, bounds[1:])]
            if max(len(g) for g in groups) <= 4:
                return groups

    @staticmethod
    def _spoil(occ, free, flaw):
        if flaw == "same-level":   # a summation pair on one level
            k = len(free) + 1
            return occ[:k] + [(occ[k][0], occ[k - 1][1])] + occ[k + 1:]
        if flaw == "triple":       # a summation letter three times
            return occ + [occ[len(free)]]
        if flaw == "missing":      # a free letter absent from this term
            return occ[1:]
        if flaw == "level":        # a free letter on the wrong level
            l, v = occ[0]
            return [(l, "l" if v == "u" else "u")] + occ[1:]
        raise ValueError(flaw)

    @staticmethod
    def _written(name, upper, lower):
        text = name
        if upper:
            text += "^" + (upper[0] if len(upper) == 1 else "{" + "".join(upper) + "}")
        if lower:
            text += "_" + (lower[0] if len(lower) == 1 else "{" + "".join(lower) + "}")
        return text

    @staticmethod
    def _explicit_factor(name, upper, lower):
        return (name + ("^{" + "".join(upper) + "}" if upper else "")
                + ("_{" + "".join(lower) + "}" if lower else ""))

    def render(self, factor_text, explicit=False):
        pieces = []
        for n, (sign, number, factors) in enumerate(self.terms):
            if explicit:
                head = "- " if sign < 0 else ("+ " if n else "")
                seen = {}
                for _, up, lo in factors:
                    for l in up + lo:
                        seen[l] = seen.get(l, 0) + 1
                summed = [l for l, count in seen.items() if count == 2]
                head += "".join(f"sum_{{{l}=1..3}} " for l in summed)
            else:
                head = ("- " if sign < 0 else "+ ") if n else ("-" if sign < 0 else "")
            body = ([repr(float(number))] if number is not None else []) + [
                factor_text(*f) for f in factors]
            pieces.append(head + " ".join(body))
        return f"{factor_text(*self.lhs)} = " + " ".join(pieces)

    def bind(self, rng):
        self.arrays = {}
        for _, _, factors in self.terms:
            for name, up, lo in factors:
                self.arrays[name] = (len(up), len(lo),
                                     rng.uniform(-1.0, 1.0, (3,) * (len(up) + len(lo))))
        if self.flaw:
            return
        terms = [(sign * (number if number is not None else 1.0),
                  [(name, up + lo) for name, up, lo in factors])
                 for sign, number, factors in self.terms]
        self.want = ref.nested_sum(terms, self.lhs[1] + self.lhs[2],
                                   {k: v[2] for k, v in self.arrays.items()})

    def records(self):
        return {name: {"r": r, "s": s, "dim": 3, "components": a.ravel().tolist()}
                for name, (r, s, a) in self.arrays.items()}


class ChainJob:
    """parse -> validate -> evaluate -> explicit_form, in process."""

    def __init__(self, kind, expr, tc):
        self.kind, self.expr = kind, expr
        self.bindings = {name: tc.tensors.DenseTensor((r, s), 3, a)
                         for name, (r, s, a) in expr.arrays.items()}

    def run(self, tc):
        notation = tc.notation
        parsed = notation.parse(self.expr.text)
        report = notation.validate(parsed)
        if not report.is_valid:
            return report, None, None
        value = notation.evaluate(parsed, self.bindings)
        return report, value, notation.explicit_form(parsed)

    def check(self, result):
        report, value, explicit = result
        o = Outcome(items=1)
        if self.expr.flaw:
            rules = {v.rule for v in report.violations}
            if report.verdict != "invalid" or self.expr.rule not in rules:
                o.problem = f"verdict {report.verdict} {sorted(rules)} for a {self.expr.flaw} flaw"
        elif report.verdict != "valid":
            o.problem = "valid expression reported invalid"
        elif explicit != self.expr.explicit:
            o.problem = "explicit form differs"
        else:
            breach = _off(np.asarray(value.array), self.expr.want, 1e-12)
            if breach is not None:
                o.problem = f"value off by {breach:.3g}"
        return o


class CheckJob(CliJob):
    def __init__(self, kind, expr, broken_text=None):
        self.expr, self.broken = expr, broken_text is not None
        super().__init__(kind, ["check", broken_text or expr.text, "--explicit"])

    def check(self, result):
        code, text = result
        o = Outcome(items=1, out_bytes=len(text.encode()))
        want_code = 2 if self.broken else (1 if self.expr.flaw else 0)
        if code != want_code:
            o.problem = f"exit code {code}, expected {want_code}"
            return o
        try:
            report, end = json.JSONDecoder().raw_decode(text)
            verdict, rest = report["verdict"], text[end:]
        except (ValueError, KeyError, TypeError):
            o.problem = "unparsable report"
            return o
        want = "parse-error" if self.broken else ("invalid" if self.expr.flaw else "valid")
        if verdict != want:
            o.problem = f"verdict {verdict}, expected {want}"
        elif want == "valid" and rest != "\n" + self.expr.explicit + "\n":
            o.problem = "explicit form differs"
        return o


class EvalJob(CliJob):
    def __init__(self, kind, expr, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(expr.records(), fh)
        super().__init__(kind, ["eval", expr.text, "--bindings", path])
        self.expr = expr

    def check(self, result):
        code, text = result
        o = Outcome(items=1, out_bytes=len(text.encode()))
        if code != 0:
            o.problem = f"exit code {code}"
            return o
        try:
            record = json.loads(text)
            got = np.asarray(record["components"], dtype=float).reshape(self.expr.want.shape)
        except (ValueError, KeyError, TypeError):
            o.problem = "unparsable result"
            return o
        breach = _off(got, self.expr.want, 1e-12)
        if breach is not None:
            o.problem = f"value off by {breach:.3g}"
        return o


class AlgebraJob:
    """One tensor through a basis change, the frame laws and a metric."""

    def __init__(self, kind, rng, valency, law):
        self.kind, self.valency, self.law = kind, valency, law
        S = np.eye(3) + 0.4 * rng.uniform(-1.0, 1.0, (3, 3))
        self.S, self.T = S, np.linalg.inv(S)
        r, s = valency
        self.x = rng.uniform(-1.0, 1.0, (3,) * (r + s))
        A = rng.uniform(-1.0, 1.0, (3, 3))
        self.G = A.T @ A + np.eye(3)
        self.low = rng.uniform(-1.0, 1.0, (3, 3))     # a (0,2) tensor
        shape = (3,) if law in ("vector", "covector") else (3, 3)
        self.small = rng.uniform(-1.0, 1.0, shape)
        S, T = self.S, self.T
        self.want = (
            ref.transform(self.x, r, s, S, T),
            {"vector": lambda v: T @ v, "covector": lambda v: S.T @ v,
             "operator": lambda v: T @ v @ S, "bilinear": lambda v: S.T @ v @ S}[law](self.small),
            np.einsum("ab,bc->ac", np.linalg.inv(self.G), self.low),  # raised first slot
            self.low,                                                  # lowered back
        )

    def run(self, tc):
        tensors, frames, metric = tc.tensors, tc.frames, tc.metric
        pair = tensors.TransitionPair(self.S, self.T)
        x = tensors.DenseTensor(self.valency, 3, self.x)
        moved = x.transform(pair, tensors.OLD_TO_NEW)
        law = getattr(frames, "transform_" + self.law)(self.small, pair)
        g = metric.Metric(self.G)
        up = metric.raise_index(g, tensors.DenseTensor((0, 2), 3, self.low), 1)
        back = metric.lower_index(g, up, 1)
        return moved.array, law, up.array, back.array

    def check(self, result):
        o = Outcome(items=1)
        for got, want in zip(result, self.want):
            breach = _off(np.asarray(got), want, TOL_ALGEBRA)
            if breach is not None:
                o.problem = f"value off by {breach:.3g}"
        return o


# Per cycle: (terms, free rank, summation pairs per term, flaw). A CLI job
# costs about six in-process chains, nearly all of it CLI overhead, so the
# cycle runs every chain and basis change twice and four CLI jobs: the
# chains take about half of the job time, basis changes a fifth, the CLI
# a third (see README.md).
CHAINS = [(t, rank, pairs, None)
          for t in (1, 2, 3, 4) for rank, pairs in ((0, 1), (1, 1), (2, 1), (2, 2))]
CHAINS += [(2, 1, 1, "same-level"), (3, 2, 1, "triple"), (2, 2, 1, "missing"),
           (1, 1, 2, "level")]
CHAINS *= 2
CLI_EXPR = [("check", 2, 1, 1, None), ("check", 2, 1, 1, "missing"),
            ("check", 1, 1, 1, "parse-error"), ("eval", 3, 2, 1, None)]
ALGEBRA = [((1, 0), "vector"), ((0, 1), "covector"), ((1, 1), "operator"),
           ((2, 2), "bilinear"), ((3, 1), "vector"), ((4, 4), "operator")] * 2


class NotationWorkload:
    def __init__(self, workdir, tc):
        self.workdir, self.tc = workdir, tc

    def cycle(self, rng):
        jobs, bindings = [], []
        for terms, rank, pairs, flaw in CHAINS:
            expr = Expression(rng, terms, rank, pairs, flaw)
            expr.bind(rng)
            jobs.append(ChainJob(f"chain {terms}-term rank {rank}"
                                 + (f" {flaw}" if flaw else ""), expr, self.tc))
        for n, (kind, terms, rank, pairs, flaw) in enumerate(CLI_EXPR):
            broken = flaw == "parse-error"
            expr = Expression(rng, terms, rank, pairs, None if broken else flaw)
            expr.bind(rng)
            if kind == "check":
                text = expr.text.replace("^{", "^", 1) if broken else None
                if broken and text == expr.text:
                    text = expr.text + " +"
                jobs.append(CheckJob(f"cli check {terms}-term" + (f" {flaw}" if flaw else ""),
                                     expr, text))
            else:
                path = os.path.join(self.workdir, f"bindings{n}.json")
                jobs.append(EvalJob(f"cli eval {terms}-term", expr, path))
                bindings.append(path)
        for valency, law in ALGEBRA:
            jobs.append(AlgebraJob(f"transform {valency} + {law} law", rng, valency, law))
        order = rng.permutation(len(jobs))
        jobs = [jobs[k] for k in order]
        return jobs, {"builtin": [], "charts": [], "fields": [], "bindings": bindings}


def make(name, workdir, tc):
    if name == "notation-algebra":
        return NotationWorkload(workdir, tc)
    if name in CHART_MIX:
        return ChartWorkload(name, workdir)
    raise KeyError(name)


NAMES = ("grid-spherical", "table-chart", "notation-algebra")
