"""Independent references for every output the benchmark checks.

Nothing here imports tensorcalc. Chart geometry comes from hand-written
Jacobians and second derivatives, field derivatives from differentiating the
coefficient-table grammar term by term, and index expressions are summed
with plain nested loops. All functions take arrays of points, shape (N, 3).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# -- coefficient tables ---------------------------------------------------------

_TRIG = {
    # value, first and second derivative of fn(u), each as a function of u
    None: (lambda u: np.ones_like(u), lambda u: np.zeros_like(u),
           lambda u: np.zeros_like(u)),
    "sin": (np.sin, np.cos, lambda u: -np.sin(u)),
    "cos": (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u)),
}


def _axis_factor(y, power, trig):
    """y**p * fn(f*y) and its first two derivatives in y."""
    fn = None if trig is None else trig["fn"]
    freq = 1.0 if trig is None else float(trig.get("freq", 1.0))
    g0, g1, g2 = (h(freq * y) for h in _TRIG[fn])
    g1, g2 = freq * g1, freq * freq * g2
    p = power
    m0 = y ** p
    m1 = p * y ** (p - 1) if p >= 1 else np.zeros_like(y)
    m2 = p * (p - 1) * y ** (p - 2) if p >= 2 else np.zeros_like(y)
    return m0 * g0, m1 * g0 + m0 * g1, m2 * g0 + 2.0 * m1 * g1 + m0 * g2


def table_derivatives(terms, Y):
    """Value (N,), gradient (N, 3) and Hessian (N, 3, 3) of one component."""
    n = Y.shape[0]
    val = np.zeros(n)
    grad = np.zeros((n, 3))
    hess = np.zeros((n, 3, 3))
    for term in terms:
        powers = term.get("powers", [0, 0, 0])
        trig = term.get("trig", [None, None, None])
        f = [_axis_factor(Y[:, a], powers[a], trig[a]) for a in range(3)]
        c = float(term["coeff"])
        val += c * f[0][0] * f[1][0] * f[2][0]
        for b in range(3):
            rest = [a for a in range(3) if a != b]
            others = f[rest[0]][0] * f[rest[1]][0]
            grad[:, b] += c * f[b][1] * others
            hess[:, b, b] += c * f[b][2] * others
            for d in range(b + 1, 3):
                (e,) = [a for a in range(3) if a not in (b, d)]
                mixed = c * f[b][1] * f[d][1] * f[e][0]
                hess[:, b, d] += mixed
                hess[:, d, b] += mixed
    return val, grad, hess


# -- chart geometry ----------------------------------------------------------------


class SphericalGeometry:
    """x = (r sin t cos p, r sin t sin p, r cos t), hand-written derivatives."""

    @staticmethod
    def contains(Y):
        return (Y[:, 0] > 0.0) & (Y[:, 1] > 0.0) & (Y[:, 1] < math.pi)

    @staticmethod
    def jacobian(Y):
        r, t, p = Y.T
        st, ct, sp, cp = np.sin(t), np.cos(t), np.sin(p), np.cos(p)
        S = np.zeros((len(Y), 3, 3))
        S[:, 0] = np.stack([st * cp, r * ct * cp, -r * st * sp], axis=1)
        S[:, 1] = np.stack([st * sp, r * ct * sp, r * st * cp], axis=1)
        S[:, 2] = np.stack([ct, -r * st, np.zeros_like(r)], axis=1)
        return S

    @staticmethod
    def second(Y):
        """d2x[n, q, i, j] = second partial of x^q along y^i, y^j."""
        r, t, p = Y.T
        st, ct, sp, cp = np.sin(t), np.cos(t), np.sin(p), np.cos(p)
        z = np.zeros_like(r)
        d2 = np.zeros((len(Y), 3, 3, 3))
        d2[:, 0] = np.stack([np.stack([z, ct * cp, -st * sp], 1),
                             np.stack([ct * cp, -r * st * cp, -r * ct * sp], 1),
                             np.stack([-st * sp, -r * ct * sp, -r * st * cp], 1)], 1)
        d2[:, 1] = np.stack([np.stack([z, ct * sp, st * cp], 1),
                             np.stack([ct * sp, -r * st * sp, r * ct * cp], 1),
                             np.stack([st * cp, r * ct * cp, -r * st * sp], 1)], 1)
        d2[:, 2] = np.stack([np.stack([z, -st, z], 1),
                             np.stack([-st, -r * ct, z], 1),
                             np.stack([z, z, z], 1)], 1)
        return d2


class TableGeometry:
    """x = (y1 + a sin y2, y2, y3 + b y1^2) on y1 in (lo, hi)."""

    def __init__(self, a, b, lo, hi):
        self.a, self.b, self.lo, self.hi = a, b, lo, hi

    def contains(self, Y):
        return (Y[:, 0] > self.lo) & (Y[:, 0] < self.hi) & np.all(np.isfinite(Y), axis=1)

    def jacobian(self, Y):
        S = np.zeros((len(Y), 3, 3))
        S[:, 0, 0] = 1.0
        S[:, 0, 1] = self.a * np.cos(Y[:, 1])
        S[:, 1, 1] = 1.0
        S[:, 2, 0] = 2.0 * self.b * Y[:, 0]
        S[:, 2, 2] = 1.0
        return S

    def second(self, Y):
        d2 = np.zeros((len(Y), 3, 3, 3))
        d2[:, 0, 1, 1] = -self.a * np.sin(Y[:, 1])
        d2[:, 2, 0, 0] = 2.0 * self.b
        return d2

    def config(self):
        """The chart as the coefficient-table JSON the program reads.

        The inverse is exact: y3 = x3 - b (x1 - a sin x2)^2 with
        sin^2 u = (1 - cos 2u) / 2.
        """
        a, b = self.a, self.b
        sin2 = [None, {"fn": "sin", "freq": 1.0}, None]
        return {
            "name": "table",
            "forward": [
                [{"coeff": 1.0, "powers": [1, 0, 0]},
                 {"coeff": a, "powers": [0, 0, 0], "trig": sin2}],
                [{"coeff": 1.0, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [0, 0, 1]},
                 {"coeff": b, "powers": [2, 0, 0]}],
            ],
            "inverse": [
                [{"coeff": 1.0, "powers": [1, 0, 0]},
                 {"coeff": -a, "powers": [0, 0, 0], "trig": sin2}],
                [{"coeff": 1.0, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [0, 0, 1]},
                 {"coeff": -b, "powers": [2, 0, 0]},
                 {"coeff": 2.0 * a * b, "powers": [1, 0, 0], "trig": sin2},
                 {"coeff": -a * a * b / 2.0, "powers": [0, 0, 0]},
                 {"coeff": a * a * b / 2.0, "powers": [0, 0, 0],
                  "trig": [None, {"fn": "cos", "freq": 2.0}, None]}],
            ],
            "bounds": {"min": [self.lo, None, None], "max": [self.hi, None, None]},
        }


def christoffel(geom, Y):
    """Gamma[n, k, i, j] = sum_q T^k_q d2x^q/dy^i dy^j with T = S^-1."""
    T = np.linalg.inv(geom.jacobian(Y))
    return np.einsum("nkq,nqij->nkij", T, geom.second(Y))


_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in itertools.permutations(range(3)):
    _EPS3[_i, _j, _k] = np.linalg.det(np.eye(3)[[_i, _j, _k]])


def field_op(geom, op, components, Y):
    """Chart operator applied to a coefficient-table field, at points Y.

    grad^i = g^ij d_j f; laplace = g^ij (d_ij f - Gamma^k_ij d_k f);
    div = d_i X^i + Gamma^i_ik X^k; rot^r = eps^rab d_a (g_bc X^c) / sqrt g.
    Returns (N,) for scalar results and (N, 3) for vectors.
    """
    S = geom.jacobian(Y)
    d2 = geom.second(Y)
    g = np.einsum("nqi,nqj->nij", S, S)
    ginv = np.linalg.inv(g)
    gamma = christoffel(geom, Y)
    parts = [table_derivatives(c, Y) for c in components]
    if op == "grad":
        _, df, _ = parts[0]
        return np.einsum("nij,nj->ni", ginv, df)
    if op == "laplace":
        _, df, hf = parts[0]
        second = hf - np.einsum("nkij,nk->nij", gamma, df)
        return np.einsum("nij,nij->n", ginv, second)
    X = np.stack([p[0] for p in parts], axis=1)          # X^c
    dX = np.stack([p[1] for p in parts], axis=1)         # dX[n, c, a] = d_a X^c
    if op == "div":
        return np.einsum("nii->n", dX) + np.einsum("niik,nk->n", gamma, X)
    if op == "rot":
        # d_a g_bc = d2x^q_ab S^q_c + S^q_b d2x^q_ac
        dg = (np.einsum("nqab,nqc->nabc", d2, S)
              + np.einsum("nqb,nqac->nabc", S, d2))
        dXlow = (np.einsum("nabc,nc->nab", dg, X)
                 + np.einsum("nbc,nca->nab", g, dX))     # [n, a, b] = d_a X_b
        sqrt_g = np.abs(np.linalg.det(S))
        return np.einsum("rab,nab->nr", _EPS3, dXlow) / sqrt_g[:, None]
    raise ValueError(f"unknown operator {op!r}")


# -- index notation and basis changes ----------------------------------------------


def nested_sum(terms, out_letters, arrays, dim=3):
    """Evaluate an index expression with explicit loops, no einsum.

    terms: list of (coefficient, [(name, letters)]) where letters lists the
    factor's upper then lower index letters; arrays maps name to ndarray.
    """
    result = np.zeros((dim,) * len(out_letters))
    for out in itertools.product(range(dim), repeat=len(out_letters)):
        fixed = dict(zip(out_letters, out))
        total = 0.0
        for coeff, factors in terms:
            summed = sorted({l for _, ls in factors for l in ls} - set(fixed))
            acc = 0.0
            for values in itertools.product(range(dim), repeat=len(summed)):
                env = dict(fixed, **dict(zip(summed, values)))
                prod = coeff
                for name, letters in factors:
                    prod *= float(arrays[name][tuple(env[l] for l in letters)])
                acc += prod
            total += acc
        result[out] = total
    return result


def transform(array, r, s, S, T):
    """old->new components: T on each upper slot, S^T on each lower slot."""
    letters = "abcdefgh"[: r + s]
    mats, subs = [], []
    for n, l in enumerate(letters):
        new = l.upper()
        subs.append(new + l)
        mats.append(T if n < r else S.T)
    spec = ",".join(subs) + "," + letters + "->" + letters.upper()
    return np.einsum(spec, *mats, array, optimize=True)
