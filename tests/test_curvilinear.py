"""Charts, Jacobi matrices, Christoffel symbols, covariant derivatives."""

import json
import math

import numpy as np
import pytest

import tensorcalc as tc
from tensorcalc import (
    DomainError,
    Metric,
    ParameterError,
    TensorField,
    TensorIndexError,
    Valency,
    builtin_chart,
    chart_to_chart_transform,
    christoffel,
    christoffel_alt,
    coordinate_line,
    covariant_derivative,
    divergence_in_chart,
    gradient_covector_in_chart,
    gradient_vector_in_chart,
    jacobian_derivative,
    jacobian_direct,
    jacobian_inverse,
    jacobians,
    laplacian_in_chart,
    load_chart,
    metric_in_chart,
    moving_frame,
    nabla,
    rotor_in_chart,
)

from test_batched import A as TABLE_A, B as TABLE_B, TABLE_CONFIG

CYL = builtin_chart("cylindrical")
SPH = builtin_chart("spherical")
IDENT = builtin_chart("identity")


def _formula_maps(name, y):
    """forward, jac_forward, jac_inverse and jac_forward_partials of a
    built-in chart at an (N, 3) array, one formula per entry, each written
    as the chart's closed form reads (a product of several factors taken
    from the left), with 0.0 for a structural zero."""
    r, a, b = y[:, 0], y[:, 1], y[:, 2]
    zero, one = np.zeros_like(r), np.ones_like(r)
    if name == "cylindrical":
        c, s = np.cos(a), np.sin(a)
        forward = [r * c, r * s, b]
        S = [c, -r * s, zero, s, r * c, zero, zero, zero, one]
        T = [c, s, zero, -s / r, c / r, zero, zero, zero, one]
        d1 = [zero, -s, zero, zero, c, zero, zero, zero, zero]
        d2 = [-s, -r * c, zero, c, -r * s, zero, zero, zero, zero]
        d3 = [zero] * 9
    else:
        st, ct, cp, sp = np.sin(a), np.cos(a), np.cos(b), np.sin(b)
        forward = [r * st * cp, r * st * sp, r * ct]
        S = [st * cp, r * ct * cp, -r * st * sp,
             st * sp, r * ct * sp, r * st * cp,
             ct, -r * st, zero]
        T = [st * cp, st * sp, ct,
             ct * cp / r, ct * sp / r, -st / r,
             -sp / (r * st), cp / (r * st), zero]
        d1 = [zero, ct * cp, -st * sp, zero, ct * sp, st * cp, zero, -st, zero]
        d2 = [ct * cp, -r * st * cp, -r * ct * sp,
              ct * sp, -r * st * sp, r * ct * cp,
              -st, -r * ct, zero]
        d3 = [-st * sp, -r * ct * sp, -r * st * cp,
              st * cp, r * ct * cp, -r * st * sp,
              zero, zero, zero]
    dS = [e for qi in zip(d1, d2, d3) for e in qi]  # derivative index last
    n = len(y)
    return {"forward": np.stack(forward, axis=-1),
            "jac_forward": np.stack(S, axis=-1).reshape(n, 3, 3),
            "jac_inverse": np.stack(T, axis=-1).reshape(n, 3, 3),
            "jac_forward_partials": np.stack(dS, axis=-1).reshape(n, 3, 3, 3)}


def _exact_angle_points():
    """Points whose sines and cosines are exact, so that entries are +0.0,
    -0.0 or exact products: theta = pi/2, 0 and -0, phi = +-0 and +-pi."""
    return np.array([[r, th, ph] for r in (1.5, -2.0)
                     for th in (math.pi / 2.0, 0.0, -0.0, math.pi)
                     for ph in (0.0, -0.0, math.pi, -math.pi)])


class TestBuiltinCharts:
    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match=(
                r"^unknown chart 'toroidal'; choose from "
                r"\['cylindrical', 'identity', 'spherical'\]$")):
            builtin_chart("toroidal")

    @pytest.mark.parametrize("name", ["cylindrical", "spherical", "identity"])
    def test_one_frozen_chart_per_name(self, name):
        chart = builtin_chart(name)
        assert builtin_chart(name) is chart
        with pytest.raises(AttributeError, match="^Chart is immutable$"):
            chart.forward = None
        assert builtin_chart(name).forward is chart.forward

    @pytest.mark.parametrize("name", ["cylindrical", "spherical"])
    @pytest.mark.parametrize("points", ["one", "thousand", "exact angles"])
    def test_maps_equal_their_formulas_bit_for_bit(self, name, points):
        # int64 views: a signed zero or a last-bit difference counts
        rng = np.random.default_rng(11)
        y = {"one": lambda: rng.uniform(-4.0, 4.0, (1, 3)),
             "thousand": lambda: rng.uniform(-4.0, 4.0, (1000, 3)),
             "exact angles": _exact_angle_points}[points]()
        chart = builtin_chart(name)
        with np.errstate(all="ignore"):  # 1/r and 1/(r sin theta) at exact zeros
            want = _formula_maps(name, y)
            for attr, expected in want.items():
                got = getattr(chart, attr)(y)
                assert got.flags.c_contiguous, attr
                assert got.shape == expected.shape, attr
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), attr
                one = getattr(chart, attr)(y[0])  # a single point, shape (3,)
                assert np.array_equal(one.view(np.int64), expected[0].view(np.int64)), attr

    def test_cylindrical_forward_value(self):
        assert np.allclose(CYL.forward([2.0, 0.0, 1.0]), [2.0, 0.0, 1.0])

    def test_cylindrical_forward_quarter_turn(self):
        got = CYL.forward([2.0, math.pi / 2.0, -1.0])
        assert np.allclose(got, [0.0, 2.0, -1.0], atol=1e-15)

    def test_spherical_forward_value(self):
        got = SPH.forward([2.0, math.pi / 2.0, 0.0])
        assert np.allclose(got, [2.0, 0.0, 0.0], atol=1e-15)

    def test_spherical_polar_axis_outside_domain(self):
        assert not SPH.contains([1.0, 0.0, 0.3])
        with pytest.raises(DomainError):
            jacobians(SPH, [1.0, 0.0, 0.3])

    def test_cylindrical_axis_outside_domain(self):
        with pytest.raises(DomainError):
            jacobians(CYL, [0.0, 0.1, 0.0])

    def test_round_trip_on_random_domain_points(self, rng):
        for chart in (CYL, SPH, IDENT):
            pts = chart.sample_points(100, rng)
            for y in pts:
                back = chart.inverse(chart.forward(y))
                assert np.max(np.abs(np.asarray(back) - y)) < 1e-9

    def test_sample_points_stay_in_domain(self, rng):
        for chart in (CYL, SPH):
            for y in chart.sample_points(50, rng):
                assert chart.contains(y)


class TestJacobians:
    def test_identity_chart(self):
        p = jacobians(IDENT, [0.3, -0.4, 0.9])
        assert np.allclose(p.S, np.eye(3), atol=1e-12)
        assert np.allclose(p.T, np.eye(3), atol=1e-12)

    def test_cylindrical_at_theta_zero(self):
        p = jacobians(CYL, [2.0, 0.0, 5.0])
        want = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(p.S, want, atol=1e-12)

    def test_matrices_mutually_inverse_on_samples(self, rng):
        for chart in (CYL, SPH):
            for y in chart.sample_points(100, rng):
                p = jacobians(chart, y)
                assert np.max(np.abs(p.T @ p.S - np.eye(3))) < 1e-6

    def test_difference_quotients_match_analytic(self, rng):
        for chart in (CYL, SPH):
            stripped = tc.Chart(
                name=chart.name + "-fd",
                forward=chart.forward,
                inverse=chart.inverse,
                domain=chart.domain,
                sample_bounds=chart.sample_bounds,
            )
            for y in chart.sample_points(20, rng):
                got = jacobian_direct(stripped, y)
                want = jacobian_direct(chart, y)
                assert np.max(np.abs(got - want)) < 1e-5

    def test_inverse_jacobian_of_forward_point(self, rng):
        for chart in (CYL, SPH):
            for y in chart.sample_points(20, rng):
                t_found = jacobian_inverse(chart, y)
                s_found = jacobian_direct(chart, y)
                assert np.max(np.abs(t_found - np.linalg.inv(s_found))) < 1e-8


class TestMovingFrame:
    def test_cylindrical_frame(self):
        b = moving_frame(CYL, [2.0, 0.0, 0.0])
        assert np.allclose(b.vector(1), [1.0, 0.0, 0.0])
        assert np.allclose(b.vector(2), [0.0, 2.0, 0.0])
        assert np.allclose(b.vector(3), [0.0, 0.0, 1.0])

    def test_identity_frame_is_standard(self, rng):
        b = moving_frame(IDENT, rng.normal(size=3))
        assert np.allclose(b.columns, np.eye(3))

    def test_spherical_frame_is_orthogonal(self):
        b = moving_frame(SPH, [1.0, math.pi / 2.0, 0.0])
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(b.columns[:, i] @ b.columns[:, j]) < 1e-12


class TestChartMetric:
    def test_spherical_metric_diagonal(self):
        g = metric_in_chart(SPH, [2.0, math.pi / 2.0, 0.4])
        assert np.allclose(g.matrix, np.diag([1.0, 4.0, 4.0]), atol=1e-12)

    def test_spherical_metric_general_point(self):
        r, th = 1.5, 0.8
        g = metric_in_chart(SPH, [r, th, 2.0])
        want = np.diag([1.0, r ** 2, (r * math.sin(th)) ** 2])
        assert np.allclose(g.matrix, want, atol=1e-12)

    def test_cylindrical_metric(self):
        g = metric_in_chart(CYL, [3.0, 1.0, -2.0])
        assert np.allclose(g.matrix, np.diag([1.0, 9.0, 1.0]), atol=1e-12)

    def test_identity_metric(self, rng):
        g = metric_in_chart(IDENT, rng.normal(size=3))
        assert np.allclose(g.matrix, np.eye(3), atol=1e-12)


class TestChristoffel:
    def test_identity_chart_all_zero(self, rng):
        got = christoffel(IDENT, rng.normal(size=3))
        assert np.max(np.abs(got.values)) < 1e-12

    def test_cylindrical_values_at_r_two(self):
        got = christoffel(CYL, [2.0, 0.7, 0.0])
        assert got.get(1, 2, 2) == pytest.approx(-2.0, abs=1e-10)
        assert got.get(2, 1, 2) == pytest.approx(0.5, abs=1e-10)
        assert got.get(2, 2, 1) == pytest.approx(0.5, abs=1e-10)
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = True
        assert np.max(np.abs(got.values[~mask])) < 1e-10

    def test_spherical_values_at_unit_radius(self):
        got = christoffel(SPH, [1.0, math.pi / 2.0, 0.3])
        assert got.get(1, 2, 2) == pytest.approx(-1.0, abs=1e-10)
        assert got.get(1, 3, 3) == pytest.approx(-1.0, abs=1e-10)
        assert got.get(2, 1, 2) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_in_lower_indices(self, rng):
        for chart in (CYL, SPH):
            for y in chart.sample_points(30, rng):
                assert christoffel(chart, y).symmetry_residual() < 1e-9

    def test_both_computation_paths_agree(self, rng):
        # derivative-of-S route vs derivative-of-T route
        for chart in (CYL, SPH):
            for y in chart.sample_points(10, rng):
                a = christoffel(chart, y).values
                b = christoffel_alt(chart, y)
                assert np.max(np.abs(a - b)) < 1e-5

    def test_second_partials_tables_match_differences(self, rng):
        for chart in (CYL, SPH):
            stripped = tc.Chart(
                name=chart.name + "-fd",
                forward=chart.forward,
                inverse=chart.inverse,
                jac_forward=chart.jac_forward,
                jac_inverse=chart.jac_inverse,
                domain=chart.domain,
                sample_bounds=chart.sample_bounds,
            )
            for y in chart.sample_points(5, rng):
                got = jacobian_derivative(stripped, y)
                want = jacobian_derivative(chart, y)
                assert np.max(np.abs(got - want)) < 1e-5

    def test_get_rejects_indices_outside_one_to_three(self):
        got = christoffel(CYL, [2.0, 0.7, 0.0])
        for k, i, j in ((0, 1, 1), (1, 4, 1), (1, 1, -1)):
            with pytest.raises(TensorIndexError):
                got.get(k, i, j)

    @pytest.mark.parametrize("name", ["cylindrical", "spherical", "table"])
    def test_second_differences_of_forward_map_match_closed_forms(self, name, rng):
        # with only forward/inverse maps, jacobian_derivative is the second
        # difference of the forward map
        if name == "table":
            chart = load_chart(TABLE_CONFIG)
        else:
            full = builtin_chart(name)
            chart = tc.Chart(name + "-maps", full.forward, full.inverse,
                             domain=full.domain, sample_bounds=full.sample_bounds)
        for y in chart.sample_points(50, rng):
            if name == "table":  # x = (y1 + a sin y2, y2, y3 + b y1^2)
                want = np.zeros((3, 3, 3))
                want[0, 1, 1] = -TABLE_A * math.sin(y[1])
                want[2, 0, 0] = 2.0 * TABLE_B
            else:
                want = full.jac_forward_partials(y)
            assert np.max(np.abs(jacobian_derivative(chart, y) - want)) < 1e-6

    def test_second_differences_of_a_compiled_table_map(self, rng):
        # load_chart gives analytic second partials; a chart built from its
        # forward and inverse maps alone takes the second-difference path
        full = load_chart(TABLE_CONFIG)
        chart = tc.Chart("table-maps", full.forward, full.inverse,
                         domain=full.domain, sample_bounds=full.sample_bounds)
        assert chart.jac_forward_partials is None and not chart.analytic
        for y in chart.sample_points(50, rng):  # x = (y1 + a sin y2, y2, y3 + b y1^2)
            want = np.zeros((3, 3, 3))
            want[0, 1, 1] = -TABLE_A * math.sin(y[1])
            want[2, 0, 0] = 2.0 * TABLE_B
            assert np.max(np.abs(jacobian_derivative(chart, y) - want)) < 1e-6


class TestCovariantDerivative:
    def test_identity_chart_reduces_to_plain_derivative(self, rng):
        f = TensorField.vector(
            lambda y: np.array([y[0] * y[1], y[2] ** 2, y[0]]))
        y0 = rng.uniform(-1.0, 1.0, size=3)
        got = covariant_derivative(IDENT, f).evaluate(y0)
        want = nabla(f).evaluate(y0)
        assert np.max(np.abs(got.array - want.array)) < 1e-9

    def test_metric_field_has_zero_covariant_derivative(self, rng):
        for chart in (CYL, SPH):
            gfield = TensorField(
                (0, 2), lambda y, chart=chart: metric_in_chart(chart, y).matrix)
            for y in chart.sample_points(10, rng):
                got = covariant_derivative(chart, gfield).evaluate(y)
                assert got.valency == Valency(0, 3)
                assert np.max(np.abs(got.array)) < 1e-6

    def test_unit_matrix_field_is_parallel(self, rng):
        for chart in (CYL, SPH):
            f = TensorField((1, 1), lambda y: np.eye(3))
            y = chart.sample_points(5, rng)[0]
            got = covariant_derivative(chart, f).evaluate(y)
            assert np.max(np.abs(got.array)) < 1e-8

    def test_product_rule(self, rng):
        # d(a x) = (d a) x + a (d x), with the derivative slot leading the
        # lower block in each summand
        a = TensorField.covector(
            lambda y: np.array([y[0] ** 2, y[1] * y[2], y[0] - y[2]]))
        x = TensorField.vector(
            lambda y: np.array([y[1], y[0] * y[2], y[2] ** 2]))
        prod = TensorField(
            (1, 1), lambda y: np.einsum(
                "j,i->ij", a.evaluate_array(y), x.evaluate_array(y)))
        for chart in (CYL, SPH):
            y = chart.sample_points(3, np.random.default_rng(5))[1]
            lhs = covariant_derivative(chart, prod).evaluate_array(y)
            da = covariant_derivative(chart, a).evaluate_array(y)
            dx = covariant_derivative(chart, x).evaluate_array(y)
            rhs = (np.einsum("pj,i->ipj", da, x.evaluate_array(y))
                   + np.einsum("j,ip->ipj", a.evaluate_array(y), dx))
            assert np.max(np.abs(lhs - rhs)) < 1e-5

    def test_contraction_commutes(self, rng):
        f = TensorField((1, 1), lambda y: np.array([
            [y[0], y[1], 0.0],
            [y[2] ** 2, y[0] * y[1], 1.0],
            [0.0, y[2], y[0] ** 2],
        ]))
        contracted = TensorField(
            (0, 0), lambda y: np.trace(f.evaluate_array(y)))
        for chart in (CYL, SPH):
            y = chart.sample_points(3, np.random.default_rng(11))[2]
            direct = covariant_derivative(chart, contracted).evaluate_array(y)
            lifted = covariant_derivative(chart, f).evaluate(y)
            # after differentiation the original lower slot sits second
            chained = lifted.contract(1, 2).array
            assert np.max(np.abs(direct - chained)) < 1e-5


class TestChartToChart:
    def test_same_chart_is_identity(self, rng):
        f = TensorField.vector(lambda y: np.array([y[0], 1.0, y[2] * y[1]]))
        moved = chart_to_chart_transform(f, CYL, CYL)
        for y in CYL.sample_points(10, rng):
            assert np.max(np.abs(moved.evaluate_array(y) -
                                 f.evaluate_array(y))) < 1e-9

    def test_scalar_field_is_reparameterized_only(self, rng):
        phi = TensorField.scalar(lambda y: y[0] ** 2)  # squared radius
        moved = chart_to_chart_transform(phi, SPH, CYL)
        for y_cyl in CYL.sample_points(10, rng):
            r, z = y_cyl[0], y_cyl[2]
            want = r ** 2 + z ** 2
            assert abs(moved.evaluate(y_cyl).item() - want) < 1e-9

    def test_round_trip_through_other_chart(self, rng):
        f = TensorField.vector(lambda y: np.array([y[0], 1.0, 0.5 * y[2]]))
        there = chart_to_chart_transform(f, CYL, SPH)
        back = chart_to_chart_transform(there, SPH, CYL)
        for y in CYL.sample_points(10, rng):
            assert np.max(np.abs(back.evaluate_array(y) -
                                 f.evaluate_array(y))) < 1e-6

    def test_each_domain_is_checked_once_per_point(self, rng, monkeypatch):
        f = TensorField.vector(lambda y: np.array([y[0], 1.0, 0.5 * y[2]]))
        points = SPH.sample_points(10, rng)
        rows = {}
        inside = tc.Chart._inside

        def counting(chart, pts):
            rows[chart.name] = rows.get(chart.name, 0) + len(pts)
            return inside(chart, pts)

        monkeypatch.setattr(tc.Chart, "_inside", counting)
        values, failures = chart_to_chart_transform(f, CYL, SPH).evaluate_batch(points)
        assert not failures
        assert rows == {"cylindrical": 10, "spherical": 10}
        monkeypatch.undo()
        # the same bits as the walk through jacobians of both charts
        for y, got in zip(points, values):
            y_source = CYL.inverse(SPH.forward(y))
            want = (f.evaluate(y_source).transform(jacobians(CYL, y_source), "new->old")
                    .transform(jacobians(SPH, y), "old->new").array)
            assert np.array_equal(got, want)

    def test_origin_fails_alone_where_the_spherical_inverse_raises(self):
        # the spherical inverse raises for a whole array that holds the origin
        f = TensorField.vector(lambda y: np.array([y[0], 1.0, y[2] * y[1]]))
        moved = chart_to_chart_transform(f, SPH, IDENT)
        points = [[0.5, 0.2, 0.3], [0.0, 0.0, 0.0], [0.1, 0.1, 0.1]]
        values, failures = moved.evaluate_batch(points)
        assert {k: str(exc) for k, exc in failures.items()} == {
            1: "origin has no spherical coordinates"}
        assert isinstance(failures[1], DomainError)
        assert np.all(np.isnan(values[1]))
        for n in (0, 2):
            assert np.array_equal(values[n], moved.evaluate_array(points[n]))


class TestCoordinateLines:
    def test_circle_traced_by_angle_coordinate(self):
        angles = np.linspace(-math.pi, math.pi, 17)
        pts = coordinate_line(CYL, [2.0, 0.0, 1.0], 2, angles)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(radii, 2.0, atol=1e-12)
        assert np.allclose(pts[:, 2], 1.0)

    def test_ray_traced_by_radius_coordinate(self):
        pts = coordinate_line(SPH, [1.0, math.pi / 2.0, 0.0], 1,
                              [0.5, 1.0, 2.0])
        assert np.allclose(pts, [[0.5, 0, 0], [1, 0, 0], [2, 0, 0]],
                           atol=1e-12)


class TestOperatorsInChart:
    def test_laplacian_of_squared_radius_in_spherical(self, rng):
        phi = TensorField.scalar(lambda y: y[0] ** 2)
        lap = laplacian_in_chart(SPH, phi)
        for y in SPH.sample_points(20, rng):
            assert abs(lap.evaluate(y).item() - 6.0) < 1e-4

    def test_divergence_of_radial_field_in_spherical(self, rng):
        f = TensorField.vector(lambda y: np.array([y[0], 0.0, 0.0]))
        div = divergence_in_chart(SPH, f)
        for y in SPH.sample_points(20, rng):
            assert abs(div.evaluate(y).item() - 3.0) < 1e-4

    def test_gradient_of_height_in_cylindrical(self, rng):
        phi = TensorField.scalar(lambda y: y[2])
        grad = gradient_vector_in_chart(CYL, phi)
        for y in CYL.sample_points(10, rng):
            assert np.max(np.abs(grad.evaluate_array(y) -
                                 np.array([0.0, 0.0, 1.0]))) < 1e-6

    def test_gradient_covector_is_plain_partials_for_scalars(self, rng):
        phi = TensorField.scalar(lambda y: y[0] ** 2 * y[1])
        grad = gradient_covector_in_chart(SPH, phi)
        y = SPH.sample_points(5, rng)[0]
        want = tc.derivative_table(phi, y).ravel()
        assert np.max(np.abs(grad.evaluate_array(y) - want)) < 1e-6

    def test_rotor_in_identity_chart_matches_euclidean_curl(self, rng):
        f = TensorField.vector(lambda y: np.array([-y[1], y[0], 0.0]))
        rot = rotor_in_chart(IDENT, f)
        y = rng.uniform(-1.0, 1.0, size=3)
        assert np.max(np.abs(rot.evaluate_array(y) -
                             np.array([0.0, 0.0, 2.0]))) < 1e-6

    def test_operators_match_ambient_computation(self, rng):
        # push the field to ambient coordinates, apply the flat-space
        # operator there, pull the answer back
        for chart in (CYL, SPH):
            phi = TensorField.scalar(
                lambda y, chart=chart: float(
                    np.sum(np.asarray(chart.forward(y)) ** 2)
                    - chart.forward(y)[0] * chart.forward(y)[2]))

            def phi_ambient(x):
                return float(np.sum(np.asarray(x) ** 2) - x[0] * x[2])

            phi_cart = TensorField.scalar(phi_ambient)
            lap_chart = laplacian_in_chart(chart, phi)
            lap_cart = tc.laplacian(Metric.euclidean(), phi_cart)
            for y in chart.sample_points(5, rng):
                x = np.asarray(chart.forward(y), dtype=float)
                assert abs(lap_chart.evaluate(y).item() -
                           lap_cart.evaluate(x).item()) < 1e-4

    def test_gradient_pushes_forward_to_ambient_gradient(self, rng):
        for chart in (CYL, SPH):
            phi = TensorField.scalar(
                lambda y, chart=chart: chart.forward(y)[0] ** 2
                + chart.forward(y)[1])

            def phi_ambient(x):
                return x[0] ** 2 + x[1]

            grad_chart = gradient_vector_in_chart(chart, phi)
            grad_cart = tc.gradient_vector(
                Metric.euclidean(), TensorField.scalar(phi_ambient))
            for y in chart.sample_points(5, rng):
                s = jacobians(chart, y).S
                pushed = s @ grad_chart.evaluate_array(y)
                x = np.asarray(chart.forward(y), dtype=float)
                assert np.max(np.abs(pushed - grad_cart.evaluate_array(x))) \
                    < 1e-4


class TestRejectedInputs:
    """Error branches the other tests never reach, with their messages."""

    POLE = [1.0, 0.0, 0.0]   # theta = 0: a spherical pole

    @pytest.mark.parametrize("call", [
        jacobian_direct, jacobian_inverse, jacobian_derivative, christoffel_alt,
        lambda chart, y: coordinate_line(chart, y, 1, [0.5, 1.0]),
    ], ids=["jacobian_direct", "jacobian_inverse", "jacobian_derivative",
            "christoffel_alt", "coordinate_line"])
    def test_a_pole_is_outside_the_spherical_domain(self, call):
        with pytest.raises(DomainError) as info:
            call(SPH, self.POLE)
        assert str(info.value) == \
            "point [1.0, 0.0, 0.0] outside domain of chart 'spherical'"

    def test_chart_to_chart_fails_where_the_charts_do_not_overlap(self):
        f = TensorField.vector(lambda y: np.array([y[0], 1.0, y[2]]))
        with pytest.raises(DomainError) as info:
            chart_to_chart_transform(f, CYL, IDENT).evaluate([0.0, 0.0, 1.0])
        assert str(info.value) == ("point [0.0, 0.0, 1.0] is outside chart "
                                   "'cylindrical'; charts do not overlap here")
        with pytest.raises(DomainError, match="^origin has no spherical coordinates$"):
            chart_to_chart_transform(f, SPH, IDENT).evaluate([0.0, 0.0, 0.0])

    def test_coordinate_line_axis_out_of_range(self):
        with pytest.raises(tc.ShapeError, match=r"^axis 4 out of range 1\.\.3$"):
            coordinate_line(CYL, [1.0, 0.0, 0.0], 4, [1.0])

    def test_operators_reject_the_wrong_valency_or_dimension(self):
        vector = TensorField.vector(lambda y: np.array(y))
        for op, message in ((gradient_covector_in_chart, "gradient needs a scalar field"),
                            (gradient_vector_in_chart, "gradient needs a scalar field"),
                            (laplacian_in_chart, "laplacian needs a scalar field")):
            with pytest.raises(tc.ShapeError, match=f"^{message}$"):
                op(SPH, vector)
        with pytest.raises(tc.ShapeError, match="^rotor needs a vector field$"):
            rotor_in_chart(SPH, TensorField.scalar(lambda y: 1.0))
        plane = tc.Chart("plane", lambda y: y, lambda x: x, dim=2)
        with pytest.raises(tc.ShapeError, match="^rotor is defined for dimension 3$"):
            rotor_in_chart(plane, TensorField.vector(lambda y: np.array(y), dim=2))


    def test_divergence_slot_beyond_the_upper_slots_is_contract_s_error(self):
        vector = TensorField.vector(lambda y: np.array(y))
        with pytest.raises(TensorIndexError) as got:
            divergence_in_chart(SPH, vector, slot=2)
        with pytest.raises(TensorIndexError) as want:
            tc.DenseTensor.from_array(np.eye(3), 1, 1).contract(2, 1)
        assert str(got.value) == str(want.value) == "upper slot 2 out of range 1..1"


class TestCustomCharts:
    def shear_config(self):
        return {
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

    def test_linear_shear_chart(self, tmp_path, rng):
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(self.shear_config()))
        chart = load_chart(str(path))
        assert chart.name == "shear"
        assert np.allclose(chart.forward([1.0, 2.0, 3.0]), [2.0, 2.0, 3.0])
        for y in chart.sample_points(20, rng):
            back = chart.inverse(chart.forward(y))
            assert np.max(np.abs(np.asarray(back) - y)) < 1e-9
        p = jacobians(chart, [0.1, 0.2, 0.3])
        want = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(p.S - want)) < 1e-6
        # a linear map has constant Jacobians, hence vanishing symbols
        g = christoffel(chart, [0.4, -0.3, 0.2])
        assert np.max(np.abs(g.values)) < 1e-4

    def test_trigonometric_components(self, tmp_path):
        config = {
            "name": "polarish",
            "forward": [
                [{"coeff": 1.0, "powers": [1, 0, 0],
                  "trig": [None, {"fn": "cos", "freq": 1.0}, None]}],
                [{"coeff": 1.0, "powers": [1, 0, 0],
                  "trig": [None, {"fn": "sin", "freq": 1.0}, None]}],
                [{"coeff": 1.0, "powers": [0, 0, 1]}],
            ],
            "inverse": [
                [{"coeff": 1.0, "powers": [1, 0, 0]}],
                [{"coeff": 1.0, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [0, 0, 1]}],
            ],
            "bounds": {"min": [0.5, -1.0, -1.0], "max": [2.0, 1.0, 1.0]},
        }
        path = tmp_path / "polarish.json"
        path.write_text(json.dumps(config))
        chart = load_chart(str(path))
        got = chart.forward([2.0, 0.0, 0.5])
        assert np.allclose(got, [2.0, 0.0, 0.5], atol=1e-12)
        got = chart.forward([1.0, math.pi / 2.0, 0.0])
        assert np.allclose(got, [0.0, 1.0, 0.0], atol=1e-12)

    def test_out_of_bounds_points_rejected(self, tmp_path):
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(self.shear_config()))
        chart = load_chart(str(path))
        assert not chart.contains([5.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            jacobians(chart, [5.0, 0.0, 0.0])

    def test_missing_inverse_table_rejected(self, tmp_path):
        config = self.shear_config()
        del config["inverse"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ParameterError):
            load_chart(str(path))
