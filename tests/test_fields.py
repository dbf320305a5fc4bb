"""Tensor fields, numerical differentiation, and vector-calculus operators."""

import numpy as np
import pytest

import tensorcalc as tc
from tensorcalc import (
    DenseTensor,
    DifferentiationScheme,
    DomainError,
    Metric,
    ParameterError,
    ShapeError,
    TensorField,
    Valency,
    dalembert,
    divergence,
    gradient_covector,
    gradient_vector,
    laplacian,
    nabla,
    parameter_derivative,
    rotor,
)
from tensorcalc.fields import _batched
from conftest import random_invertible

EUCLID = Metric.euclidean()


def polynomial_scalar_fields():
    return [
        TensorField.scalar(lambda p: p[0] ** 2 + p[1] ** 2 + p[2] ** 2),
        TensorField.scalar(lambda p: p[0] * p[1] * p[2]),
        TensorField.scalar(lambda p: p[0] ** 3 - 2.0 * p[1] ** 2 * p[2]),
        TensorField.scalar(lambda p: 1.0 + p[0] - p[1] + 0.5 * p[2] ** 2),
        TensorField.scalar(lambda p: p[0] ** 2 * p[1] - p[2] ** 3),
    ]


class TestTensorField:
    def test_scalar_field_evaluates(self):
        f = TensorField.scalar(lambda p: p[0] + p[1])
        assert f.evaluate([1.0, 2.0, 5.0]).item() == 3.0

    def test_vector_field_shape_enforced(self):
        f = TensorField.vector(lambda p: np.zeros(2))
        with pytest.raises(ShapeError):
            f.evaluate([0.0, 0.0, 0.0])

    def test_constant_field_ignores_point(self, rng):
        t = DenseTensor.from_array(rng.normal(size=(3, 3)), 1, 1)
        f = TensorField.constant(t)
        assert f.evaluate(rng.normal(size=3)).allclose(t)

    def test_valency_pair_of_floats_is_coerced_as_for_dense_tensors(self):
        f = TensorField((1.0, 0), lambda p: np.asarray(p, dtype=float))
        assert f.valency == Valency(1, 0)
        want = DenseTensor.from_array([1.0, 2.0, 5.0], 1, 0)
        assert f.evaluate(want.array).allclose(want)

    def test_parameter_required_when_declared(self):
        f = TensorField.scalar(lambda p, t: t * p[0], has_parameter=True)
        with pytest.raises(ParameterError):
            f.evaluate([1.0, 0.0, 0.0])
        assert f.evaluate([2.0, 0.0, 0.0], t=3.0).item() == 6.0

    def test_declared_partials_win_over_differences(self):
        calls = []

        def dphi(p):
            calls.append(1)
            return np.array([2.0 * p[0], 0.0, 0.0])

        f = TensorField.scalar(lambda p: p[0] ** 2, partials=dphi)
        table = tc.derivative_table(f, [3.0, 0.0, 0.0])
        assert calls
        assert np.allclose(np.asarray(table).ravel(), [6.0, 0.0, 0.0])

    def test_second_partials_without_partials_are_rejected(self):
        # the operators would difference the function and never call them
        with pytest.raises(ParameterError, match="^second_partials needs partials$"):
            TensorField(Valency(0, 0), lambda p: p[0] ** 2,
                        second_partials=lambda p: np.zeros((3, 3)))


    def test_batched_function_of_the_wrong_shape_is_rejected(self):
        @_batched
        def func(points):
            return np.zeros((len(points), 2)), {}

        with pytest.raises(ShapeError, match=r"^field returned shape \(2,\), expected \(\)$"):
            TensorField.scalar(func).evaluate_batch(np.zeros((3, 3)))

    def test_arithmetic_error_outside_probing_propagates(self):
        f = TensorField.scalar(lambda p: 1.0 / float(p[0]))
        with pytest.raises(ZeroDivisionError):
            f.evaluate_batch(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


class TestScheme:
    def test_invalid_order_rejected(self):
        with pytest.raises(ParameterError):
            DifferentiationScheme(order=3)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ParameterError):
            DifferentiationScheme(step=0.0)

    def test_fourth_order_converges_faster(self):
        # derivative of sin at 0.7 with halved steps: the 4th-order error
        # must shrink at least 4x faster than the 2nd-order error
        f = TensorField.scalar(lambda p: np.sin(p[0]))
        exact = np.cos(0.7)

        def err(order, h):
            sch = DifferentiationScheme(order=order, step=h)
            return abs(nabla(f, sch).evaluate([0.7, 0.0, 0.0]).get(
                (), (1,)) - exact)

        e2a, e2b = err(2, 1e-2), err(2, 5e-3)
        e4a, e4b = err(4, 1e-2), err(4, 5e-3)
        assert (e4a / e4b) > 4.0 * (e2a / e2b) * 0.5
        assert e4b < e2b


class TestSecondPartials:
    @staticmethod
    def trig_polynomial(p):
        return (1.3 * p[0] ** 2 * np.sin(2.0 * p[1]) - 0.4 * p[0] * p[2]
                + 0.8 * p[1] * np.cos(p[0]) * np.sin(p[2]))

    @staticmethod
    def hessian(p):
        c0, s0, c2, s2 = np.cos(p[0]), np.sin(p[0]), np.cos(p[2]), np.sin(p[2])
        h01 = 5.2 * p[0] * np.cos(2.0 * p[1]) - 0.8 * s0 * s2
        h02 = -0.4 - 0.8 * p[1] * s0 * c2
        h12 = 0.8 * c0 * c2
        return np.array([[2.6 * np.sin(2.0 * p[1]) - 0.8 * p[1] * c0 * s2, h01, h02],
                         [h01, -5.2 * p[0] ** 2 * np.sin(2.0 * p[1]), h12],
                         [h02, h12, -0.8 * p[1] * c0 * s2]])

    @pytest.mark.parametrize("order", [2, 4])
    def test_mixed_partials_match_closed_form(self, rng, order):
        # both axes of a mixed stencil take the second-derivative step, so
        # its round-off stays near sqrt(eps) as for the pure ones
        phi = TensorField.scalar(self.trig_polynomial)
        scheme = DifferentiationScheme(order)
        mixed = ~np.eye(3, dtype=bool)
        worst = 0.0
        for p in rng.uniform(-2.0, 2.0, size=(1000, 3)):
            want = self.hessian(p)[mixed]
            got = tc.fields._hessian(phi, p, None, scheme)[mixed]
            worst = max(worst, np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        assert worst < 2e-7


class TestNabla:
    def test_constant_field_has_zero_derivative(self, rng):
        f = TensorField.constant(
            DenseTensor.from_array(rng.normal(size=3), 1, 0))
        got = nabla(f).evaluate(rng.normal(size=3))
        assert got.valency == Valency(1, 1)
        assert np.max(np.abs(got.array)) < 1e-9

    def test_linear_scalar_field_gradient(self):
        f = TensorField.scalar(lambda p: p[0])
        got = nabla(f).evaluate([0.3, -0.7, 2.0])
        assert got.valency == Valency(0, 1)
        assert np.allclose(got.array, [1.0, 0.0, 0.0], atol=1e-9)

    def test_position_field_derivative_is_unit_matrix(self):
        f = TensorField.vector(lambda p: np.asarray(p, dtype=float))
        got = nabla(f).evaluate([1.0, 2.0, 3.0])
        assert got.valency == Valency(1, 1)
        assert np.max(np.abs(got.array - np.eye(3))) < 1e-8

    def test_new_slot_is_first_lower(self):
        # field X^i = x^1 * e_i picks derivative only along coordinate 1,
        # so the (i, q) entry is nonzero only at q=1
        f = TensorField.vector(
            lambda p: np.array([p[0], 2.0 * p[0], 3.0 * p[0]]))
        got = nabla(f).evaluate([0.5, 0.5, 0.5])
        assert abs(got.get((2,), (1,)) - 2.0) < 1e-8
        assert abs(got.get((2,), (2,))) < 1e-8

    def test_analytic_partials_are_used_exactly(self):
        f = TensorField.scalar(
            lambda p: p[0] ** 2,
            partials=lambda p: np.array([2.0 * p[0], 0.0, 0.0]))
        got = nabla(f).evaluate([1.5, 0.0, 0.0])
        assert got.get((), (1,)) == 3.0

    def test_failure_at_probe_reports_domain_error(self):
        def partial_func(p):
            if p[0] <= 0:
                raise ValueError("outside")
            return np.log(p[0])

        f = TensorField.scalar(partial_func)
        with pytest.raises(DomainError):
            nabla(f).evaluate([1e-12, 0.0, 0.0])


class TestParameterDerivative:
    def test_static_field_gives_zero(self):
        f = TensorField.scalar(lambda p: p[0])
        got = parameter_derivative(f, 0.0).evaluate([4.0, 0.0, 0.0])
        assert got.item() == 0.0

    def test_linear_in_parameter_gives_constant(self, rng):
        c = DenseTensor.from_array(rng.normal(size=3), 1, 0)
        f = TensorField((1, 0), lambda p, t: t * c.array, has_parameter=True)
        got = parameter_derivative(f, 1.7).evaluate(rng.normal(size=3))
        assert got.allclose(c, tol=1e-7)

    def test_quadratic_in_parameter(self):
        c = DenseTensor.from_array(np.array([1.0, 1.0, 2.0]), 1, 0)
        f = TensorField((1, 0), lambda p, t: t * t * c.array,
                        has_parameter=True)
        got = parameter_derivative(f, 3.0).evaluate([0.0, 0.0, 0.0])
        assert np.max(np.abs(got.array - 6.0 * c.array)) < 1e-5


class TestGradient:
    def test_constant_scalar_gives_zero(self):
        f = TensorField.scalar(lambda p: 4.25)
        got = gradient_covector(f).evaluate([1.0, 2.0, 3.0])
        assert np.max(np.abs(got.array)) < 1e-10

    def test_euclidean_vector_and_covector_forms_coincide(self, rng):
        f = TensorField.scalar(lambda p: p[0] * p[1] - p[2] ** 2)
        p = rng.normal(size=3)
        cov = gradient_covector(f).evaluate(p)
        vec = gradient_vector(EUCLID, f).evaluate(p)
        assert np.allclose(cov.array, vec.array, atol=1e-12)
        assert cov.valency == Valency(0, 1)
        assert vec.valency == Valency(1, 0)

    def test_product_field_gradient(self):
        f = TensorField.scalar(lambda p: p[0] * p[1])
        got = gradient_vector(EUCLID, f).evaluate([2.0, 5.0, 1.0])
        assert np.allclose(got.array, [5.0, 2.0, 0.0], atol=1e-8)

    def test_general_metric_raises_the_covector(self, rng):
        g = Metric(np.diag([1.0, 4.0, 9.0]))
        f = TensorField.scalar(lambda p: p[0] + p[1] + p[2])
        got = gradient_vector(g, f).evaluate(rng.normal(size=3))
        assert np.allclose(got.array, [1.0, 0.25, 1.0 / 9.0], atol=1e-8)


class TestDivergence:
    def test_position_field(self):
        f = TensorField.vector(lambda p: np.asarray(p, dtype=float))
        got = divergence(f).evaluate([1.0, 2.0, 3.0])
        assert abs(got.item() - 3.0) < 1e-8

    def test_constant_field(self, rng):
        f = TensorField.constant(
            DenseTensor.from_array(rng.normal(size=3), 1, 0))
        assert abs(divergence(f).evaluate(rng.normal(size=3)).item()) < 1e-9

    def test_quadratic_component(self):
        f = TensorField.vector(lambda p: np.array([p[0] ** 2, 0.0, 0.0]))
        got = divergence(f).evaluate([2.0, 0.0, 0.0])
        assert abs(got.item() - 4.0) < 1e-5

    def test_requires_an_upper_slot(self):
        f = TensorField.covector(lambda p: np.asarray(p, dtype=float))
        with pytest.raises(ShapeError):
            divergence(f)

    def test_slot_choice_on_two_upper_field(self, rng):
        # X^{ij} = x^i * c^j: contracting slot 1 gives 3 c, slot 2 gives
        # (sum_j dc^j/dx^j) x + ... = (c . e_j partials) -> grad picks c only
        c = rng.normal(size=3)
        f = TensorField((2, 0), lambda p: np.outer(np.asarray(p), c))
        got1 = divergence(f, slot=1).evaluate(rng.normal(size=3))
        assert np.allclose(got1.array, 3.0 * c, atol=1e-7)
        got2 = divergence(f, slot=2).evaluate(rng.normal(size=3))
        assert got2.valency == Valency(1, 0)


class TestLaplacian:
    def test_squared_radius(self, rng):
        f = TensorField.scalar(lambda p: p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
        for _ in range(5):
            got = laplacian(EUCLID, f).evaluate(rng.normal(size=3))
            assert abs(got.item() - 6.0) < 1e-6

    def test_linear_field(self, rng):
        f = TensorField.scalar(lambda p: p[0] - 2.0 * p[1])
        assert abs(laplacian(EUCLID, f).evaluate(rng.normal(size=3)).item()) \
            < 1e-7

    def test_cubic_component(self):
        f = TensorField.scalar(lambda p: p[0] ** 3)
        got = laplacian(EUCLID, f).evaluate([2.0, 0.0, 0.0])
        assert abs(got.item() - 12.0) < 1e-3

    def test_matches_plain_second_differences_for_euclidean(self, rng):
        # with the unit metric the operator is the plain sum of pure second
        # derivatives
        for f in polynomial_scalar_fields():
            p = rng.uniform(-1.0, 1.0, size=3)
            got = laplacian(EUCLID, f).evaluate(p).item()
            h = 1e-4
            direct = 0.0
            for q in range(3):
                e = np.zeros(3)
                e[q] = h
                direct += (f.evaluate(p + e).item() - 2.0 *
                           f.evaluate(p).item() + f.evaluate(p - e).item()) / h ** 2
            assert abs(got - direct) < 1e-6


class TestDalembert:
    def test_nonpositive_speed_rejected(self):
        f = TensorField.scalar(lambda p, t: t, has_parameter=True)
        with pytest.raises(ParameterError):
            dalembert(0.0, f)
        with pytest.raises(ParameterError):
            dalembert(-1.0, f)

    def test_travelling_wave_is_annihilated(self):
        c = 2.0
        f = TensorField.scalar(lambda p, t: (p[0] - c * t) ** 2,
                               has_parameter=True)
        got = dalembert(c, f).evaluate([0.4, 0.0, 0.0], t=0.3)
        assert abs(got.item()) < 1e-3

    def test_static_field_reduces_to_negated_laplacian(self, rng):
        f = TensorField.scalar(lambda p: p[0] ** 2 + 3.0 * p[1] ** 2)
        p = rng.normal(size=3)
        wave = dalembert(1.0, f).evaluate(p).item()
        lap = laplacian(EUCLID, f).evaluate(p).item()
        assert abs(wave + lap) < 1e-6

    def test_pure_time_quadratic(self):
        c = 2.0
        f = TensorField.scalar(lambda p, t: t ** 2, has_parameter=True)
        got = dalembert(c, f).evaluate([1.0, 1.0, 1.0], t=0.7)
        assert abs(got.item() - 2.0 / c ** 2) < 1e-4


class TestRotor:
    def test_constant_field(self, rng):
        f = TensorField.constant(
            DenseTensor.from_array(rng.normal(size=3), 1, 0))
        got = rotor(EUCLID, f).evaluate(rng.normal(size=3))
        assert np.max(np.abs(got.array)) < 1e-9

    def test_rigid_rotation_field(self, rng):
        f = TensorField.vector(lambda p: np.array([-p[1], p[0], 0.0]))
        got = rotor(EUCLID, f).evaluate(rng.normal(size=3))
        assert np.allclose(got.array, [0.0, 0.0, 2.0], atol=1e-8)

    def test_gradient_fields_are_irrotational(self, rng):
        for f in polynomial_scalar_fields():
            grad = gradient_vector(EUCLID, f)
            p = rng.uniform(-1.0, 1.0, size=3)
            got = rotor(EUCLID, grad).evaluate(p)
            assert np.max(np.abs(got.array)) < 1e-3

    def test_rotor_fields_are_solenoidal(self, rng):
        samples = [
            TensorField.vector(lambda p: np.array(
                [p[1] * p[2], -p[0] ** 2, p[0] * p[1]])),
            TensorField.vector(lambda p: np.array(
                [p[2] ** 2, p[0] * p[1], -p[1] ** 2])),
        ]
        for f in samples:
            p = rng.uniform(-1.0, 1.0, size=3)
            got = divergence(rotor(EUCLID, f)).evaluate(p)
            assert abs(got.item()) < 1e-3

    def test_matches_determinant_rule_for_euclidean(self, rng):
        # unit metric: component r of the rotor is the familiar alternating
        # sum of first partials
        f = TensorField.vector(
            lambda p: np.array([p[1] * p[2], p[0] ** 2, p[1] - p[2]]))
        p = rng.uniform(-1.0, 1.0, size=3)
        got = rotor(EUCLID, f).evaluate(p).array
        table = tc.derivative_table(f, p)  # table[q, k] = d_q X^k
        want = np.array([
            table[1, 2] - table[2, 1],
            table[2, 0] - table[0, 2],
            table[0, 1] - table[1, 0],
        ])
        assert np.max(np.abs(got - want)) < 1e-6


class TestCovariance:
    def test_nabla_commutes_with_constant_matrix_changes(self, rng):
        # derivative first or transform first: same answer for linear
        # coordinate changes, valencies up to (1,1)
        from conftest import random_pair
        fields = [
            TensorField.scalar(lambda p: p[0] ** 2 - p[1] * p[2]),
            TensorField.vector(lambda p: np.array(
                [p[0] * p[1], p[2] ** 2, p[0] - p[2]])),
            TensorField((1, 1), lambda p: np.outer(
                np.array([p[0], p[1] ** 2, p[2]]), np.asarray(p))),
        ]
        for f in fields:
            pair = random_pair(rng)
            p_new = rng.uniform(-1.0, 1.0, size=3)
            p_old = pair.S @ p_new

            def in_new(q, f=f, pair=pair):
                return f.evaluate(pair.S @ np.asarray(q)).transform(
                    pair, "old->new").array

            f_new = TensorField(f.valency, in_new)
            lhs = nabla(f_new).evaluate(p_new)
            rhs = nabla(f).evaluate(p_old).transform(pair, "old->new")
            assert np.max(np.abs(lhs.array - rhs.array)) < 1e-6


class TestDimensionTwo:
    # quadratic fields: central differences are exact up to rounding
    G2 = Metric([[2.0, 0.6], [0.6, 1.0]])
    A = np.array([[1.5, -0.4], [-0.4, 0.8]])
    B = np.array([0.3, -1.1])
    M = np.array([[0.7, 2.0], [-1.3, 0.4]])

    def scalar(self):
        return TensorField.scalar(lambda p: 0.5 * p @ self.A @ p + self.B @ p, dim=2)

    @pytest.mark.parametrize("scheme", [None, DifferentiationScheme(4),
                                        DifferentiationScheme(2, step=1e-3)])
    def test_laplacian_is_the_dual_metric_trace_of_the_hessian(self, rng, scheme):
        lap = laplacian(self.G2, self.scalar(), scheme)
        want = np.sum(np.linalg.inv(self.G2.matrix) * self.A)
        for p in rng.uniform(-2.0, 2.0, size=(5, 2)):
            assert abs(lap.evaluate(p).item() - want) < 1e-6

    @pytest.mark.parametrize("scheme", [None, DifferentiationScheme(4)])
    def test_gradient_vector_raises_the_gradient(self, rng, scheme):
        grad = gradient_vector(self.G2, self.scalar(), scheme)
        assert grad.valency == Valency(1, 0) and grad.dim == 2
        for p in rng.uniform(-2.0, 2.0, size=(5, 2)):
            want = np.linalg.solve(self.G2.matrix, self.A @ p + self.B)
            assert np.allclose(grad.evaluate(p).array, want, rtol=0.0, atol=1e-7)

    def test_divergence_of_a_linear_field_is_its_trace(self, rng):
        field = TensorField.vector(lambda p: self.M @ p + self.B, dim=2)
        div = divergence(field)
        for p in rng.uniform(-2.0, 2.0, size=(5, 2)):
            assert abs(div.evaluate(p).item() - np.trace(self.M)) < 1e-8


class TestDimensionMismatch:
    def test_metric_and_field_dimensions_must_agree(self):
        phi = TensorField.scalar(lambda p: p[0] * p[1], dim=2)
        for build in (laplacian, gradient_vector):
            with pytest.raises(ShapeError, match="dimension 2.*dimension 3"):
                build(EUCLID, phi)


class TestFirstPartialsOnly:
    """A field with analytic first partials but no second partials: its
    second partials are central differences of the first, symmetrised."""

    SPHERICAL = tc.builtin_chart("spherical")

    @staticmethod
    def r_squared(partials=lambda y: np.array([2.0 * y[0], 0.0, 0.0])):
        return TensorField.scalar(lambda y: y[0] ** 2, partials=partials)

    def points(self):
        pts = self.SPHERICAL.sample_points(30, np.random.default_rng(5))
        pts[:, 2] = np.clip(pts[:, 2], -2.0, 2.0)
        return pts

    @pytest.mark.parametrize("scheme", [None, DifferentiationScheme(4)])
    def test_laplacian_of_squared_radius_is_six(self, scheme):
        values, failures = tc.laplacian_in_chart(
            self.SPHERICAL, self.r_squared(), scheme).evaluate_batch(self.points())
        assert not failures
        assert np.abs(values - 6.0).max() < 1e-8

    def test_second_partials_are_exactly_symmetric(self):
        field = TensorField.scalar(lambda y: y[0] ** 2 * np.sin(y[1]) * y[2],
                                   partials=lambda y: np.array([
                                       2.0 * y[0] * np.sin(y[1]) * y[2],
                                       y[0] ** 2 * np.cos(y[1]) * y[2],
                                       y[0] ** 2 * np.sin(y[1])]))
        _, d2, failures = tc.fields._partials(field, self.points(), None,
                                              DifferentiationScheme(2), second=True)
        assert not failures
        assert np.array_equal(d2, np.swapaxes(d2, 1, 2))

    def test_partials_failing_at_one_point_fail_that_row_only(self):
        def partials(y):
            if y[2] > 2.8:
                raise DomainError("no partials here")
            return np.array([2.0 * y[0], 0.0, 0.0])

        lap = tc.laplacian_in_chart(self.SPHERICAL, self.r_squared(partials))
        pts = self.points()
        pts[7, 2] = 3.0
        values, failures = lap.evaluate_batch(pts)
        assert list(failures) == [7] and isinstance(failures[7], DomainError)
        assert np.isnan(values[7])
        assert np.abs(np.delete(values, 7) - 6.0).max() < 1e-8
        with pytest.raises(DomainError, match="no partials here"):
            lap.evaluate(pts[7])
