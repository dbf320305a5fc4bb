"""The finite-difference engine, fields._differences, pinned from outside.

d/dt and d2/dt2 of a field with a parameter are the explicit central
stencil sums bit for bit, terms added in stencil order, and each t-probe
evaluates the field once per point. Every second partial the library
differences is exactly symmetric in its two derivative axes.
"""

import numpy as np
import pytest

from tensorcalc import (
    Chart,
    DifferentiationScheme,
    Metric,
    TensorField,
    builtin_chart,
    christoffel,
    dalembert,
    jacobian_derivative,
    laplacian,
    parameter_derivative,
)
from tensorcalc.fields import DEFAULT_SCHEME, _parameter_partial, _partials

SCHEMES = {"default": None, "central2": DifferentiationScheme(2),
           "central4": DifferentiationScheme(4),
           "central2-fixed": DifferentiationScheme(2, 1e-3),
           "central4-fixed": DifferentiationScheme(4, 1e-2)}


def _wave(y, t):
    return np.sin(y[0] - 1.3 * t) * y[1] + np.exp(0.2 * t * y[2]) + t ** 3


def _explicit(f, t, scheme, second):
    """The central stencil of d/dt (d2/dt2 when second) of f(t), written out."""
    scheme = DEFAULT_SCHEME if scheme is None else scheme
    if second:
        h = float(scheme.second_step(t))
        if scheme.order == 2:
            return (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)
        return (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h)
                - f(t - 2 * h)) / (12 * h * h)
    h = float(scheme.first_step(t))
    if scheme.order == 2:
        return (f(t + h) - f(t - h)) / (2 * h)
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


def _at_points(func, points):
    return lambda t: np.array([func(y, t) for y in points])


@pytest.mark.parametrize("t", [0.0, 0.7, -3.1, 12.5])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_parameter_derivative_is_the_explicit_stencil_sum(rng, name, t):
    scheme = SCHEMES[name]
    points = rng.uniform(-2.0, 2.0, size=(7, 3))
    phi = TensorField.scalar(_wave, has_parameter=True)
    values, failures = parameter_derivative(phi, t, scheme).evaluate_batch(points)
    assert not failures
    assert np.array_equal(values, _explicit(_at_points(_wave, points), t, scheme, False))


@pytest.mark.parametrize("t", [0.0, 0.7, -3.1, 12.5])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_dalembert_time_part_is_the_explicit_stencil_sum(rng, name, t):
    scheme, c = SCHEMES[name], 1.7
    points = rng.uniform(-2.0, 2.0, size=(7, 3))
    phi = TensorField.scalar(_wave, has_parameter=True)
    values, failures = dalembert(c, phi, scheme).evaluate_batch(points, t)
    lap, _ = laplacian(Metric.euclidean(3), phi, scheme).evaluate_batch(points, t)
    assert not failures
    want = _explicit(_at_points(_wave, points), t, scheme, True) / (c * c) - lap
    assert np.array_equal(values, want)


@pytest.mark.parametrize("second, order, count", [(False, 2, 2), (False, 4, 4),
                                                  (True, 2, 3), (True, 4, 5)])
def test_each_t_probe_evaluates_the_field_once_per_point(rng, second, order, count):
    calls = []

    def counted(y, t):
        calls.append((tuple(y), t))
        return _wave(y, t)

    points = rng.uniform(-2.0, 2.0, size=(6, 3))
    phi = TensorField.scalar(counted, has_parameter=True)
    _parameter_partial(phi, points, 0.4, DifferentiationScheme(order), second)
    assert len(calls) == len(set(calls)) == count * len(points)
    assert len({t for _, t in calls}) == count
    if not second:
        calls.clear()
        parameter_derivative(phi, 0.4, DifferentiationScheme(order)).evaluate_batch(points)
        assert len(calls) == count * len(points)


def test_an_empty_point_array_gives_empty_values_and_no_failures():
    empty = np.empty((0, 3))
    vector = TensorField.vector(lambda y, t: y * t, has_parameter=True)
    for second in (False, True):
        values, failures = _parameter_partial(vector, empty, 0.5, None, second)
        assert values.shape == (0, 3) and failures == {}
    values, failures = parameter_derivative(vector, 0.5).evaluate_batch(empty)
    assert values.shape == (0, 3) and failures == {}
    phi = TensorField.scalar(_wave, has_parameter=True)
    values, failures = dalembert(2.0, phi).evaluate_batch(empty, 0.5)
    assert values.shape == (0,) and failures == {}


# -- symmetry of the differenced second partials -----------------------------------


def _symmetric(d2, i, j):
    return np.array_equal(d2, np.swapaxes(d2, i, j))


def _trig_vector(y):
    return np.array([np.sin(y[0] * y[1]) * y[2], np.exp(0.3 * y[0] * y[2]), y[1] ** 3 * y[0]])


def _trig_vector_partials(y):
    d = np.zeros((3, 3))  # [q, component]
    d[0] = [np.cos(y[0] * y[1]) * y[1] * y[2], 0.3 * y[2] * np.exp(0.3 * y[0] * y[2]),
            y[1] ** 3]
    d[1] = [np.cos(y[0] * y[1]) * y[0] * y[2], 0.0, 3 * y[1] ** 2 * y[0]]
    d[2] = [np.sin(y[0] * y[1]), 0.3 * y[0] * np.exp(0.3 * y[0] * y[2]), 0.0]
    return d


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("with_partials", [False, True])
def test_second_partials_of_a_differenced_field_are_exactly_symmetric(rng, name,
                                                                      with_partials):
    partials = _trig_vector_partials if with_partials else None
    field = TensorField.vector(_trig_vector, partials=partials)
    points = rng.uniform(-2.0, 2.0, size=(20, 3))
    _, d2, failures = _partials(field, points, None, SCHEMES[name], second=True)
    assert not failures
    assert _symmetric(d2, 1, 2)


def _stripped(name, keep_jac_forward):
    """A built-in chart rebuilt from its maps, with or without its Jacobians."""
    full = builtin_chart(name)
    jacobians = (full.jac_forward, full.jac_inverse) if keep_jac_forward else ()
    return Chart(f"{name}-stripped", full.forward, full.inverse, *jacobians,
                 domain=full.domain, sample_bounds=full.sample_bounds)


@pytest.mark.parametrize("name", ["cylindrical", "spherical"])
@pytest.mark.parametrize("keep_jac_forward", [False, True])
def test_differenced_chart_second_partials_are_exactly_symmetric(rng, name,
                                                                  keep_jac_forward):
    chart = _stripped(name, keep_jac_forward)
    for y in chart.sample_points(50, rng):
        assert _symmetric(jacobian_derivative(chart, y), 1, 2)


@pytest.mark.parametrize("name", ["cylindrical", "spherical"])
def test_christoffel_of_a_chart_with_jac_forward_only_is_exactly_symmetric(rng, name):
    chart = _stripped(name, keep_jac_forward=True)
    for y in chart.sample_points(50, rng):
        assert christoffel(chart, y).symmetry_residual() == 0.0
