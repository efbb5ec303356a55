"""Quadrature utilities against hand integrals and mpmath."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfstable import StableParams, spectral
from halfstable.errors import NotIntegrable
from halfstable.numerics import (DOT_BLOCK, IntegrandProfile, blocked,
                                 integrate_finite_singular,
                                 integrate_interval,
                                 integrate_oscillatory_decaying,
                                 integrate_semi_infinite, panel_nodes)
from halfstable.profiles import upper_gamma


def _check(res, truth, tol=1e-10):
    assert res.converged
    assert abs(res.value - truth) <= max(10 * res.abs_error_estimate,
                                         10 * tol)


def test_plain_exponential():
    res = integrate_semi_infinite(lambda x: np.exp(-x),
                                  IntegrandProfile("exponential", rate=1.0))
    _check(res, 1.0)


def test_gaussian():
    res = integrate_semi_infinite(
        lambda x: np.exp(-x * x),
        IntegrandProfile("exponential", rate=1.0))
    _check(res, 0.5 * np.sqrt(np.pi))


def test_endpoint_singularity():
    # int_0^inf x^(-1/2) e^(-x) = Gamma(1/2)
    res = integrate_semi_infinite(
        lambda x: np.exp(-x) / np.sqrt(x),
        IntegrandProfile("exponential", rate=1.0, singularity=-0.5))
    _check(res, np.sqrt(np.pi))


def test_power_tail():
    res = integrate_semi_infinite(
        lambda x: 1.0 / (1.0 + x) ** 2,
        IntegrandProfile("power", rate=-2.0))
    _check(res, 1.0)


def test_damped_oscillation():
    res = integrate_semi_infinite(
        lambda x: np.exp(-x) * np.sin(3.0 * x),
        IntegrandProfile("exponential", rate=1.0, frequency=3.0))
    _check(res, 0.3)  # 3 / (1 + 9)


def test_conditionally_convergent():
    # int_0^inf sin(x)/x = pi/2, pure acceleration territory
    head = integrate_interval(lambda x: np.sinc(x / np.pi), 0.0, 10.0,
                              tol=1e-12, frequency=1.0)
    tail = integrate_oscillatory_decaying(
        lambda x: np.sin(x) / x, 1.0, tol=1e-11, start=10.0)
    assert tail.converged
    assert_allclose(head.value + tail.value, 0.5 * np.pi, atol=1e-9)


def test_finite_singular():
    # int_0^1 x^(-0.7) dx = 1/0.3
    res = integrate_finite_singular(lambda x: x ** -0.7, 1.0, -0.7)
    _check(res, 1.0 / 0.3)


def test_profile_validation():
    with pytest.raises(ValueError):
        IntegrandProfile("exponential", rate=0.0)
    with pytest.raises(ValueError):
        IntegrandProfile("mystery", rate=1.0)
    with pytest.raises(NotIntegrable):
        integrate_semi_infinite(lambda x: x, IntegrandProfile(
            "power", rate=-0.5))
    with pytest.raises(NotIntegrable):
        integrate_semi_infinite(lambda x: x, IntegrandProfile(
            "exponential", rate=1.0, singularity=-1.2))


def test_panel_nodes_polynomial_exactness():
    edges = np.array([0.0, 0.4, 1.0, 2.5])
    nodes, wts = panel_nodes(edges, order=16)
    # degree-21 polynomial is exact under 16-point Gauss panels
    val = np.sum(wts * nodes ** 21)
    assert_allclose(val, 2.5 ** 22 / 22.0, rtol=1e-14)


def test_upper_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    cases = [(0.3, 1.7), (2.5, 0.2), (-0.4, 0.9), (-1.6, 2.2)]
    for a, x in cases:
        ref = float(mp.gammainc(a, x, mp.inf))
        assert_allclose(upper_gamma(a, np.array([x]))[0], ref, rtol=1e-12)


def test_complex_integrand():
    # int_0^inf e^-(1 - 2i)x dx = 1 / (1 - 2i), one panel array per round
    res = integrate_semi_infinite(
        lambda x: np.exp(-(1.0 - 2.0j) * x),
        IntegrandProfile("exponential", rate=1.0, frequency=2.0))
    _check(res, 1.0 / (1.0 - 2.0j))
    res = integrate_interval(lambda x: np.exp(1j * x), 0.0, np.pi)
    _check(res, 2.0j)


def test_small_budget_stops_within_one_panel_pair():
    # the endpoint singularity never converges by bisection
    res = integrate_interval(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                             max_evals=1000)
    assert not res.converged
    assert 1000 <= res.evaluations <= 1000 + 72


def test_warm_survival_calls_its_integrand_a_few_times(monkeypatch):
    p = StableParams(0.3, 0.5)
    first = spectral.survival(p, 1.0, 1.0)  # builds profiles and spline
    calls = []
    inner = spectral.integrate_interval

    def counting(f, *args, **kwargs):
        def g(x):
            calls.append(x.size)
            return f(x)
        return inner(g, *args, **kwargs)

    monkeypatch.setattr(spectral, "integrate_interval", counting)
    assert spectral.survival(p, 1.0, 1.0) == first
    assert 0 < len(calls) < 60


@pytest.mark.parametrize("gamma", [-0.95, -0.97, -0.99, -0.9993])
def test_endpoint_panels_stay_off_zero(gamma):
    # x = v**p underflows to 0 for p = 40, 67, 200 and 2858; f must never
    # see it, and the mass below 1e-300, (1e-300)**(1 + gamma) /
    # (1 + gamma), up to 881 at gamma = -0.9993, is extrapolated into the
    # value.  At p = 2858 the panels start at v0 = 0.785, above the usual
    # first edge 1e-4.
    def f(x):
        assert np.all(x > 0)
        return x ** gamma

    res = integrate_finite_singular(f, 1.0, gamma)
    assert res.converged
    assert abs(res.value - 1.0 / (1.0 + gamma)) <= 1e-12


def test_endpoint_mass_catches_a_wrong_exponent():
    # declared x**-0.97 while x**-0.99 dominates below 1e-300: the two
    # extrapolations of the mass there disagree
    res = integrate_finite_singular(lambda x: x ** -0.97 + x ** -0.99, 1.0,
                                    -0.97)
    assert not res.converged
    assert res.abs_error_estimate > 1e-4


@pytest.mark.parametrize("width", [1, 37, 2 * DOT_BLOCK])
def test_blocked_matches_one_evaluation(width):
    # rows of `width` columns: blocks of DOT_BLOCK // width rows, or one
    # row when a row alone is wider than DOT_BLOCK.  A row sum, not a
    # BLAS dot, so each row's value cannot depend on the rows beside it.
    cols = np.linspace(0.0, 1.0, width)
    rows = max(1, DOT_BLOCK // width)
    for n in {max(1, rows - 1), rows, rows + 1}:
        a = np.linspace(0.5, 2.0, n)

        def fn(b):
            return np.sum(np.exp(-np.outer(b, cols)) * cols, axis=1)

        assert np.array_equal(blocked(fn, a, width), fn(a))
