"""Eigenfunction profile, its transforms, and the Doney-lattice products.

The closed-form transforms are verified against direct quadrature of the
assembled profile (two genuinely different code paths: the closed forms
never touch f_eigen, the quadratures never touch the transform-side
double sine ratios).  The Brownian case reduces to sin(x) and elementary
transforms.  On the Doney lattice alpha rho = l - k alpha the finite
products are compared with the generic double-sine evaluations.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfstable import DomainError, StableParams
from halfstable.eigenfunctions import (EigenFn, doney_g, doney_laplace_f,
                                       doney_mellin_f, f_eigen, g_func,
                                       laplace_f, laplace_f_quadrature,
                                       mellin_f, mellin_f_continued,
                                       mellin_f_quadrature,
                                       verify_lucky_integral)
from halfstable.model import detect_doney

TRANSFORM_PARAMS = [(1.5, 0.55), (1.3, 0.5)]


def test_brownian_profile_is_sine(p_brownian):
    fn = EigenFn(p_brownian)
    xs = np.array([0.3, 1.0, np.pi, 8.0])
    for x in xs:
        assert_allclose(f_eigen(fn, x), np.sin(x), atol=1e-14)
        assert_allclose(f_eigen(fn, x, deriv=1), np.cos(x), atol=1e-14)


def test_brownian_transforms_elementary(p_brownian):
    fn = EigenFn(p_brownian)
    # int e^-zx sin x dx = 1/(1+z^2)
    for z in (0.5, 2.0, 1.0 + 0.7j):
        assert_allclose(laplace_f(fn, z), 1.0 / (1.0 + z * z), rtol=1e-12)
    # int x^(z-1) sin x dx = Gamma(z) sin(pi z / 2) on (-1, 0)
    from scipy.special import gamma
    z = -0.4
    assert_allclose(mellin_f(fn, z),
                    gamma(z) * np.sin(0.5 * np.pi * z), rtol=1e-12)


def test_profile_vanishes_at_origin(p_generic):
    # F(0+) = 0 with the x^(alpha rho_hat) power; the sin(theta0) head
    # cancels against the G term.
    fn = EigenFn(p_generic)
    a_rh = p_generic.alpha * p_generic.rho_hat
    for x in (1e-4, 1e-3):
        val = f_eigen(fn, x)
        assert abs(val) < 10.0 * x ** a_rh * abs(f_eigen(fn, 0.01)) / 0.01 ** a_rh


def test_derivative_matches_difference_quotient(p_generic):
    fn = EigenFn(p_generic)
    h = 1e-5
    for x in (0.7, 2.0):
        fd = (f_eigen(fn, x + h) - f_eigen(fn, x - h)) / (2.0 * h)
        assert_allclose(f_eigen(fn, x, deriv=1), fd, atol=1e-9)


def test_g_is_completely_monotone_looking(p_generic):
    # positive, decreasing, convex on a grid -- the finite-difference
    # shadow of complete monotonicity.
    xs = np.linspace(0.1, 5.0, 40)
    g = np.array([g_func(p_generic, x) for x in xs])
    assert np.all(g > 0)
    assert np.all(np.diff(g) < 0)
    assert np.all(np.diff(g, 2) > 0)


def test_dual_direction_is_dual_params(p_generic):
    fd = EigenFn(p_generic, direction="dual")
    fp = EigenFn(p_generic.dual())
    for x in (0.4, 1.3, 3.0):
        assert f_eigen(fd, x) == f_eigen(fp, x)


@pytest.mark.parametrize("alpha,rho", TRANSFORM_PARAMS)
def test_laplace_closed_form_vs_quadrature(alpha, rho):
    fn = EigenFn(StableParams(alpha, rho))
    for z in (2.0, 0.8, 1.5 + 1.0j):
        quad = laplace_f_quadrature(fn, z)
        assert quad.converged
        assert abs(laplace_f(fn, z) - quad.value) < 1e-6


@pytest.mark.parametrize("alpha,rho", TRANSFORM_PARAMS)
def test_mellin_closed_form_vs_quadrature(alpha, rho):
    fn = EigenFn(StableParams(alpha, rho))
    for z in (-0.3 + 1.0j, -0.2 - 0.8j):
        quad = mellin_f_quadrature(fn, z)
        assert quad.converged
        assert abs(mellin_f(fn, z) - quad.value) < 1e-5


@pytest.mark.parametrize("alpha,rho", [(0.2, 0.9), (0.2, 0.95), (0.2, 0.98),
                                       (0.5, 0.98), (1.0, 0.98)])
def test_mellin_quadrature_at_small_alpha_rho_hat(alpha, rho):
    """At small alpha rho_hat the head's noise floor lies below x =
    1e-300, where e^u underflows; the head stops there and the power-law
    rest below it is added to the value."""
    p = StableParams(alpha, rho)
    fn = EigenFn(p)
    z = complex(-0.3 * alpha * p.rho_hat, 0.4)
    quad = mellin_f_quadrature(fn, z)
    assert quad.converged
    assert abs(quad.value - mellin_f(fn, z)) < 1e-8 * abs(mellin_f(fn, z))


@pytest.mark.parametrize("alpha,rho", TRANSFORM_PARAMS)
def test_mellin_quadrature_reports_its_noise_floor(alpha, rho):
    """Deep in the strip the x -> 0 factor amplifies the rounding
    residual of the assembled F beyond tolerance; the quadrature must
    say so rather than return a silently wrong value.
    """
    fn = EigenFn(StableParams(alpha, rho))
    quad = mellin_f_quadrature(fn, -0.5)
    assert not quad.converged
    true_err = abs(mellin_f(fn, -0.5) - quad.value)
    assert true_err < 3.0 * quad.abs_error_estimate


@pytest.mark.parametrize("alpha,rho", [(1.0, 0.9586), (1.5, 0.55)])
def test_eigenfunction_is_a_power_law_near_zero(alpha, rho):
    # F ~ C x^(alpha rho_hat): formed from terms that vanish at 0, F
    # keeps no constant rounding residual there
    p = StableParams(alpha, rho)
    x = np.array([1e-300, 1e-250, 1e-200])
    ratio = f_eigen(EigenFn(p), x) / x ** (alpha * p.rho_hat)
    assert_allclose(ratio, ratio[0], rtol=1e-6)


def test_mellin_quadrature_converges_only_within_tol():
    # the sub-quadratures each converge here, but their summed estimate
    # (5.8e-7) is above tol, and the true gap is 8.5e-7
    fn = EigenFn(StableParams(1.5, 0.6))
    z = -0.42 - 0.8j
    quad = mellin_f_quadrature(fn, z, tol=1e-8)
    assert not quad.converged or abs(quad.value - mellin_f(fn, z)) <= 1e-8


def test_laplace_abscissa_guard():
    # Re z must exceed cos(pi rho) when that is positive.
    fn = EigenFn(StableParams(1.3, 0.4))
    edge = np.cos(0.4 * np.pi)
    with pytest.raises(DomainError):
        laplace_f(fn, 0.9 * edge)
    assert np.isfinite(abs(laplace_f(fn, 1.1 * edge)))


def test_mellin_guards(p_generic):
    fn = EigenFn(p_generic)
    with pytest.raises(DomainError):
        mellin_f(fn, 0.5)  # right of the strip
    with pytest.raises(DomainError):
        mellin_f(fn, -0.9)  # left of the strip (-alpha rho_hat = -0.675)
    with pytest.raises(DomainError):
        mellin_f(EigenFn(StableParams(1.4, "3/7")), -0.3)  # unbounded F


def test_mellin_continued_extends_closed_form(p_generic):
    # agrees with mellin_f where both are defined
    fn = EigenFn(p_generic)
    z = -0.3 + 1.0j
    assert mellin_f_continued(p_generic, z) == mellin_f(fn, z)
    # and evaluates where mellin_f refuses
    val = mellin_f_continued(StableParams(1.4, "3/7"), -0.3)
    assert np.isfinite(abs(val))


DONEY_P = StableParams(1.4, "3/7")


def test_doney_class_detected():
    cls = detect_doney(DONEY_P)
    assert (cls.k, cls.l) == (1, 2)
    assert cls.residual <= 1e-12


def test_doney_g_matches_generic():
    for x in (0.2, 0.7, 1.1, 2.5, 6.0):
        want = g_func(DONEY_P, x)
        assert abs(doney_g(DONEY_P, x) - want) <= 1e-8 * abs(want)


def test_doney_laplace_matches_generic():
    fn = EigenFn(DONEY_P)
    for z in (0.5, 1.0, 2.0, 0.8 + 1.0j, 3.0 - 0.5j):
        want = laplace_f(fn, z)
        assert abs(doney_laplace_f(DONEY_P, z) - want) <= 1e-8 * abs(want)


def test_doney_mellin_matches_continued_formula():
    # Formula-level comparison: for rho < 1/2 the Mellin integral of F
    # diverges, but the finite sine product and the double-sine ratio
    # are both entire expressions in z on the strip and must agree.
    for z in (-0.2 + 0.5j, -0.5, -0.7 + 1.0j, -0.1 - 2.0j, -0.4 + 0.3j):
        want = mellin_f_continued(DONEY_P, z)
        assert abs(doney_mellin_f(DONEY_P, z) - want) <= 1e-8 * abs(want)


def test_doney_rejects_off_lattice(p_generic):
    with pytest.raises(DomainError):
        doney_g(p_generic, 1.0)


def test_lucky_integral(p_generic):
    assert verify_lucky_integral(p_generic, 1.0, 1.5) < 1e-8
    assert verify_lucky_integral(p_generic, 0.7, 0.7) < 1e-8


def test_lucky_integral_rejects_bad_points(p_generic):
    with pytest.raises(DomainError):
        verify_lucky_integral(p_generic, -1.0, 1.0)
