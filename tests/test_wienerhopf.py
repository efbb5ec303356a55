"""Wiener-Hopf factors, the supremum law and the resolvent.

Oracles: the Brownian case collapses to elementary formulas (phi = 1/(1+z),
f_sup = e^-x, image-charge resolvent), the factorization residual is
self-certifying, and the mixing measure's endpoint behaviour follows from
the supremum density's power laws by Abelian/Tauberian matching.  The
generic resolvent value is cross-checked against an independent scipy
quadrature with an algebraic endpoint weight.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from halfstable import DomainError, StableParams
from halfstable.doublesine import SurfacePoint, s2
from halfstable.eigenfunctions import EigenFn, f_eigen
from halfstable.numerics import IntegrandProfile, integrate_semi_infinite
from halfstable.wienerhopf import (WhFactor, factorization_residual,
                                   h_q_density, inf_density, mu_density,
                                   mu_on_surface, mu_residue, phi,
                                   resolvent_density, rotated_sup_density,
                                   sup_density)

PARAM_SETS = [(1.5, 0.55), (1.3, 0.5), (0.8, 0.6)]


def test_phi_brownian_is_rational(p_brownian):
    fac = WhFactor(p_brownian, "supremum")
    for z in (0.3, 2.0, 1.0 + 1.0j, 0.5 - 2.7j):
        assert_allclose(phi(fac, z), 1.0 / (1.0 + z), rtol=1e-12)


@pytest.mark.parametrize("alpha,rho", PARAM_SETS)
def test_phi_at_zero_limit(alpha, rho):
    # phi(0+) = 1: the extremum at an exponential time is a.s. finite.
    fac = WhFactor(StableParams(alpha, rho), "supremum")
    assert abs(phi(fac, 1e-9) - 1.0) < 1e-6


@pytest.mark.parametrize("alpha,rho", PARAM_SETS)
def test_factorization_residual(alpha, rho):
    p = StableParams(alpha, rho)
    zs = np.geomspace(0.05, 50.0, 12)
    worst = max(max(factorization_residual(p, z),
                    factorization_residual(p, -z)) for z in zs)
    assert worst <= 1e-8


def test_factorization_rejects_zero(p_generic):
    with pytest.raises(DomainError):
        factorization_residual(p_generic, 0.0)


def test_mu_tail_constants(p_generic):
    """Both endpoint power laws of mu carry the constant sin(pi a r)/pi.

    u -> inf: f_sup(x) ~ x^(alpha rho - 1) near 0 forces
    mu(u) ~ C u^(-alpha rho); u -> 0: the one-jump tail
    f_sup(x) ~ x^(-1-alpha) forces mu(u) ~ C u^alpha.  Matching the
    Gamma factors leaves the same C both ends.
    """
    a, r = p_generic.alpha, p_generic.rho
    c = np.sin(np.pi * a * r) / np.pi
    assert_allclose(mu_density(p_generic, 1e8) * 1e8 ** (a * r), c,
                    rtol=1e-6)
    assert_allclose(mu_density(p_generic, 1e-8) * 1e-8 ** (-a), c,
                    rtol=1e-6)


@pytest.mark.parametrize("alpha,rho", [(1.5, 0.55), (0.8, 0.6)])
def test_mu_stieltjes_transform_is_phi(alpha, rho):
    # int mu(u)/(z+u) du = phi(z), the double Laplace transform route.
    p = StableParams(alpha, rho)
    prof = IntegrandProfile(decay="power", rate=-(1.0 + alpha * rho),
                            singularity=alpha)
    st = integrate_semi_infinite(lambda u: mu_density(p, u) / (1.0 + u),
                                 prof, tol=1e-10)
    assert st.converged
    want = phi(WhFactor(p, "supremum"), 1.0)
    assert abs(st.value - want) < 1e-10


def test_mu_degenerate_cases_raise():
    for p in (StableParams(2.0, 0.5), StableParams(1.5, "2/3")):
        with pytest.raises(DomainError):
            mu_density(p, 1.0)
        with pytest.raises(DomainError):
            mu_residue(p)


def test_mu_surface_continuation_on_axis(p_generic):
    u = 2.7
    assert_allclose(mu_on_surface(p_generic, SurfacePoint(u, 0.0)),
                    mu_density(p_generic, u), rtol=1e-13)


def test_mu_residue_matches_continuation(p_generic):
    # (u - u*) mu(u) -> residue as u approaches the first pole pair on
    # the unit circle, at argument +- pi (1/alpha - rho).
    theta = np.pi * (1.0 / p_generic.alpha - p_generic.rho)
    for sign in (+1, -1):
        eps = 1e-6
        u = np.exp(sign * 1j * (theta - eps))
        got = (u - np.exp(sign * 1j * theta)) \
            * mu_on_surface(p_generic, SurfacePoint(1.0, sign * (theta - eps)))
        assert abs(got - mu_residue(p_generic, sign)) < 1e-5


@pytest.mark.parametrize("alpha,rho", PARAM_SETS)
def test_sup_density_normalization(alpha, rho):
    p = StableParams(alpha, rho)
    prof = IntegrandProfile(decay="power", rate=-(1.0 + alpha),
                            singularity=alpha * rho - 1.0)
    mass = integrate_semi_infinite(lambda x: sup_density(p, x), prof,
                                   tol=1e-9)
    assert abs(mass.value - 1.0) < 1e-8


def test_sup_density_laplace_is_phi(p_generic):
    a, r = p_generic.alpha, p_generic.rho
    prof = IntegrandProfile(decay="exponential", rate=1.0,
                            singularity=a * r - 1.0)
    for z in (0.5, 1.0, 2.0):
        lap = integrate_semi_infinite(
            lambda x: np.exp(-z * x) * sup_density(p_generic, x), prof,
            tol=1e-10)
        want = phi(WhFactor(p_generic, "supremum"), z)
        assert abs(lap.value - want) < 1e-8


def test_sup_density_small_x_power(p_generic):
    # f_sup(x) ~ (sin(pi a r)/pi) Gamma(1 - a r) x^(a r - 1) at 0+.
    from scipy.special import gamma
    a, r = p_generic.alpha, p_generic.rho
    c = np.sin(np.pi * a * r) / np.pi * gamma(1.0 - a * r)
    x = 1e-8
    assert_allclose(sup_density(p_generic, x) * x ** (1.0 - a * r), c,
                    rtol=1e-6)


def test_sup_density_spectrally_negative_atom():
    xs = np.array([0.1, 1.0, 4.0])
    for p in (StableParams(2.0, 0.5), StableParams(1.5, "2/3")):
        assert_allclose(sup_density(p, xs), np.exp(-xs), rtol=1e-14)


def test_inf_density_is_dual_sup(p_generic):
    xs = np.array([0.2, 1.0, 3.0])
    assert_allclose(inf_density(p_generic, xs),
                    sup_density(p_generic.dual(), xs), rtol=0)


def test_rotated_brownian_is_pure_phase(p_brownian):
    # e^(i pi/2) f_sup(e^(i pi/2) x) = i e^(-i x) for the Brownian case.
    xs = np.array([0.3, 1.0, 7.5])
    got = rotated_sup_density(p_brownian, xs)
    assert_allclose(got, 1j * np.exp(-1j * xs), rtol=1e-12)


def test_rotated_signs_are_conjugate(p_generic):
    xs = np.array([0.4, 1.3, 6.0])
    plus = rotated_sup_density(p_generic, xs, sign=+1)
    minus = rotated_sup_density(p_generic, xs, sign=-1)
    assert_allclose(minus, np.conj(plus), rtol=1e-13)


def test_rotated_matches_eigenfunction_combination():
    """The rotated supremum density equals a two-term combination of the
    dual eigenfunction and its derivative; this ties the excursion-side
    objects to the spectral-side ones.  Both routes share the dual G
    profile (its Laplace transform and derivative); the residue term and
    the oscillatory term stay independent.
    """
    for alpha, rho in [(1.5, 0.55), (1.3, 0.5), (0.8, 0.6), (1.5, 0.45),
                       (0.3, 0.5), (0.6, 0.9), (1.2, 0.3), (1.9, 0.52)]:
        p = StableParams(alpha, rho)
        fn = EigenFn(p, direction="dual")
        coef = 2.0 / np.sqrt(alpha) * s2(1.0 + alpha * rho, alpha)
        for x in (0.05, 0.5, 1.0, 2.0, 8.0):
            lhs = rotated_sup_density(p, x)
            rhs = coef * (f_eigen(fn, x) + np.exp(1j * np.pi * rho)
                          * f_eigen(fn, x, deriv=1))
            assert abs(lhs - rhs) < 1e-9, (alpha, rho, x)


def test_rotated_domain_checks(p_generic):
    with pytest.raises(DomainError):
        rotated_sup_density(p_generic, 51.0)
    with pytest.raises(DomainError):
        rotated_sup_density(p_generic, 0.0)
    with pytest.raises(DomainError):
        rotated_sup_density(p_generic, 1.0, sign=2)


def test_h_q_domain_checks(p_generic):
    with pytest.raises(DomainError):
        h_q_density(p_generic, 0.0, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        h_q_density(p_generic, 1.0, -1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        h_q_density(p_generic, 1.0, 1.0, 2.0, 1.0)  # z == min(x, y)


def test_resolvent_brownian_image_formula(p_brownian):
    for q, x, y in [(0.7, 1.0, 2.0), (1.0, 0.5, 0.5), (2.3, 3.0, 0.4)]:
        s = np.sqrt(q)
        want = (np.exp(-s * abs(x - y)) - np.exp(-s * (x + y))) / (2.0 * s)
        assert_allclose(resolvent_density(p_brownian, q, x, y), want,
                        rtol=1e-10)


def test_resolvent_against_scipy_quadrature(p_generic):
    # Same H integrand, integrated in z by an unrelated scheme
    # (QUADPACK with an algebraic endpoint weight).
    q, x, y = 0.7, 1.0, 2.0
    m = min(x, y)
    g = p_generic.alpha * p_generic.rho_hat

    def smooth_part(v):
        v = max(v, 1e-12)
        return float(h_q_density(p_generic, q, x, y, m - v)) \
            * v ** (1.0 - g)

    val, _ = integrate.quad(smooth_part, 0.0, m, weight="alg",
                            wvar=(g - 1.0, 0.0), limit=200)
    assert_allclose(resolvent_density(p_generic, q, x, y), val / q,
                    rtol=1e-6)


def test_resolvent_dual_symmetry(p_generic):
    got = resolvent_density(p_generic, 0.7, 1.0, 2.0)
    swapped = resolvent_density(p_generic.dual(), 0.7, 2.0, 1.0)
    assert_allclose(got, swapped, rtol=1e-12)
    # and it is genuinely asymmetric without taking the dual
    assert abs(resolvent_density(p_generic, 0.7, 2.0, 1.0) - got) > 1e-3


def test_resolvent_diagonal_divergence_low_alpha():
    with pytest.raises(DomainError):
        resolvent_density(StableParams(0.8, 0.6), 1.0, 1.0, 1.0)
