"""Release gate: the thirteen end-to-end checks, one test each.

Every test pins its tolerance and its evaluation points explicitly, so
`pytest -v tests/test_acceptance.py` reads as a checklist.  These are
deliberately redundant with the per-module tests: the module tests
explain failures, this file decides go/no-go.
"""

import numpy as np
import pytest
from scipy.special import erf

from halfstable import StableParams
from halfstable.doublesine import s2, tau_binomial_check
from halfstable.eigenfunctions import (EigenFn, doney_g, doney_laplace_f,
                                       doney_mellin_f, f_eigen, g_func,
                                       laplace_f, laplace_f_quadrature,
                                       mellin_f_continued,
                                       mellin_f_quadrature,
                                       verify_lucky_integral)
from halfstable.model import one_sided_mode
from halfstable.montecarlo import exact_survival
from halfstable.numerics import (IntegrandProfile, integrate_interval,
                                 integrate_semi_infinite)
from halfstable.spectral import (SpectralConfig, TestFunction, eigen_check,
                                 pi_round_trip, survival,
                                 transition_density)
from halfstable.wienerhopf import (WhFactor, factorization_residual, phi,
                                   rotated_sup_density, sup_density)

GENERIC = StableParams(1.5, 0.55)
SYMMETRIC = StableParams(1.5, 0.5)
BROWNIAN = StableParams(2.0, 0.5)


def test_01_double_sine_identity_suite():
    """Functional equations, reflection, modularity, special values:
    relative residual <= 1e-9 at 200 random points per alpha."""
    tol = 1e-9
    rng = np.random.default_rng(1918)
    worst = 0.0
    for alpha in (0.7, 1.0, 1.3, 1.7, 1.95):
        assert abs(s2(1.0, alpha) - np.sqrt(alpha)) <= tol * np.sqrt(alpha)
        assert abs(s2(0.5, alpha) - np.sqrt(2.0)) <= tol * np.sqrt(2.0)
        assert abs(s2(0.5 * (1.0 + alpha), alpha) - 1.0) <= tol
        # sample strictly off the real axis: every zero and pole of the
        # function lies on it, so relative residuals stay meaningful
        re = rng.uniform(-2.0, 2.0 + alpha, size=200)
        im = rng.uniform(0.2, 2.5, size=200) * rng.choice([-1.0, 1.0], 200)
        for z in re + 1j * im:
            v = s2(z, alpha)
            shift1 = v / s2(z + 1.0, alpha) \
                - 2.0 * np.sin(np.pi * z / alpha)
            shifta = v / s2(z + alpha, alpha) - 2.0 * np.sin(np.pi * z)
            refl = v * s2(1.0 + alpha - z, alpha) - 1.0
            modu = v - s2(z / alpha, 1.0 / alpha)
            worst = max(worst,
                        abs(shift1) / max(abs(np.sin(np.pi * z / alpha)), 1.0),
                        abs(shifta) / max(abs(np.sin(np.pi * z)), 1.0),
                        abs(refl), abs(modu) / abs(v))
    assert worst <= tol


def test_02_factorization_residual():
    """|phi(-iz) phi_hat(iz) (1 + Psi(z)) - 1| <= 1e-8, 100 random real
    z, three parameter sets."""
    rng = np.random.default_rng(1949)
    for alpha, rho in [(1.5, 0.55), (1.3, 0.5), (0.8, 0.6)]:
        p = StableParams(alpha, rho)
        zs = np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=100))
        zs *= rng.choice([-1.0, 1.0], size=100)
        assert max(factorization_residual(p, z) for z in zs) <= 1e-8


def test_03_supremum_mixture_normalization():
    """Mass of the supremum density is 1 and its Laplace transform is
    phi, both within 1e-6, at (alpha, rho) = (1.5, 0.55)."""
    prof = IntegrandProfile(decay="power", rate=-2.5, singularity=-0.175)
    mass = integrate_semi_infinite(lambda x: sup_density(GENERIC, x),
                                   prof, tol=1e-9)
    assert abs(mass.value - 1.0) <= 1e-6
    eprof = IntegrandProfile(decay="exponential", rate=0.5,
                             singularity=-0.175)
    for z in (0.5, 1.0, 2.0):
        lap = integrate_semi_infinite(
            lambda x: np.exp(-z * x) * sup_density(GENERIC, x), eprof,
            tol=1e-9)
        assert abs(lap.value - phi(WhFactor(GENERIC, "supremum"), z)) <= 1e-6


def test_04_brownian_reduction():
    """alpha = 2: the eigenfunction is sin(x) because its mixture
    coefficient vanishes; survival(1,1) = erf(1/2); the kernel is the
    image-charge heat kernel (1e-10 / 1e-6 / 1e-7)."""
    assert abs(s2(-1.0, 2.0)) <= 1e-10
    fn = EigenFn(BROWNIAN)
    for x in (0.3, 1.0, 4.0):
        assert abs(f_eigen(fn, x) - np.sin(x)) <= 1e-12
    assert abs(survival(BROWNIAN, 1.0, 1.0) - erf(0.5)) <= 1e-6

    def image(x, y, t):
        g = lambda d: np.exp(-d * d / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
        return g(x - y) - g(x + y)

    for x, y, t in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7), (2.0, 0.3, 1.5)]:
        assert abs(transition_density(BROWNIAN, x, y, t)
                   - image(x, y, t)) <= 1e-7


@pytest.mark.parametrize("alpha,rho", [(1.5, 0.55), (1.3, 0.5)])
def test_05_transform_cross_checks(alpha, rho):
    """Closed-form Laplace (z = 2) and Mellin (z = -0.3 + i) transforms
    against direct quadrature: 1e-6 and 1e-5."""
    fn = EigenFn(StableParams(alpha, rho))
    lap = laplace_f_quadrature(fn, 2.0)
    assert lap.converged
    assert abs(laplace_f(fn, 2.0) - lap.value) <= 1e-6
    z = -0.3 + 1.0j
    mel = mellin_f_quadrature(fn, z)
    assert mel.converged
    assert abs(mellin_f_continued(StableParams(alpha, rho), z)
               - mel.value) <= 1e-5


def test_06_doney_lattice_equivalence():
    """(alpha, rho) = (1.4, 3/7) lies on the k=1, l=2 lattice: finite
    product formulas match the generic double sine routes, 1e-8 at five
    points each."""
    p = StableParams(1.4, "3/7")
    for x in (0.2, 0.7, 1.1, 2.5, 6.0):
        want = g_func(p, x)
        assert abs(doney_g(p, x) - want) <= 1e-8 * max(abs(want), 1.0)
    fn = EigenFn(p)
    for z in (0.5, 1.0, 2.0, 0.8 + 1.0j, 3.0 - 0.5j):
        want = laplace_f(fn, z)
        assert abs(doney_laplace_f(p, z) - want) <= 1e-8 * abs(want)
    for z in (-0.2 + 0.5j, -0.5, -0.7 + 1.0j, -0.1 - 2.0j, -0.4 + 0.3j):
        want = mellin_f_continued(p, z)
        assert abs(doney_mellin_f(p, z) - want) <= 1e-8 * abs(want)


def test_07_spectrally_one_sided():
    """alpha = 1.5 with only negative jumps (alpha rho = 1): supremum
    density collapses to e^-x and the rotated density equals the
    dual-eigenfunction combination, both within 1e-6."""
    p = StableParams(1.5, "2/3")
    mode = one_sided_mode(p)
    assert mode is not None and mode.side == "spectrally_negative"
    xs = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    assert np.max(np.abs(sup_density(p, xs) - np.exp(-xs))) <= 1e-6
    fn_d = EigenFn(p, direction="dual")
    coef = 2.0 / np.sqrt(p.alpha) * s2(1.0 + p.alpha * p.rho, p.alpha)
    rot = np.exp(1j * np.pi * p.rho)
    for x in (0.5, 1.0, 2.0):
        lhs = rotated_sup_density(p, x)
        rhs = coef * (f_eigen(fn_d, x) + rot * f_eigen(fn_d, x, deriv=1))
        assert abs(lhs - rhs) <= 1e-6


def test_08_rotated_identity_and_lucky_integral():
    """At (1.5, 0.55): the rotated supremum density equals the
    eigenfunction combination, and the bivariate product identity holds
    at (x, y) = (1, 1.5); residuals < 1e-5."""
    fn_d = EigenFn(GENERIC, direction="dual")
    coef = 2.0 / np.sqrt(GENERIC.alpha) \
        * s2(1.0 + GENERIC.alpha * GENERIC.rho, GENERIC.alpha)
    rot = np.exp(1j * np.pi * GENERIC.rho)
    lhs = rotated_sup_density(GENERIC, 1.0)
    rhs = coef * (f_eigen(fn_d, 1.0) + rot * f_eigen(fn_d, 1.0, deriv=1))
    assert abs(lhs - rhs) < 1e-5
    assert verify_lucky_integral(GENERIC, 1.0, 1.5) < 1e-5


@pytest.mark.parametrize("alpha,rho", [(1.5, 0.5), (1.5, 0.55)])
def test_09_transform_round_trip(alpha, rho):
    """Pi_hat inverts Pi on (1+x)^-x: relative error <= 1e-4 at
    x in {0.5, 1, 2}."""
    p = StableParams(alpha, rho)
    u = TestFunction.power_tower()
    for x in (0.5, 1.0, 2.0):
        got = pi_round_trip(p, u, x)
        assert abs(got - u(x)) <= 1e-4 * abs(u(x))


def test_10_eigenfunction_relation_via_density():
    """Integrating the heat kernel against F(lambda y) reproduces
    e^(-t lambda^alpha) F(lambda x): residual < 1e-4 at lambda = 1,
    t = 0.5, x = 1, (1.5, 0.5)."""
    assert eigen_check(SYMMETRIC, 1.0, 0.5, 1.0) < 1e-4


def test_11_monte_carlo_agreement():
    """Survival from the exact minima of 2e5 paths brackets the spectral
    value within three standard errors at (1.5, 0.6), x = 1, t = 1."""
    p = StableParams(1.5, 0.6)
    mc = exact_survival(p, 1.0, 1.0, 200_000, seed=20260814)
    spectral = survival(p, 1.0, 1.0)
    assert abs(spectral - mc.value) <= 3.0 * mc.std_error


def test_12_two_sided_profile_integral():
    """The two-sided binomial-profile integral identity closes to 1e-6
    at two parameter points."""
    assert tau_binomial_check(0.6, 0.0, 1.3) < 1e-6
    assert tau_binomial_check(0.85, 0.5, 0.8) < 1e-6


def test_13_density_integrates_to_survival():
    """At (1.5, 0.5), x = 1, t = 1: the y-integral of the kernel equals
    the survival probability within 1e-5 (head to y = 60 plus fitted
    power tail)."""
    cfg = SpectralConfig(tol=1e-6)
    head = integrate_interval(
        lambda y: transition_density(SYMMETRIC, 1.0, y, 1.0, cfg),
        1e-8, 60.0, tol=1e-8, frequency=3.0)
    assert head.converged
    p1 = transition_density(SYMMETRIC, 1.0, 50.0, 1.0, cfg)
    p2 = transition_density(SYMMETRIC, 1.0, 60.0, 1.0, cfg)
    expo = np.log(p1 / p2) / np.log(60.0 / 50.0)
    tail = p2 * 60.0 / (expo - 1.0)
    want = survival(SYMMETRIC, 1.0, 1.0)
    assert abs(head.value + tail - want) <= 1e-5
