"""Survival, heat kernel, and the diagonalizing transforms.

The Brownian case supplies exact references (reflection principle,
Fourier sine transform); the generic cases are checked through internal
identities whose two sides go through genuinely different machinery:
scaling invariance, transform round trips, the Parseval identity at
rho = 1/2, and the semigroup applied both spectrally and through the
pointwise density.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf

from halfstable import DomainError, StableParams
from halfstable.errors import NonConvergence
from halfstable.numerics import integrate_interval, panel_nodes
from halfstable.profiles import RayProfile, ray_profile
from halfstable.spectral import (SpectralConfig, TestFunction, eigen_check,
                                 pi_hat_transform, pi_round_trip,
                                 pi_transform, semigroup_apply, survival,
                                 transition_density)


# ---------------------------------------------------------------- inputs


def test_test_function_rejects_unknown_tag():
    with pytest.raises(DomainError):
        TestFunction(np.exp, class_tag="smooth")


def test_from_table_validation():
    with pytest.raises(DomainError):
        TestFunction.from_table([1.0, 2.0, 3.0], [1, 1, 1])  # too short
    with pytest.raises(DomainError):
        TestFunction.from_table([0.0, 1.0, 2.0, 3.0], [1, 1, 1, 1])
    with pytest.raises(DomainError):
        TestFunction.from_table([1.0, 1.0, 2.0, 3.0], [1, 1, 1, 1])


def test_from_table_reproduces_values_and_clips():
    xs = np.geomspace(0.1, 5.0, 24)
    vals = np.exp(-xs)
    u = TestFunction.from_table(xs, vals)
    assert_allclose(u(xs), vals, rtol=1e-13)
    assert u(np.array([0.01, 50.0])).tolist() == [0.0, 0.0]
    assert u.support_end() == 5.0


def test_stretched_exp_member_range():
    TestFunction.stretched_exp(1.4, 1.5)
    with pytest.raises(DomainError):
        TestFunction.stretched_exp(1.0, 1.5)  # beta must exceed 1
    with pytest.raises(DomainError):
        TestFunction.stretched_exp(1.7, 1.5)  # beta above alpha
    with pytest.raises(DomainError):
        TestFunction.stretched_exp(1.2, 0.9)


def test_scaled_and_product_propagation():
    u = TestFunction.power_tower()
    v = u.scaled(2.0)
    assert_allclose(v(1.5), u(3.0), rtol=0)
    assert v.class_tag == "x_alpha_member"
    xs = np.geomspace(0.1, 5.0, 24)
    tab = TestFunction.from_table(xs, np.exp(-xs))
    w = u.product(tab)
    assert w.class_tag == "l2_only"
    assert w.table_end == 5.0
    assert w.sector_half_angle == 0.0
    with pytest.raises(DomainError):
        u.scaled(0.0)


def test_support_end_honours_envelope():
    u = TestFunction.power_tower()
    b = u.support_end(log_floor=-48.0)
    assert b * np.log1p(b) >= 48.0
    # no envelope and no table: nothing to truncate against
    bare = TestFunction(np.exp)
    with pytest.raises(DomainError):
        bare.support_end()


# -------------------------------------------------------------- survival


def test_survival_brownian_is_erf(p_brownian):
    assert abs(survival(p_brownian, 1.0, 1.0) - erf(0.5)) < 1e-9


def test_survival_scaling_invariance(p_generic):
    # self-similarity: survival(x, t) = survival(x c^(1/alpha), c t)
    c = 1.7
    a = survival(p_generic, 1.0, 1.0)
    b = survival(p_generic, c ** (1.0 / p_generic.alpha), c)
    assert abs(a - b) < 1e-9


def test_survival_monotone_shape(p_generic):
    in_t = [survival(p_generic, 1.0, t) for t in (0.02, 0.2, 1.0, 5.0)]
    assert all(a > b for a, b in zip(in_t, in_t[1:]))
    in_x = [survival(p_generic, x, 1.0) for x in (0.3, 1.0, 3.0)]
    assert all(a < b for a, b in zip(in_x, in_x[1:]))
    assert survival(p_generic, 1.0, 1e-4) > 0.9999
    # t^(-rho_hat) long-time decay puts t = 50 around 0.12
    assert 0.0 < survival(p_generic, 1.0, 50.0) < 0.2


def test_survival_domain_guards(p_generic):
    for x, t in [(1.0, 0.0), (1.0, -1.0), (0.0, 1.0)]:
        with pytest.raises(DomainError):
            survival(p_generic, x, t)


# ------------------------------------------------------------ the kernel


def test_density_brownian_matches_image_kernel(p_brownian):
    def image(x, y, t):
        g = lambda d: np.exp(-d * d / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
        return g(x - y) - g(x + y)

    for x, y, t in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7), (2.0, 0.3, 1.5)]:
        assert abs(transition_density(p_brownian, x, y, t)
                   - image(x, y, t)) < 1e-10


def test_density_vectorized_matches_scalar(p_generic):
    ys = np.array([0.4, 1.1, 2.5])
    vec = transition_density(p_generic, 1.0, ys, 1.0)
    sca = [transition_density(p_generic, 1.0, float(y), 1.0) for y in ys]
    assert_allclose(vec, sca, atol=1e-11)


def test_density_symmetric_case_is_symmetric(p_symmetric):
    a = transition_density(p_symmetric, 0.7, 1.9, 1.0)
    b = transition_density(p_symmetric, 1.9, 0.7, 1.0)
    assert_allclose(a, b, rtol=1e-12)


def test_density_nonnegative_on_grid(p_symmetric):
    ys = np.linspace(0.2, 10.0, 25)
    vals = transition_density(p_symmetric, 1.0, ys, 1.0)
    assert np.all(vals > -1e-9)


def test_density_cancellation_guard(p_generic):
    # far spatial tail against a growing dual kernel: the integrand
    # peaks ~e^123 while the answer is O(1e-4); must refuse, not guess
    with pytest.raises(DomainError, match="cancellation"):
        transition_density(p_generic, 1.0, 60.0, 1.0)


# ------------------------------------------------------------ transforms


def test_pi_brownian_is_fourier_sine(p_brownian):
    u = TestFunction.power_tower()
    lam = 1.3
    ref = integrate_interval(lambda x: u(x) * np.sin(lam * x), 0.0, 40.0,
                             tol=1e-12, frequency=lam)
    assert abs(pi_transform(p_brownian, u, lam)
               - np.sqrt(2.0 / np.pi) * ref.value) < 1e-8


def test_pi_hat_rejects_nonmembers(p_generic):
    xs = np.geomspace(0.05, 8.0, 50)
    tab = TestFunction.from_table(xs, np.exp(-xs ** 1.4))
    with pytest.raises(DomainError, match="member"):
        pi_hat_transform(p_generic, tab, 1.0)


def test_rotation_needs_a_declared_sector(p_generic):
    # a table is a perfectly fine member by tag, but it has no sector,
    # and the growing kernel cannot be handled on the real axis
    xs = np.geomspace(0.05, 8.0, 50)
    tab = TestFunction.from_table(xs, np.exp(-xs ** 1.4),
                                  class_tag="x_alpha_member")
    with pytest.raises(DomainError, match="sector"):
        pi_hat_transform(p_generic, tab, 1.0)


def test_rotation_detects_sector_lies(p_generic):
    # declares analyticity on a wide sector but grows along the ray the
    # transform actually rotates to; must be caught, not integrated
    def ev(z):
        with np.errstate(over="ignore"):
            return np.exp(-z ** 4)

    liar = TestFunction(ev, "x_alpha_member", lambda x: -float(x) ** 4,
                        None, "liar", sector_half_angle=1.5)
    with pytest.raises(NonConvergence):
        pi_hat_transform(p_generic, liar, 1.0)


def test_round_trip_inverts(p_generic):
    u = TestFunction.power_tower()
    got = pi_round_trip(p_generic, u, 1.0)
    assert abs(got - u(1.0)) <= 1e-4 * abs(u(1.0))


def test_isometry_in_the_symmetric_case(p_symmetric):
    """For rho = 1/2 the transform is an isometry of L2(0, inf):
    int |Pi u|^2 d lam = int u^2 dx.  The lam integral is truncated at
    60 and the remainder estimated from the observed 1/lam^2 envelope.
    """
    u = TestFunction.power_tower()
    edges = np.concatenate((np.geomspace(1e-4, 1.0, 12),
                            np.linspace(1.5, 60.0, 118)))
    lam, w = panel_nodes(edges, order=12)
    head = np.sum(w * np.abs(pi_transform(p_symmetric, u, lam)) ** 2)
    lam2, w2 = panel_nodes(np.linspace(60.0, 72.0, 13), order=12)
    c_tail = np.sum(
        w2 * np.abs(pi_transform(p_symmetric, u, lam2)) ** 2
        * lam2 ** 2) / 12.0
    norm2 = integrate_interval(lambda x: u(x) ** 2, 0.0, 40.0, tol=1e-13)
    lhs = head + c_tail / 60.0
    assert abs(lhs - norm2.value) <= 1e-4 * norm2.value


# ------------------------------------------------------------- semigroup


def test_semigroup_spectral_vs_density_route(p_generic):
    u = TestFunction.power_tower()
    spectral = semigroup_apply(p_generic, u, 0.5, 1.0)
    cfg = SpectralConfig(tol=1e-8)
    density = integrate_interval(
        lambda y: transition_density(p_generic, 1.0, y, 0.5, cfg) * u(y),
        1e-8, 12.0, tol=1e-8, frequency=2.0)
    assert density.converged
    assert abs(spectral - density.value) < 1e-7


def test_semigroup_vector_matches_scalar(p_generic):
    u = TestFunction.power_tower()
    xs = np.array([0.5, 1.0, 2.0])
    vec = semigroup_apply(p_generic, u, 0.5, xs)
    one = semigroup_apply(p_generic, u, 0.5, 1.0)
    assert abs(vec[1] - one) < 1e-9


def test_eigen_relation_through_the_density(p_symmetric):
    assert eigen_check(p_symmetric, 1.0, 0.5, 1.0) < 1e-4


# ------------------------------------------------------------- G spline


def _record_laplace_args(monkeypatch):
    """Every argument RayProfile.laplace receives, from now on."""
    seen = []
    exact = RayProfile.laplace

    def spy(self, x, *args, **kw):
        seen.append(np.ravel(np.asarray(x, dtype=float)).copy())
        return exact(self, x, *args, **kw)

    monkeypatch.setattr(RayProfile, "laplace", spy)
    return seen


def test_g_spline_is_built_once_per_profile(p_generic, monkeypatch):
    ray_profile.cache_clear()
    seen = _record_laplace_args(monkeypatch)
    first = survival(p_generic, 1.0, 1.0)
    args = np.concatenate(seen)
    assert np.sum(args >= 1e-12) >= 1000  # the spline build
    seen.clear()
    assert survival(p_generic, 1.0, 1.0) == first
    args = np.concatenate(seen)
    # only the series branch below the spline's range is exact
    assert args.size > 0 and np.all(args < 1e-12)


def test_cache_clear_drops_the_g_spline(p_generic, monkeypatch):
    before = survival(p_generic, 0.7, 2.0)
    ray_profile.cache_clear()
    seen = _record_laplace_args(monkeypatch)
    after = survival(p_generic, 0.7, 2.0)
    assert np.sum(np.concatenate(seen) >= 1e-12) >= 1000  # rebuilt
    assert_allclose(after, before, rtol=1e-14)


@pytest.mark.parametrize("alpha, rho", [(0.37, 0.95), (1.02, 0.97)])
def test_survival_refuses_underflowing_lower_limit(alpha, rho):
    with pytest.raises(NonConvergence, match="underflows"):
        survival(StableParams(alpha, rho), 1.0, 1.0)
