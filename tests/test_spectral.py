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
from scipy.optimize import brentq
from scipy.special import erf

from halfstable import (DomainError, StableParams, doublesine,
                        resolvent_density, spectral)
from halfstable.eigenfunctions import _Kernel
from halfstable.errors import NonConvergence
from halfstable.numerics import integrate_interval, panel_nodes
from halfstable.profiles import (_SERIES_EDGE, RayProfile, g_profile,
                                 ray_profile)
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


_P = StableParams(1.5, 0.55)
_TOWER = TestFunction.power_tower()
# each operation with one argument left to the test, at a set where every
# other argument is admissible
_ONE_ARGUMENT = {
    "survival x": lambda v: survival(_P, v, 1.0),
    "survival t": lambda v: survival(_P, 1.0, v),
    "transition_density x": lambda v: transition_density(_P, v, 1.0, 1.0),
    "transition_density y": lambda v: transition_density(_P, 1.0, v, 1.0),
    "transition_density t": lambda v: transition_density(_P, 1.0, 1.0, v),
    "pi_transform lam": lambda v: pi_transform(_P, _TOWER, v),
    "semigroup_apply t": lambda v: semigroup_apply(_P, _TOWER, v, 1.0),
    "semigroup_apply x": lambda v: semigroup_apply(_P, _TOWER, 1.0, v),
    "pi_round_trip x": lambda v: pi_round_trip(_P, _TOWER, v),
    "resolvent_density q": lambda v: resolvent_density(_P, v, 1.0, 2.0),
    "resolvent_density x": lambda v: resolvent_density(_P, 1.0, v, 2.0),
    "eigen_check x": lambda v: eigen_check(StableParams(1.5, 0.5), 1.0, 1.0,
                                           v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("operation", sorted(_ONE_ARGUMENT))
def test_a_nonfinite_argument_is_refused_by_name(operation, value):
    name = operation.split()[1]
    with pytest.raises(DomainError,
                       match=f"^{name} must be positive and finite, got "
                             f"{value:g}$"):
        _ONE_ARGUMENT[operation](value)


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
    assert vec[1] == one


def test_eigen_relation_through_the_density(p_symmetric):
    assert eigen_check(p_symmetric, 1.0, 0.5, 1.0) < 1e-4


def test_eigen_check_refusal_names_its_y_range(p_generic):
    # at rho > 1/2 the dual kernel grows along the y range eigen_check
    # sets itself, so the refusal names that range, not the caller's
    with pytest.raises(DomainError, match=r"eigen_check integrates the "
                       r"density over y up to 198\.3 .* e\^17686 "
                       r"cancellation"):
        eigen_check(p_generic, 1.0, 0.5, 1.0)


def test_eigen_check_refuses_past_its_reach(p_symmetric, monkeypatch):
    # the tail may sum only the half-periods the density's y range
    # covers; one that needs more is refused, naming that reach
    monkeypatch.setattr(spectral, "_EIGEN_TAIL_PANELS", 4)
    with pytest.raises(NonConvergence, match=r"eigen_check's tail did not "
                       r"converge by y = [0-9.]+ \(6 half-periods\)"):
        eigen_check(p_symmetric, 1.0, 0.5, 1.0)


# -------------------------------------------------------- G's knot table


def _record_args(monkeypatch, name):
    """Every argument RayProfile.<name> receives, from now on."""
    seen = []
    exact = getattr(RayProfile, name)

    def spy(self, x, *args, **kw):
        seen.append(np.ravel(np.asarray(x, dtype=float)).copy())
        return exact(self, x, *args, **kw)

    monkeypatch.setattr(RayProfile, name, spy)
    return seen


def _count_tables(monkeypatch):
    """The knot table builds of profiles, from now on."""
    built = []
    exact = RayProfile._knots

    def counting(self):
        built.append(self)
        return exact(self)

    monkeypatch.setattr(RayProfile, "_knots", counting)
    return built


def test_g_spline_is_built_once_per_profile(p_generic, monkeypatch):
    ray_profile.cache_clear()
    built = _count_tables(monkeypatch)
    first = survival(p_generic, 1.0, 1.0)
    assert len(built) == 1  # the table build
    seen = _record_args(monkeypatch, "laplace")
    rose = _record_args(monkeypatch, "rise")
    assert survival(p_generic, 1.0, 1.0) == first
    assert len(built) == 1
    # the table starts at the profile's series edge: below it G is
    # exact, through its closed form's rise (or laplace), and nowhere else
    edge = _SERIES_EDGE / g_profile(p_generic).z_hi
    args = np.concatenate(seen + rose)
    assert args.size > 0 and np.all(args < edge)


def test_cache_clear_drops_the_g_spline(p_generic, monkeypatch):
    before = survival(p_generic, 0.7, 2.0)
    ray_profile.cache_clear()
    built = _count_tables(monkeypatch)
    after = survival(p_generic, 0.7, 2.0)
    assert len(built) == 1  # rebuilt
    assert after == before


def test_each_g_spline_is_built_once_whatever_the_arguments(p_generic,
                                                          monkeypatch):
    ray_profile.cache_clear()
    built = _count_tables(monkeypatch)
    # later calls bring G arguments past those of the first call
    slow = StableParams(0.3, 0.5)
    survival(slow, 1.0, 1.0)
    survival(slow, 2.0, 1.0)
    survival(p_generic, 1.0, 1.0)
    survival(p_generic, 1e3, 1.0)
    transition_density(p_generic, 1.0, np.linspace(0.5, 20.0, 40), 1.0)
    # the density reads the G profile of the dual parameters too
    used = (g_profile(slow), g_profile(p_generic),
            g_profile(p_generic.dual()))
    assert all("knots" in prof._memo for prof in used)
    assert len(built) == len(used)


# survival(x=1, t=1) where alpha rho_hat is small, frozen 2026-10.  Route:
# Kuznetsov's Mellin-Barnes form of survival (Ann. Probab. 39, 2011),
# C/(2 pi i alpha) int M_F(z) Gamma(-z/alpha) r^-z dz with M_F the
# closed-form mellin_f_continued, by the trapezoid rule on Re z =
# -alpha rho_hat/2 with h = alpha rho_hat/25 and |y| <= 40/(pi (rho - 1/2
# + 1/(2 alpha))); halving h and widening the range 1.5x moved them by
# less than 1e-12.
SURVIVAL_SMALL_RHO_HAT = {
    (1.02, 0.97): 0.979057556986,
    (0.37, 0.95): 0.964920739838,
}


@pytest.mark.parametrize("alpha, rho", list(SURVIVAL_SMALL_RHO_HAT))
def test_survival_small_alpha_rho_hat_against_contour(alpha, rho):
    got = survival(StableParams(alpha, rho), 1.0, 1.0)
    assert abs(got - SURVIVAL_SMALL_RHO_HAT[alpha, rho]) <= 1e-8


def test_survival_head_below_the_series_edge_against_contour():
    # the real-axis head below G's series edge is F's near-zero form;
    # osc + coef_g G there integrated F's constant residual (6.1e-11)
    # over about 590 units of log lam and read 2.9e-9 high.  Frozen
    # 2026-10 by the route above; halving h and widening the range 1.5x
    # moved it by 2.1e-12
    got = survival(StableParams(1.0, 0.9586), 2.0, 1.0)
    assert abs(got - 0.9830814253625) <= 5e-10


def test_density_cutoff_lies_past_the_peak_near_alpha_one():
    # a sweep input: alpha just above 1, with the dual kernel's growth at
    # y = 1.13 above t.  Forty fixed-point steps left the lam cutoff at
    # 1236, short of the integrand's peak near 1450, and the density read
    # -0.2305 there (0.1246 at tol 1e-10)
    p = StableParams(1.0100628751192544, 0.9130245949986169)
    y = np.array([0.5, 0.878, 1.0, 1.128714578573016])
    got = transition_density(p, 1.0, y, 1.0)
    assert np.all(got > 0.0)
    assert_allclose(got, transition_density(p, 1.0, y, 1.0,
                                            SpectralConfig(tol=1e-10)),
                    rtol=1e-7)


@pytest.mark.parametrize("alpha,t,growth", [
    (1.001, 1.0, 0.5), (1.001, 0.3, 0.2), (1.01, 0.5, 0.45), (1.2, 0.5, 3.0),
    (1.9, 0.2, 4.0)])
def test_density_cutoff_is_past_the_exact_root(alpha, t, growth):
    # 5% past the root of t lam^alpha - growth lam - L, L = log(10 bound
    # / tol); forty fixed-point steps stopped short of it by 4.7e-8,
    # 9.2e-4 and 3.5e-3 at the second to fourth inputs
    big_l = np.log(10.0 * 2.0 / 1e-8)

    def excess(lam):
        return t * lam ** alpha - growth * lam - big_l

    hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
    root = brentq(excess, 0.0, hi, xtol=1e-300, rtol=1e-15)
    got = spectral._cutoff(alpha, t, growth, 1e-8, 2.0)
    assert abs(got / (1.05 * root) - 1.0) <= 1e-12


def test_survival_where_the_kernel_grows():
    # rho < 1/2: F grows like e^(x cos(pi rho) lam), and the integrand
    # peaks at e^13.3 at x = 2 (contour value as above); at (1.0003,
    # 0.0003) the peak overflows and survival names it
    got = survival(StableParams(1.0513, 0.2578), 2.0, 1.0)
    assert abs(got - 0.835206599704) <= 1e-8
    with pytest.raises(NonConvergence, match="cancellation"):
        survival(StableParams(1.0003, 0.0003), 2.0, 1.0)


# ------------------------------------------------------ transform kernel


def _reference_kernel(kern, u, lam_hi, lams):
    """The kernel as built before the panel lattice, for comparison: the
    oscillatory part on a cascade grid (geometric panels toward 0, then
    one panel per period) sized for lam_hi, and G's part on a real-axis
    cascade grid of the same density, with G exact (``laplace``) for an
    input declared analytic on a sector and from its knot table for a
    table input."""
    fe = kern.fe
    log_floor = np.log(SpectralConfig().tol) - 12.0
    phase = kern._omega / complex(fe.cos_r, fe.freq)
    support = end = u.support_end(log_floor)
    if phase == 1.0:
        phase = 1.0  # real nodes for a real input
    else:
        end = kern._ray_support(u, phase, log_floor)
    nodes, wts = spectral._panel_grid(
        end, lam_hi * abs(kern._omega.imag), 24)
    osc = np.exp(np.outer(lams, nodes) * kern._omega) \
        @ (wts * u(nodes * phase))
    out = np.imag(np.exp(1j * fe.theta0) * phase * osc)
    if fe.coef_g != 0.0:
        nodes, wts = spectral._panel_grid(support, lam_hi * fe.freq, 24)
        g = fe.g_interp if u.sector_half_angle == 0.0 \
            else g_profile(fe.params).laplace
        out += fe.coef_g * g(np.outer(lams, nodes)) @ (wts * u(nodes))
    return np.sqrt(2.0 / np.pi) * out


def _table_member():
    # a tabulated input that is small at both table ends
    xs = np.geomspace(1e-3, 12.0, 60)
    return TestFunction.from_table(xs, xs ** 2 * np.exp(-xs))


@pytest.mark.parametrize("alpha,rho,dual,table", [
    (1.2, 0.5, False, False), (2.0, 0.5, False, False),
    (1.2, 0.5, False, True),                              # real ray
    (1.5, 0.55, True, False), (0.8, 0.6, True, False),
    (1.9, 0.52, True, False)])                            # rotated ray
def test_lattice_kernel_matches_the_cascade_grid(alpha, rho, dual, table):
    # the lattice holds to 3 times the lam range it is built for; the
    # reference is the cascade-grid construction built for 12 times it,
    # with the exact G for an input analytic on a sector.  A table is
    # only C1 at its knots, so no two grids agree on it to 1e-14: there
    # the reference is built on the kernel's own nodes.
    p = StableParams(alpha, rho)
    fe = _Kernel(p.dual() if dual else p)
    u = _table_member() if table else TestFunction.power_tower()
    lam_hi = 10.0
    kern = spectral._TransformKernel(fe, u, lam_hi, SpectralConfig())
    assert (kern._omega.real < 0.0) == dual  # the ray the test means
    lams = np.linspace(0.05, 3.0 * lam_hi, 60)
    ref = _reference_kernel(kern, u, (1.0 if table else 12.0) * lam_hi,
                            lams)
    assert np.max(np.abs(kern(lams) - ref)) <= 1e-14 * np.max(np.abs(ref))


# G's part of a transform for an input analytic on a sector |arg z| <
# theta, against G exact (``laplace``) on Gauss-Legendre panels of 0.05
# in log r over the same 40 units below the support end
_KNOT_CASES = [(a, r, beta)
               for a, r in [(1.5, 0.55), (1.5, 0.45), (1.2, 0.5), (0.8, 0.6),
                            (1.9, 0.52)]
               for beta in (None, 1.2, 1.5, 1.9)
               if beta is None or 1.0 < beta <= a]


@pytest.mark.parametrize("alpha,rho,beta", _KNOT_CASES)
def test_g_part_on_the_knot_lattice_matches_exact_g(alpha, rho, beta):
    p = StableParams(alpha, rho)
    u = TestFunction.power_tower() if beta is None \
        else TestFunction.stretched_exp(beta, alpha)
    kern = spectral._TransformKernel(_Kernel(p), u, 10.0, SpectralConfig())
    assert kern._m_grids is None
    lams = np.array([0.05, 0.7, 3.0, 12.0, 30.0])
    b = np.log(u.support_end(np.log(SpectralConfig().tol) - 12.0))
    s, w = panel_nodes(np.linspace(b - 40.0, b, 801))
    r = np.exp(s)
    ref = g_profile(p).laplace(np.outer(lams, r)) @ (w * r * u(r))
    for step in kern._steps:  # the coarse and the fine sum
        got = kern._on_knots(lams, step)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_warm_sector_transforms_read_no_g_spline(monkeypatch):
    # after one call of each kind, no transform kernel of an input
    # analytic on a sector reads G between its knots (``interp``): its G
    # values are knots.  The outer lam integrals of semigroup_apply and
    # pi_round_trip read F, G's quintics and all, at their own nodes.
    p = StableParams(1.5, 0.55)
    u = TestFunction.power_tower()
    lam = np.geomspace(0.1, 10.0, 16)
    calls = {"pi_transform": lambda: pi_transform(p, u, lam),
             "pi_hat_transform": lambda: pi_hat_transform(p, u, lam),
             "semigroup": lambda: semigroup_apply(p, u, 0.5, 1.0),
             "round_trip": lambda: pi_round_trip(p, u, 1.0)}
    for call in calls.values():
        call()
    reads, inside = [], []
    exact_interp = RayProfile.interp
    exact_dot = spectral._TransformKernel._dot

    def spy_interp(self, x):
        reads.append(bool(inside))
        return exact_interp(self, x)

    def spy_dot(self, lams, which):
        inside.append(which)
        try:
            return exact_dot(self, lams, which)
        finally:
            inside.pop()

    monkeypatch.setattr(RayProfile, "interp", spy_interp)
    monkeypatch.setattr(spectral._TransformKernel, "_dot", spy_dot)
    for name, call in calls.items():
        reads.clear()
        call()
        assert not any(reads), name
        assert bool(reads) == (name in ("semigroup", "round_trip")), name


def test_table_input_keeps_the_cascade_g_part(monkeypatch):
    # a table is C1 and drops to 0 at its ends, where a trapezoid sum on
    # G's knots is first order, so its G part stays on the cascade grid
    # pair through ``interp``, bit for bit
    fe = _Kernel(StableParams(1.2, 0.5))
    u = _table_member()
    kern = spectral._TransformKernel(fe, u, 10.0, SpectralConfig())
    assert kern._steps is None
    lams = np.linspace(0.05, 30.0, 20)
    reads = _record_args(monkeypatch, "interp")
    got = kern(lams)
    assert reads
    nodes, wts = spectral._panel_grid(u.support_end(), 0.0, 24)
    want = np.sqrt(2.0 / np.pi) * (
        np.imag(kern._pre * kern._lattices[0](lams))
        + fe.coef_g * (fe.g_interp(np.outer(lams, nodes)) @ (wts * u(nodes))))
    assert np.array_equal(got, want)


# ----------------------------------------- survival on the rotated ray


def test_survival_on_the_rotated_ray_against_contour():
    # the real-axis integrand peaks at e^439 here.  Frozen 2026-10, route:
    # Kuznetsov's Mellin-Barnes form of survival as above (trapezoid rule
    # on Re z = -alpha rho_hat/2, h = alpha rho_hat/25, |y| <= 40/(pi (rho
    # - 1/2 + 1/(2 alpha)))); halving h and widening the range 1.5x moved
    # it by 6e-15
    got = survival(StableParams(1.05, 0.2), 2.0, 1.0)
    assert abs(got - 0.8618402248184854) <= 1e-9


def test_survival_scaling_on_the_positive_edge():
    # a sweep input (seed 1) that refused as e^45 cancellation: X is
    # self-similar, P_2(tau > 1) = P_1(tau > 2^-alpha)
    p = StableParams(1.100218666080922, 0.09108977076157942)
    first = survival(p, 2.0, 1.0)
    assert 0.0 <= first <= 1.0 + 1e-9
    assert abs(survival(p, 1.0, 2.0 ** -p.alpha) - first) <= 1e-8


# sweep inputs on the positive one-sided edge rho = 1 - 1/alpha just
# above alpha = 1, where survival read 5.2e-8 and 6.5e-9 above 1: the
# sector is 0.01 rad wide, so the ray runs out to q ~ 4000, where its
# phase turns about 1 + q times faster in u = log(1 + q) than at its
# start, and one starting panel there hid its turns from both its rules
@pytest.mark.parametrize("alpha,rho,x,t", [
    (1.006759476888074, 0.006714093130732568, 2.0, 1.0),
    (1.006759476888074, 0.006714093130732568, 1.0, 0.4977),
    (1.0177555905458926, 0.017445829539849633, 2.0, 1.0),
    (1.0177555905458926, 0.017445829539849633, 1.0, 0.4939)])
def test_survival_resolves_the_ray_on_the_positive_edge(alpha, rho, x, t):
    p = StableParams(alpha, rho)
    got = survival(p, x, t)
    assert got <= 1.0 + 1e-9
    assert abs(got - survival(p, x, t, SpectralConfig(1e-11))) <= 1e-8


# survival at alpha <= 1 with rho < 1/2, where F grows faster than
# e^(-t lam^alpha) decays, and at (0.5, 0.5) and (x, t) = (4, 0.2), where
# an integral on the real axis did not converge.  Frozen 2026-10, route:
# Kuznetsov's Mellin-Barnes form as above (trapezoid rule on Re z =
# -alpha rho_hat/2, h = alpha rho_hat/25, |y| <= 40/(pi (rho - 1/2 +
# 1/(2 alpha)))); halving h and widening the range 1.5x moved each by
# less than 4e-15.
SURVIVAL_ON_THE_RAY = {
    (0.5, 0.2, 2.0, 1.0): 0.658492828866,
    (0.8, 0.4, 2.0, 1.0): 0.778076758891,
    (1.0, 0.25, 2.0, 1.0): 0.821543379879,
    (0.5, 0.5, 4.0, 0.2): 0.960934961916,
}


@pytest.mark.parametrize("alpha,rho,x,t", list(SURVIVAL_ON_THE_RAY))
def test_survival_at_small_alpha_against_contour(alpha, rho, x, t):
    got = survival(StableParams(alpha, rho), x, t)
    assert abs(got - SURVIVAL_ON_THE_RAY[alpha, rho, x, t]) <= 1e-9


def test_survival_costs_at_most_2000_evaluations(monkeypatch):
    # one adaptive quadrature per call; a real-axis integral sized for
    # the top frequency took up to 144 000 evaluations at (4, 0.2)
    counted = []

    def counting(quad):
        def wrapper(*args, **kw):
            res = quad(*args, **kw)
            counted.append(res.evaluations)
            return res
        return wrapper

    for name in dir(spectral):
        if name.startswith("integrate_"):
            monkeypatch.setattr(spectral, name,
                                counting(getattr(spectral, name)))
    for alpha, rho in [(1.5, 0.55), (1.5, 0.45), (1.2, 0.5), (0.8, 0.6),
                       (0.5, 0.5)]:
        p = StableParams(alpha, rho)
        survival(p, 1.0, 1.0)
        for x, t in [(4.0, 0.2), (1.0, 1.0), (2.0, 1.0)]:
            counted.clear()
            survival(p, x, t)
            assert 0 < sum(counted) <= 2000, (alpha, rho, x, t, counted)


def test_round_trip_refuses_past_its_reach(p_generic, monkeypatch):
    # the tail may sum only as many half-periods as its inner transform
    # resolves; one that needs more is refused, not returned
    monkeypatch.setattr(spectral, "_TAIL_PANELS", 8)
    with pytest.raises(NonConvergence, match="reach"):
        pi_round_trip(p_generic, TestFunction.power_tower(), 1.0)


# ------------------------------------------------- one kernel per set


def test_warm_calls_evaluate_no_double_sine(p_generic, monkeypatch):
    # the kernel of a parameter set holds its double sine constants and
    # lives with G's profile, so after one call of each kind no warm call
    # evaluates s2, and ray_profile.cache_clear() drops it with G's table
    u = TestFunction.power_tower()
    lam = np.array([0.5, 1.0, 2.0])
    calls = {
        "survival": lambda: survival(p_generic, 1.0, 1.0),
        "density": lambda: transition_density(p_generic, 1.0,
                                              np.array([0.5, 1.0]), 1.0),
        "pi_transform": lambda: pi_transform(p_generic, u, lam),
        "pi_hat_transform": lambda: pi_hat_transform(p_generic, u, lam),
        "semigroup": lambda: semigroup_apply(p_generic, u, 0.5, 1.0)}
    for call in calls.values():
        call()
    seen = []
    exact = doublesine.log_s2

    def spy(*args, **kw):
        seen.append(args)
        return exact(*args, **kw)

    monkeypatch.setattr(doublesine, "log_s2", spy)
    for name, call in calls.items():
        call()
        assert not seen, name
    ray_profile.cache_clear()
    survival(p_generic, 1.0, 1.0)
    assert len(seen) == 2  # coef_g and survival's constant


@pytest.mark.parametrize("alpha,rho,built", [
    (2.0, 0.5, 0), (1.5, 2.0 / 3.0, 1), (1.5, 1.0 / 3.0, 1)])
def test_no_g_profile_where_its_coefficient_vanishes(alpha, rho, built):
    # at alpha rho_hat = 1 the kernel has no G part, and it is built
    # without G's profile: (2, 0.5) needs none, and at a one-sided edge
    # only the side with a G part builds one
    ray_profile.cache_clear()
    p = StableParams(alpha, rho)
    survival(p, 1.0, 1.0)
    transition_density(p, 1.0, np.array([0.5, 1.0]), 1.0)
    assert ray_profile.cache_info().currsize == built
