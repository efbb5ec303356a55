"""Ray profiles: the tail handoff, and the Laplace transform's exact
small-x branch, its closed form and knot table."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import BarycentricInterpolator

from halfstable import StableParams, survival
from halfstable.eigenfunctions import doney_g, g_func
from halfstable.doublesine import s2_abs_squared_on_ray
from halfstable.errors import PoleProximity
from halfstable.profiles import (_KNOT_HI, _KNOT_STEP, _PANEL,
                                 _SERIES_EDGE, RayProfile, _series,
                                 g_profile, mu_profile, ray_profile)


@pytest.mark.parametrize("alpha", [0.5, 1.2, 1.5, 2.0])
@pytest.mark.parametrize("deriv", [0, 1])
def test_series_branch_matches_grid_dot(alpha, deriv):
    prof = g_profile(StableParams(alpha, 0.5))
    # G'(0) diverges, so deriv 1 stays off x = 0; below alpha = 1 the
    # grid reaches past e^19, and the points shrink with its edge
    x = np.array([0.0, 1e-30, 1e-20, 1e-13, 5e-12][deriv:]) \
        * (np.exp(19.0) / prof.z_hi)
    assert np.all(x * prof.z_hi <= 1e-3)  # all on the series branch
    zw = prof.w * prof.vals * (1.0 if deriv == 0 else -prof.z)
    # G' is minus the transform of z W, so are its tails
    src, sign = (prof, 1.0) if deriv == 0 else (prof._times_z(), -1.0)
    grid_dot = np.exp(-np.outer(x, prof.z)) @ zw \
        + sign * (src._low_tail(x) + src._high_tail(x))
    assert_allclose(prof.laplace(x, deriv=deriv), grid_dot, rtol=1e-15)


@pytest.mark.parametrize("alpha,rho", [(0.5, 0.5), (0.6, 0.9), (1.5, 0.55),
                                       (2.0, 0.5)])
@pytest.mark.parametrize("deriv", [0, 1])
def test_laplace_finite_at_tiny_x(alpha, rho, deriv):
    # x^-(alpha+1+deriv) overflows below x ~ 1e-123 while the lower
    # incomplete gamma underflows; the low tail must not turn that into nan
    prof = g_profile(StableParams(alpha, rho))
    x = np.array([1e-300, 1e-200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = prof.laplace(x, deriv=deriv)
    assert np.all(np.isfinite(vals))
    # G(0) - G(x) ~ x^(alpha rho_hat)/(alpha rho_hat), which is still
    # 5.6e-13 relative at x = 1e-200 for alpha rho_hat = 0.06
    if deriv == 0 and alpha * (1.0 - rho) >= 0.1:
        assert_allclose(vals, prof.laplace(0.0), rtol=1e-15)


# survival(x=1, t=1), frozen 2026-10.  Route: the same spectral formula
# with the profile grid widened to u = +-100 for every alpha, where the
# dropped tail correction e^(-100 min(1, alpha)) is below 1e-13; the
# +-60 grid agrees with these to 8e-12.
SURVIVAL_BELOW_1 = {
    (0.3, 0.5): 0.6767736830826565,
    (0.4, 0.8): 0.8640796974136482,
    (0.6, 0.9): 0.931870891149907,
    (0.5, 0.5): 0.6863565346919379,
}


@pytest.mark.parametrize("alpha,rho", list(SURVIVAL_BELOW_1))
def test_survival_below_alpha_1_against_wide_grid(alpha, rho):
    got = survival(StableParams(alpha, rho), 1.0, 1.0)
    assert abs(got - SURVIVAL_BELOW_1[alpha, rho]) <= 1e-9


def test_spline_edge_stops_at_its_ceiling():
    # the table's knots run from the series edge to the first lattice
    # knot at or above 1e12, whatever the first arguments; past 1e12 the
    # exact laplace serves, and no later argument rebuilds it.  A copy
    # with its own memo keeps the cached profile's table.
    prof = replace(g_profile(StableParams(1.5, 0.55)), _memo={})
    x = np.array([1.0, 1e13, 1e100, 1e300])
    got = prof.interp(x)
    table = prof._knot_table()
    t, _, h, coefs = table
    assert coefs.shape == (6, t.size - 1)
    assert_allclose(np.exp(t[0]), _SERIES_EDGE / prof.z_hi, rtol=1e-12)
    assert _KNOT_HI <= np.exp(t[-1]) < _KNOT_HI * np.exp(h)
    prof.interp(np.array([1e200, 1e301]))
    assert prof._knot_table() is table
    assert_allclose(got[1:], prof.laplace(x[1:]), rtol=1e-15)
    assert np.all(np.isfinite(got)) and np.all(got >= 0)


_KNOT_SETS = [(1.5, 0.55), (1.2, 0.5), (1.9, 0.52), (0.8, 0.6), (0.5, 0.5),
              (0.3, 0.5), (0.2, 0.3),
              (0.45, 0.5),    # an odd panel count, width 0.19986
              (1.0, 0.9586)]  # panels refined near a pole


@pytest.mark.parametrize("alpha,rho", _KNOT_SETS)
def test_lattice_knot_values_match_laplace(alpha, rho):
    # the table's values, summed on the panel lattice, against the exact
    # laplace at the same knots; K steps of h <= 0.006 make one panel
    prof = replace(g_profile(StableParams(alpha, rho)), _memo={})
    prof.interp(np.array([1.0]))
    k, values, h, _ = prof._knot_table()
    want = prof.laplace(np.exp(k))
    assert_allclose(values, want, rtol=1e-13, atol=0.0)
    step = (k[-1] - k[0]) / (k.size - 1)
    assert_allclose(step, h, rtol=1e-12)
    u_edge = -np.log(prof.z_lo)
    width = 2.0 * u_edge / np.ceil(2.0 * u_edge / _PANEL)
    assert step <= _KNOT_STEP
    assert_allclose(np.ceil(width / _KNOT_STEP) * step, width, rtol=1e-12)


def test_knot_values_extend_past_both_ends():
    # _at_knots serves the table's knot values, the closed form below the
    # first knot and laplace past the last, whatever order the depths
    # below come in
    prof = replace(g_profile(StableParams(1.5, 0.55)), _memo={})
    t, values, h, _ = prof._knot_table()
    k = np.arange(-3000, t.size + 40, 7)
    shallow = prof._at_knots(np.arange(-5, 3))
    got = prof._at_knots(k)
    assert_allclose(got, prof.laplace(np.exp(t[0] + h * k)), rtol=1e-13,
                    atol=0.0)
    inside = (k >= 0) & (k < t.size)
    assert np.array_equal(got[inside], values[k[inside]])
    assert np.array_equal(shallow, prof._at_knots(np.arange(-5, 3)))


def test_spline_build_makes_no_grid_dot(monkeypatch):
    # the knots read the lattice table, not the per-argument band dot
    calls = []
    exact = RayProfile._grid_dot

    def spy(self, x):
        calls.append(x.size)
        return exact(self, x)

    monkeypatch.setattr(RayProfile, "_grid_dot", spy)
    prof = replace(g_profile(StableParams(1.0, 0.9586)), _memo={})
    prof.interp(np.array([1.0, 2.0]))
    assert "knots" in prof._memo and calls == []
    prof.laplace(np.array([1.0]))  # the spy sees the exact route
    assert calls == [1]


# alpha rho_hat = 1 - 1e-12: a = -1 + 1e-12 for G, and a = 1e-12 for G'
_NEAR_EDGE = (1.3, 1.0 - (1.0 - 1e-12) / 1.3)


_SETS = [(1.5, 0.55), (0.8, 0.6), (0.3, 0.5), (1.9786, 0.5054),
         (1.834, 0.4548), (1.194, 0.837), _NEAR_EDGE,
         (1.5, 1.0 - 1.0 / 1.5)]  # a = -1 and 0 exactly for G, G'


@pytest.mark.parametrize("alpha,rho,profile", [
    *((a, r, g_profile) for a, r in _SETS + [(2.0, 0.5)]),
    *((a, r, mu_profile) for a, r in _SETS)])  # no mu profile at alpha 2
@pytest.mark.parametrize("deriv", [0, 1])
def test_closed_small_branch_matches_series_and_tails(alpha, rho, profile,
                                                      deriv):
    # below the series edge laplace is one closed form at every a (at a
    # nonpositive integer through its limit); the route it replaced is
    # the grid's Taylor series plus the two incomplete-gamma tails
    prof = profile(StableParams(alpha, rho))
    x = np.geomspace(1e-300, _SERIES_EDGE / prof.z_hi, 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prof.laplace(x, deriv=deriv)
    src, sign = (prof, 1.0) if deriv == 0 else (prof._times_z(), -1.0)
    with np.errstate(over="ignore"):  # mu': Gamma(a) x^-a = inf, a > 1
        ref = sign * (_series(src._moments(), -x) + src._low_tail(x)
                      + src._high_tail(x))
    a = prof.einf + 1.0 + deriv
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    assert np.all(np.isfinite(got) | (a > 1.0))
    fin = np.isfinite(ref)
    assert_allclose(got[fin], ref[fin], rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("alpha", [1.25, 1.5, 1.8])
def test_positive_edge_takes_the_closed_form_limit(alpha):
    # rho = 1 - 1/alpha (Doney class k = l = -1): alpha rho_hat = 1, so a
    # is exactly -1 for G and 0 for G', where the closed form below the
    # series edge is the limit of Gamma(a) x^-a and its tail term
    p = StableParams(alpha, 1.0 - 1.0 / alpha)
    assert abs(g_func(p, 0.0) / doney_g(p, 0.0) - 1.0) <= 1e-14
    prof = g_profile(p)
    x = np.geomspace(1e-300, _SERIES_EDGE / prof.z_hi, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for deriv in (0, 1):
            assert np.all(np.isfinite(prof.laplace(x, deriv=deriv)))


def _x_with_log(t):
    """Floats x whose np.log is t, or the nearest log reaches."""
    x = np.exp(t)
    for _ in range(4):
        x = np.where(np.log(x) < t, np.nextafter(x, np.inf), x)
        x = np.where(np.log(x) > t, np.nextafter(x, 0.0), x)
    return x


def _quintic_by_search(prof, x):
    """The quintic through the six knots nearest each x, the interval
    [t_i, t_i+1) found by search and the polynomial in scipy's
    barycentric form, on the knot values of ``_knots`` (the two past
    each end included), and i."""
    k, _, h, _ = prof._knot_table()
    t = np.log(x)
    i = np.clip(np.searchsorted(k, t, side="right") - 1, 0, k.size - 2)
    basis = BarycentricInterpolator(np.arange(-2.0, 4.0), np.eye(6))(
        (t - k[i]) / h)
    windows = prof._knots()[1][i[:, None] + np.arange(6)]
    return np.sum(basis * windows, axis=1), i


@pytest.mark.parametrize("alpha,rho", [(1.5, 0.55), (0.5, 0.5), (1.9, 0.52)])
def test_spline_read_by_index_matches_scipy(alpha, rho):
    # interp finds a point's interval by index on the uniform log-x knots
    # instead of a search and sums its quintic from the table's
    # coefficients; on every knot, both float neighbours of it, every
    # midpoint and random points it must give the quintic through the
    # same six knot values in scipy's barycentric form.  (0.5, 0.5) has
    # z_hi = e^42, so its table starts lower.
    prof = replace(g_profile(StableParams(alpha, rho)), _memo={})
    k, _, h, _ = prof._knot_table()
    rng = np.random.default_rng(7)
    t = np.concatenate((k, np.nextafter(k[1:], -np.inf),
                        np.nextafter(k[:-1], np.inf), 0.5 * (k[1:] + k[:-1]),
                        rng.uniform(k[0], k[-1], 100_000)))
    # the table serves up to 1e12, a fraction of a step short of its
    # last knot; past it the exact laplace does (below)
    t = t[t <= np.log(_KNOT_HI)]
    x = _x_with_log(t)
    assert np.mean(np.log(x) == t) > 0.9
    got = prof.interp(x)
    want, i = _quintic_by_search(prof, x)
    # the index names the searched interval but within rounding of a
    # knot, where it may name the one before or after
    same = np.floor((np.log(x) - k[0]) / h) == i
    assert np.all(same | (np.abs(np.log(x) - k[np.rint(
        (np.log(x) - k[0]) / h).astype(int)]) <= 1e-12 * h))
    assert_allclose(got[same], want[same], rtol=1e-15, atol=0)
    # the knots t_0 + k h are rounded, by an ulp or so of k h, which the
    # quintics on uniform steps read as shifts in s of up to 1e-12: the
    # two quintics at a knot agree to that shift times G's slope in
    # log x, at most alpha + 1 relative, not to rounding of G
    assert_allclose(got[~same], want[~same], rtol=2e-14, atol=0)
    # the ends of the range, just outside them, 0 and inf: inside the
    # table's quintics, outside the exact laplace
    edge = _SERIES_EDGE / prof.z_hi
    inside = np.array([edge, np.nextafter(edge, np.inf), _KNOT_HI,
                       np.nextafter(_KNOT_HI, 0.0)])
    assert_allclose(prof.interp(inside), _quintic_by_search(prof, inside)[0],
                    rtol=1e-15, atol=0)
    outside = np.array([np.nextafter(edge, 0.0), 0.0,
                        np.nextafter(_KNOT_HI, np.inf), np.inf])
    with np.errstate(invalid="ignore"):  # laplace(inf) is nan
        np.testing.assert_array_equal(prof.interp(outside),
                                      prof.laplace(outside))


@pytest.mark.parametrize("alpha,rho", [(1.5, 0.55), (1.2, 0.5), (0.5, 0.5),
                                       (0.3, 0.5), (1.9, 0.52),
                                       (1.0, 0.9586)])
def test_g_read_matches_laplace_to_rounding(alpha, rho):
    # the quintics of six knots read G within rounding of its exact
    # transform over the whole table, from the series edge to 1e11
    prof = replace(g_profile(StableParams(alpha, rho)), _memo={})
    rng = np.random.default_rng(32)
    x = np.exp(rng.uniform(np.log(_SERIES_EDGE / prof.z_hi), np.log(1e11),
                           4000))
    gap = np.abs(prof.interp(x) - prof.laplace(x))
    assert np.max(gap) <= 1e-14 * prof.laplace(0.0)


@pytest.mark.parametrize("alpha,rho,profile", [
    (1.5, 0.55, g_profile),     # uniform panels, an even count
    (0.45, 0.5, g_profile),     # an odd count: a panel straddles u = 0
    (1.0, 0.9586, g_profile),   # panels refined near a pole
    (1.5, 0.65, mu_profile)])
def test_profile_lattice_matches_per_point_values(alpha, rho, profile):
    # the mirrored panel lattice against the per-point path at every node
    prof = profile(StableParams(alpha, rho))
    ref = prof.z ** prof.q \
        * s2_abs_squared_on_ray(prof.b, 0.0, prof.z, alpha)
    assert_allclose(prof.vals, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha,rho", [(1.5, 0.55), (0.3, 0.5), (0.2, 0.3)])
def test_band_dot_matches_full_exponential_sum(alpha, rho):
    # on a log grid over the table's range, step 0.006: prefix moments
    # below x z = 1e-3 and no terms past x z = 700, against every node's
    # exponential (every 4th point)
    prof = g_profile(StableParams(alpha, rho))
    lo = _SERIES_EDGE / prof.z_hi
    x = np.exp(np.linspace(np.log(lo), np.log(_KNOT_HI),
                           int(np.log(_KNOT_HI / lo) / _KNOT_STEP)))
    got = prof._grid_dot(x)[::4]
    zw = prof.w * prof.vals
    full = np.concatenate([np.exp(-np.outer(xb, prof.z)) @ zw
                           for xb in np.array_split(x[::4], 200)])
    scale = prof.laplace(x[::4])
    assert np.max(np.abs(got - full) / scale) <= 1e-14


def test_cold_profile_and_spline_stay_small():
    # every temporary of the lattice transform and the band dot is
    # blocked; the profile and its knot table at alpha 0.2 (16 800 nodes,
    # 23 000 knots) peak at about 4.5 MiB
    p = StableParams(0.2, 0.3)
    b, q = 1.0 + 0.2 + 0.1 * p.rho_hat, 0.1 * p.rho - 0.5
    tracemalloc.start()
    try:
        ray_profile.__wrapped__(0.2, b, q).interp(np.array([1.0]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_a_line_through_a_pole_refuses_by_name():
    # alpha rho = 1: the supremum profile's line Re w = 2.25 runs through
    # the pole 1 + alpha of s2
    with pytest.raises(PoleProximity, match=r"pole 1 \+ 1.25\*1"):
        mu_profile(StableParams(1.25, 0.8))
