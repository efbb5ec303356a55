"""Cached tabulations of double sine ray weights.

Most integral representations in this package share one shape: a weight

    W(z) = z^q |s2(b + i alpha log(z) / (2 pi))|^2

integrated against a smooth kernel over z in (0, inf).  W depends only
on (alpha, b, q), so it is tabulated once per parameter set on a
Gauss-Legendre grid in u = log z and reused for every kernel.  The
grid is symmetric about u = 0, where |s2| is even, so half of it is
evaluated, and its panels of one width are one lattice of the double
sine's line transform.  Beyond
the grid W is a pure power with coefficient exactly 1 on both sides
(that is what the modulus asymptotics of the double sine give), so the
missing tails of Laplace-type integrals are added in closed form
through incomplete gamma functions.

W ~ z^e0 as z -> 0 and W ~ z^einf as z -> inf with

    e0   = q + b - (1 + alpha)/2,
    einf = q + (1 + alpha)/2 - b,

and relative corrections O(z^{min(1,alpha)}) resp. O(z^{-min(1,alpha)}).

Below x z_hi = 1e-3 the Laplace transform is a closed form: six powers
of x plus one term Gamma(a) x^-a, with coefficients memoized per
profile, so no incomplete gamma is evaluated there.  Above it the grid
dot runs exponentials only over its live band 1e-3 < x z <= 700, with
the nodes below the band summed from prefix moments.  Each profile also
serves its Laplace transform from a cubic spline in log x
(``RayProfile.interp``) over one fixed range, built once on first use
and kept on the profile, so ``ray_profile.cache_clear()`` drops both
together.  The spline's knots lie on the panel lattice, so one table of
exponentials and one matrix product give every knot's band.  The knot
values are kept beside the spline (``RayProfile._at_knots``), from the
same one build, for sums whose nodes sit on the knots.
``g_profile`` and ``mu_profile`` name the two profiles the package
reads: G's, behind the eigenfunctions, and the supremum's mixing density
mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import exp1, gammainc, gammaincc, gamma as _gamma_fn
from scipy.special import zeta as _zeta

from .doublesine import (POLE_RADIUS, _abs_squared_on_lattice,
                         _poles_by_column)
from .errors import DomainError, PoleProximity
from .model import StableParams
from .numerics import blocked, panel_nodes, vectorized


# The master grid in u = log z: Gauss-Legendre panels of width 0.2 (16
# nodes each) on [-U, U].  The power-law tails take over at z = e^(-+U),
# where the O(z^(+-min(1,alpha))) corrections to the coefficient-1
# asymptotics are of relative size e^(-U min(1, alpha)).  U = 19 for
# alpha >= 1 bounds that by e^-19 = 5.6e-9.  Below alpha = 1 the same
# e^-19 still moves survival by up to 1.6e-9 (at (0.6, 0.9)), so there
# U = 21 / alpha, which bounds it by e^-21 = 7.6e-10 for every alpha and
# gives 3.7 times the nodes at alpha = 0.3.
#
# The line Re w = b crosses the real axis at u = 0, and a pole of s2 at
# distance d from b sits 2 pi d / alpha off the u axis there.  When that
# is below one panel width (near a one-sided edge, alpha rho -> 1 for the
# supremum profile), the panels around 0 are halved, with edges at 0 and
# +-0.2 2^-k, down to a quarter of that distance.
_U_EDGE = 19.0
_U_EDGE_BELOW_1 = 21.0
_PANEL = 0.2


def upper_gamma(a, x):
    """Upper incomplete gamma for real a, vectorized in x > 0.

    scipy's regularized gammaincc needs a > 0; a <= 0 is reached by
    repeating the downward recursion Gamma(a, x) = (Gamma(a+1, x)
    - x^a e^-x) / a from a starting order in (0, 1], with the
    exponential integral E1 as the base case at integer a.  Each step
    loses a factor ~x/|a| to cancellation for large x, which is
    harmless here because the function itself is then O(e^-x).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("upper_gamma needs x > 0")
    a = float(a)
    if a > 0:
        return gammaincc(a, x) * _gamma_fn(a)
    n = int(np.ceil(-a))
    base = a + n
    if base == 0:
        g = exp1(x)
    else:
        g = gammaincc(base, x) * _gamma_fn(base)
    ex = np.exp(-x)
    for j in range(n, 0, -1):
        aj = a + j - 1.0
        g = (g - x ** aj * ex) / aj
    return g


_SPLINE_HI = 1e12       # upper edge of the laplace spline
_SPLINE_STEP = 0.006    # the largest node spacing in log x
_SERIES_EDGE = 1e-3     # x z_hi up to which laplace sums the Taylor series
_SERIES_TERMS = 6
_BAND_TOP = 700.0      # x z past which the grid dot stops
_LOG_MAX = np.log(np.finfo(float).max)


def _series(coefs, y):
    """sum_k coefs[k] y^k by Horner's rule."""
    acc = np.zeros(y.shape)
    for c in reversed(coefs):
        acc = acc * y + c
    return acc


def _prefix_table(z, zw):
    """P_j[k] = sum_{i<k} zw_i z_i^j / j!, j < 6, k <= N."""
    table = np.zeros((_SERIES_TERMS, z.size + 1))
    for j in range(_SERIES_TERMS):
        np.cumsum(zw * z ** j / _gamma_fn(j + 1.0), out=table[j, 1:])
    return table


def _check_series(alpha, einf, z_hi, deriv):
    """Refuse a profile whose series overflow: the moments and the
    closed form below the series edge form powers up to z_hi^top, top =
    max(einf + deriv + 1, 0) + 5; below alpha = 1, z_hi = e^(21 /
    alpha), so at small alpha that overflows."""
    top = max(einf + deriv + 1.0, 0.0) + _SERIES_TERMS - 1
    if top * np.log(z_hi) > _LOG_MAX:
        raise DomainError(
            f"alpha = {alpha:.3g} is below the smallest alpha "
            f"this profile's grid supports, about "
            f"{_U_EDGE_BELOW_1 * top / _LOG_MAX:.3g}: its series "
            f"forms z_hi^{top:.3g} = e^{top * np.log(z_hi):.0f}")


def _gamma_pair(a, n, zhi):
    """x -> Gamma(a) x^-a - (-1)^n z_hi^(a+n) x^n / (n! (a+n)), or just
    Gamma(a) x^-a for n < 0, for x z_hi <= 1e-3.

    With eps = a + n the two terms are each O(1/eps) and their sum is
    not.  Writing Gamma(a) = (-1)^n R / (n! eps), R = Gamma(1 + eps) /
    prod_{j<=n} (1 - eps/j), the sum is (-1)^n x^n z_hi^eps / n! times
    expm1(eps (l - L)) / eps, with l = log(R) / eps from the series of
    log Gamma(1 + eps) and L = log(x z_hi).  That form holds full
    precision while eps |L| < 1; beyond it the terms differ enough that
    the direct sum does, and pow keeps x^-a exact where exp would not.
    At eps = 0 (a a nonpositive integer) the sum is its limit (-1)^n x^n
    (psi(n+1) - L) / n!, psi(n+1) = -euler + H_n, which is 0 at x = 0
    for n >= 1.
    """
    gam = _gamma_fn(a)
    if n < 0:
        def direct(x):
            with np.errstate(over="ignore"):  # Gamma(a) x^-a = inf
                return gam * x ** (-a)
        return direct
    eps = a + n
    if eps == 0.0:
        psi = -np.euler_gamma + sum(1.0 / j for j in range(1, n + 1))
        fac = (-1.0) ** n / _gamma_fn(n + 1.0)

        def limit(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                val = fac * x ** n * (psi - np.log(x * zhi))
            return np.where(x == 0.0, 0.0, val)

        return limit
    k = np.arange(2, 64)
    # log Gamma(1 + eps) / eps = -euler + sum_k (-1)^k zeta(k) eps^(k-1)/k
    ell = (-np.euler_gamma + np.sum((-1.0) ** k * _zeta(k) * eps ** (k - 1)
                                    / k)
           - sum(np.log1p(-eps / j) for j in range(1, n + 1)) / eps)
    fac = (-1.0) ** n * zhi ** eps / _gamma_fn(n + 1.0)

    def pair(x):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            shift = -eps * np.log(x * zhi)  # -eps L
            near = fac * x ** n * np.expm1(eps * ell + shift) / eps
            far = gam * x ** (-a) - fac * x ** n / eps
        return np.where(np.abs(shift) < 1.0, near, far)

    return pair


@dataclass(frozen=True)
class RayProfile:
    """W tabulated on the master grid, with its Laplace transform.

    ``laplace`` is exact up to rounding: the grid dot plus the two
    closed-form tails.  Where x z_hi <= 1e-3 the grid dot is its Taylor
    series sum_k (-x)^k M_k / k!, k < 6, with the moments M_k = sum w W
    z^k (times -z for deriv 1) computed once per profile; W >= 0 bounds
    M_k by z_hi^k M_0, so the dropped terms are below 1.5e-21 M_0.  The
    two tails have series there too, and the three merge into one
    closed form (``_small_branch``), sum_k c_k x^k + s Gamma(a) x^-a;
    ``rise`` gives its terms that vanish at x = 0.  Above the edge the
    same series, over the nodes with x z <= 1e-3 (prefix moments), joins
    the exponentials of the band 1e-3 < x z <= 700 (``_grid_dot``).
    ``interp`` serves laplace on [1e-3 / z_hi, 1e12] through a cubic
    spline in log x whose step divides the panel width (0.2 / 34 =
    0.00588), built once on first use from the panel lattice
    (``_knots``) and kept in the profile's memo: it starts at the
    series edge, so below it laplace costs only the closed form.
    ``_at_knots`` serves the same knot values, and the closed form at
    knots below the first, without a cubic.
    """
    alpha: float
    b: float
    q: float
    z: np.ndarray       # grid nodes (increasing)
    w: np.ndarray       # dz quadrature weights at the nodes
    vals: np.ndarray    # W(z) at the nodes
    e0: float
    einf: float
    z_lo: float         # lower edge of quadrature coverage (= e^-U)
    z_hi: float         # upper edge of quadrature coverage (= e^U)
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    @vectorized("x")
    def laplace(self, x, deriv=0):
        """int_0^inf e^{-z x} (-z)^deriv W(z) dz with analytic tails.

        Vectorized over x >= 0 (scalar in, scalar out).  deriv in {0, 1}.
        """
        if deriv not in (0, 1):
            raise DomainError("deriv must be 0 or 1")
        if np.any(x < 0):
            raise DomainError("x must be >= 0")
        out = np.empty(x.shape, dtype=float)
        with np.errstate(over="ignore"):  # x z_hi = inf is not small
            small = x * self.z_hi <= _SERIES_EDGE
        closed = self._small_branch(deriv)
        if np.any(small):
            out[small] = closed(x[small])
        if not np.all(small):
            # the grid dot first, then its two tails
            big = ~small
            out[big] = self._grid_dot(x[big], deriv)
            out[big] += self._low_tail(x[big], deriv) \
                + self._high_tail(x[big], deriv)
        return out

    def interp(self, x):
        """laplace(x) (deriv 0) through the profile's cubic spline.

        The spline covers [1e-3 / z_hi, 1e12] whatever the arguments, so
        a value never depends on earlier calls; its last knot is the
        first of its lattice at or past 1e12.  Its knots are uniform in
        log x, so a point's interval is read off by index, scipy's but
        within rounding of a knot, where both cubics agree to an ulp;
        summed in scipy's order, the cubic gives CubicSpline's value.
        Below the series edge, its lower edge, and above 1e12 the exact
        laplace serves (the Taylor series below).
        """
        x = np.asarray(x, dtype=float)
        if "spline" not in self._memo:
            self._memo["spline"] = CubicSpline(*self._knot_table()[:2])
        k, c = self._memo["spline"].x, self._memo["spline"].c
        out = np.empty_like(x)
        inside = (x >= _SERIES_EDGE / self.z_hi) & (x <= _SPLINE_HI)
        t = np.log(x[inside])
        i = np.clip(((t - k[0]) * ((k.size - 1) / (k[-1] - k[0])))
                    .astype(np.intp), 0, k.size - 2)
        d = t - k[i]
        out[inside] = c[3][i] + c[2][i] * d + c[1][i] * (d * d) \
            + c[0][i] * (d * d * d)
        if not inside.all():
            out[~inside] = self.laplace(x[~inside])
        return out

    def _knot_table(self):
        """(t, values, h): the knots t_k = t_0 + k h in log x of the
        spline that ``interp`` reads and laplace (deriv 0) at them, from
        the profile's one ``_knots`` call, kept in its memo."""
        if "knots" not in self._memo:
            self._memo["knots"] = self._knots()
        return self._memo["knots"]

    def _at_knots(self, k):
        """laplace (deriv 0) at x = e^(t_0 + k h) for integers k of any
        sign: the knot value for 0 <= k < t.size, laplace past the last
        knot, and below the first its closed form, kept in the memo for
        k = -1, -2, ... as deep as any call has reached (at least twice
        the depth before, so the extensions stay few)."""
        t, values, h = self._knot_table()
        out = np.empty(k.shape)
        on = (k >= 0) & (k < t.size)
        out[on] = values[k[on]]
        low = k < 0
        if low.any():
            below = self._memo.get("below", np.empty(0))
            if -k.min() > below.size:
                below = self.laplace(np.exp(t[0] - h * np.arange(
                    1, max(-k.min(), 2 * below.size) + 1)))
                self._memo["below"] = below
            out[low] = below[-1 - k[low]]
        high = k >= t.size
        if high.any():
            out[high] = self.laplace(np.exp(t[0] + h * k[high]))
        return out

    def _knots(self):
        """The knots in log x of the spline that ``interp`` reads,
        laplace (deriv 0) at them, summed on the panel lattice, and the
        knot step.

        The knots t_k = log(1e-3 / z_hi) + k h step by h = width / K, K
        = ceil(width / 0.006), up to the first at or above log 1e12.
        Node m of lattice panel p sits at u_m + p width, so log(x_k z) =
        t_0 + u_m + (k + K p) h depends on n = k + K p and m alone: the
        exponentials of every knot's band 1e-3 < x z <= 700 are one
        table B[s, r, m] at n = s + K r, s < K, over the band's panels
        r, and knot k = s + K j sums B[s, r, m] zw[r - j, m] over r and
        m, an entry of (windows of zw) @ B^T.  Below the band the prefix
        moments serve as in ``_grid_dot``, above it no term is summed
        (each would be below e^-700 of its weight), and the two tails
        are added as in ``laplace``.  Panels refined near a pole leave
        their lattice slots at weight 0; their nodes are summed apart,
        by exponentials over their own band and by their moments below
        it.
        """
        edges, lattice = _panel_edges(self.alpha, self.b)
        order = self.z.size // (edges.size - 1)
        width = (lattice[-1] - lattice[0]) / (lattice.size - 1)
        steps = int(np.ceil(width / _SPLINE_STEP))
        h = width / steps
        t0 = np.log(_SERIES_EDGE / self.z_hi)
        t = t0 + h * np.arange(
            int(np.ceil((np.log(_SPLINE_HI) - t0) / h)) + 1)
        x = np.exp(t)
        # the profile's panels in their lattice slots, the rest apart
        slot = np.minimum(np.searchsorted(lattice, edges[:-1]),
                          lattice.size - 2)
        on = (lattice[slot] == edges[:-1]) & (lattice[slot + 1] == edges[1:])
        z = self.z.reshape(-1, order)
        zw = self._zw(0).reshape(-1, order)
        lat_z = np.zeros((lattice.size - 1, order))
        lat_zw = np.zeros_like(lat_z)
        lat_z[slot[on]], lat_zw[slot[on]] = z[on], zw[on]
        # n up to lo_n[m] lies below node m's band, up to hi_n[m] in it
        a = t0 + panel_nodes(lattice[:2], order)[0]
        lo_n = np.floor((np.log(_SERIES_EDGE) - a) / h).astype(np.intp)
        hi_n = np.floor((np.log(_BAND_TOP) - a) / h).astype(np.intp)
        # knot k reads node (p, m) from the prefix while k + K p <= lo_n[m]
        cut = (lo_n - steps * np.arange(lattice.size - 1)[:, None]).ravel()
        below = np.searchsorted(-cut, -np.arange(t.size), side="right")
        out = _series(_prefix_table(lat_z.ravel(), lat_zw.ravel())[:, below],
                      -x)
        r_lo, r_hi = (lo_n.min() + 1) // steps, hi_n.max() // steps
        n = np.arange(r_lo * steps, (r_hi + 1) * steps) \
            .reshape(-1, steps).T[:, :, None]
        table = np.minimum(a + n * h, np.log(_BAND_TOP))
        np.exp(-np.exp(table, out=table), out=table)
        table[(n <= lo_n) | (n > hi_n)] = 0.0
        span = table.shape[1] * order
        rows = -(-t.size // steps)
        pad_lo = max(rows - 1 - r_lo, 0)
        pad_hi = max(r_hi + 2 - lattice.size, 0)
        padded = np.concatenate((np.zeros(pad_lo * order), lat_zw.ravel(),
                                 np.zeros(pad_hi * order)))
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, span)[::order]
        flat = table.reshape(steps, span)
        out += blocked(lambda first: windows[first] @ flat.T,
                       r_lo + pad_lo - np.arange(rows), span).ravel()[:t.size]
        if not on.all():
            ref_z, ref_zw = z[~on].ravel(), zw[~on].ravel()
            low = x * ref_z[-1] <= _SERIES_EDGE
            live = ~low & (x * ref_z[0] <= _BAND_TOP)
            out[low] += _series(_prefix_table(ref_z, ref_zw)[:, -1], -x[low])
            out[live] += blocked(lambda xb: np.exp(np.maximum(
                np.multiply.outer(-xb, ref_z), -_BAND_TOP)) @ ref_zw,
                x[live], ref_z.size)
        out += self._low_tail(x, 0) + self._high_tail(x, 0)
        return t, out, h

    def rise(self, x):
        """laplace(x) - laplace(0), deriv 0, for x z_hi <= 1e-3 where
        laplace(0) is finite (einf + 1 < 0).

        It sums only the closed form's terms that vanish at 0 (the k >= 1
        powers and Gamma(a) x^-a, or ``_gamma_pair`` where that cancels
        against a power), so no constant is formed to cancel.
        """
        if self.einf + 1.0 >= 0.0:
            raise DomainError("the profile integral diverges at x = 0")
        self._small_branch(0)
        return self._memo["rise", 0](x)

    def _grid_dot(self, x, deriv):
        """sum_k e^{-x z_k} zw_k over its live band only.

        Nodes with x z <= 1e-3 enter through prefix moments (``_prefix``)
        as sum_j (-x)^j P_j, j < 6, which drops terms below 1.5e-21 of
        their sum, the series branch's bound.  Exponentials run only for
        1e-3 < x z <= 700, on x sorted into blocks of ``numerics.blocked``
        with one band each, which runs to x z = 700 for the block's
        smallest x.  Its larger x read e^-700 in place of e^{-x z} past
        that, an error below e^-700 of each weight, which keeps exp off
        its subnormal range (from about e^-708 on), where it is a
        hundred times slower.
        """
        zw, z = self._zw(deriv), self.z
        order = np.argsort(x)
        xs = x[order]
        band = np.searchsorted(z, _BAND_TOP / xs, side="right") \
            - np.searchsorted(z, _SERIES_EDGE / xs, side="right")

        def block(xb):
            lo = np.searchsorted(z, _SERIES_EDGE / xb[-1], side="right")
            hi = np.searchsorted(z, _BAND_TOP / xb[0], side="right")
            e = np.multiply.outer(-xb, z[lo:hi])
            np.maximum(e, -_BAND_TOP, out=e)
            out = np.exp(e, out=e) @ zw[lo:hi]
            if lo:
                out += _series(self._prefix(deriv)[:, lo], -xb)
            return out

        out = np.empty_like(x)
        out[order] = blocked(block, xs, max(int(band.max()), 1))
        return out

    def _zw(self, deriv):
        wv = self.w * self.vals
        return wv if deriv == 0 else -wv * self.z

    def _moments(self, deriv):
        """Taylor coefficients M_k / k! of the grid dot in powers of -x.

        These and ``_small_branch`` form powers up to z_hi^top, which
        ``_check_series`` bounds; ``ray_profile`` has checked deriv 0.
        """
        key = ("moments", deriv)
        if key not in self._memo:
            _check_series(self.alpha, self.einf, self.z_hi, deriv)
            zw = self._zw(deriv)
            self._memo[key] = [zw @ self.z ** k / _gamma_fn(k + 1.0)
                               for k in range(_SERIES_TERMS)]
        return self._memo[key]

    def _prefix(self, deriv):
        """``_prefix_table`` of the grid: the cumulative moments that
        ``_grid_dot`` reads below its band.  Their terms are those of
        ``_moments``, which refuses first where they overflow."""
        key = ("prefix", deriv)
        if key not in self._memo:
            self._moments(deriv)
            self._memo[key] = _prefix_table(self.z, self._zw(deriv))
        return self._memo[key]

    def _small_branch(self, deriv):
        """laplace below the series edge as a function of x.

        For x z_hi <= 1e-3 the grid dot (its Taylor series), the low
        tail (its series) and the high tail x^-a Gamma(a, z_hi x) =
        Gamma(a) x^-a - sum_k (-1)^k z_hi^(a+k) x^k / (k! (a+k)), a =
        einf + 1 + deriv, merge into sum_k c_k x^k + s Gamma(a) x^-a,
        k < 6, with s = -1 for deriv 1; the c_k are memoized per deriv.
        Below a = 1/2 the tail term k = n nearest to -a cancels against
        Gamma(a) x^-a (``_gamma_pair`` sums the two, or takes their limit
        at a nonpositive integer a: alpha = 2, and the one-sided edge
        where a rounds to exactly -1 or 0).
        """
        key = ("small", deriv)
        if key in self._memo:
            return self._memo[key]
        a = self.einf + 1.0 + deriv
        sign = -1.0 if deriv == 1 else 1.0
        zlo, zhi = self.z_lo, self.z_hi
        a_lo = self.e0 + 1.0 + deriv
        n = int(np.round(-a)) if a < 0.5 else -1
        coefs = [(-1.0) ** k * (m + sign * (
            zlo ** (a_lo + k) / (a_lo + k)
            - (0.0 if k == n else zhi ** (a + k) / (a + k)))
            / _gamma_fn(k + 1.0))
            for k, m in enumerate(self._moments(deriv))]
        pair = _gamma_pair(a, n, zhi)
        # pair(x) - pair(0) where a < 0: Gamma(a) x^-a alone at n = 0
        lift = _gamma_pair(a, n if n > 0 else -1, zhi)

        def small(x):
            if a >= 0.0 and np.any(x == 0.0):
                raise DomainError(
                    "tail of the profile integral diverges at x = 0")
            return _series(coefs, x) + sign * pair(x)

        self._memo[key] = small
        self._memo["rise", deriv] = \
            lambda x: x * _series(coefs[1:], x) + sign * lift(x)
        return small

    def _low_tail(self, x, deriv):
        # int_0^zlo e^{-zx} z^(a-1) dz with a = e0 + deriv + 1: the lower
        # incomplete gamma x^-a gamma(a, zlo x), stable even for zlo x =
        # O(1).  Where zlo x <= 1e-3 it is the series zlo^a sum_k
        # (-zlo x)^k / (k! (a+k)), k < 6 (dropped terms < 1.4e-21
        # relative), since for tiny x x^-a overflows while gamma
        # underflows, and inf * 0 is nan.
        zlo = self.z_lo
        a = self.e0 + 1.0 + deriv
        out = np.empty(x.shape, dtype=float)
        small = zlo * x <= _SERIES_EDGE
        if np.any(small):
            coefs = [zlo ** a / (a + k) / _gamma_fn(k + 1.0)
                     for k in range(_SERIES_TERMS)]
            out[small] = _series(coefs, -zlo * x[small])
        if not np.all(small):
            xb = x[~small]
            out[~small] = xb ** (-a) * gammainc(a, zlo * xb) * _gamma_fn(a)
        return -out if deriv == 1 else out

    def _high_tail(self, x, deriv):
        # int_zhi^inf e^{-zx} z^einf dz = x^{-einf-1} Gamma(einf+1, zhi x),
        # 0 past zhi x = 700, where the grid dot drops its nodes too
        zhi = self.z_hi
        a = self.einf + 1.0 + deriv
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=float)
        with np.errstate(over="ignore"):
            live = (x > 0) & (x * zhi <= _BAND_TOP)
        if np.any(live):
            out[live] = x[live] ** (-a) * upper_gamma(a, zhi * x[live])
        if np.any(x == 0):
            if a >= 0:
                raise DomainError(
                    "tail of the profile integral diverges at x = 0")
            out[x == 0] = zhi ** a / (-a)
        if deriv == 1:
            out = -out
        return out


def _abs_squared_on_panels(b, alpha, edges, u):
    """|s2(b + i alpha u / (2 pi))|^2 at the nodes u of ``panel_nodes``
    on edges symmetric about 0.

    |s2| is even in Im w and node j mirrors node N - 1 - j, so only the
    panels from the middle up are evaluated.  Their trailing run of one
    width is one lattice of ``_abs_squared_on_lattice``; the panels
    refined near a pole before it go as one lattice row.
    """
    c = alpha / (2.0 * np.pi)
    n, order = edges.size - 1, u.size // (edges.size - 1)
    width = np.diff(edges)
    # linspace widths agree to about 1e-14; a refined panel's do not
    uneven = np.flatnonzero(np.abs(width - width[-1]) > 1e-12 * width[-1])
    mid = n // 2
    first = max(mid, uneven[-1] + 1 if uneven.size else 0)
    parts = []
    if first > mid:
        parts.append(_abs_squared_on_lattice(
            b, c * u[mid * order:first * order], 0.0, 1, alpha))
    parts.append(_abs_squared_on_lattice(
        b, c * u[first * order:][:order],
        c * (edges[-1] - edges[first]) / (n - first), n - first, alpha))
    half = np.concatenate([part.ravel() for part in parts])[-(u.size // 2):]
    return np.concatenate((half[::-1], half))


def _panel_edges(alpha, b):
    """The master grid's panel edges in u = log z, and the lattice of
    uniform panels on [-U, U] they come from: the same edges, or, near a
    pole, the lattice with its panels around u = 0 halved.

    A line Re w = b through a pole of s2 (for ``mu_profile`` at alpha
    rho = 1) refuses with PoleProximity, naming the pole.
    """
    u_edge = _U_EDGE if alpha >= 1.0 else _U_EDGE_BELOW_1 / alpha
    lattice = np.linspace(-u_edge, u_edge,
                          int(np.ceil(2.0 * u_edge / _PANEL)) + 1)
    dist, m, n = min(_poles_by_column(b, alpha))
    if dist <= POLE_RADIUS:
        raise PoleProximity(
            f"the line Re w = {b:g} passes within {POLE_RADIUS:g} of the "
            f"pole {m} + {alpha:g}*{n} of s2")
    gap = 2.0 * np.pi * dist / alpha
    if gap >= _PANEL:
        return lattice, lattice
    fine = _PANEL * 0.5 ** np.arange(1, int(np.log2(0.8 / gap)) + 1)
    return np.sort(np.concatenate(
        (lattice[np.abs(lattice) > 0.99 * _PANEL], -fine, [0.0], fine))), \
        lattice


@lru_cache(maxsize=64)
def ray_profile(alpha, b, q) -> RayProfile:
    """Tabulate W(z) = z^q |s2(b + i alpha log z / 2 pi)|^2 on the grid.

    A line Re w = b through a pole of s2 (for ``mu_profile`` at alpha
    rho = 1) refuses with PoleProximity, naming the pole, and an alpha
    too small for the grid's series (``_check_series``) with
    DomainError, both before the double sine is tabulated.
    """
    alpha = float(alpha)
    b = float(b)
    q = float(q)
    edges, lattice = _panel_edges(alpha, b)
    e0 = q + b - 0.5 * (1.0 + alpha)
    einf = q + 0.5 * (1.0 + alpha) - b
    z_hi = float(np.exp(lattice[-1]))
    _check_series(alpha, einf, z_hi, 0)
    u, du = panel_nodes(edges)
    z = np.exp(u)
    w = du * z  # dz = z du
    vals = z ** q * _abs_squared_on_panels(b, alpha, edges, u)
    return RayProfile(alpha, b, q, z, w, vals, e0, einf,
                      float(np.exp(lattice[0])), z_hi)


def g_profile(params: StableParams) -> RayProfile:
    """The ray profile whose Laplace transform is G.  At the dual
    parameters it also gives the integral term of
    ``wienerhopf.rotated_sup_density``."""
    p = params
    return ray_profile(p.alpha, 1.0 + p.alpha + 0.5 * p.alpha * p.rho_hat,
                       0.5 * p.alpha * p.rho - 0.5)


def mu_profile(params: StableParams) -> RayProfile:
    """The ray profile whose Laplace transform is the supremum density
    up to the factor sin(pi alpha rho)/pi."""
    p = params
    return ray_profile(p.alpha, 0.5 + p.alpha + 0.5 * p.alpha * p.rho,
                       0.5 * p.alpha * p.rho_hat)
