"""Cached tabulations of double sine ray weights.

Most integral representations in this package share one shape: a weight

    W(z) = z^q |s2(b + i alpha log(z) / (2 pi))|^2

integrated against a smooth kernel over z in (0, inf).  W depends only
on (alpha, b, q), so it is tabulated once per parameter set on a
Gauss-Legendre grid in u = log z and reused for every kernel.  Beyond
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
profile, so no incomplete gamma is evaluated there.  Each profile also
serves its Laplace transform from a cubic spline in log x
(``RayProfile.interp``) over one fixed range, built once on first use
and kept on the profile, so ``ray_profile.cache_clear()`` drops both
together.  ``g_profile`` and ``mu_profile`` name the two profiles the
package reads: G's, behind the eigenfunctions, and the supremum's mixing
density mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import exp1, gammainc, gammaincc, gamma as _gamma_fn
from scipy.special import zeta as _zeta

from .doublesine import _poles_by_column, s2_abs_squared_on_ray
from .errors import DomainError
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
_SPLINE_STEP = 0.006    # its node spacing in log x
_SERIES_EDGE = 1e-3     # x z_hi up to which laplace sums the Taylor series
_SERIES_TERMS = 6
_LOG_MAX = np.log(np.finfo(float).max)


def _series(coefs, y):
    """sum_k coefs[k] y^k by Horner's rule."""
    acc = np.zeros(y.shape)
    for c in reversed(coefs):
        acc = acc * y + c
    return acc


def _gamma_pair(a, n, zhi):
    """x -> Gamma(a) x^-a - (-1)^n z_hi^(a+n) x^n / (n! (a+n)), or just
    Gamma(a) x^-a for n < 0, for x z_hi <= 1e-3 and a + n not 0.

    With eps = a + n the two terms are each O(1/eps) and their sum is
    not.  Writing Gamma(a) = (-1)^n R / (n! eps), R = Gamma(1 + eps) /
    prod_{j<=n} (1 - eps/j), the sum is (-1)^n x^n z_hi^eps / n! times
    expm1(eps (l - L)) / eps, with l = log(R) / eps from the series of
    log Gamma(1 + eps) and L = log(x z_hi).  That form holds full
    precision while eps |L| < 1; beyond it the terms differ enough that
    the direct sum does, and pow keeps x^-a exact where exp would not.
    """
    gam = _gamma_fn(a)
    if n < 0:
        def direct(x):
            with np.errstate(over="ignore"):  # Gamma(a) x^-a = inf
                return gam * x ** (-a)
        return direct
    eps = a + n
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
    closed form (``_small_branch``), sum_k c_k x^k + s Gamma(a) x^-a.
    ``interp`` serves laplace through a cubic spline in log x on
    [1e-3 / z_hi, 1e12], step 0.006, built once on first use and kept
    in the profile's memo: it starts at the series edge, so below it
    laplace costs only the closed form.
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
        # the closed form holds both tails; the series (at a nonpositive
        # integer a) and the grid dot take them from _low/_high_tail
        tails = ~small if closed else np.ones(x.shape, dtype=bool)
        if np.any(small):
            out[small] = closed(x[small]) if closed \
                else _series(self._moments(deriv), -x[small])
        if not np.all(small):
            out[~small] = self._grid_dot(x[~small], deriv)
        if np.any(tails):
            out[tails] += self._low_tail(x[tails], deriv) \
                + self._high_tail(x[tails], deriv)
        return out

    def interp(self, x):
        """laplace(x) (deriv 0) through the profile's cubic spline.

        The spline covers [1e-3 / z_hi, 1e12] whatever the arguments, so
        a value never depends on earlier calls.  Its knots are uniform in
        log x, so a point's interval is read off by index, scipy's but
        within rounding of a knot, where both cubics agree to an ulp;
        summed in scipy's order, the cubic gives CubicSpline's value.
        Below the series edge, its lower edge, and above 1e12 the exact
        laplace serves (the Taylor series below).
        """
        x = np.asarray(x, dtype=float)
        if "spline" not in self._memo:
            lo = _SERIES_EDGE / self.z_hi
            grid = np.linspace(np.log(lo), np.log(_SPLINE_HI),
                               int(np.log(_SPLINE_HI / lo) / _SPLINE_STEP))
            self._memo["spline"] = CubicSpline(grid,
                                               self.laplace(np.exp(grid)))
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

    def _grid_dot(self, x, deriv):
        """sum_k e^{-x z_k} zw_k, blocked by ``numerics.blocked``.  Each
        block stops at the first node where e^{-x z} is exactly 0 for all
        its x (x z > 750), so a large x costs only the nodes it sees."""
        zw = self._zw(deriv)

        def block(xb):
            m = np.searchsorted(self.z, 750.0 / xb.min())
            return np.exp(-np.outer(xb, self.z[:m])) @ zw[:m]

        return blocked(block, x, self.z.size)

    def _zw(self, deriv):
        wv = self.w * self.vals
        return wv if deriv == 0 else -wv * self.z

    def _moments(self, deriv):
        """Taylor coefficients M_k / k! of the grid dot in powers of -x.

        These and ``_small_branch`` form powers up to z_hi^top, top =
        max(einf + deriv + 1, 0) + 5; below alpha = 1, z_hi = e^(21 /
        alpha), so at small alpha that overflows and the profile refuses.
        """
        key = ("moments", deriv)
        if key not in self._memo:
            top = max(self.einf + deriv + 1.0, 0.0) + _SERIES_TERMS - 1
            if top * np.log(self.z_hi) > _LOG_MAX:
                raise DomainError(
                    f"alpha = {self.alpha:.3g} is below the smallest alpha "
                    f"this profile's grid supports, about "
                    f"{_U_EDGE_BELOW_1 * top / _LOG_MAX:.3g}: its series "
                    f"forms z_hi^{top:.3g} = e^{top * np.log(self.z_hi):.0f}")
            zw = self._zw(deriv)
            self._memo[key] = [zw @ self.z ** k / _gamma_fn(k + 1.0)
                               for k in range(_SERIES_TERMS)]
        return self._memo[key]

    def _small_branch(self, deriv):
        """laplace below the series edge as a function of x, or None.

        For x z_hi <= 1e-3 the grid dot (its Taylor series), the low
        tail (its series) and the high tail x^-a Gamma(a, z_hi x) =
        Gamma(a) x^-a - sum_k (-1)^k z_hi^(a+k) x^k / (k! (a+k)), a =
        einf + 1 + deriv, merge into sum_k c_k x^k + s Gamma(a) x^-a,
        k < 6, with s = -1 for deriv 1; the c_k are memoized per deriv.
        Below a = 1/2 the tail term k = n nearest to -a cancels against
        Gamma(a) x^-a (``_gamma_pair`` sums the two).  A nonpositive
        integer a (alpha = 2, and the one-sided edges where a rounds to
        exactly -1 or 0) has no such form, and None sends it the
        series-plus-tails route.
        """
        key = ("small", deriv)
        if key in self._memo:
            return self._memo[key]
        a = self.einf + 1.0 + deriv
        if a <= 0.0 and a == np.round(a):
            self._memo[key] = None
            return None
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

        def small(x):
            if a >= 0.0 and np.any(x == 0.0):
                raise DomainError(
                    "tail of the profile integral diverges at x = 0")
            return _series(coefs, x) + sign * pair(x)

        self._memo[key] = small
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
        # int_zhi^inf e^{-zx} z^einf dz = x^{-einf-1} Gamma(einf+1, zhi x)
        zhi = self.z_hi
        a = self.einf + 1.0 + deriv
        out = np.empty(np.shape(x), dtype=float)
        pos = np.asarray(x) > 0
        if np.any(pos):
            xp = np.asarray(x)[pos]
            with np.errstate(over="ignore"):  # Gamma(a, inf) = 0
                out[pos] = xp ** (-a) * upper_gamma(a, zhi * xp)
        if np.any(~pos):
            if a >= 0:
                raise DomainError(
                    "tail of the profile integral diverges at x = 0")
            out[~pos] = zhi ** a / (-a)
        if deriv == 1:
            out = -out
        return out


@lru_cache(maxsize=64)
def ray_profile(alpha, b, q) -> RayProfile:
    """Tabulate W(z) = z^q |s2(b + i alpha log z / 2 pi)|^2 on the grid."""
    alpha = float(alpha)
    b = float(b)
    q = float(q)
    u_edge = _U_EDGE if alpha >= 1.0 else _U_EDGE_BELOW_1 / alpha
    n_panels = int(np.ceil(2.0 * u_edge / _PANEL))
    edges = np.linspace(-u_edge, u_edge, n_panels + 1)
    gap = 2.0 * np.pi * min(_poles_by_column(b, alpha))[0] / alpha
    if gap < _PANEL:
        fine = _PANEL * 0.5 ** np.arange(1, int(np.log2(0.8 / gap)) + 1)
        edges = np.sort(np.concatenate(
            (edges[np.abs(edges) > 0.99 * _PANEL], -fine, [0.0], fine)))
    u, du = panel_nodes(edges)
    z = np.exp(u)
    w = du * z  # dz = z du
    pair = s2_abs_squared_on_ray(b, 0.0, z, alpha)
    vals = z ** q * pair
    e0 = q + b - 0.5 * (1.0 + alpha)
    einf = q + 0.5 * (1.0 + alpha) - b
    return RayProfile(alpha, b, q, z, w, vals, e0, einf,
                      float(np.exp(-u_edge)), float(np.exp(u_edge)))


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
