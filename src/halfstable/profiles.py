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

Each profile also serves its Laplace transform from a cubic spline in
log x (``RayProfile.interp``), built on first use and kept on the
profile, so ``ray_profile.cache_clear()`` drops both together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import exp1, gammainc, gammaincc, gamma as _gamma_fn

from .doublesine import s2_abs_squared_on_ray
from .errors import DomainError
from .numerics import panel_nodes, vectorized


# The master grid in u = log z: Gauss-Legendre panels of width 0.2 (16
# nodes each) on [-19, 19].  The power-law tails take over at z =
# e^(-+19), where the O(z^(+-min(1,alpha))) corrections to the
# coefficient-1 asymptotics are of relative size e^(-19 min(1, alpha)):
# 5.6e-9 for alpha >= 1, but 2.2e-2 at alpha = 0.2.  alpha >= 1 is the
# best case for this handoff, and small alpha the worst.
_U_EDGE = 19.0
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


_SPLINE_LO = 1e-12      # lower edge of the laplace spline
_SPLINE_STEP = 0.006    # its node spacing in log x
_SERIES_EDGE = 1e-3     # x z_hi up to which laplace sums the Taylor series
_SERIES_TERMS = 6


def _series(coefs, y):
    """sum_k coefs[k] y^k by Horner's rule."""
    acc = np.zeros(y.shape)
    for c in reversed(coefs):
        acc = acc * y + c
    return acc


@dataclass(frozen=True)
class RayProfile:
    """W tabulated on the master grid, with its Laplace transform.

    ``laplace`` is exact up to rounding: the grid dot plus the two
    closed-form tails.  Where x z_hi <= 1e-3 the grid dot is summed as
    its Taylor series sum_k (-x)^k M_k / k!, k < 6, with the moments
    M_k = sum w W z^k (times -z for deriv 1) computed once per profile;
    W >= 0 bounds M_k by z_hi^k M_0, so the dropped terms are below
    1.5e-21 M_0.  ``interp`` serves laplace through a cubic spline in
    log x on [1e-12, hi], step 0.006, built on first use and kept in
    the profile's memo.
    """
    alpha: float
    b: float
    q: float
    z: np.ndarray       # grid nodes (increasing)
    w: np.ndarray       # dz quadrature weights at the nodes
    vals: np.ndarray    # W(z) at the nodes
    e0: float
    einf: float
    z_lo: float         # lower edge of quadrature coverage (= e^-19)
    z_hi: float         # upper edge of quadrature coverage (= e^19)
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
        small = x * self.z_hi <= _SERIES_EDGE
        if np.any(small):
            out[small] = _series(self._moments(deriv), -x[small])
        if not np.all(small):
            xb = x[~small]
            zw = self._zw(deriv)
            # 64 rows at a time keep the exp temporary small
            out[~small] = np.concatenate(
                [np.exp(-np.outer(xb[i:i + 64], self.z)) @ zw
                 for i in range(0, xb.size, 64)])
        out += self._low_tail(x, deriv) + self._high_tail(x, deriv)
        return out

    def interp(self, x):
        """laplace(x) (deriv 0) through the profile's cubic spline.

        The spline's upper edge starts at max(64, 1.3 max x) and grows
        at least 4x whenever a larger argument arrives, so a profile
        builds it O(log) times in all.  Arguments below 1e-12 take the
        exact laplace (its series branch).
        """
        x = np.asarray(x, dtype=float)
        hi, spline = self._spline(float(x.max(initial=0.0)))
        out = np.empty_like(x)
        inside = (x >= _SPLINE_LO) & (x <= hi)
        out[inside] = spline(np.log(x[inside]))
        if not inside.all():
            out[~inside] = self.laplace(x[~inside])
        return out

    def _spline(self, xmax):
        hi, spline = self._memo.get("spline", (0.0, None))
        if spline is None or xmax > hi:
            hi = max(64.0, 4.0 * hi, 1.3 * xmax)
            n = int(np.log(hi / _SPLINE_LO) / _SPLINE_STEP)
            grid = np.linspace(np.log(_SPLINE_LO), np.log(hi), n)
            spline = CubicSpline(grid, self.laplace(np.exp(grid)))
            self._memo["spline"] = hi, spline
        return hi, spline

    def _zw(self, deriv):
        wv = self.w * self.vals
        return wv if deriv == 0 else -wv * self.z

    def _moments(self, deriv):
        """Taylor coefficients M_k / k! of the grid dot in powers of -x."""
        key = ("moments", deriv)
        if key not in self._memo:
            zw = self._zw(deriv)
            self._memo[key] = [zw @ self.z ** k / _gamma_fn(k + 1.0)
                               for k in range(_SERIES_TERMS)]
        return self._memo[key]

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
    n_panels = int(np.ceil(2.0 * _U_EDGE / _PANEL))
    edges = np.linspace(-_U_EDGE, _U_EDGE, n_panels + 1)
    u, du = panel_nodes(edges)
    z = np.exp(u)
    w = du * z  # dz = z du
    pair = s2_abs_squared_on_ray(b, 0.0, z, alpha)
    vals = z ** q * pair
    e0 = q + b - 0.5 * (1.0 + alpha)
    einf = q + 0.5 * (1.0 + alpha) - b
    return RayProfile(alpha, b, q, z, w, vals, e0, einf,
                      float(np.exp(-_U_EDGE)), float(np.exp(_U_EDGE)))
