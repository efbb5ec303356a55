"""The double sine function and companions built from it.

``s2(z, alpha)`` evaluates the double sine with quasi-periods 1 and
alpha.  It is the meromorphic function fixed by the two shift equations

    s2(z + 1)     = s2(z) / (2 sin(pi z / alpha)),
    s2(z + alpha) = s2(z) / (2 sin(pi z)),

normalized to 1 at the symmetry point z = (1 + alpha)/2.  Its zeros sit
on the lattice -m - alpha n (m, n >= 0) and its poles on m + alpha n
(m, n >= 1); it satisfies the reflection identity
s2(z) s2(1 + alpha - z) = 1 and the modular identity
s2(z; alpha) = s2(z/alpha; 1/alpha).

Strategy: inside the unit-width window centred on the symmetry point the
logarithm is one absolutely convergent integral of one weight,

    log s2(z) = -int_0^inf E_a(s) ds,   E_a(s) = [Q(s) - a/(alpha s)] / s,

    Q(s) = (e^{-z s} - e^{-(1+alpha-z) s}) / ((1-e^-s)(1-e^{-alpha s}))
         = sinh(a s/2) / (2 sinh(s/2) sinh(alpha s/2)),   a = 1 + alpha - 2 z,

where a/(alpha s) is the pole of Q at s = 0 (the form with the
counterterm (a/alpha) e^-s (1+s)/s and + a/alpha is the same integral,
by int_0^inf (1 - e^-s(1+s))/s^2 ds = 1).  Q is evaluated with expm1,
and below a small s, where Q - a/(alpha s) cancels, E_a is its exact
series in s^2.  Past T = 38/min(Re z, 1 + alpha - Re z, 1), Q is below
e^-38 and the rest of the integral is a/(alpha T).  Points outside the
window are reduced into it by the shift equations (the "ladder"), and
alpha < 1 is mapped through the modular identity first, so the window
sees alpha >= 1.

The integrand oscillates at frequency ~|Im z|, so the panel grid grows
with it.  Far from the real axis it is not needed: with B_22(z | 1, alpha)
= (z^2 - (1+alpha) z)/alpha + (1 + alpha^2 + 3 alpha)/(6 alpha),

    log s2(z) = sgn(Im z) (pi i / 2) B_22(z | 1, alpha)
                + O(e^{-2 pi |Im z| / alpha})       (alpha >= 1)

(Kurokawa & Koyama, "Multiple sine functions", Forum Math. 15 (2003)),
and window points with |Im z| >= Y(alpha) = 5.9 alpha, where the
remainder is below 8e-17, take this closed form.  The rest share one
grid, sized by the largest |Im z| among them; the callers' batches hold
one or two such points.

Moduli on a vertical line Re z = x0 of the window need only the real
weight E = E_a0, a0 = 1 + alpha - 2 x0: at z = x0 + iy the real part of
Q is cos(ys) times the Q of a0, so with int_0^inf (1 - cos ys)/s^2 ds =
pi|y|/2,

    log|s2(x0 + iy)| = (pi a0 / 2 alpha) |y| - int_0^inf E(s) cos(ys) ds,

exactly.  The leading term is the real part of the far-field closed
form.  The moduli are taken on a lattice y = y0_j + p step: E is
tabulated once per line on the same panels as the complex path, and by
angle addition cos(y s) = Re e^{i y0_j s} (e^{i step s})^p, so the
integral costs one complex exponential per offset or row and node of
E's grid, and one matrix product.  A ray profile's Gauss-Legendre nodes
on panels of one width are such a lattice (16 offsets, one row per
panel); ``s2_abs_squared_on_ray``'s points are a lattice of one row.

The overall sign of the integral representation is the one thing the
algebra does not pin down cheaply, so every alpha is validated once
against the closed-form values s2(1) = sqrt(alpha) and s2(1/2) =
sqrt(2); a disagreement raises instead of silently flipping the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import sici

from .errors import DivisionByZero, DomainError, HalfstableError, PoleProximity
from .numerics import DOT_BLOCK, blocked, panel_nodes, vectorized

POLE_RADIUS = 1e-8
MAX_LADDER_STEPS = 10_000
# The closed form differs from log s2 by O(e^{-2 pi |Im w| / alpha}) for
# alpha >= 1; from |Im w| = 5.9 alpha on that is below 8e-17.
FAR_FIELD_C = 5.9
# The weight E_a is summed as its series in s^2, to s^12, below s =
# 0.05/alpha (and below s = 0.2/|a|).
_SERIES_S = 0.05
_ODD_FACTORIALS = np.array([math.factorial(2 * j + 1) for j in range(7)],
                           dtype=float)


@dataclass(frozen=True)
class SurfacePoint:
    """A point on the logarithmic surface over C \\ {0}.

    Carries modulus > 0 and an unrestricted argument, so e.g. the points
    (r, 0) and (r, 2 pi) are distinct.  ``value`` projects down to the
    plane, ``log`` is single-valued by construction.
    """

    modulus: float
    argument: float

    def __post_init__(self):
        if not (self.modulus > 0 and np.isfinite(self.modulus)):
            raise DomainError(f"modulus must be positive, got {self.modulus}")
        if not np.isfinite(self.argument):
            raise DomainError("argument must be finite")

    @property
    def value(self) -> complex:
        return self.modulus * complex(np.cos(self.argument),
                                      np.sin(self.argument))

    @property
    def log(self) -> complex:
        return complex(np.log(self.modulus), self.argument)

    @classmethod
    def from_complex(cls, z) -> "SurfacePoint":
        z = complex(z)
        if z == 0:
            raise DomainError("0 has no logarithm")
        return cls(abs(z), float(np.angle(z)))


def _sinh_series(c):
    """The coefficients, in t = s^2, of sinh(c s/2) / (c s/2) to t^6."""
    return (0.25 * c * c) ** np.arange(7) / _ODD_FACTORIALS


def _series_edge(a, alpha):
    """The s below which ``_weight`` sums E_a as its series in s^2."""
    return min(_SERIES_S / alpha, 0.2 / max(float(np.max(np.abs(a))), 1e-30))


def _weight(s, a, alpha):
    """E_a(s) = [Q(s) - a/(alpha s)] / s: rows a (real or complex), columns
    s (ascending).

    Q(s) = sinh(a s/2) / (2 sinh(s/2) sinh(alpha s/2)) is evaluated in the
    overflow-free form -e^{-z s} expm1(-a s) / (expm1(-s) expm1(-alpha s)),
    z = (1 + alpha - a)/2.  Below ``_series_edge``, where Q - a/(alpha s)
    cancels, Q = (a/(alpha s)) N/D with N = sinh(a s/2) / (a s/2) and D
    = sinh(s/2) sinh(alpha s/2) / (alpha s^2/4), so E_a = (a/alpha) (N -
    D) / (s^2 D), with N - D summed as the difference of the two series
    in t = s^2; the first dropped term is below 1e-20 relative.
    """
    a = np.asarray(a)[:, None]
    j = np.searchsorted(s, _series_edge(a, alpha))
    sl, sb = s[:j], s[j:]
    q = -np.exp(-0.5 * (1.0 + alpha - a) * sb) * np.expm1(-a * sb) \
        / (np.expm1(-sb) * np.expm1(-alpha * sb))
    t = sl * sl
    d = 4.0 * np.sinh(0.5 * sl) * np.sinh(0.5 * alpha * sl) / (alpha * t)
    diff = _sinh_series(a) \
        - np.convolve(_sinh_series(1.0), _sinh_series(alpha))[:7]
    acc = diff[:, 6:]  # diff[:, 0] = 0
    for m in range(5, 0, -1):
        acc = acc * t + diff[:, m:m + 1]
    return np.concatenate(((a / alpha) * acc / d,
                           (q - a / (alpha * sb)) / sb), axis=1)


def _panels(a, alpha, rmin, osc):
    """Gauss-Legendre nodes and weights for E_a on [0, T], and T.

    T = 38 / rmin, past which Q is below e^-38 and E_a = -a/(alpha s^2).
    The edges are 0, ``_series_edge``, then geometric with ratio 1.9 (the
    poles of E_a sit on the imaginary axis, so a panel at s may be about
    s wide), each panel at most 10/osc wide so that it spans under two
    periods of the oscillation.
    """
    big_t = 38.0 / rmin
    cap = 10.0 / max(osc, 1e-10)
    edges = [0.0, _series_edge(a, alpha)]
    while edges[-1] < big_t:
        e = edges[-1]
        edges.append(min(e * 1.9, e + cap, big_t))
    return *panel_nodes(edges, order=24), big_t


def _log_s2_quadrature(z, alpha):
    """log s2 on the strip 0 < Re z < 1 + alpha, vectorized over z.

    -int_0^T E_a(s) ds + a/(alpha T) on the panels of ``_panels``, sized
    by the batch: T by its smallest distance to the strip edges and the
    panel cap by its largest |Im a| = 2 |Im z|.
    """
    z = np.asarray(z, dtype=complex)
    a = 1.0 + alpha - 2.0 * z
    rmin = float(min(np.min(z.real), np.min(1 + alpha - z.real), 1.0))
    s, ws, big_t = _panels(a, alpha, rmin, float(np.max(np.abs(a.imag))))
    body = blocked(lambda ab: _weight(s, ab, alpha) @ ws, a, s.size)
    return a / (alpha * big_t) - body


def _log_s2_far(w, alpha):
    """The far-field closed form sgn(Im w) (pi i / 2) B_22(w | 1, alpha)."""
    b22 = (w * w - (1.0 + alpha) * w) / alpha \
        + (1.0 + alpha * alpha + 3.0 * alpha) / (6.0 * alpha)
    return np.sign(w.imag) * (0.5j * np.pi) * b22


def _log_s2_window(w, alpha):
    """log s2 on the window alpha/2 <= Re w < alpha/2 + 1, for alpha >= 1.

    Points with |Im w| >= FAR_FIELD_C alpha take the closed form, and
    the others one quadrature grid, sized by the largest of their |Im w|.
    """
    w = np.asarray(w, dtype=complex)
    near = np.abs(w.imag) < FAR_FIELD_C * alpha  # NaN stays NaN in far
    out = _log_s2_far(w, alpha)
    if near.any():
        out[near] = _log_s2_quadrature(w[near], alpha)
    return out


def _log_2sin(w):
    """log(2 sin(pi w)), branch chosen per half-plane for stability.

    Works for arrays; at real w where sin is negative the imaginary part
    is -pi (lower-half formula), so exp of the result is still exact.
    """
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=complex)
    up = w.imag > 0
    if np.any(up):
        wu = w[up]
        out[up] = 0.5j * np.pi - 1j * np.pi * wu \
            + np.log(1.0 - np.exp(2j * np.pi * wu))
    if np.any(~up):
        wd = w[~up]
        out[~up] = -0.5j * np.pi + 1j * np.pi * wd \
            + np.log(1.0 - np.exp(-2j * np.pi * wd))
    return out


def _poles_by_column(x, alpha):
    """(distance, m, n) for n = 1, 2, ...: the pole m + alpha n (m >= 1)
    nearest the real x in each column n that can hold the nearest one."""
    for n in range(1, int(max(x - 1.0, 0.0) / alpha) + 2):
        m = max(1, round(x - alpha * n))
        yield abs(x - (m + alpha * n)), m, n


def _assert_pole_clear(z, alpha):
    """Raise PoleProximity if z is within POLE_RADIUS of m + alpha n.

    The scan costs one pole column per alpha of Re z, so the ladder
    limit, which the reduction would hit anyway, is checked first."""
    z = np.atleast_1d(z)
    if alpha < 1.0:
        _ladder_steps(z.real / alpha, 1.0 / alpha)
    else:
        _ladder_steps(z.real, alpha)
    for zz in z[np.abs(z.imag) < POLE_RADIUS]:
        for d, m, n in _poles_by_column(zz.real, alpha):
            if math.hypot(d, zz.imag) <= POLE_RADIUS:
                raise PoleProximity(
                    f"z={zz} within {POLE_RADIUS} of pole {m}+{alpha}*{n}")


def _ladder_steps(x, alpha):
    """The shifts k that bring the real parts x into the window
    [alpha/2, alpha/2 + 1), centred in the strip (alpha >= 1)."""
    lo = 0.5 * alpha
    # counted in floats: a far point's count does not fit an int64
    k = np.where(x < lo, np.ceil(lo - x),
                 np.where(x >= lo + 1.0, -np.floor(x - lo), 0.0))
    kmax = float(np.max(np.abs(k), initial=0.0))
    if kmax > MAX_LADDER_STEPS:
        raise DomainError(
            f"point needs {kmax:.0f} shifts to reach the evaluation window "
            f"(limit {MAX_LADDER_STEPS})")
    return k.astype(np.int64)


def _log_s2_any(z, alpha):
    """log s2 for any z, any alpha > 0: modular map, then the ladder."""
    if alpha < 1.0:
        return _log_s2_any(z / alpha, 1.0 / alpha)
    z = np.asarray(z, dtype=complex)
    k = _ladder_steps(z.real, alpha)
    kmax = int(np.max(np.abs(k), initial=0))
    w = z + k
    total = _log_s2_window(w, alpha)
    if kmax:
        # ascending ladder: log s2(z) = log s2(z+k) + sum log(2 sin(pi(z+j)/alpha));
        # descending is the same sum anchored at w with the opposite sign
        base = np.where(k > 0, z, w)
        nsteps = np.abs(k)
        sign = np.sign(k).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(kmax):
                act = nsteps > j
                if not np.any(act):
                    break
                total[act] += sign[act] * _log_2sin(
                    (base[act] + j) / alpha)
    return total


@lru_cache(maxsize=256)
def _validate_convention(alpha):
    """Check the sign of the integral representation for this alpha.

    s2(1) = sqrt(alpha) and s2(1/2) = sqrt(2) are both sensitive to the
    overall sign of log s2, unlike the symmetry-point normalization.
    """
    got = _log_s2_any(np.array([1.0 + 0j, 0.5 + 0j]), alpha)
    want = np.array([0.5 * np.log(alpha), 0.5 * np.log(2.0)])
    err = float(np.max(np.abs(got - want)))
    if err > 1e-8:
        raise HalfstableError(
            f"double sine self-check failed at alpha={alpha}: "
            f"closed-form values off by {err:.3e}")


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (0.0 < alpha <= 2.0) or not np.isfinite(alpha):
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    return alpha


@vectorized("z", dtype=complex)
def log_s2(z, alpha):
    """A logarithm of s2(z; alpha); exp of it is the function value.

    The imaginary part is whatever branch the reduction path produces,
    continuous in z along that path but not globally principal.
    Vectorized: scalar in, scalar out; array in, array out.  Non-finite
    z is refused.
    """
    alpha = _check_alpha(alpha)
    _validate_convention(alpha)
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    _assert_pole_clear(z, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _log_s2_any(z, alpha)


@vectorized("z", dtype=complex)
def s2(z, alpha):
    """The double sine function itself.  Zeros are returned exactly."""
    res = log_s2(z, alpha)
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.exp(res)
    out[np.isnan(out) & np.isinf(res.real)] = 0.0  # exp(-inf + i nan)
    return out


def _line_transform(x0, y0, step, rows, alpha):
    """int_0^inf E(s) cos(y s) ds on the line Re z = x0, at the lattice
    y = y0_j + p step, p < rows: an array (rows, y0.size).

    E = E_a0 with the real a0 = 1 + alpha - 2 x0, tabulated once on the
    panels of ``_panels`` (T = 38 / min(x0, 1 + alpha - x0, 1), cap
    10/max|y|).  By angle addition the body sum_s we_s cos(y s) is
    Re sum_s (we_s e^{i y0_j s}) (e^{i step s})^p: one complex
    exponential per (offset or row, node) and one matrix product, where
    a cosine per (point, node) would cost y0.size times more on a
    lattice of many rows.  Beyond T, E = -a0/(alpha s^2), whose cosine
    integral is closed: int_T^inf cos(ys)/s^2 ds = cos(yT)/T - y (pi/2
    - Si(yT)).
    """
    a0 = 1.0 + alpha - 2.0 * x0
    y = np.abs(y0 + step * np.arange(rows)[:, None])
    s, ws, big_t = _panels(a0, alpha, min(x0, 1.0 + alpha - x0, 1.0),
                           float(y.max()))
    we = ws * _weight(s, [a0], alpha)[0]

    # rows p0 + r of a block: e^{i r step s} from one table, times one
    # exponential row e^{i p0 step s}, so each entry costs a product
    base = np.exp(1j * np.outer(step * np.arange(min(rows, max(
        1, DOT_BLOCK // s.size))), s))

    def columns(yb):
        head = (we * np.exp(1j * np.outer(yb, s))).T
        return blocked(lambda pb: ((base[:pb.size]
                                    * np.exp(1j * (pb[0] * step) * s))
                                   @ head).real,
                       np.arange(rows), s.size).T

    body = blocked(columns, y0, s.size).T
    si, _ = sici(y * big_t)
    tail = np.cos(y * big_t) / big_t - y * (0.5 * np.pi - si)
    return body - (a0 / alpha) * tail


def _log_abs_s2_line(x, y0, step, rows, alpha):
    """log|s2(x + i y)| for real x at the lattice y = y0_j + p step,
    p < rows: an array (rows, y0.size).

    The modular map, then one ladder shift k for the whole line, which
    depends on x alone; in the window, log|s2| = (pi a0 / 2 alpha) |y| -
    int_0^inf E(s) cos(y s) ds, whose integral is dropped (below 8e-17)
    from |y| = FAR_FIELD_C alpha on, so the transform runs only over the
    rows and offsets that hold a nearer point.
    """
    if alpha < 1.0:
        return _log_abs_s2_line(x / alpha, y0 / alpha, step / alpha, rows,
                                1.0 / alpha)
    k = int(_ladder_steps(np.asarray(x), alpha))
    x0 = x + k
    y = np.abs(y0 + step * np.arange(rows)[:, None])
    out = (0.5 * np.pi * (1.0 + alpha - 2.0 * x0) / alpha) * y
    near = y < FAR_FIELD_C * alpha
    if np.any(near):
        live = np.flatnonzero(near.any(axis=1))
        lo, hi = live[0], live[-1] + 1
        cols = near[lo:hi].any(axis=0)
        out[lo:hi, cols] -= np.where(
            near[lo:hi][:, cols],
            _line_transform(x0, y0[cols] + lo * step, step, hi - lo, alpha),
            0.0)
    # the real parts of the ladder terms of _log_s2_any
    base, sign = (x, 1.0) if k > 0 else (x0, -1.0)
    for j in range(abs(k)):
        out += sign * _log_2sin((base + j + 1j * y) / alpha).real
    return out


def _abs_squared_on_lattice(x, y0, step, rows, alpha):
    """|s2(x + i y)|^2 at the lattice y = y0_j + p step, p < rows, for
    real x: an array (rows, y0.size).

    A ray profile's nodes u = mid_p + (w/2) t_j on panels of one width w
    put Im w = alpha u / (2 pi) on such a lattice (16 offsets, step alpha
    w / 2 pi), so its line transform costs one complex exponential per
    panel and node of E's grid instead of one cosine per point and node.
    """
    alpha = _check_alpha(alpha)
    _validate_convention(alpha)
    _assert_pole_clear(x + 1j * (y0 + step * np.arange(rows)[:, None]),
                       alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(2.0 * _log_abs_s2_line(x, y0, step, rows, alpha))


@vectorized("y")
def s2_abs_squared_on_ray(b, c, y, alpha):
    """|s2(b + i alpha (i c + log y) / (2 pi))|^2 for y > 0.

    The displacement shifts the real part by -alpha c / (2 pi) and puts
    alpha log(y) / (2 pi) on the imaginary axis, so all points share one
    vertical line Re w = x.  After the ladder brings it to Re w = x0 in
    the window, the real part of the window integral is, exactly,

        log|s2(x0 + i y)| = (pi a0 / 2 alpha) |y| - int_0^inf E(s) cos(ys) ds,

    with E = E_a0 the weight of the complex path at the real a0 = 1 +
    alpha - 2 x0.  E is tabulated once per call on the complex path's
    panels, and the distinct |Im w| (|s2| is even in it) form a one-row
    lattice of ``_abs_squared_on_lattice``.  Returns real values;
    vectorized over y.
    """
    alpha = _check_alpha(alpha)
    if np.any(y <= 0):
        raise DomainError("y must be positive")
    x = b - alpha * c / (2 * np.pi)
    ys, back = np.unique(np.abs(alpha * np.log(y) / (2 * np.pi)),
                         return_inverse=True)
    return _abs_squared_on_lattice(x, ys, 0.0, 1, alpha)[0][back]


@vectorized("a", dtype=complex)
def q_pochhammer(a, q, n):
    """(a; q)_n for integer n of either sign; vectorized over a.

    n >= 0: prod_{j=0}^{n-1} (1 - a q^j).
    n < 0:  prod_{j=1}^{-n} (1 - a q^{-j})^{-1}.
    """
    n = int(n)
    q = complex(q)
    out = np.ones_like(a)
    if n >= 0:
        for j in range(n):
            out *= 1.0 - a * q ** j
        return out
    if q == 0:
        raise DivisionByZero("q = 0 with negative n")
    for j in range(1, -n + 1):
        f = 1.0 - a * q ** (-j)
        if np.any(f == 0):
            raise DivisionByZero(
                f"(a;q)_n with n={n} hits a vanishing factor at j={j}")
        out /= f
    return out


def s2_shift_ratio(z, m, n, alpha):
    """s2(z) / s2(z + m - n alpha) as a finite sine product.

    Requires integers m, n >= 0.  The identity is
    (-1)^(m n) prod_{j=1}^m 2 sin(pi (z + j - 1)/alpha)
             / prod_{j=1}^n 2 sin(pi (z - j alpha)),
    valid wherever no denominator factor vanishes.
    """
    alpha = _check_alpha(alpha)
    m, n = int(m), int(n)
    if m < 0 or n < 0:
        raise DomainError("shift counts m, n must be >= 0")
    z = complex(z)
    out = (-1.0) ** (m * n) + 0j
    for j in range(1, m + 1):
        out *= 2.0 * np.sin(np.pi * (z + j - 1) / alpha)
    for j in range(1, n + 1):
        f = 2.0 * np.sin(np.pi * (z - j * alpha))
        if f == 0:
            raise DivisionByZero(f"sine factor vanished at j={j}")
        out /= f
    return out


def tau_binomial_check(b, s, alpha):
    """Relative residual of the two-sided Mellin identity

        int_0^inf x^(s-1) |s2(1/2 + alpha/2 + b + i alpha log(x)/(2 pi))|^2 dx
            = (2 pi / sqrt(alpha)) s2(2b) / (s2(b+s) s2(b-s)),

    for 0 < b < (1+alpha)/2 and real s in (-b, b).  The left side is
    integrated in u = log x, where the integrand decays like
    e^{-(b -+ s)|u|}; the exact exponential tails beyond the grid are
    added in closed form.  Returns |lhs - rhs| / |rhs|.
    """
    alpha = _check_alpha(alpha)
    b = float(b)
    s = float(s)
    if not 0.0 < b < 0.5 * (1.0 + alpha):
        raise DomainError(f"b={b} outside (0, (1+alpha)/2)")
    if not -b < s < b:
        raise DomainError(f"s={s} outside (-{b}, {b})")

    beta = 0.5 + 0.5 * alpha + b
    up_rate = b - s
    dn_rate = b + s
    # grid long enough that both the exponential tail remainder and the
    # subleading corrections to the modulus asymptotics are negligible
    Lp = min(42.0 / up_rate, 3000.0)
    Lm = min(42.0 / dn_rate, 3000.0)
    edges = np.linspace(-Lm, Lp, int(np.ceil((Lp + Lm) / 0.35)) + 1)
    nodes, wts = panel_nodes(edges, order=24)
    # the nodes are the first panel's 24 stepped by the panel width
    c = alpha / (2.0 * np.pi)
    pair = _abs_squared_on_lattice(beta, c * nodes[:24],
                                   c * (Lp + Lm) / (edges.size - 1),
                                   edges.size - 1, alpha).ravel()
    lhs = float(np.sum(wts * np.exp(s * nodes) * pair))
    # tails: |s2|^2 ~ e^{-b u} (u -> +inf) and e^{+b u} (u -> -inf),
    # coefficient exactly 1
    lhs += np.exp(-up_rate * Lp) / up_rate + np.exp(-dn_rate * Lm) / dn_rate

    num = s2(2.0 * b, alpha)
    den = s2(b + s, alpha) * s2(b - s, alpha)
    if den == 0:
        raise DivisionByZero("s2(b+s) s2(b-s) = 0")
    rhs = (2.0 * np.pi / np.sqrt(alpha)) * num / den
    return abs(lhs - rhs) / abs(rhs)
