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
logarithm has an absolutely convergent integral representation

    log s2(z) = -int_0^inf [ Q(s) - (a/alpha) e^-s (1+s)/s ] ds/s + a/alpha,

    Q(s) = (e^{-z s} - e^{-(1+alpha-z) s}) / ((1-e^-s)(1-e^{-alpha s})),
    a = 1 + alpha - 2 z,

where the subtraction removes the double pole of Q/s at s = 0 (using
int_0^inf (1 - e^-s(1+s))/s^2 ds = 1).  The integrand is evaluated in a
cancellation-free form: the numerator of Q is written as
-e^{-z s} expm1(-a s), with a complex expm1 built from real expm1 and
half-angle sines so no digits are lost for small s; below a small cutoff
the integrand is replaced by its Taylor polynomial (coefficients are
exact rationals in a and alpha).  Points outside the window are reduced
into it by the shift equations (the "ladder"), and alpha < 1 is mapped
through the modular identity first, so the window sees alpha >= 1.

The integrand oscillates at frequency ~|Im z|, so the panel grid grows
with it.  Far from the real axis it is not needed: with B_22(z | 1, alpha)
= (z^2 - (1+alpha) z)/alpha + (1 + alpha^2 + 3 alpha)/(6 alpha),

    log s2(z) = sgn(Im z) (pi i / 2) B_22(z | 1, alpha)
                + O(e^{-2 pi |Im z| / alpha})       (alpha >= 1)

(Kurokawa & Koyama, "Multiple sine functions", Forum Math. 15 (2003)),
and window points with |Im z| >= Y(alpha) = 5.9 alpha, where the
remainder is below 8e-17, take this closed form.  The rest are grouped
by floor(|Im z|), and each group's grid is sized by its own points, so
a point's cost is set by its own |Im z| and not by the largest one in
its batch.

The overall sign of the integral representation is the one thing the
algebra does not pin down cheaply, so every alpha is validated once
against the closed-form values s2(1) = sqrt(alpha) and s2(1/2) =
sqrt(2); a disagreement raises instead of silently flipping the sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivisionByZero, DomainError, HalfstableError, PoleProximity
from .numerics import panel_nodes, vectorized

POLE_RADIUS = 1e-8
MAX_LADDER_STEPS = 10_000
# The closed form differs from log s2 by O(e^{-2 pi |Im w| / alpha}) for
# alpha >= 1; from |Im w| = 5.9 alpha on that is below 8e-17.
FAR_FIELD_C = 5.9


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


def _cexpm1(w):
    """expm1 for complex arrays without cancellation near 0.

    e^(x+iy) - 1 = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y.
    """
    w = np.asarray(w, dtype=complex)
    x, y = w.real, w.imag
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 \
        + 1j * np.exp(x) * np.sin(y)


def _core_integrand(s, z, a, alpha):
    # rows: points, columns: quadrature nodes
    s = s[None, :]
    zc = z[:, None]
    ac = a[:, None]
    Q = -np.exp(-zc * s) * _cexpm1(-ac * s) \
        / (np.expm1(-s) * np.expm1(-alpha * s))
    return (Q - (ac / alpha) * np.exp(-s) * (1.0 + s) / s) / s


def _log_s2_quadrature(z, alpha):
    """log s2 on the strip 0 < Re z < 1 + alpha, vectorized over z.

    Small-s head by a degree-5 Taylor polynomial of the integrand (the
    coefficients below are the exact series, generated symbolically and
    cross-checked against 40-digit quadrature), remainder by geometric
    Gauss-Legendre panels whose length is capped by the oscillation
    scale max(|Im a|, |Im z|) over the batch.
    """
    z = np.asarray(z, dtype=complex)
    a = 1.0 + alpha - 2.0 * z
    amax = float(np.max(np.abs(a))) if z.size else 0.0
    sc = min(3e-3, 0.2 / max(amax, 1e-30))

    A = a * a
    L = alpha * alpha
    c0 = a * (A - L + 11) / (24 * alpha)
    c1 = -a / (3 * alpha)
    c2 = a * (3 * A * A - 10 * A * L - 10 * A + 7 * L * L + 10 * L + 727) \
        / (5760 * alpha)
    c3 = -a / (30 * alpha)
    c4 = a * (3 * A ** 3 - 21 * A * A * L - 21 * A * A + 49 * A * L * L
              + 70 * A * L + 49 * A - 31 * L ** 3 - 49 * L * L - 49 * L
              + 6689) / (967680 * alpha)
    c5 = -a / (840 * alpha)
    head = sc * (c0 + sc * (c1 / 2 + sc * (c2 / 3 + sc * (
        c3 / 4 + sc * (c4 / 5 + sc * (c5 / 6))))))

    rmin = float(min(np.min(z.real), np.min(1 + alpha - z.real), 1.0))
    T = 38.0 / rmin
    osc = float(max(np.max(np.abs(a.imag)), np.max(np.abs(z.imag)), 1e-10))
    cap = 10.0 / osc
    edges = [sc]
    while edges[-1] < T:
        e = edges[-1]
        edges.append(min(e * 1.9, e + cap, T))
    nodes, wts = panel_nodes(edges, order=24)

    out = np.empty(z.shape, dtype=complex)
    chunk = max(1, int(4_000_000 // max(nodes.size, 1)))
    for i in range(0, z.size, chunk):
        sl = slice(i, i + chunk)
        vals = _core_integrand(nodes, z[sl], a[sl], alpha)
        out[sl] = vals @ wts
    return -(head + out) + a / alpha


def _log_s2_far(w, alpha):
    """The far-field closed form sgn(Im w) (pi i / 2) B_22(w | 1, alpha)."""
    b22 = (w * w - (1.0 + alpha) * w) / alpha \
        + (1.0 + alpha * alpha + 3.0 * alpha) / (6.0 * alpha)
    return np.sign(w.imag) * (0.5j * np.pi) * b22


def _log_s2_window(w, alpha):
    """log s2 on the window alpha/2 <= Re w < alpha/2 + 1, for alpha >= 1.

    Points with |Im w| >= FAR_FIELD_C alpha take the closed form.  The
    others are grouped by floor(|Im w|) and each group gets a quadrature
    grid sized by its own points, so no point pays for the largest
    |Im w| of its batch.
    """
    w = np.asarray(w, dtype=complex)
    im = np.abs(w.imag)
    # group key -1 is the closed form, which NaN also takes and stays NaN
    key = np.where(im < FAR_FIELD_C * alpha, np.floor(im), -1.0)
    out = np.empty(w.shape, dtype=complex)
    for k in set(key.tolist()):
        group = key == k
        evaluate = _log_s2_far if k < 0 else _log_s2_quadrature
        out[group] = evaluate(w[group], alpha)
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


def _assert_pole_clear(z, alpha):
    """Raise PoleProximity if z is within POLE_RADIUS of m + alpha n."""
    z = np.atleast_1d(z)
    near_axis = np.abs(z.imag) < POLE_RADIUS
    if not np.any(near_axis):
        return
    for zz in z[near_axis]:
        x = zz.real
        if x < 1.0 + alpha - POLE_RADIUS:
            continue
        nmax = int((x - 1.0 + POLE_RADIUS) / alpha) + 1
        for n in range(1, nmax + 1):
            m = round(x - alpha * n)
            if m >= 1:
                d2 = (x - (m + alpha * n)) ** 2 + zz.imag ** 2
                if d2 <= POLE_RADIUS * POLE_RADIUS:
                    raise PoleProximity(
                        f"z={zz} within {POLE_RADIUS} of pole "
                        f"{m}+{alpha}*{n}")


def _log_s2_any(z, alpha):
    """log s2 for any z, any alpha > 0: modular map, then the ladder."""
    if alpha < 1.0:
        return _log_s2_any(z / alpha, 1.0 / alpha)
    z = np.asarray(z, dtype=complex)
    lo = 0.5 * alpha  # window [alpha/2, alpha/2 + 1), centred in the strip
    x = z.real
    # counted in floats: a far point's count does not fit an int64
    k = np.zeros(z.shape)
    below = x < lo
    k[below] = np.ceil(lo - x[below])
    above = x >= lo + 1.0
    k[above] = -np.floor(x[above] - lo)
    kmax = int(np.max(np.abs(k))) if k.size else 0
    if kmax > MAX_LADDER_STEPS:
        raise DomainError(
            f"point needs {kmax} shifts to reach the evaluation window "
            f"(limit {MAX_LADDER_STEPS})")
    k = k.astype(np.int64)
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


@vectorized("y")
def s2_abs_squared_on_ray(b, c, y, alpha):
    """|s2(b + i alpha (i c + log y) / (2 pi))|^2 for y > 0.

    The displacement shifts the real part by -alpha c / (2 pi) and puts
    alpha log(y) / (2 pi) on the imaginary axis.  Returns real values;
    vectorized over y.
    """
    alpha = _check_alpha(alpha)
    if np.any(y <= 0):
        raise DomainError("y must be positive")
    w = (b - alpha * c / (2 * np.pi)) \
        + 1j * (alpha * np.log(y) / (2 * np.pi))
    _validate_convention(alpha)
    _assert_pole_clear(w, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(2.0 * _log_s2_any(w, alpha).real)


def q_pochhammer(a, q, n):
    """(a; q)_n for integer n of either sign.

    n >= 0: prod_{j=0}^{n-1} (1 - a q^j).
    n < 0:  prod_{j=1}^{-n} (1 - a q^{-j})^{-1}.
    """
    n = int(n)
    a = complex(a)
    q = complex(q)
    if n >= 0:
        out = 1.0 + 0j
        for j in range(n):
            out *= 1.0 - a * q ** j
        return out
    out = 1.0 + 0j
    for j in range(1, -n + 1):
        if q == 0:
            raise DivisionByZero("q = 0 with negative n")
        f = 1.0 - a * q ** (-j)
        if f == 0:
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
    pair = s2_abs_squared_on_ray(beta, 0.0, np.exp(nodes), alpha)
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
