"""Eigenfunctions of the killed semigroup and their transforms.

The generator of the stable process killed on leaving (0, inf) has a
family of generalized eigenfunctions indexed by the scaling parameter;
everything reduces to the single profile

    F(x) = e^(x cos(pi rho)) sin(x sin(pi rho) + pi rho (1 - alpha
           rho_hat)/2) + (sqrt(alpha)/(4 pi)) s2(-alpha rho_hat) G(x),

    G(x) = int_0^inf e^(-z x) z^(alpha rho/2 - 1/2)
           |s2(1 + alpha + alpha rho_hat/2 + i alpha log(z)/(2 pi))|^2 dz,

G is completely monotone; F is bounded iff rho >= 1/2 and
O(x^(alpha rho_hat)) at the origin.  The co-eigenfunction F_hat is F at
the dual parameters (rho and rho_hat swapped), so the single evaluator
``_Kernel`` serves both and holds the only copy of the oscillatory part.

Closed forms implemented here:

* laplace_f: int_0^inf e^(-zx) F(x) dx for Re z > max(0, cos(pi rho)),
* mellin_f:  int_0^inf x^(z-1) F(x) dx = Gamma(z) s2(z) / (2 s2(alpha
  rho_hat + z)) for rho >= 1/2 and Re z in (-alpha rho_hat, 0),

plus the finite-product specializations available when alpha rho
= l - k alpha for integers (k, l): doney_g, doney_laplace_f and
doney_mellin_f evaluate those and serve as independent cross-checks of
the double sine route, since they never touch s2 along the variable.

When the process has only negative jumps (alpha rho = 1) the dual
assembly coefficient s2(-alpha rho) vanishes identically, so the
co-eigenfunction is the pure rotated oscillation and its G-term is
exactly zero; no special-casing is required and none is done.

``verify_lucky_integral`` checks the bivariate product identity tying
both rotated extremum densities to F(x) F_hat(y); it is the sharpest
end-to-end consistency test in the package because it mixes the
Wiener-Hopf, profile, and eigenfunction layers in one number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gamma as _gamma_fn, loggamma

from .doublesine import log_s2, s2
from .errors import DivisionByZero, DomainError
from .model import DoneyClass, StableParams, detect_doney
from .numerics import (IntegrandProfile, QuadratureResult,
                       integrate_finite_singular, integrate_interval,
                       integrate_oscillatory_decaying,
                       integrate_semi_infinite, vectorized)
from .profiles import ray_profile
from .wienerhopf import rotated_sup_density


@dataclass(frozen=True)
class EigenFn:
    """Eigenfunction selector: primal F or dual (co-eigenfunction) F_hat."""

    params: StableParams
    direction: str = "primal"

    def __post_init__(self):
        if self.direction not in ("primal", "dual"):
            raise DomainError(f"direction must be primal/dual, "
                              f"got {self.direction!r}")

    @property
    def params_eff(self) -> StableParams:
        return self.params if self.direction == "primal" \
            else self.params.dual()


def _g_profile(params: StableParams):
    """The ray profile whose Laplace transform is G.  At the dual
    parameters it also gives the integral term of
    ``wienerhopf.rotated_sup_density``."""
    p = params
    return ray_profile(p.alpha, 1.0 + p.alpha + 0.5 * p.alpha * p.rho_hat,
                       0.5 * p.alpha * p.rho - 0.5)


def g_func(params: StableParams, x, deriv=0):
    """The completely monotone component G; vectorized over x >= 0."""
    return _g_profile(params).laplace(x, deriv=deriv)


def _g_coef(params: StableParams) -> float:
    """Assembly coefficient in front of G; exactly 0 when alpha rho_hat
    is a lattice zero of the double sine (one-sided and Brownian cases).
    """
    return float(np.sqrt(params.alpha) / (4.0 * np.pi)
                 * s2(-params.alpha * params.rho_hat, params.alpha).real)


class _Kernel:
    """F at the parameters p: params for F, params.dual() for F_hat.

    ``osc`` is the oscillatory part; ``f_eigen`` adds the exact G to it,
    a call adds G from the spline of its ray profile.  ``growth`` is the
    exponential rate cos(pi rho) of F, snapped to 0 below 1e-12 since
    cos(pi/2) rounds to ~6e-17; ``freq`` is its frequency sin(pi rho).
    """

    def __init__(self, p: StableParams):
        self.params = p
        self.cos_r = np.cos(np.pi * p.rho)
        self.growth = float(self.cos_r) if self.cos_r > 1e-12 else 0.0
        self.freq = np.sin(np.pi * p.rho)
        self.theta0 = 0.5 * np.pi * p.rho * (1.0 - p.alpha * p.rho_hat)
        self.coef_g = _g_coef(p)
        self.g_spline = _g_profile(p).interp if self.coef_g != 0.0 else None

    def osc(self, v, deriv=0):
        """e^(v cos(pi rho)) sin(v sin(pi rho) + theta0), or its
        derivative in v."""
        theta = v * self.freq + self.theta0
        if deriv == 0:
            return np.exp(v * self.cos_r) * np.sin(theta)
        return np.exp(v * self.cos_r) * (self.cos_r * np.sin(theta)
                                         + self.freq * np.cos(theta))

    def __call__(self, v):
        out = self.osc(v)
        if self.coef_g == 0.0:
            return out
        return out + self.coef_g * self.g_spline(v)

    def damped(self, v, damp):
        """F(v) * e^(-damp), with the damping folded into the exponent
        of the oscillatory part so a growing F never overflows."""
        out = np.exp(v * self.cos_r - damp) \
            * np.sin(v * self.freq + self.theta0)
        if self.coef_g == 0.0:
            return out
        return out + self.coef_g * self.g_spline(v) * np.exp(-damp)

    def bound(self) -> float:
        """Crude bound for |F| on the positive axis when F is bounded."""
        if self.coef_g == 0.0:
            return 1.0
        return 1.0 + abs(self.coef_g) * float(g_func(self.params, 0.0))


@vectorized("x")
def f_eigen(fn: EigenFn, x, deriv=0):
    """Eigenfunction profile F (or F_hat); vectorized over x > 0."""
    if deriv not in (0, 1):
        raise DomainError("deriv must be 0 or 1")
    if np.any(x < 0):
        raise DomainError("x must be >= 0")
    kern = _Kernel(fn.params_eff)
    osc = kern.osc(x, deriv)
    if kern.coef_g == 0.0:
        return osc
    return osc + kern.coef_g * g_func(kern.params, x, deriv=deriv)


def laplace_f(fn: EigenFn, z):
    """Laplace transform of F, closed form, Re z > max(0, cos(pi rho))."""
    p = fn.params_eff
    alpha, r, rh = p.alpha, p.rho, p.rho_hat
    z = complex(z)
    if z.real <= max(0.0, np.cos(np.pi * r)):
        raise DomainError(
            f"Re z = {z.real} is left of the abscissa "
            f"{max(0.0, np.cos(np.pi * r)):.6f}")
    lg = np.log(z)  # principal; |arg z| < pi/2 here
    w = 1j * alpha * lg / (2.0 * np.pi)
    b2 = 1.0 + 0.5 * alpha + 0.5 * alpha * rh
    val = 0.5 * np.sqrt(alpha) * s2(alpha * r, alpha) \
        * np.exp(-(0.5 * alpha * rh + 0.5) * lg
                 + log_s2(b2 + w, alpha) + log_s2(b2 - w, alpha))
    return complex(val)


def laplace_f_quadrature(fn: EigenFn, z, tol=1e-9) -> QuadratureResult:
    """Direct quadrature of int e^(-zx) F(x) dx, for cross-checking."""
    p = fn.params_eff
    z = complex(z)
    growth = max(0.0, np.cos(np.pi * p.rho))
    if z.real <= growth:
        raise DomainError("Re z left of the abscissa of convergence")
    prof = IntegrandProfile(
        "exponential", rate=z.real - growth,
        singularity=p.alpha * p.rho_hat,
        frequency=abs(z.imag) + np.sin(np.pi * p.rho))
    return integrate_semi_infinite(
        lambda x: np.exp(-z * x) * f_eigen(fn, x), prof, tol=tol)


def mellin_f(fn: EigenFn, z):
    """Mellin transform of F, closed form.

    Needs rho >= 1/2 (F bounded) and Re z in the strip
    (-alpha rho_hat, 0).
    """
    p = fn.params_eff
    if p.rho < 0.5:
        raise DomainError("Mellin transform requires rho >= 1/2")
    return mellin_f_continued(p, z)


def mellin_f_continued(params: StableParams, z):
    """Gamma(z) S2(z) / (2 S2(alpha rho_hat + z)) with no boundedness
    guard: for rho < 1/2 the Mellin integral of F diverges and this is
    its meromorphic continuation in rho.  The Doney-class finite
    products are checked against this expression.
    """
    alpha, rh = params.alpha, params.rho_hat
    z = complex(z)
    if not (-alpha * rh < z.real < 0.0):
        raise DomainError(
            f"Re z = {z.real} outside the strip ({-alpha * rh:.6f}, 0)")
    val = np.exp(loggamma(z) + log_s2(z, alpha)
                 - log_s2(alpha * rh + z, alpha) - np.log(2.0))
    return complex(val)


def mellin_f_quadrature(fn: EigenFn, z, tol=1e-8) -> QuadratureResult:
    """Direct quadrature of int x^(z-1) F(x) dx, for cross-checking.

    The head x < A is integrated in u = log x where the x^(z-1) factor
    is a clean exponential times a unit-frequency oscillation; the tail
    is split into the oscillatory part of F (Euler-accelerated when
    rho = 1/2, plainly truncated otherwise) and the algebraically
    decaying G part.
    """
    p = fn.params_eff
    alpha, r, rh = p.alpha, p.rho, p.rho_hat
    if r < 0.5:
        raise DomainError("Mellin transform requires rho >= 1/2")
    z = complex(z)
    if not (-alpha * rh < z.real < 0.0):
        raise DomainError("Re z outside the Mellin strip")
    kern = _Kernel(p)

    big_a = 10.0
    # head: int_{-L}^{log A} e^{z u} F(e^u) du; integrand decays like
    # e^{(Re z + alpha rho_hat) u} as u -> -inf.  F(0) = 0 arises from
    # an exact cancellation between sin(theta0) and the G-term, leaving
    # a rounding residual ~1e-13 in the assembled F; below the x where
    # that residual overtakes the true C x^(alpha rho_hat) the integrand
    # is pure amplified noise, so the head stops there and the remainder
    # enters the error estimate analytically.
    rate = z.real + alpha * rh
    low = -(np.log(1.0 / tol) + 12.0) / rate
    resid = 4e-13 * (1.0 + abs(np.sin(kern.theta0)))
    c_small = abs(f_eigen(fn, 1e-3)) / 1e-3 ** (alpha * rh) + 1e-30
    u_star = np.log(resid / c_small) / (alpha * rh)
    low = max(low, u_star)
    trunc_err = (c_small * np.exp(rate * low) / rate
                 + resid * np.exp(-z.real * low) / max(abs(z.real), 1e-3))
    head = integrate_interval(
        lambda u: np.exp(z * u) * f_eigen(fn, np.exp(u)),
        low, np.log(big_a), tol=tol / 3,
        frequency=abs(z.imag) + 2.0)

    def osc_part(x):
        return x ** (z - 1.0) * kern.osc(x)

    if r > 0.5:
        tail_osc = integrate_semi_infinite(
            lambda t: osc_part(big_a + t),
            IntegrandProfile("exponential", rate=-kern.cos_r,
                             frequency=kern.freq),
            tol=tol / 3)
    else:
        tail_osc = integrate_oscillatory_decaying(
            osc_part, 0.0, kern.freq, tol=tol / 3, start=big_a)

    cg = kern.coef_g
    if cg != 0.0:
        tail_g = integrate_semi_infinite(
            lambda t: (big_a + t) ** (z - 1.0) * g_func(p, big_a + t),
            IntegrandProfile("power", rate=z.real - 2.0 - alpha),
            tol=tol / 3)
        g_val, g_err, g_ev, g_ok = (tail_g.value, tail_g.abs_error_estimate,
                                    tail_g.evaluations, tail_g.converged)
    else:
        g_val, g_err, g_ev, g_ok = 0.0, 0.0, 0, True

    value = head.value + tail_osc.value + cg * g_val
    err = (head.abs_error_estimate + tail_osc.abs_error_estimate
           + abs(cg) * g_err + trunc_err)
    ok = head.converged and tail_osc.converged and g_ok
    return QuadratureResult(value, err,
                            bool(ok),
                            head.evaluations + tail_osc.evaluations + g_ev)


def _qpoch_factors(a, q, n):
    """q-Pochhammer (a; q)_n for array a, scalar q, integer n."""
    out = np.ones_like(np.asarray(a), dtype=complex)
    if n > 0:
        for j in range(n):
            out = out * (1.0 - a * q ** j)
    elif n < 0:
        for j in range(1, -n + 1):
            d = 1.0 - a * q ** (-j)
            if np.any(np.abs(d) < 1e-280):
                raise DivisionByZero(
                    "vanishing q-Pochhammer factor in Doney product")
            out = out / d
    return out


def _doney_class(params: StableParams, cls: Optional[DoneyClass]):
    if cls is None:
        cls = detect_doney(params)
    if cls is None:
        raise DomainError(
            f"(alpha, rho) = ({params.alpha}, {params.rho}) does not lie "
            "in any Doney class with small indices")
    return cls


def doney_integrand(params: StableParams, z, cls: Optional[DoneyClass] = None):
    """The finite-product integrand whose Laplace transform is G.

    Real and positive on (0, inf) apart from rounding; the caller gets
    the complex values and decides on the tolerance for discarding the
    imaginary part.
    """
    cls = _doney_class(params, cls)
    alpha = params.alpha
    k, l = cls.k, cls.l
    z = np.asarray(z, dtype=complex)
    q = np.exp(2j * np.pi * alpha)
    qt = np.exp(-2j * np.pi / alpha)
    num = _qpoch_factors(
        (-1.0) ** l * z ** alpha * np.exp(1j * np.pi * alpha * (k + 3)),
        q, -k - 2)
    den = _qpoch_factors(
        (-1.0) ** (k + 1) * z * np.exp(-1j * np.pi * l / alpha),
        qt, -l + 1)
    return z ** alpha * num / den


def doney_g(params: StableParams, x, cls: Optional[DoneyClass] = None,
            tol=1e-11) -> float:
    """G(x) through the finite-product route; independent of s2.

    The integrand has removable 0/0 points on the positive axis (at
    z = 1 for classes where numerator and denominator share a root);
    forcing z = 1 onto a panel edge keeps the quadrature clean.
    """
    cls = _doney_class(params, cls)
    x = float(x)
    if x < 0:
        raise DomainError("x must be >= 0")

    def f(z):
        vals = doney_integrand(params, z, cls)
        scale = np.max(np.abs(vals.real))
        if np.max(np.abs(vals.imag)) > 1e-9 * (1.0 + scale):
            raise DomainError(
                "Doney integrand has a non-negligible imaginary part; "
                "class indices are inconsistent with the parameters")
        return vals.real * np.exp(-x * z)

    alpha = params.alpha
    if x > 0:
        prof = IntegrandProfile("exponential", rate=x, singularity=alpha)
    else:
        prof = IntegrandProfile("power",
                                rate=-alpha * params.rho_hat - 1.0,
                                singularity=alpha)
    res = integrate_semi_infinite(f, prof, tol=tol, extra_edges=(1.0,))
    return float(res.value)


def doney_laplace_f(params: StableParams, z,
                    cls: Optional[DoneyClass] = None):
    """Finite-product form of the Laplace transform of F."""
    cls = _doney_class(params, cls)
    alpha, r = params.alpha, params.rho
    k, l = cls.k, cls.l
    z = complex(z)
    if z.real <= max(0.0, np.cos(np.pi * r)):
        raise DomainError("Re z left of the abscissa of convergence")
    q = np.exp(2j * np.pi * alpha)
    qt = np.exp(-2j * np.pi / alpha)
    num = _qpoch_factors(
        np.asarray((-1.0) ** l * z ** alpha
                   * np.exp(1j * np.pi * alpha * (k + 2))), q, -k - 1)
    den = _qpoch_factors(
        np.asarray((-1.0) ** k * z * np.exp(-1j * np.pi * l / alpha)),
        qt, -l + 1)
    return complex(0.5 * np.sqrt(alpha) * s2(alpha * r, alpha)
                   * num / den)


def doney_mellin_f(params: StableParams, z,
                   cls: Optional[DoneyClass] = None):
    """Finite sine-product form of the Mellin transform of F.

    Unlike mellin_f this does not require rho >= 1/2: both this product
    and the double-sine ratio it collapses from are finite expressions
    in elementary functions, so the identity between them continues to
    rho < 1/2 even though there the defining integral diverges (F grows
    exponentially) and the value is the continued formula only.  The two
    branches cover l > 0 and l < 0; l = 0 never occurs for admissible
    parameters.
    """
    cls = _doney_class(params, cls)
    alpha, r, rh = params.alpha, params.rho, params.rho_hat
    z = complex(z)
    if not (-alpha * rh < z.real < 0.0):
        raise DomainError("Re z outside the Mellin strip")
    k, l = cls.k, cls.l
    if l == 0:
        raise DomainError("l = 0 Doney class is not admissible")
    out = 0.5 * (-1.0) ** ((k + 1) * l) * _gamma_fn(z)
    if l > 0:
        for j in range(1, k + 2):
            out = out * 2.0 * np.sin(np.pi * (z + (j - 1) * alpha))
        for j in range(1, l + 1):
            out = out / (2.0 * np.sin(np.pi * (z - j) / alpha))
    else:
        for j in range(1, -l + 1):
            out = out * 2.0 * np.sin(np.pi * (z + j - 1) / alpha)
        for j in range(1, abs(k + 1) + 1):
            out = out / (2.0 * np.sin(np.pi * (z - j * alpha)))
    return complex(out)


def verify_lucky_integral(params: StableParams, x, y, tol=1e-8) -> float:
    """Residual of the bivariate rotated-product identity.

    LHS: int_0^min(x,y) Im[rot_dual(x - z) rot(y - z)] dz with rot the
    rotated supremum density (the e^(2 pi i / alpha) prefactor of the
    identity cancels against the two rotation factors pulled out of the
    densities).  RHS: (2/alpha) F(x) F_hat(y).  Returns |LHS - RHS|
    relative to |RHS|.
    """
    alpha, r = params.alpha, params.rho
    if x <= 0 or y <= 0:
        raise DomainError("x and y must be positive")
    if alpha <= 1.0 and abs(r - 0.5) > 1e-12:
        raise DomainError(
            "rotated densities only evaluable for alpha > 1 or rho = 1/2")
    if alpha <= 1.0 and x == y:
        raise DomainError(
            "integrand is non-integrable at the diagonal for alpha <= 1")
    m = min(x, y)
    dual = params.dual()
    gexp = (alpha * params.rho_hat if x <= y else alpha * r) - 1.0
    if x == y:
        gexp = alpha - 2.0

    def h(v):
        a = rotated_sup_density(dual, np.maximum(x - m + v, 1e-300))
        b = rotated_sup_density(params, np.maximum(y - m + v, 1e-300))
        return np.imag(a * b)

    freq = np.sin(np.pi * r) + np.sin(np.pi * params.rho_hat)
    lhs = integrate_finite_singular(h, m, gexp, tol=tol, frequency=freq)
    rhs = (2.0 / alpha) * f_eigen(EigenFn(params, "primal"), x) \
        * f_eigen(EigenFn(params, "dual"), y)
    return abs(lhs.value - rhs) / max(abs(rhs), 1e-15)
