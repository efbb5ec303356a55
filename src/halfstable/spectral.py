"""Survival probability, killed transition density, and the transform
pair that diagonalizes the killed semigroup.

Everything in this module is an integral over the spectral variable
lam >= 0 against the kernel F(lam x) (or its dual) built in
``eigenfunctions``:

* survival(x, t)   = (sqrt(alpha)/pi) s2(alpha rho_hat)
                     int e^(-t lam^alpha) F(lam x) lam^(-1) dlam,
* p_t(x, y)        = (2/pi) int e^(-t lam^alpha) F(lam x) Fhat(lam y) dlam,
* Pi u(lam)        = sqrt(2/pi) int F(lam x) u(x) dx   (Pi_hat with Fhat),
* P_t u            = Pi [ e^(-t lam^alpha) Pi_hat u ].

The quadratures share three ingredients.  First, a master grid of
Gauss-Legendre panels sized to the oscillation frequency of the kernel,
with a geometric cascade toward 0 so the x^(alpha rho_hat) kink at the
origin keeps full order; every batched evaluation is a matrix dot
against that grid, cut into blocks by ``numerics.blocked``.  Each such
integral gets a coarse and a fine grid (``_grid_pair``), and the gap
between the two is its error estimate.  The transforms sum their
oscillatory part e^(lam x w) on the same grid taken as a panel lattice
(``_Lattice``): its uniform panels share their node offsets, so each
lam costs one exponential per panel plus 16, and only the first
panel's cascade keeps exponentials of its own.  G's part of the
transforms takes G's knot lattice for an input analytic on a sector (a
trapezoid sum in log r whose nodes are G's knots shifted by -log lam)
and the cascade grids for a table, as does every part of the heat
kernel.  Second, the completely
monotone part G of F is served by a cubic spline on a dense log grid,
because the exact profile evaluation costs a ~3000-node dot per point
and the matrix kernels below need 1e6-1e8 points.  The spline and its
knot values belong to G's ray profile (``RayProfile.interp``,
``RayProfile._at_knots``), read by index and built once per parameter
set over a fixed range, as is the kernel F with its double sine
constants (``eigenfunctions.kernel``), kept beside them:
``ray_profile.cache_clear()`` drops all three.
Third, integrals that converge only conditionally (the inversion
Pi Pi_hat u and the eigenfunction check, whose tails decay like 1/lam
times an oscillation) are split at a finite point and finished with the
zero-partition averaging accelerator from ``numerics``, in one routine
that stops the tail at the reach of the kernel it integrates.

Survival is defined at every admissible (alpha, rho): where F grows
(rho < 1/2) its oscillation leaves the real axis at lam = 1/x for a ray
on which it decays, and below alpha 1 that ray is what gives the
integral its value.  The density needs alpha > 1 or rho = 1/2 exactly,
and the semigroup diagonalization rho >= 1/2; outside those ranges their
integrals genuinely diverge on the real axis, so the functions raise
DomainError instead of extrapolating.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .eigenfunctions import EigenFn, _Kernel, f_eigen, kernel
from .errors import BudgetExceeded, DomainError, NonConvergence
from .model import StableParams
from .numerics import (blocked, integrate_interval,
                       integrate_oscillatory_decaying, panel_nodes,
                       vectorized)
from .profiles import g_profile

_TWO_OVER_PI = 2.0 / np.pi


@dataclass(frozen=True)
class SpectralConfig:
    """Accuracy target of the spectral quadratures.

    tol is the error each operation aims for: it sets the lam cutoff
    (the truncated e^(-t lam^alpha) tail stays below tol/10), the
    quadrature tolerances and the grid-refinement gates.
    """

    tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise DomainError(f"tol must lie in (0, 1), got {self.tol}")


_DEFAULT_CFG = SpectralConfig()


@dataclass(frozen=True)
class TestFunction:
    """A function on (0, inf) fed to the transforms.

    class_tag "x_alpha_member" asserts super-exponential decay and the
    closure-class membership needed against growing kernels; it is
    trusted, not verified (membership is not numerically decidable), so
    only the constructors below should mint it.  log_envelope is an
    upper bound for log|u| used to place quadrature truncation; tables
    have none and are treated as compactly supported.

    sector_half_angle declares the sector |arg z| < angle where the
    evaluator is analytic, accepts complex input, and keeps decaying;
    transforms with an exponentially growing kernel rotate their
    contour into that sector (the rotated integrand is uniformly O(1),
    where the real axis would need e^(+large) cancellation), so members
    intended for such kernels must declare a positive angle.
    """

    __test__ = False  # the name trips pytest's collector otherwise

    evaluator: Callable[[np.ndarray], np.ndarray]
    class_tag: str = "l2_only"
    log_envelope: Optional[Callable[[float], float]] = None
    table_end: Optional[float] = None
    label: str = ""
    sector_half_angle: float = 0.0

    def __post_init__(self):
        if self.class_tag not in ("x_alpha_member", "l2_only"):
            raise DomainError(f"unknown class_tag {self.class_tag!r}")

    def __call__(self, x):
        x = np.asarray(x)
        if not np.iscomplexobj(x):
            x = x.astype(float)
        return self.evaluator(x)

    def support_end(self, log_floor: float = -48.0) -> float:
        """Smallest b with log|u| below log_floor past b."""
        if self.log_envelope is None:
            if self.table_end is None:
                raise DomainError("function has neither an envelope nor "
                                  "a finite table")
            return self.table_end
        b = 1.0
        for _ in range(600):
            if self.log_envelope(b) < log_floor:
                return b
            b *= 1.12
        raise DomainError("the declared envelope never falls below the "
                          "requested floor")

    def scaled(self, a: float) -> "TestFunction":
        """x -> u(a x); stays in the class for a > 0."""
        if a <= 0:
            raise DomainError("scaling factor must be positive")
        env = None if self.log_envelope is None \
            else (lambda x, e=self.log_envelope: e(a * x))
        end = None if self.table_end is None else self.table_end / a
        return TestFunction(lambda x, f=self.evaluator: f(a * x),
                            self.class_tag, env, end,
                            f"{self.label or 'u'}({a}x)",
                            self.sector_half_angle)

    def product(self, other: "TestFunction") -> "TestFunction":
        """Pointwise product; member only when both factors are."""
        tag = "x_alpha_member" if (self.class_tag == other.class_tag
                                   == "x_alpha_member") else "l2_only"
        if self.log_envelope is not None and other.log_envelope is not None:
            env = (lambda x, e1=self.log_envelope, e2=other.log_envelope:
                   e1(x) + e2(x))
        else:
            env = None
        ends = [e for e in (self.table_end, other.table_end)
                if e is not None]
        end = min(ends) if ends else None
        return TestFunction(
            lambda x, f=self.evaluator, g=other.evaluator: f(x) * g(x),
            tag, env, end, f"({self.label})*({other.label})",
            min(self.sector_half_angle, other.sector_half_angle))

    @classmethod
    def power_tower(cls) -> "TestFunction":
        """(1+x)^(-x), the always-admissible decaying member."""
        return cls(lambda x: (1.0 + x) ** (-x), "x_alpha_member",
                   lambda x: -x * np.log1p(x), None, "(1+x)^-x",
                   sector_half_angle=1.35)

    @classmethod
    def stretched_exp(cls, beta: float, alpha: float) -> "TestFunction":
        """e^(-x^beta); a class member for 1 < beta <= alpha, alpha > 1."""
        if not (alpha > 1.0 and 1.0 < beta <= alpha):
            raise DomainError(
                "e^(-x^beta) is only registered as a class member for "
                "1 < beta <= alpha with alpha > 1")
        return cls(lambda x: np.exp(-x ** beta), "x_alpha_member",
                   lambda x: -abs(x) ** beta, None, f"exp(-x^{beta})",
                   sector_half_angle=0.95 * np.pi / (2.0 * beta))

    @classmethod
    def from_table(cls, x, values,
                   class_tag: str = "l2_only") -> "TestFunction":
        """Monotone piecewise-cubic interpolant on a log grid, zero
        outside the table range."""
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.size < 4 or np.any(np.diff(x) <= 0) \
                or x[0] <= 0:
            raise DomainError("table needs >= 4 increasing positive "
                              "abscissae")
        interp = PchipInterpolator(np.log(x), values, extrapolate=False)
        lo, hi = x[0], x[-1]

        def ev(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros_like(t)
            ok = (t >= lo) & (t <= hi)
            out[ok] = interp(np.log(t[ok]))
            return out

        return cls(ev, class_tag, None, float(hi), "table")


def _cutoff(alpha: float, t: float, growth: float, tol: float,
            bound: float) -> float:
    """lam beyond which e^(-t lam^alpha + growth lam) * bound < tol/10.

    That is 5% past the root of excess(lam) = t lam^alpha - growth lam -
    L, L = log(10 bound / tol): (L / t)^(1/alpha) without growth.  With
    growth, which only the density has and only at alpha > 1, the excess
    is convex and negative at that point, so the root is bracketed by
    doubling and Newton's method from its right finds it.
    """
    big_l = np.log(10.0 * max(bound, 1.0) / tol)

    def excess(lam):
        return t * lam ** alpha - growth * lam - big_l

    lam = (big_l / t) ** (1.0 / alpha)
    if growth > 0.0:
        while excess(lam) < 0.0:
            lam *= 2.0
        for _ in range(100):  # from the right of the root: monotone
            step = excess(lam) / (alpha * t * lam ** (alpha - 1.0) - growth)
            lam -= step
            if step <= 1e-15 * lam:
                break
    return lam * 1.05


def _panel_count(b: float, freq: float, n_min: int) -> int:
    """Uniform panels on (0, b]: at least n_min, each at most one
    oscillation period 2 pi / freq wide; refused past 120000."""
    width = b / n_min
    if freq > 0:
        width = min(width, 2.0 * np.pi / freq)
    k = np.ceil(b / width)  # inf when width underflows
    if not k <= 120_000:
        raise BudgetExceeded(
            f"oscillation grid would need {k:.0f} panels; narrow the "
            "frequency range or raise the tolerance")
    return int(k)


def _panel_grid(b: float, freq: float, n_min: int):
    """GL nodes/weights on (~0, b]: uniform panels of ~one oscillation
    period each, plus a geometric cascade of 54 halvings (16 decades)
    toward the origin."""
    k = _panel_count(b, freq, n_min)
    uni = np.linspace(b / k, b, k)
    geo = uni[0] * 2.0 ** (-np.arange(54, 0, -1, dtype=float))
    return panel_nodes(np.concatenate((geo, uni)))


class _Lattice:
    """sum_j c_j e^(lam r_j w) over the grid of ``_panel_grid`` on
    (~0, b], for a fixed complex w with Re w <= 0 and lam up to reach.

    The uniform panels p >= 1 form a lattice: panel p is [a_p, a_p +
    2h], a_p = 2hp, with its 16 Gauss-Legendre nodes at the common
    offsets h(1 + t_k), so e^(lam r w) = e^(lam a_p w) e^(lam h (1 + t_k)
    w), and their part costs P + 16 exponentials and one (P, 16) complex
    product per lam instead of 16 P exponentials.  The first panel keeps
    the geometric cascade, which resolves an input that is not smooth
    at 0 (a table, e^(-x^beta)); its nodes with reach r > 1/4 take their
    own exponentials, and the rest enter as the Taylor series sum_m
    (lam w)^m sum_j c_j r_j^m / m!, m < 14, whose dropped terms are below
    (1/4)^14 / 14! = 4e-20 relative.  c_j = row(r_j, weights).
    """

    def __init__(self, b: float, freq: float, n_min: int, row, w: complex,
                 reach: float):
        k = _panel_count(b, freq, n_min)
        width = b / k
        corners = np.arange(1, k) * width
        offsets, wts = panel_nodes(np.array([0.0, width]))
        nodes = (corners[:, None] + offsets[None, :]).ravel()
        self._coef = row(nodes, np.tile(wts, k - 1)).reshape(k - 1, -1)
        self._corners, self._offsets = corners * w, offsets * w
        cnodes, cwts = panel_nodes(width * 2.0 ** -np.arange(54.0, -1.0, -1.0))
        crow = row(cnodes, cwts)
        deep = cnodes * reach <= 0.25
        self._near, self._near_coef = cnodes[~deep] * w, crow[~deep]
        terms = np.cumprod(np.outer(cnodes[deep] * w, 1.0 / np.arange(
            1.0, 14.0)), axis=1)  # (r w)^m / m!, m = 1..13
        self._taylor = [crow[deep].sum(), *(crow[deep] @ terms)]
        self._size = corners.size + self._near.size

    def __call__(self, lams):
        def block(lb):
            out = np.sum((np.exp(np.outer(lb, self._corners)) @ self._coef)
                         * np.exp(np.outer(lb, self._offsets)), axis=1)
            out += np.exp(np.outer(lb, self._near)) @ self._near_coef
            acc = np.zeros(lb.shape, dtype=complex)
            for c in reversed(self._taylor):
                acc = acc * lb + c
            return out + acc

        return blocked(block, lams, self._size)


def _grid_pair(b: float, freq: float, row):
    """The coarse and the fine grid of one integral on (~0, b].

    The fine grid has twice the panels.  Each comes as (nodes, row),
    with the caller's weight row(nodes, weights) folded in, so one
    blocked dot per grid integrates a kernel; ``_gap`` of the two
    results is the error estimate.
    """
    return [(nodes, row(nodes, wts)) for nodes, wts in
            (_panel_grid(b, freq * scale, n_min=24 * scale)
             for scale in (1, 2))]


def _gap(coarse, fine) -> float:
    """Error estimate of a grid pair: the largest fine - coarse gap."""
    return float(np.max(np.abs(fine - coarse), initial=0.0))


def _check_defined(params: StableParams, need: str):
    alpha, r = params.alpha, params.rho
    if need == "density" and not (alpha > 1.0 or abs(r - 0.5) < 1e-12):
        raise DomainError("density formula requires alpha > 1 or "
                          "rho = 1/2")
    if need == "diagonalization" and r < 0.5 - 1e-12:
        raise DomainError("the semigroup diagonalization requires "
                          "rho >= 1/2")


_LOG_MAX = np.log(np.finfo(float).max)
# Narrowest sector (rad) the survival ray runs in: at 2e-3 the ray spans
# q up to ~2e4 at (x, t) = (2, 1) (2e4 evaluations, 4 ms warm), and the
# positive edge rho = 1 - 1/alpha has a wider one from alpha = 1.0013 on.
_MIN_WINDOW = 2e-3
# The grid in u = log(1 + q) on which the survival ray is cut, and the
# most its integrand's phase turns across one starting panel (rad): four
# periods, about six nodes a period for the 24-point rule.
_RAY_GRID = 0.5 * np.arange(1.0, 41.0)
_RAY_TURN = 8.0 * np.pi


def survival(params: StableParams, x: float, t: float,
             cfg: SpectralConfig = _DEFAULT_CFG) -> float:
    """P(first exit from the half-line after t | start at x).

    In v = x lam it is C int e^(-tau v^alpha) F(v) dv / v, tau = t
    x^-alpha, F = Im(e^(i theta0) e^(v w)) + coef_g G, w = e^(i pi rho),
    in one adaptive quadrature over three parts laid end to end: the
    whole kernel on the real axis in sigma = log v up to v = 1, where F
    grows by at most e; G's part on to the lam cutoff; and the
    oscillation on the ray v = 1 + q e^(i phi), in u = log(1 + q), cut
    where its integrand falls below tol e^-5, from starting panels
    across which its phase turns at most _RAY_TURN radians.  phi is the
    midpoint of the sector (pi (1/2 - rho), min(pi / (2 alpha), pi (3/2
    - rho))), where e^(v w) and e^(-tau v^alpha) both decay, so the ray
    avoids the real axis's cancellation where F grows (rho < 1/2), and
    gives the integral its value there below alpha 1.  NonConvergence names a
    sector narrower than _MIN_WINDOW.

    Below sigma_lo, where the integrand is under tol e^-7 (or v =
    1e-300), the power-law rest h(sigma_lo) / (alpha rho_hat) is added,
    unless its extrapolations from sigma_lo and sigma_lo + 1 differ by
    more than tol/3 (NonConvergence).  Where x times the lam cutoff
    overflows, NonConvergence names it before any work.  Values outside
    [0, 1] (possible at loose tolerances) trigger a warning.
    """
    if x <= 0 or t <= 0:
        raise DomainError("x and t must be positive")
    alpha, rho = params.alpha, params.rho
    fe = kernel(params)
    with np.errstate(over="ignore", divide="ignore"):  # t at 1e-/1e+300
        log_reach = np.log(x) + np.log(
            _cutoff(alpha, t, 0.0, cfg.tol, fe.bound))
    if log_reach > _LOG_MAX:
        raise NonConvergence(
            f"x lambda_cut = e^{log_reach:.0f} overflows double precision "
            f"at (x, t) = ({x:g}, {t:g})")
    lower = np.pi * (0.5 - rho)
    window = min(np.pi / (2.0 * alpha), np.pi * (1.5 - rho)) - lower
    if window < _MIN_WINDOW:
        raise NonConvergence(
            f"F grows like e^({x * fe.growth:.3g} lam) on the real axis at "
            f"(x, t) = ({x:g}, {t:g}), and the sector of rays that avoids "
            f"that cancellation is {window:.2g} rad wide, below "
            f"{_MIN_WINDOW:g}")
    rate = alpha * params.rho_hat
    sig_lo = max((np.log(cfg.tol) - 7.0) / rate, np.log(1e-300))
    sig_g = max(0.0, log_reach) if fe.coef_g != 0.0 else 0.0
    log_tau = np.log(t) - alpha * np.log(x)
    ray = np.exp(1j * (lower + 0.5 * window))
    w = np.exp(1j * np.pi * rho)
    pre = np.exp(1j * fe.theta0) * ray
    # past tau = e^600 the damping is total anywhere on the ray, and the
    # cap keeps tau z^alpha finite on the whole grid
    log_tau_ray = min(log_tau, 600.0)

    def on_ray(u):
        """log of e^(w z - tau z^alpha) (1 + q) / z, z = 1 + q ray."""
        q = np.expm1(u)
        z = 1.0 + q * ray
        log_z = np.log(z)
        return w * z - np.exp(log_tau_ray + alpha * log_z) + u - log_z

    # Re(w z) = cos(pi rho) - q sin(window / 2): the grid ends past the cut
    log_ray = on_ray(_RAY_GRID)
    above = np.flatnonzero(log_ray.real > np.log(cfg.tol) - 5.0)
    top = above[-1] + 1 if above.size else 0
    u_hi = _RAY_GRID[top]
    # the phase Im on_ray turns about 1 + q times faster in u far out on
    # the ray than at its start: a grid step it turns by more than
    # _RAY_TURN radians is cut into as many equal panels as that takes.
    # On a narrow sector's far end (at (1.0068, 0.0067) one step turned
    # by 337 radians) a panel hid its turns from both of its rules.
    ray_edges = _RAY_GRID[:top].tolist()
    phase = log_ray.imag[:top + 1].tolist()
    for hi, a, b in zip(ray_edges + [u_hi], [w.imag] + phase, phase):
        n = math.ceil(abs(b - a) / _RAY_TURN)
        ray_edges += [hi - 0.5 * j / n for j in range(1, n)]

    def damping(sig):  # e^-damping is 0 long before its exponent is 700
        return np.exp(-np.exp(np.minimum(log_tau + alpha * sig, 700.0)))

    def real_axis(sig):
        """The kernel, G's part alone past sigma = 0, times e^-damping;
        below G's series edge F's form without its cancelling constant."""
        v = np.exp(sig)
        kern = np.empty(v.shape)
        near = v <= fe.g_edge
        far = ~near
        kern[far] = fe.coef_g * fe.g_spline(v[far])
        head = far & (sig <= 0.0)
        kern[head] += fe.osc(v[head])
        if near.any():
            kern[near] = fe.below_edge(v[near])
        return kern * damping(sig)

    def integrand(v):
        out = np.empty(v.shape)
        real = v <= sig_g
        out[real] = real_axis(v[real])
        out[~real] = np.imag(pre * np.exp(on_ray(v[~real] - sig_g)))
        return out

    # the integral below sigma_lo, extrapolated from sigma_lo and + 1
    rest = fe.near_zero(sig_lo) * np.exp([0.0, -rate]) / rate \
        * damping(np.array([sig_lo, sig_lo + 1.0]))
    if abs(rest[0] - rest[1]) > cfg.tol / 3.0:
        raise NonConvergence(
            f"the survival integral below lambda = e^{sig_lo - np.log(x):.0f}"
            f" is not yet a power law at alpha rho_hat = {rate:.3g}")
    # edges where the parts meet and at the grid points along the ray,
    # without which about half the calls took a second adaptive round
    res = integrate_interval(
        integrand, sig_lo, sig_g + u_hi, tol=cfg.tol / 3.0, frequency=fe.freq,
        extra_edges=[0.0, sig_g, *(sig_g + e for e in ray_edges)])
    if not res.converged:
        raise NonConvergence(
            f"survival quadrature error estimate "
            f"{res.abs_error_estimate:.2e} above tolerance")
    value = fe.survival_coef * (res.value + rest[0])
    if not -1e-9 <= value <= 1.0 + 1e-9:
        if value < -cfg.tol or value > 1.0 + cfg.tol:
            warnings.warn(f"survival value {value} outside [0, 1]",
                          stacklevel=2)
    return float(value)


def _cancellation_cap(alpha: float, t: float, growth: float) -> float:
    """Peak exponent of e^(growth lam - t lam^alpha), lam >= 0, alpha > 1.

    The spectral density integrand reaches e^(cap) while the result is
    O(1), so the quadrature must cancel cap nats; beyond ~22 that is
    past what double precision holds.
    """
    if growth <= 0.0:
        return 0.0
    # t lam_star^alpha = growth lam_star / alpha at the peak lam_star,
    # which is inf once it overflows (alpha just above 1)
    with np.errstate(over="ignore"):
        lam_star = np.exp(np.log(growth / (t * alpha)) / (alpha - 1.0))
    return (1.0 - 1.0 / alpha) * growth * lam_star


_CANCEL_CAP = 22.0


class _HeatKernel:
    """Batched evaluator of p_t(x, .) on a fixed master grid.

    Holds a coarse/fine grid pair once; each call is a blocked matrix
    dot of the dual kernel against the precomputed x-row of the coarse
    grid.  eval_with_est returns the fine grid's values and the gap to
    the coarse ones as an error estimate.

    Either eigenfunction factor may grow like e^(growth * lam) while
    the product stays small under e^(-t lam^alpha), so evaluating the
    factors naively overflows.  The Boltzmann weight is therefore split
    between the factors in proportion to their growth and applied
    inside the exponent (_Kernel.damped).  That fixes overflow but
    not cancellation: the oscillatory integrand still peaks at
    e^(_cancellation_cap) while the density is O(1), so construction
    refuses ranges where that exceeds what doubles can cancel.
    """

    def __init__(self, params: StableParams, x: float, t: float,
                 ymax: float, cfg: SpectralConfig):
        self.fe_dual = kernel(params.dual())
        fe = kernel(params)
        g_dual = ymax * self.fe_dual.growth
        growth = x * fe.growth + g_dual
        cap = _cancellation_cap(params.alpha, t, growth)
        if cap > _CANCEL_CAP:
            raise DomainError(
                f"the spectral density integral for this (x, y, t) range "
                f"needs e^{cap:.0f} cancellation, beyond double precision; "
                "shrink the y range or x (the far spatial tail is one-jump "
                "dominated, ~ y^-(1+alpha), not spectrally resolvable here)")
        w_dual = g_dual / growth if growth > 0 else 0.5
        lam = _cutoff(params.alpha, t, growth, cfg.tol,
                      fe.bound * self.fe_dual.bound)
        freq = x * fe.freq + ymax * self.fe_dual.freq
        self._grids = _grid_pair(lam, freq, lambda nodes, wts: (
            _TWO_OVER_PI * wts * fe.damped(
                x * nodes, (1.0 - w_dual) * (t * nodes ** params.alpha))))
        self._damps = [w_dual * (t * nodes ** params.alpha)
                       for nodes, _ in self._grids]

    def _dot(self, y, which):
        nodes, row = self._grids[which]
        damp = self._damps[which][None, :]
        return blocked(lambda yb: self.fe_dual.damped(
            np.outer(yb, nodes), damp) @ row, y, nodes.size)

    def __call__(self, y):
        return self._dot(y, 0)

    def eval_with_est(self, y):
        coarse = self._dot(y, 0)
        fine = self._dot(y, 1)
        return fine, _gap(coarse, fine)


@vectorized("y")
def transition_density(params: StableParams, x: float, y, t: float,
                       cfg: SpectralConfig = _DEFAULT_CFG):
    """Density of the killed process at time t, started at x.

    Vectorized over y (scalar in, scalar out).  Tiny negative values of
    order the tolerance are possible near the edge of support of the
    oscillatory quadrature and are returned as computed.
    """
    _check_defined(params, "density")
    if x <= 0 or t <= 0:
        raise DomainError("x and t must be positive")
    if np.any(y <= 0):
        raise DomainError("y must be positive")
    kern = _HeatKernel(params, x, t, float(y.max()), cfg)
    vals, est = kern.eval_with_est(y)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    # est is the coarse-vs-fine gap, dominated by the coarse grid; the
    # returned fine values are far better, so this gate only catches a
    # quadrature that stopped converging, with an absolute floor so
    # far-tail batches (tiny scale) are not held to sub-tol accuracy
    if est > max(200.0 * cfg.tol * scale, 100.0 * cfg.tol):
        raise NonConvergence(
            f"density grid refinement changed the result by {est:.2e}")
    return vals


# The largest lam, as a multiple of the lam_hi it is built for, at which
# a _TransformKernel holds full precision.
_KERNEL_REACH = 3.0
# G's part of a transform on G's knot lattice: the trapezoid step in log
# r is a multiple of the knot step, at most one panel width, that keeps
# the rule's error e^(-2 pi d / step) below e^-37 on the strip |Im log r|
# < d; the sum runs 40 units of log r below the support end, the
# cascade grids' depth.
_G_NATS = 37.0
_G_STEP_MAX = 0.2
_G_DEPTH = 40.0


class _TransformKernel:
    """Batched Pi / Pi_hat against a fixed y-grid, for lam up to 3 times
    the lam_hi it was built for.

    The kernel is osc + coef_g G, and both parts go the same way
    whatever the ray.  The oscillatory part is Im(pre sum_j c_j
    e^(lam r_j w)) on a panel lattice (``_Lattice``): on the real axis
    w = e^(i pi rho), pre = e^(i theta0) and c_j = w_j u(r_j).  When the
    oscillation grows exponentially, its real-axis integral hides a
    cancellation of relative size exp(growth * lam), which double
    precision cannot deliver beyond lam of a few tens.  In that regime
    it is instead integrated on the ray arg y = phi with cos(pi rho +
    phi) < 0: w = e^(i (pi rho + phi)), pre = e^(i (theta0 + phi)) and
    c_j = w_j u(r_j e^(i phi)).  The rotation needs the input analytic on
    the sector (with decay beating every fixed exponential, which class
    members guarantee), hence the sector_half_angle check.  Re w <= 0,
    so no factor exceeds 1 however large lam is.  The panels are one
    period wide at lam_hi, which sets the reach: against a grid built
    for 12 lam_hi, on the real axis at (1.2, 0.5), the kernel is within
    3e-14 of the largest value in every window of lam_hi up to 3 lam_hi,
    5e-13 at 4 lam_hi and 4e-7 at 6 lam_hi.

    The completely monotone part coef_g int G(lam r) u(r) dr stays on
    the real axis.  For an input analytic on the sector |arg z| < theta
    its integrand is analytic in s = log r on the strip |Im s| < min(theta,
    pi/2), so the trapezoid rule in s errs by about e^(-2 pi d / H) at
    step H (Trefethen and Weideman, SIAM Review 56, 2014).  H is j knot
    steps h of G's spline, j = min(34, 2 pi d / (37 h)) (j // 2 for the
    fine sum), and for each lam the nodes are r = e^(t_k) / lam on the
    knots t_k, k a multiple of j (``_on_knots``): every G(lam r) is a
    value G's profile holds.  A table (theta = 0), or a sector too narrow
    for j >= 2, keeps the cascade grid pair through the spline: a table
    is C1 and drops to 0 at its ends, where a trapezoid sum that moves
    with lam is first order.
    """

    def __init__(self, fe: _Kernel, u: TestFunction, lam_hi: float,
                 cfg: SpectralConfig):
        self.fe = fe
        log_floor = np.log(cfg.tol) - 12.0
        support = u.support_end(log_floor)
        if lam_hi * fe.growth > 0.0:
            if u.class_tag != "x_alpha_member":
                raise DomainError(
                    "the kernel grows exponentially here; only class "
                    "members can be integrated against it")
            rho = fe.params.rho
            phi_min = np.pi * (0.5 - rho)
            if u.sector_half_angle <= phi_min + 0.05:
                raise DomainError(
                    "rotating around the growing kernel needs analyticity "
                    f"on a sector wider than {phi_min + 0.05:.3f} rad; this "
                    f"input declares {u.sector_half_angle:.3f}")
            phase = np.exp(1j * (phi_min + min(
                0.35, 0.5 * (u.sector_half_angle - phi_min))))
            end = self._ray_support(u, phase, log_floor)
        else:
            phase, end = 1.0, support
        self._omega = complex(fe.cos_r, fe.freq) * phase
        self._pre = np.exp(1j * fe.theta0) * phase
        self._lattices = [
            _Lattice(end, lam_hi * abs(self._omega.imag) * scale,
                     24 * scale, lambda r, w: w * u(r * phase),
                     self._omega, _KERNEL_REACH * lam_hi)
            for scale in (1, 2)]
        self._m_grids = self._steps = None
        if fe.coef_g == 0.0:
            return
        self._u, self._log_b = u, np.log(support)
        self._profile = g_profile(fe.params)
        h = self._profile._knot_table()[2]
        d = min(u.sector_half_angle, 0.5 * np.pi)
        step = min(int(_G_STEP_MAX / h + 1e-9),
                   int(2.0 * np.pi * d / (_G_NATS * h)))
        if step >= 2:
            self._steps = (step, step // 2)
        else:  # a table, or a sector too narrow for the knot lattice
            self._m_grids = _grid_pair(support, 0.0,
                                       lambda nodes, wts: wts * u(nodes))

    @staticmethod
    def _ray_support(u, phase, log_floor):
        floor = np.exp(log_floor)
        b = max(u.support_end(log_floor), 1.0)
        for _ in range(400):
            probe = np.abs(u(b * phase * np.array([1.0, 1.15, 1.3, 1.5])))
            if np.all(probe < floor):
                return b
            b *= 1.15
        raise NonConvergence(
            "no truncation point found on the rotated ray; the input "
            "may grow along it despite its declared sector")

    def _dot(self, lams, which):
        out = np.imag(self._pre * self._lattices[which](lams))
        if self._steps is not None:
            out += self.fe.coef_g * self._on_knots(lams, self._steps[which])
        elif self._m_grids is not None:
            nodes, row = self._m_grids[which]
            out += self.fe.coef_g * blocked(
                lambda lb: self.fe.g_spline(np.outer(lb, nodes)) @ row,
                lams, nodes.size)
        return np.sqrt(_TWO_OVER_PI) * out

    def _on_knots(self, lams, step):
        """int_0^b G(lam r) u(r) dr as the trapezoid sum H sum_k r_k
        u(r_k) G(e^(t_k)) in log r, with nodes r_k = e^(t_k) / lam on
        the knots t_k = t_0 + k h of G's spline, k a multiple of step,
        H = step h: every G is a value the profile holds, or its closed
        form below the series edge.  Per lam the nodes run down from
        the last at or below log b over _G_DEPTH."""
        t, _, h = self._profile._knot_table()
        big_h = step * h
        depth = np.arange(int(_G_DEPTH / big_h) + 1)
        log_lam = np.log(lams)
        top = np.floor((self._log_b + log_lam - t[0]) / big_h).astype(np.intp)
        m_lo = top.min() - depth[-1]
        g = self._profile._at_knots(step * np.arange(m_lo, top.max() + 1))

        def block(i):
            m = top[i, None] - depth
            r = np.exp(t[0] + h * (step * m) - log_lam[i, None])
            return np.sum(r * self._u(r) * g[m - m_lo], axis=1)

        return big_h * blocked(block, np.arange(lams.size), depth.size)

    def __call__(self, lams):
        return self._dot(lams, 0)

    def est_at(self, lams, coarse=None):
        """The fine - coarse gap at lams; ``coarse`` passes self(lams)
        when the caller has it already."""
        if coarse is None:
            coarse = self._dot(lams, 0)
        return _gap(coarse, self._dot(lams, 1))


@vectorized("lam")
def _pi_common(fe, u, lam, cfg):
    if not isinstance(u, TestFunction):
        raise DomainError("u must be a TestFunction (wrap tables with "
                          "TestFunction.from_table)")
    if np.any(lam <= 0):
        raise DomainError("lam must be positive")
    kern = _TransformKernel(fe, u, float(lam.max()), cfg)
    vals = kern(lam)
    step = max(1, lam.size // 16)
    est = kern.est_at(lam[::step], vals[::step])
    if est > max(50.0 * cfg.tol, 1e-11):
        raise NonConvergence(
            f"transform grid refinement changed the result by {est:.2e}")
    return vals


def pi_transform(params: StableParams, u: TestFunction, lam,
                 cfg: SpectralConfig = _DEFAULT_CFG):
    """Generalized sine transform with kernel F(lam x); vectorized over
    lam.  For rho < 1/2 the kernel grows, so only class members are
    accepted there."""
    return _pi_common(kernel(params), u, lam, cfg)


def pi_hat_transform(params: StableParams, u: TestFunction, lam,
                     cfg: SpectralConfig = _DEFAULT_CFG):
    """Dual transform with kernel Fhat(lam x); requires a class member
    (the dual kernel grows whenever rho > 1/2)."""
    if u.class_tag != "x_alpha_member":
        raise DomainError("pi_hat_transform needs an x_alpha_member input")
    return _pi_common(kernel(params.dual()), u, lam, cfg)


@vectorized("x")
def semigroup_apply(params: StableParams, u: TestFunction, t: float,
                    x, cfg: SpectralConfig = _DEFAULT_CFG):
    """P_t u (x) through the diagonalization: the outer transform of
    e^(-t lam^alpha) times the dual transform of u.  Vectorized over x:
    every x shares one inner transform and its error estimate, and runs
    one adaptive lam integral of its own."""
    _check_defined(params, "diagonalization")
    if u.class_tag != "x_alpha_member":
        raise DomainError("semigroup_apply needs an x_alpha_member input")
    if np.any(x <= 0) or t <= 0:
        raise DomainError("x and t must be positive")
    alpha = params.alpha
    fe = kernel(params)
    lam_cut = _cutoff(alpha, t, 0.0, cfg.tol, fe.bound)
    kern = _TransformKernel(kernel(params.dual()), u, lam_cut, cfg)
    probes = np.geomspace(lam_cut * 1e-3, lam_cut, 24)
    inner_est = kern.est_at(probes) * lam_cut
    out = np.empty(x.shape)
    for i, xi in enumerate(x):
        res = integrate_interval(
            lambda lams: fe(xi * lams) * np.exp(-t * lams ** alpha)
            * kern(lams), lam_cut * 1e-8, lam_cut, tol=cfg.tol / 3.0,
            frequency=xi * fe.freq)
        if not res.converged or inner_est > 100.0 * cfg.tol:
            raise NonConvergence(
                f"semigroup quadrature error "
                f"~{res.abs_error_estimate + inner_est:.2e}")
        out[i] = res.value
    return np.sqrt(_TWO_OVER_PI) * out


# Half-period panels the accelerated tails may sum, past the two the
# accelerator always takes: the round trip's, and eigen_check's
_TAIL_PANELS = 512
_EIGEN_TAIL_PANELS = 50


def _head_and_tail(integrand, start, freq, tol, tail_tol, panels, reach,
                   what):
    """int integrand over (start 1e-8, inf): adaptive panels at tol up to
    start, then the oscillation accelerator at tail_tol for at most
    panels + 2 half-periods pi/freq, up to the reach its caller's kernel
    was built for.  A part that does not converge raises NonConvergence,
    named with ``what``: the integral, its variable and that kernel."""
    head = integrate_interval(integrand, start * 1e-8, start, tol=tol,
                              frequency=freq)
    tail = integrate_oscillatory_decaying(integrand, freq, tol=tail_tol,
                                          start=start, max_evals=16 * panels)
    name, var, kern = what
    for part, res in (("head", head), ("tail", tail)):
        if not res.converged:
            raise NonConvergence(
                f"{name}'s {part} did not converge by {var} = {reach:.4g} "
                f"({panels + 2} half-periods), the reach of its {kern} "
                f"(error estimate {res.abs_error_estimate:.2e})")
    return head.value + tail.value


def pi_round_trip(params: StableParams, u: TestFunction, x: float,
                  cfg: SpectralConfig = _DEFAULT_CFG) -> float:
    """Pi applied to (Pi_hat u), evaluated at x; equals u(x) on class
    members.  The outer integral converges only conditionally (the
    transform decays like 1/lam), so its tail runs through the
    oscillation accelerator, for at most 514 half-periods.  The inner
    transform is built for a third of the last lam that allows, the
    range its lattice holds to; a head or tail that does not converge
    within it raises NonConvergence."""
    _check_defined(params, "diagonalization")
    if u.class_tag != "x_alpha_member":
        raise DomainError("the inversion identity needs an x_alpha_member "
                          "input")
    if x <= 0:
        raise DomainError("x must be positive")
    fe = kernel(params)
    freq = x * fe.freq
    lam0 = 30.0
    reach = lam0 + (_TAIL_PANELS + 2) * np.pi / freq
    kern = _TransformKernel(kernel(params.dual()), u,
                            reach / _KERNEL_REACH, cfg)

    def integrand(lams):
        return fe(x * lams) * kern(lams)

    value = _head_and_tail(integrand, lam0, freq, cfg.tol, max(cfg.tol, 1e-9),
                           _TAIL_PANELS, reach,
                           ("the round trip", "lambda", "inner transform"))
    return float(np.sqrt(_TWO_OVER_PI) * value)


def eigen_check(params: StableParams, lam: float, t: float, x: float,
                cfg: SpectralConfig = _DEFAULT_CFG) -> float:
    """Relative residual of the eigenfunction relation: the density
    integrated against F(lam .) versus e^(-t lam^alpha) F(lam x).

    The y-integral's tail decays like y^(-1-alpha) times an oscillation
    and is accelerated, for at most 52 half-periods past y0 = 25 + 4/lam,
    the y range the density is built for (with 2% to spare); a head or
    tail that does not converge within it raises NonConvergence.  lam
    below 0.1 is refused (both sides of the relation degenerate toward 0
    and the ratio is noise).
    """
    _check_defined(params, "diagonalization")
    _check_defined(params, "density")
    if lam < 0.1:
        raise DomainError("eigen_check requires lam >= 0.1")
    if x <= 0 or t <= 0:
        raise DomainError("x and t must be positive")
    fe = kernel(params)
    freq = lam * fe.freq
    y0 = 25.0 + 4.0 / lam
    reach = y0 + (_EIGEN_TAIL_PANELS + 2) * np.pi / freq
    y_hi = 1.02 * reach
    try:
        kern = _HeatKernel(params, x, t, y_hi, cfg)
    except DomainError as exc:  # F grows nowhere here: only F_hat does
        cap = _cancellation_cap(params.alpha, t,
                                y_hi * kernel(params.dual()).growth)
        raise DomainError(
            f"eigen_check integrates the density over y up to {y_hi:.4g} "
            f"(set from lam = {lam:g}), where the dual kernel grows like "
            f"e^(y cos(pi rho_hat)): e^{cap:.0f} cancellation, beyond double "
            "precision") from exc

    def integrand(y):
        return kern(y) * fe(lam * y)

    lhs = _head_and_tail(integrand, y0, freq, cfg.tol, max(cfg.tol, 1e-8),
                         _EIGEN_TAIL_PANELS, reach,
                         ("eigen_check", "y", "density"))
    rhs = np.exp(-t * lam ** params.alpha) \
        * float(f_eigen(EigenFn(params), lam * x))
    return float(abs(lhs - rhs) / abs(rhs))
