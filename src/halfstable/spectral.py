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
origin keeps full order; every batched evaluation is a chunked matrix
dot against that grid.  Each such integral gets a coarse and a fine
grid (``_grid_pair``), and the gap between the two is its error
estimate.  Second, the completely monotone part G of F is
served by a cubic spline on a dense log grid, because the exact profile
evaluation costs a ~3000-node dot per point and the matrix kernels
below need 1e6-1e8 points.  The spline belongs to G's ray profile
(``RayProfile.interp``): it is built once per parameter set, shared by
every call, and dropped with the profile by ``ray_profile.cache_clear()``.
Third, integrals that converge only conditionally (the inversion
Pi Pi_hat u and the eigenfunction check, whose tails decay like 1/lam
times an oscillation) are split at a finite point and finished with the
zero-partition averaging accelerator from ``numerics``.

Validity regimes are enforced as hard preconditions: the survival
formula needs alpha > 1 or rho >= 1/2, the density and the semigroup
diagonalization need rho >= 1/2 (density additionally alpha > 1 or
rho = 1/2 exactly).  Outside those ranges some of the integrals
genuinely diverge, so the functions raise DomainError instead of
extrapolating.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .doublesine import s2
from .eigenfunctions import EigenFn, _Kernel, f_eigen
from .errors import BudgetExceeded, DomainError, NonConvergence
from .model import StableParams
from .numerics import (integrate_interval, integrate_oscillatory_decaying,
                       panel_nodes, vectorized)

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
    """lam beyond which e^(-t lam^alpha + growth lam) * bound < tol/10."""
    big_l = np.log(10.0 * max(bound, 1.0) / tol)
    lam = (big_l / t) ** (1.0 / alpha)
    for _ in range(40):
        lam = ((big_l + max(growth, 0.0) * lam) / t) ** (1.0 / alpha)
    return 1.05 * lam


def _panel_grid(b: float, freq: float, n_min: int):
    """GL nodes/weights on (~0, b]: uniform panels of ~one oscillation
    period each, plus a geometric cascade of 54 halvings (16 decades)
    toward the origin."""
    width = b / n_min
    if freq > 0:
        width = min(width, 2.0 * np.pi / freq)
    k = np.ceil(b / width)  # inf when width underflows
    if not k <= 120_000:
        raise BudgetExceeded(
            f"oscillation grid would need {k:.0f} panels; narrow the "
            "frequency range or raise the tolerance")
    k = int(k)
    uni = np.linspace(b / k, b, k)
    geo = uni[0] * 2.0 ** (-np.arange(54, 0, -1, dtype=float))
    return panel_nodes(np.concatenate((geo, uni)))


def _grid_pair(b: float, freq: float, row):
    """The coarse and the fine grid of one integral on (~0, b].

    The fine grid has twice the panels.  Each comes as (nodes, row),
    with the caller's weight row(nodes, weights) folded in, so one
    chunked dot per grid integrates a kernel; ``_gap`` of the two
    results is the error estimate.
    """
    return [(nodes, row(nodes, wts)) for nodes, wts in
            (_panel_grid(b, freq * scale, n_min=24 * scale)
             for scale in (1, 2))]


def _gap(coarse, fine) -> float:
    """Error estimate of a grid pair: the largest fine - coarse gap."""
    return float(np.max(np.abs(fine - coarse), initial=0.0))


def _chunked_dot(kernel, a, nodes, row):
    """kernel(outer(a, nodes)) @ row, 64 entries of a at a time so the
    outer-product temporary stays small."""
    return np.concatenate([kernel(np.outer(a[i:i + 64], nodes)) @ row
                           for i in range(0, a.size, 64)])


def _check_defined(params: StableParams, need: str):
    alpha, r = params.alpha, params.rho
    if need == "survival" and not (alpha > 1.0 or r >= 0.5 - 1e-12):
        raise DomainError("survival formula requires alpha > 1 or "
                          "rho >= 1/2")
    if need == "density" and not (alpha > 1.0 or abs(r - 0.5) < 1e-12):
        raise DomainError("density formula requires alpha > 1 or "
                          "rho = 1/2")
    if need == "diagonalization" and r < 0.5 - 1e-12:
        raise DomainError("the semigroup diagonalization requires "
                          "rho >= 1/2")


def survival(params: StableParams, x: float, t: float,
             cfg: SpectralConfig = _DEFAULT_CFG) -> float:
    """P(first exit from the half-line after t | start at x).

    Evaluated in s = log(lam); the kernel decays like e^(alpha rho_hat s)
    on the left and the e^(-t lam^alpha) factor cuts the right end.  The
    raw quadrature value is returned; values outside [0, 1] (possible at
    loose tolerances) trigger a warning, not clipping.
    """
    _check_defined(params, "survival")
    if x <= 0 or t <= 0:
        raise DomainError("x and t must be positive")
    alpha, rh = params.alpha, params.rho_hat
    s_lo = (np.log(cfg.tol) - 7.0) / (alpha * rh) - np.log(x)
    if x * np.exp(s_lo) == 0.0:
        raise NonConvergence(
            "the lower limit of the lambda integral underflows at "
            f"alpha rho_hat = {alpha * rh:.3g}")
    fe = _Kernel(params)
    lam = _cutoff(alpha, t, x * fe.growth, cfg.tol, fe.bound())
    s_hi = np.log(lam)

    def integrand(s):
        return np.exp(-t * np.exp(alpha * s)) * fe(x * np.exp(s))

    res = integrate_interval(integrand, s_lo, s_hi, tol=cfg.tol / 3.0,
                             frequency=lam * x * fe.freq)
    if not res.converged:
        raise NonConvergence(
            f"survival quadrature error estimate {res.abs_error_estimate:.2e}"
            " above tolerance")
    value = (np.sqrt(alpha) / np.pi) * np.real(s2(alpha * rh, alpha)) \
        * res.value
    if not -1e-9 <= value <= 1.0 + 1e-9:
        if value < -cfg.tol or value > 1.0 + cfg.tol:
            warnings.warn(f"survival value {value} outside [0, 1]",
                          stacklevel=2)
    return float(value)


def _cancellation_cap(alpha: float, t: float, growth: float) -> float:
    """Peak exponent of e^(growth lam - t lam^alpha) over lam >= 0.

    The spectral density integrand reaches e^(cap) while the result is
    O(1), so the quadrature must cancel cap nats; beyond ~22 that is
    past what double precision holds.
    """
    if growth <= 0.0:
        return 0.0
    if alpha <= 1.0:
        return np.inf
    lam_star = (growth / (t * alpha)) ** (1.0 / (alpha - 1.0))
    return growth * lam_star - t * lam_star ** alpha


_CANCEL_CAP = 22.0


class _HeatKernel:
    """Batched evaluator of p_t(x, .) on a fixed master grid.

    Holds a coarse/fine grid pair once; each call is a chunked matrix
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
        self.fe_dual = _Kernel(params.dual())
        fe = _Kernel(params)
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
                      fe.bound() * self.fe_dual.bound())
        freq = x * fe.freq + ymax * self.fe_dual.freq
        self._grids = _grid_pair(lam, freq, lambda nodes, wts: (
            _TWO_OVER_PI * wts * fe.damped(
                x * nodes, (1.0 - w_dual) * (t * nodes ** params.alpha))))
        self._damps = [w_dual * (t * nodes ** params.alpha)
                       for nodes, _ in self._grids]

    def _dot(self, y, which):
        nodes, row = self._grids[which]
        damp = self._damps[which][None, :]
        return _chunked_dot(lambda v: self.fe_dual.damped(v, damp),
                            y, nodes, row)

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


class _TransformKernel:
    """Batched Pi / Pi_hat against a fixed y-grid, valid for lam up to
    the lam_hi it was built for.

    When the oscillatory part of the kernel grows exponentially, its
    real-axis integral hides a cancellation of relative size
    exp(growth * lam), which double precision cannot deliver beyond
    lam of a few tens.  In that regime the oscillatory term is instead
    integrated on the ray arg y = phi with cos(pi * rho + phi) < 0,
    where the integrand is uniformly bounded and decays; the completely
    monotone remainder keeps its well-behaved real-axis grid.  The
    rotation needs the input analytic on the sector (with decay beating
    every fixed exponential, which class members guarantee), hence the
    sector_half_angle check.
    """

    def __init__(self, fe: _Kernel, u: TestFunction, lam_hi: float,
                 cfg: SpectralConfig):
        self.fe = fe
        self._rotated = lam_hi * fe.growth > 0.0
        log_floor = np.log(cfg.tol) - 12.0
        if not self._rotated:
            self._grids = _grid_pair(u.support_end(log_floor),
                                     lam_hi * fe.freq,
                                     lambda nodes, wts: wts * u(nodes))
            return
        if u.class_tag != "x_alpha_member":
            raise DomainError(
                "the kernel grows exponentially here; only class members "
                "can be integrated against it")
        rho = fe.params.rho
        phi_min = np.pi * (0.5 - rho)
        if u.sector_half_angle <= phi_min + 0.05:
            raise DomainError(
                "rotating around the growing kernel needs analyticity on "
                f"a sector wider than {phi_min + 0.05:.3f} rad; this input "
                f"declares {u.sector_half_angle:.3f}")
        phi = phi_min + min(0.35, 0.5 * (u.sector_half_angle - phi_min))
        self._phase = np.exp(1j * phi)
        self._ray = np.exp(1j * (np.pi * rho + phi))
        self._theta = np.exp(1j * fe.theta0)
        self._k_grids = _grid_pair(
            self._ray_support(u, self._phase, log_floor),
            lam_hi * abs(self._ray.imag),
            lambda nodes, wts: wts * u(nodes * self._phase))
        if fe.coef_g != 0.0:
            self._m_grids = _grid_pair(u.support_end(log_floor), 0.0,
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
        if not self._rotated:
            nodes, row = self._grids[which]
            return np.sqrt(_TWO_OVER_PI) * _chunked_dot(self.fe, lams, nodes,
                                                        row)
        k_nodes, k_row = self._k_grids[which]
        kk = _chunked_dot(lambda v: np.exp(v * self._ray), lams, k_nodes,
                          k_row)
        out = np.imag(self._theta * self._phase * kk)
        if self.fe.coef_g != 0.0:
            m_nodes, m_row = self._m_grids[which]
            out += self.fe.coef_g * _chunked_dot(self.fe.g_spline, lams,
                                                 m_nodes, m_row)
        return np.sqrt(_TWO_OVER_PI) * out

    def __call__(self, lams):
        return self._dot(lams, 0)

    def est_at(self, lams):
        # fine grid first: the G spline's upper edge depends on the order
        # of the arguments it meets, so the order shows in the last digits
        fine = self._dot(lams, 1)
        return _gap(self._dot(lams, 0), fine)


@vectorized("lam")
def _pi_common(fe, u, lam, cfg):
    if not isinstance(u, TestFunction):
        raise DomainError("u must be a TestFunction (wrap tables with "
                          "TestFunction.from_table)")
    if np.any(lam <= 0):
        raise DomainError("lam must be positive")
    kern = _TransformKernel(fe, u, float(lam.max()), cfg)
    vals = kern(lam)
    est = kern.est_at(lam[:: max(1, lam.size // 16)])
    if est > max(50.0 * cfg.tol, 1e-11):
        raise NonConvergence(
            f"transform grid refinement changed the result by {est:.2e}")
    return vals


def pi_transform(params: StableParams, u: TestFunction, lam,
                 cfg: SpectralConfig = _DEFAULT_CFG):
    """Generalized sine transform with kernel F(lam x); vectorized over
    lam.  For rho < 1/2 the kernel grows, so only class members are
    accepted there."""
    return _pi_common(_Kernel(params), u, lam, cfg)


def pi_hat_transform(params: StableParams, u: TestFunction, lam,
                     cfg: SpectralConfig = _DEFAULT_CFG):
    """Dual transform with kernel Fhat(lam x); requires a class member
    (the dual kernel grows whenever rho > 1/2)."""
    if u.class_tag != "x_alpha_member":
        raise DomainError("pi_hat_transform needs an x_alpha_member input")
    return _pi_common(_Kernel(params.dual()), u, lam, cfg)


def semigroup_apply(params: StableParams, u: TestFunction, t: float,
                    x, cfg: SpectralConfig = _DEFAULT_CFG):
    """P_t u (x) through the diagonalization: the outer transform of
    e^(-t lam^alpha) times the dual transform of u.  Vectorized over x
    (an array input shares one inner transform and one lam grid)."""
    _check_defined(params, "diagonalization")
    if u.class_tag != "x_alpha_member":
        raise DomainError("semigroup_apply needs an x_alpha_member input")
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0) or t <= 0:
        raise DomainError("x and t must be positive")
    alpha = params.alpha
    fe = _Kernel(params)
    lam_cut = _cutoff(alpha, t, 0.0, cfg.tol, fe.bound())
    kern = _TransformKernel(_Kernel(params.dual()), u, lam_cut, cfg)
    probes = np.geomspace(lam_cut * 1e-3, lam_cut, 24)
    inner_est = kern.est_at(probes) * lam_cut

    if scalar:
        x0 = float(xs[0])

        def integrand(lams):
            return fe(x0 * lams) * np.exp(-t * lams ** alpha) * kern(lams)

        res = integrate_interval(integrand, lam_cut * 1e-8, lam_cut,
                                 tol=cfg.tol / 3.0,
                                 frequency=x0 * fe.freq)
        if not res.converged or inner_est > 100.0 * cfg.tol:
            raise NonConvergence(
                f"semigroup quadrature error "
                f"~{res.abs_error_estimate + inner_est:.2e}")
        return float(np.sqrt(_TWO_OVER_PI) * res.value)

    freq = float(xs.max()) * fe.freq
    grids = _grid_pair(lam_cut, freq, lambda nodes, wts: (
        wts * np.exp(-t * nodes ** alpha) * kern(nodes)))
    coarse, fine = (_chunked_dot(fe, xs, nodes, row) for nodes, row in grids)
    est = _gap(coarse, fine) + inner_est
    if est > 100.0 * cfg.tol:
        raise NonConvergence(f"semigroup grid error ~{est:.2e}")
    return np.sqrt(_TWO_OVER_PI) * fine


def pi_round_trip(params: StableParams, u: TestFunction, x: float,
                  cfg: SpectralConfig = _DEFAULT_CFG) -> float:
    """Pi applied to (Pi_hat u), evaluated at x; equals u(x) on class
    members.  The outer integral converges only conditionally (the
    transform decays like 1/lam), so its tail runs through the
    oscillation accelerator."""
    _check_defined(params, "diagonalization")
    if u.class_tag != "x_alpha_member":
        raise DomainError("the inversion identity needs an x_alpha_member "
                          "input")
    if x <= 0:
        raise DomainError("x must be positive")
    fe = _Kernel(params)
    freq = x * fe.freq
    lam0 = 30.0
    lam_hi = lam0 + 50.0 * np.pi / freq
    kern = _TransformKernel(_Kernel(params.dual()), u, lam_hi * 1.02, cfg)

    def integrand(lams):
        return fe(x * lams) * kern(lams)

    head = integrate_interval(integrand, lam0 * 1e-8, lam0,
                              tol=cfg.tol, frequency=freq)
    tail = integrate_oscillatory_decaying(
        integrand, 0.0, freq, tol=max(cfg.tol, 1e-9), start=lam0)
    return float(np.sqrt(_TWO_OVER_PI) * (head.value + tail.value))


def eigen_check(params: StableParams, lam: float, t: float, x: float,
                cfg: SpectralConfig = _DEFAULT_CFG) -> float:
    """Relative residual of the eigenfunction relation: the density
    integrated against F(lam .) versus e^(-t lam^alpha) F(lam x).

    The y-integral's tail decays like y^(-1-alpha) times an oscillation
    and is accelerated; lam below 0.1 is refused (both sides of the
    relation degenerate toward 0 and the ratio is noise).
    """
    _check_defined(params, "diagonalization")
    _check_defined(params, "density")
    if lam < 0.1:
        raise DomainError("eigen_check requires lam >= 0.1")
    if x <= 0 or t <= 0:
        raise DomainError("x and t must be positive")
    fe = _Kernel(params)
    freq = lam * fe.freq
    y0 = 25.0 + 4.0 / lam
    y_hi = y0 + 52.0 * np.pi / freq
    kern = _HeatKernel(params, x, t, y_hi * 1.02, cfg)

    def integrand(y):
        return kern(y) * fe(lam * y)

    head = integrate_interval(integrand, y0 * 1e-8, y0,
                              tol=cfg.tol, frequency=freq)
    tail = integrate_oscillatory_decaying(
        integrand, 0.0, freq, tol=max(cfg.tol, 1e-8), start=y0)
    lhs = head.value + tail.value
    rhs = np.exp(-t * lam ** params.alpha) \
        * float(f_eigen(EigenFn(params), lam * x))
    return float(abs(lhs - rhs) / abs(rhs))
