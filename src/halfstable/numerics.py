"""Deterministic quadrature utilities on the half-line.

Everything here is generic numerics: no process- or model-specific
content.  The two entry points are

* ``integrate_semi_infinite``: integral of f over (0, inf) guided by an
  ``IntegrandProfile`` describing decay class, endpoint singularity and
  oscillation scale.  Adaptive two-level Gauss-Legendre panels on a
  truncated / transformed axis, refined in rounds: each round calls f
  on the nodes of all its new panels at once, so f is called about
  once per round, not once per panel.

* ``integrate_oscillatory_decaying``: integral of a decaying oscillation,
  partitioned at the half-period spacing pi/frequency and summed with
  iterated averaging of the partial sums, which converges even when the
  envelope decays only algebraically.

Both return a ``QuadratureResult`` carrying an honest absolute error
estimate and report budget exhaustion through ``converged=False`` rather
than raising.  All routines are deterministic: the same inputs produce
bit-identical outputs.  ``vectorized`` is the package's one scalar-in,
scalar-out rule for functions vectorized over a point argument, and
``blocked`` its one way to cut a large batch: every kernel dot and
every integrand call of the package goes through it, so no temporary
holds more than DOT_BLOCK entries (or one row).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotIntegrable

DEFAULT_TOL = 1e-10
# Entries of one temporary in a blocked evaluation (see ``blocked``).
DOT_BLOCK = 2 ** 15


def blocked(fn, a, width=1):
    """fn(a), evaluated on consecutive slices of the 1-d array a.

    Each slice has at most max(1, DOT_BLOCK // width) entries, so when
    fn builds ``width`` entries per entry of a (one row of a kernel
    dot), a large batch never allocates its temporaries all at once.
    The results are concatenated along their first axis.
    """
    rows = max(1, DOT_BLOCK // width)
    return np.concatenate([fn(a[i:i + rows])
                           for i in range(0, a.size, rows)])


def vectorized(arg, dtype=float):
    """Scalar in, scalar out at the parameter named ``arg``.

    The body always gets that argument as an array of ``dtype`` with at
    least one dimension.  A 0-d input (a Python or NumPy scalar, or a
    0-d array) gets the first entry of the result back as a Python
    float or complex; any other input gets the array.
    """
    def decorate(fn):
        pos = list(inspect.signature(fn).parameters).index(arg)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = list(args)
            where, key = (kwargs, arg) if arg in kwargs else (args, pos)
            x = where[key]
            where[key] = np.atleast_1d(np.asarray(x, dtype=dtype))
            out = fn(*args, **kwargs)
            return out[0].item() if np.ndim(x) == 0 else out

        return wrapper

    return decorate


_DECAY_CLASSES = ("exponential", "power")


@dataclass(frozen=True)
class IntegrandProfile:
    """How an integrand behaves at the two ends of (0, inf).

    decay: "exponential" or "power".
    rate: for "exponential", f = O(exp(-rate*x)) with rate > 0 (a
        faster decay, a Gaussian say, is covered by the same bound);
        for "power", f = O(x**rate) as x -> inf, and rate must be < -1
        for the integral to exist.
    singularity: f ~ x**singularity as x -> 0+, must be > -1.
    frequency: dominant oscillation scale, f ~ (envelope) * cos(frequency*x
        + phase); 0 means no oscillation worth resolving.
    """

    decay: str
    rate: float
    singularity: float = 0.0
    frequency: float = 0.0

    def __post_init__(self):
        if self.decay not in _DECAY_CLASSES:
            raise ValueError(f"unknown decay class {self.decay!r}")
        if self.decay != "power" and not self.rate > 0:
            raise ValueError("exponential decay rate must be positive")
        if self.frequency < 0:
            raise ValueError("frequency must be >= 0")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    converged: bool
    evaluations: int


@lru_cache(maxsize=32)
def _gl_rule(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def panel_nodes(edges, order=16):
    """Gauss-Legendre nodes and weights for a list of panel edges.

    ``edges`` is an increasing 1-d array of length m+1; the result is a
    pair of flat arrays of length m*order covering every panel.  This is
    the vectorized workhorse used throughout the package.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _gl_rule(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _adaptive_panels(f, edges, tol, max_evals):
    """Adaptive bisection refinement starting from the given panel edges.

    Each round evaluates f on the 12- and 24-point Gauss-Legendre nodes
    of every new panel, one (panels, 36) array, through ``blocked`` (one
    call unless a round has more than 910 panels), so the temporaries of
    f stay small; a panel's error is the gap between its two estimates.
    The round then bisects the fewest largest-error panels whose errors
    add up to more than total - tol, but no more than the evaluations
    left in max_evals allow, plus one panel pair.  Returns (value,
    error, evaluations, converged); a nan anywhere leaves it
    unconverged.
    """
    xl, wl = _gl_rule(12)
    xh, wh = _gl_rule(24)
    x = np.concatenate((xl, xh))
    new_lo = np.asarray(edges[:-1], dtype=float)
    new_hi = np.asarray(edges[1:], dtype=float)
    lo = hi = vals = errs = np.empty(0)
    evals = 0
    while True:
        mid, half = 0.5 * (new_lo + new_hi), 0.5 * (new_hi - new_lo)
        nodes = (mid[:, None] + half[:, None] * x).ravel()
        fx = blocked(f, nodes).reshape(mid.size, -1)
        coarse = half * (fx[:, :xl.size] @ wl)
        fine = half * (fx[:, xl.size:] @ wh)
        lo, hi = np.concatenate((lo, new_lo)), np.concatenate((hi, new_hi))
        vals = np.concatenate((vals, fine))
        errs = np.concatenate((errs, np.abs(fine - coarse)))
        evals += nodes.size
        total = float(np.sum(errs))
        if not (total > tol and evals < max_evals):
            return np.sum(vals), total, evals, total <= tol
        order = np.argsort(errs)[::-1]
        k = int(np.searchsorted(np.cumsum(errs[order]), total - tol,
                                side="right")) + 1
        k = min(k, -(-(max_evals - evals) // (2 * x.size)))
        split, keep = order[:k], order[k:]
        m = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], m))
        new_hi = np.concatenate((m, hi[split]))
        lo, hi, vals, errs = lo[keep], hi[keep], vals[keep], errs[keep]


def _panels_on(f, a, b, frequency, extra, tol, max_evals):
    """_adaptive_panels on [a, b] from its initial edges: at least 4 and
    at most 16 panels, more when the frequency asks (each panel spanning
    at most 6 radians, up to 4000 panels), and the points of ``extra``
    inside (a, b) forced as edges."""
    length = b - a
    n = max(4, min(16, int(np.ceil(2.0 * length))))
    if frequency > 0:
        # capped before the int conversion: an overflowed frequency is inf
        n = max(n, int(min(np.ceil(length * frequency / 6.0), 4000)))
    edges = np.linspace(a, b, min(n, 4000) + 1)
    inside = [float(e) for e in extra if a < e < b]
    if inside:
        edges = np.union1d(edges, inside)
    return _adaptive_panels(f, edges, tol, max_evals)


_X_FLOOR = 1e-300  # the smallest x at which f is evaluated


def _power_endpoint_panels(f, cut, gamma, frequency, tol, max_evals,
                           extra=()):
    """int_0^cut f with f ~ x**gamma at 0, gamma > -1, via x = v**p.

    The substitution x = v**p turns the endpoint behaviour into
    v**(p*(1+gamma)-1); p is chosen so that exponent is >= 1, leaving a
    bounded integrand that vanishes at v = 0.  ``extra`` lists interior
    x-breakpoints to force as panel edges (mapped through the
    substitution).  Near v = 0, v**p underflows to 0 (p >= 34 once
    1 + gamma < 0.06), so f is never evaluated below x0 = 1e-300: the
    panels start at v0 = x0**(1/p), and the geometric edges at the
    larger of v0 and 1e-4 cut**(1/p).  The mass left out, x0 f(x0) /
    (1 + gamma) for f ~ x**gamma, is extrapolated from the power law
    at x1 = edges[1]**p and at x2 = edges[2]**p: the value takes the
    x1 extrapolation, and the gap between the two goes into the error
    estimate, so an f that is not yet a pure power there (or has
    another exponent) stays unconverged.
    """
    p = max(1.0, float(np.ceil(2.0 / (1.0 + gamma))))

    def g(v):
        return p * v**(p - 1.0) * f(v**p)

    v0, vcut = _X_FLOOR**(1.0 / p), cut**(1.0 / p)
    n_inner = 24
    if frequency > 0:
        # phase on [0, cut] in x is at most frequency*cut; the adaptive
        # pass resolves it, helped by a denser start
        n_inner += int(min(frequency * cut, 200))
    edges = np.geomspace(max(1e-4 * vcut, v0), vcut, n_inner)
    ex = np.asarray([e ** (1.0 / p) for e in extra if 0.0 < e < cut])
    if ex.size:
        edges = np.union1d(edges, ex)
    edges = np.concatenate(([v0], edges[edges > v0]))
    val, err, evals, _ = _adaptive_panels(g, edges, tol, max_evals)
    x12 = np.maximum(_X_FLOOR, edges[1:3]**p)
    mass = x12 * f(x12) * (_X_FLOOR / x12)**(1.0 + gamma) / (1.0 + gamma)
    err += abs(mass[0] - mass[1])
    return val + mass[0], err, evals + 2, err <= tol


def integrate_semi_infinite(f, profile, tol=DEFAULT_TOL, max_evals=500_000,
                            extra_edges=()):
    """Integrate f over (0, inf) using the hints in ``profile``.

    f must accept a 1-d float array and return an array of values
    (real or complex).  ``extra_edges`` lists interior points (kink or
    removable-singularity locations) that must coincide with panel
    edges.  Raises NotIntegrable when the profile itself implies
    divergence; insufficient budget is reported through the
    ``converged`` flag instead.
    """
    if profile.singularity <= -1:
        raise NotIntegrable(
            f"endpoint exponent {profile.singularity} <= -1 diverges at 0")
    if profile.decay == "power" and profile.rate >= -1:
        raise NotIntegrable(
            f"power decay exponent {profile.rate} >= -1 diverges at infinity")

    if profile.decay == "power" and profile.frequency > 0:
        # Oscillation with an algebraic envelope: plain truncation has no
        # usable cutoff, series acceleration is the reliable route.
        return integrate_oscillatory_decaying(
            f, profile.frequency, tol=tol, max_evals=max_evals)

    ex = [float(e) for e in extra_edges]
    parts = []
    if profile.decay == "power":
        cut = upper = 1.0
        # Tail via x = 1/v: the algebraic decay becomes an endpoint
        # exponent -2 - rate > -1 at v = 0.
        parts.append(_power_endpoint_panels(
            lambda v: f(1.0 / v) / v**2, 1.0 / cut, -2.0 - profile.rate, 0.0,
            tol / 2, max_evals // 2, extra=[1.0 / e for e in ex if e > cut]))
    else:
        # Truncation point: exp(-rate*T) below tol with margin.
        upper = (np.log(max(1.0 / max(tol, 1e-300), 1.0)) + 12.0) / profile.rate
        upper = max(upper, 2.0 / profile.rate)
        cut = min(1.0, upper / 2)

    if profile.singularity != 0.0:
        parts.append(_power_endpoint_panels(
            f, cut, profile.singularity, profile.frequency, tol / 2,
            max_evals // 2, extra=ex))
    else:
        parts.append(_panels_on(f, 0.0, cut, profile.frequency, ex, tol / 2,
                                max_evals // 2))
    if upper > cut:
        spent = sum(part[2] for part in parts)
        parts.append(_panels_on(f, cut, upper, profile.frequency, ex, tol / 2,
                                max(max_evals - spent, 1000)))

    total = sum(part[0] for part in parts)
    # rounding floor: panel-difference estimates can flatline below the
    # accumulation noise of the sum itself
    err_total = max(sum(part[1] for part in parts),
                    2e-15 * (1.0 + abs(total)))
    return QuadratureResult(total, err_total, all(part[3] for part in parts),
                            sum(part[2] for part in parts))


def integrate_interval(f, a, b, tol=DEFAULT_TOL, frequency=0.0,
                       extra_edges=(), max_evals=200_000):
    """Adaptive panel integration of a smooth f over finite [a, b].

    ``frequency`` caps the initial panel width for oscillatory
    integrands; ``extra_edges`` forces interior breakpoints.
    """
    val, err, ev, ok = _panels_on(f, a, b, frequency, extra_edges, tol,
                                  max_evals)
    err = max(err, 2e-15 * (1.0 + abs(val)))
    return QuadratureResult(val, err, bool(ok), ev)


def integrate_finite_singular(f, upper, endpoint_exponent, tol=DEFAULT_TOL,
                              frequency=0.0, max_evals=200_000):
    """int_0^upper f where f ~ x**endpoint_exponent (> -1) at 0."""
    if endpoint_exponent <= -1:
        raise NotIntegrable(
            f"endpoint exponent {endpoint_exponent} <= -1 diverges at 0")
    val, err, ev, ok = _power_endpoint_panels(
        f, upper, endpoint_exponent, frequency, tol, max_evals)
    err = max(err, 2e-15 * (1.0 + abs(val)))
    return QuadratureResult(val, err, bool(ok), ev)


def _averaging_estimate(terms):
    """Iterated averaging of partial sums; returns (estimate, error gauge).

    Repeatedly replaces the sequence of partial sums by pairwise means.
    For an alternating sequence with a smooth envelope each stage roughly
    halves the error; the gauge is the movement in the final stages.
    """
    s = np.cumsum(np.asarray(terms))
    tail = s[-min(len(s), 48):]
    last_vals = [tail[-1]]
    while len(tail) > 1:
        tail = 0.5 * (tail[:-1] + tail[1:])
        last_vals.append(tail[-1])
    est = last_vals[-1]
    if len(last_vals) >= 3:
        gauge = abs(last_vals[-1] - last_vals[-2]) + abs(
            last_vals[-2] - last_vals[-3])
    else:
        gauge = np.inf
    return est, gauge + 4e-16 * max(1.0, abs(est))


def integrate_oscillatory_decaying(f, frequency, tol=DEFAULT_TOL,
                                   max_evals=500_000, start=0.0):
    """Integral over (start, inf) of a decaying oscillation.

    The axis is cut at the half-period spacing pi/frequency and the
    sequence of partial sums is accelerated by iterated averaging.
    Works for exponential envelopes (where it is merely cheap) and for
    algebraic ones (where plain truncation would not converge).  The
    frequency must be positive: there is nothing to alternate without
    it.
    """
    if not frequency > 0:
        raise ValueError("frequency must be > 0")
    h = np.pi / frequency
    order = 16
    max_terms = 2 + int(min(max_evals // order, 100_000))
    terms = []
    evals = 0
    for k in range(max_terms):
        a, b = start + k * h, start + (k + 1) * h
        nodes, weights = panel_nodes(np.array([a, b]), order)
        terms.append(np.sum(weights * f(nodes)))
        evals += order
        if k >= 11:
            est, gauge = _averaging_estimate(terms)
            if gauge < tol / 2:
                return QuadratureResult(est, gauge, True, evals)
    est, gauge = _averaging_estimate(terms)
    return QuadratureResult(est, gauge, bool(gauge <= tol), evals)
