"""Deterministic quadrature utilities on the half-line.

Everything here is generic numerics: no process- or model-specific
content.  The two entry points are

* ``integrate_semi_infinite``: integral of f over (0, inf) guided by an
  ``IntegrandProfile`` describing decay class, endpoint singularity and
  oscillation scale.  Adaptive two-level Gauss-Legendre panels on a
  truncated / transformed axis.

* ``integrate_oscillatory_decaying``: integral of a decaying oscillation,
  partitioned at the half-period spacing pi/frequency and summed with
  iterated averaging of the partial sums, which converges even when the
  envelope decays only algebraically.

Both return a ``QuadratureResult`` carrying an honest absolute error
estimate and report budget exhaustion through ``converged=False`` rather
than raising.  All routines are deterministic: the same inputs produce
bit-identical outputs.  ``vectorized`` is the package's one scalar-in,
scalar-out rule for functions vectorized over a point argument.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotIntegrable

DEFAULT_TOL = 1e-10


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


_DECAY_CLASSES = ("super_exponential", "exponential", "power")


@dataclass(frozen=True)
class IntegrandProfile:
    """How an integrand behaves at the two ends of (0, inf).

    decay: one of "super_exponential", "exponential", "power".
    rate: for the exponential classes, f = O(exp(-rate*x)) with rate > 0;
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


def _panel_pair(f, a, b, order_lo=12, order_hi=24):
    """Two-level GL estimate of int_a^b f, returning (fine, |fine-coarse|, evals)."""
    xl, wl = _gl_rule(order_lo)
    xh, wh = _gl_rule(order_hi)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    coarse = half * np.sum(wl * f(mid + half * xl))
    fine = half * np.sum(wh * f(mid + half * xh))
    return fine, abs(fine - coarse), order_lo + order_hi


def _adaptive_panels(f, edges, tol, max_evals):
    """Adaptive bisection refinement starting from the given panel edges."""
    panels = []
    evals = 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err, n = _panel_pair(f, a, b)
        panels.append((err, a, b, val))
        evals += n
    total_err = sum(p[0] for p in panels)
    while total_err > tol and evals < max_evals:
        panels.sort(key=lambda p: p[0])
        err0, a, b, _ = panels.pop()
        m = 0.5 * (a + b)
        v1, e1, n1 = _panel_pair(f, a, m)
        v2, e2, n2 = _panel_pair(f, m, b)
        panels.append((e1, a, m, v1))
        panels.append((e2, m, b, v2))
        evals += n1 + n2
        total_err += e1 + e2 - err0
    value = sum(p[3] for p in panels)
    return value, total_err, evals, total_err <= tol


def _initial_edges(a, b, frequency, max_panels=4000):
    """Panel edges on [a, b], capped so no panel spans too much phase."""
    length = b - a
    n = max(4, min(16, int(np.ceil(2.0 * length))))
    if frequency > 0:
        n = max(n, int(np.ceil(length * frequency / 6.0)))
    n = min(n, max_panels)
    return np.linspace(a, b, n + 1)


def _power_endpoint_panels(f, cut, gamma, frequency, tol, max_evals,
                           extra=()):
    """int_0^cut f with f ~ x**gamma at 0, gamma > -1, via x = v**p.

    The substitution x = v**p turns the endpoint behaviour into
    v**(p*(1+gamma)-1); p is chosen so that exponent is >= 1, leaving a
    bounded integrand that vanishes at v = 0.  ``extra`` lists interior
    x-breakpoints to force as panel edges (mapped through the
    substitution).
    """
    p = max(1.0, float(np.ceil(2.0 / (1.0 + gamma))))

    def g(v):
        v = np.maximum(v, 1e-300)
        return p * v**(p - 1.0) * f(v**p)

    vcut = cut**(1.0 / p)
    n_inner = 24
    if frequency > 0:
        # phase on [0, cut] in x is at most frequency*cut; the adaptive
        # pass resolves it, helped by a denser start
        n_inner += int(min(frequency * cut, 200))
    edges = np.concatenate(([0.0], np.geomspace(1e-4 * vcut, vcut, n_inner)))
    ex = np.asarray([e ** (1.0 / p) for e in extra if 0.0 < e < cut])
    if ex.size:
        edges = np.union1d(edges, ex)
    return _adaptive_panels(g, edges, tol, max_evals)


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
            f, 0.0, profile.frequency, tol=tol, max_evals=max_evals)

    total = 0.0
    err_total = 0.0
    evals = 0
    converged = True
    ex = sorted(float(e) for e in extra_edges if e > 0.0)

    if profile.decay == "power":
        cut = 1.0
        upper = cut
        # Tail via x = 1/v: the algebraic decay becomes an endpoint
        # exponent -2 - rate > -1 at v = 0.
        gam = -2.0 - profile.rate
        tail, terr, tev, tok = _power_endpoint_panels(
            lambda v: f(1.0 / v) / v**2, 1.0 / cut, gam, 0.0, tol / 2,
            max_evals // 2, extra=[1.0 / e for e in ex if e > cut])
        total = total + tail
        err_total += terr
        evals += tev
        converged &= tok
    else:
        # Truncation point: exp(-rate*T) below tol with margin.  The
        # super-exponential class decays faster, so the same bound is
        # simply conservative there.
        upper = (np.log(max(1.0 / max(tol, 1e-300), 1.0)) + 12.0) / profile.rate
        upper = max(upper, 2.0 / profile.rate)
        cut = min(1.0, upper / 2)

    if profile.singularity != 0.0:
        head, herr, hev, hok = _power_endpoint_panels(
            f, cut, profile.singularity, profile.frequency, tol / 2,
            max_evals // 2, extra=ex)
    else:
        edges = _initial_edges(0.0, cut, profile.frequency)
        inside = [e for e in ex if e < cut]
        if inside:
            edges = np.union1d(edges, inside)
        head, herr, hev, hok = _adaptive_panels(f, edges, tol / 2,
                                                max_evals // 2)
    total = total + head
    err_total += herr
    evals += hev
    converged &= hok

    if upper > cut:
        edges = _initial_edges(cut, upper, profile.frequency)
        inside = [e for e in ex if cut < e < upper]
        if inside:
            edges = np.union1d(edges, inside)
        body, berr, bev, bok = _adaptive_panels(
            f, edges, tol / 2, max(max_evals - evals, 1000))
        total = total + body
        err_total += berr
        evals += bev
        converged &= bok

    # rounding floor: panel-difference estimates can flatline below the
    # accumulation noise of the sum itself
    err_total = max(err_total, 2e-15 * (1.0 + abs(total)))
    return QuadratureResult(total, err_total, bool(converged), evals)


def integrate_interval(f, a, b, tol=DEFAULT_TOL, frequency=0.0,
                       extra_edges=(), max_evals=200_000):
    """Adaptive panel integration of a smooth f over finite [a, b].

    ``frequency`` caps the initial panel width for oscillatory
    integrands; ``extra_edges`` forces interior breakpoints.
    """
    edges = _initial_edges(a, b, frequency)
    inside = [float(e) for e in extra_edges if a < e < b]
    if inside:
        edges = np.union1d(edges, inside)
    val, err, ev, ok = _adaptive_panels(f, edges, tol, max_evals)
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


def integrate_oscillatory_decaying(f, decay_rate, frequency, tol=DEFAULT_TOL,
                                   max_evals=500_000, start=0.0):
    """Integral over (start, inf) of a decaying oscillation.

    The axis is cut at the half-period spacing pi/frequency and the
    sequence of partial sums is accelerated by iterated averaging.
    Works for exponential envelopes (where it is merely cheap) and for
    algebraic ones (where plain truncation would not converge).  With
    frequency = 0 there is nothing to alternate, so the routine falls
    back to plain panel integration using decay_rate.
    """
    if frequency < 0:
        raise ValueError("frequency must be >= 0")
    if frequency == 0.0:
        profile = IntegrandProfile("exponential", max(decay_rate, 1e-3))
        if start == 0.0:
            return integrate_semi_infinite(f, profile, tol, max_evals)
        return integrate_semi_infinite(lambda x: f(x + start), profile, tol,
                                       max_evals)

    h = np.pi / frequency
    order = 16
    max_terms = 2 + int(min(max_evals // order, 100_000))
    terms = []
    evals = 0
    for k in range(max_terms):
        a, b = start + k * h, start + (k + 1) * h
        nodes, weights = panel_nodes(np.array([a, b]), order)
        term = np.sum(weights * f(nodes))
        terms.append(term)
        evals += order
        if k >= 11:
            est, gauge = _averaging_estimate(terms)
            if gauge < tol / 2:
                return QuadratureResult(est, gauge, True, evals)
            if decay_rate > 0 and abs(term) < tol / 8 and k >= 15:
                # envelope has died off; the plain sum is already there
                total = np.sum(terms)
                return QuadratureResult(total, 8 * abs(term), True, evals)
    est, gauge = _averaging_estimate(terms)
    return QuadratureResult(est, gauge, bool(gauge <= tol), evals)
