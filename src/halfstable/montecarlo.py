"""Path-simulation estimates of survival, density, and positivity.

This is the probabilistic cross-check for the spectral formulas, built
from exact stable increments (model.sample_increment).  exact_survival
takes each path's minimum over [0, t] exactly: the faces of its convex
minorant have uniform stick-breaking lengths and independent increments,
so the minimum is x plus the sum of the negative ones (Pitman & Uribe
Bravo, Ann. Probab. 40, 2012).  The grid estimator (PathConfig) watches
paths only at steps of dt, as a discretely monitored barrier does, so it
overestimates survival, and its bias_note says so.

Randomness is organized in fixed blocks of _BLOCK paths.  Block b draws
from numpy's PCG64 seeded with SeedSequence(seed).spawn()[b], and every
step draws a full block-sized vector even when fewer paths are wanted,
so path i is a pure function of (seed, i) no matter how many paths run
or how the blocks are distributed across workers.  Merging is integer
counting, which makes sharded runs combine exactly.
"""

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .errors import BudgetExceeded, DomainError
from .model import _coerce_params, sample_increment

_BLOCK = 8192

_SURVIVAL_BIAS = "discrete-monitoring bias: overestimates survival"
_NO_BIAS = "none: exact single-increment sampling"
_EXACT = "none: exact path minima by stick-breaking"
_STICKS = 50
_EXACT_BUDGET = 2e9  # increments; the grid estimator's default budget


def _is_int(n):
    return isinstance(n, Integral) and not isinstance(n, bool)


def _positive(x):
    return bool(0.0 < x < np.inf)


@dataclass(frozen=True)
class PathConfig:
    """Simulation plan: path count, grid step, time horizon, seed.

    budget caps n_paths * horizon / dt (the total number of increments)
    so a typo in dt fails fast instead of running for hours.  n_paths
    and seed must be integers (seed nonnegative, as numpy's SeedSequence
    takes it), dt and horizon finite.
    """

    n_paths: int
    dt: float
    horizon: float
    seed: int
    budget: float = 2e9

    def __post_init__(self):
        if not _is_int(self.n_paths) or self.n_paths <= 0:
            raise DomainError(
                f"n_paths must be a positive integer, got {self.n_paths!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise DomainError(
                f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (_positive(self.dt) and _positive(self.horizon)):
            raise DomainError("dt and horizon must be positive and finite, "
                              f"got {self.dt} and {self.horizon}")
        if not self.budget > 0:
            raise DomainError(f"budget must be positive, got {self.budget}")
        cost = self.n_paths * self.horizon / self.dt
        if cost > self.budget:
            raise BudgetExceeded(
                f"{cost:.3g} increments exceed the budget {self.budget:.3g}; "
                "raise PathConfig.budget explicitly to run this")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_effective: int
    bias_note: str = ""


def _grid_steps(t: float, dt: float):
    """Step lengths covering (0, t] with spacing dt plus a final
    fractional step; the monitoring grid always includes t itself."""
    n_full = int(np.floor(t / dt + 1e-9))
    rem = t - n_full * dt
    if rem > 1e-12 * max(t, 1.0):
        return n_full, rem
    return n_full, 0.0


def _blocks(seed: int, n: int, first: int = 0, count: int = None):
    """Yield (rng, keep) for blocks first, ..., first + count - 1 of n
    paths; keep is how many of the block's _BLOCK paths are wanted.
    The default count runs to the last block."""
    total = -(-n // _BLOCK)
    if count is None:
        count = total - first
    if not (_is_int(first) and _is_int(count)
            and 0 <= first <= first + count <= total):
        raise DomainError("block range outside the configured paths")
    children = np.random.SeedSequence(seed).spawn(first + count)[first:]
    for b, child in enumerate(children, start=first):
        yield np.random.default_rng(child), min(_BLOCK, n - b * _BLOCK)


def _grid_sweep(params, x, t, cfg, first=0, count=None):
    """Yield (final values, alive mask) of the wanted paths of each block
    ``_blocks`` gives, every path watched at steps of cfg.dt up to t."""
    n_full, rem = _grid_steps(t, cfg.dt)
    for rng, keep in _blocks(cfg.seed, cfg.n_paths, first, count):
        vals = np.full(_BLOCK, float(x))
        alive = np.ones(_BLOCK, dtype=bool)
        for _ in range(n_full):
            vals += sample_increment(params, cfg.dt, rng, _BLOCK)
            alive &= vals >= 0.0
        if rem > 0.0:
            vals += sample_increment(params, rem, rng, _BLOCK)
            alive &= vals >= 0.0
        yield vals[:keep], alive[:keep]


def _check_time(x, t, horizon=np.inf):
    if not (_positive(x) and _positive(t)):
        raise DomainError(f"x and t must be positive and finite, got {x} "
                          f"and {t}")
    if t > horizon * (1.0 + 1e-12):
        raise DomainError(f"t={t} exceeds the configured horizon {horizon}")


def survival_counts(params, x: float, t: float, cfg: PathConfig,
                    first_block: int = 0, n_blocks: int = None):
    """Survivor and path counts for a contiguous range of blocks.

    The default covers all of cfg.n_paths.  Workers may each take a
    sub-range and sum the integer results; the total is bit-identical
    to a single-process run.
    """
    _check_time(x, t, cfg.horizon)
    survivors = 0
    n = 0
    for _, alive in _grid_sweep(params, x, t, cfg, first_block, n_blocks):
        survivors += int(alive.sum())
        n += alive.size
    return survivors, n


def _binomial(k: int, n: int, note: str) -> McEstimate:
    p = k / n
    return McEstimate(value=p, std_error=float(np.sqrt(p * (1.0 - p) / n)),
                      n_effective=n, bias_note=note)


def estimate_survival(params, x: float, t: float,
                      cfg: PathConfig) -> McEstimate:
    """Fraction of paths from x whose grid minimum stays nonnegative
    up to t."""
    k, n = survival_counts(params, x, t, cfg)
    return _binomial(k, n, _SURVIVAL_BIAS)


def estimate_density(params, x: float, t: float, bins,
                     cfg: PathConfig):
    """Histogram of surviving endpoints: one McEstimate per bin, in
    units of probability per unit length.

    Survivors falling outside [bins[0], bins[-1]] are clipped into the
    end bins, so that sum(value * width) equals the estimate_survival
    value exactly (same cfg, same paths).  Pass a range wide enough to
    hold the mass; the clipped fraction is whatever survival puts
    outside it.
    """
    _check_time(x, t, cfg.horizon)
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("bins must be a strictly increasing 1-d grid "
                          "of at least two edges")
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    n = 0
    for vals, alive in _grid_sweep(params, x, t, cfg):
        ends = np.clip(vals[alive], edges[0], edges[-1])
        idx = np.clip(np.searchsorted(edges, ends, side="right") - 1, 0,
                      edges.size - 2)
        counts += np.bincount(idx, minlength=edges.size - 1)
        n += alive.size
    out = []
    for k, w in zip(counts, np.diff(edges)):
        est = _binomial(k, n, _SURVIVAL_BIAS)
        out.append(replace(est, value=est.value / w,
                           std_error=est.std_error / w))
    return out


def estimate_positivity(params, n: int, seed: int = 0) -> McEstimate:
    """Fraction of positive X_1 samples; checks that the increment
    sampler realizes rho = P(X_1 > 0)."""
    if not (_is_int(n) and _is_int(seed) and seed >= 0):
        raise DomainError("n and seed must be integers, seed nonnegative, "
                          f"got {n!r} and {seed!r}")
    if n < 10_000:
        raise DomainError("n below 1e4 says nothing at the accuracy this "
                          "check is for")
    positive = 0
    for rng, keep in _blocks(seed, n):
        draw = sample_increment(params, 1.0, rng, _BLOCK)
        positive += int(np.count_nonzero(draw[:keep] > 0.0))
    return _binomial(positive, n, _NO_BIAS)


def _exact_minima(params, x, t, n, seed):
    """Yield each block's x + minimum over [0, t] of its first `keep`
    paths: 50 sticks of the remaining length, then the rest, each face
    adding min(length^(1/alpha) X_1, 0)."""
    alpha = _coerce_params(params).alpha
    for rng, keep in _blocks(seed, n):
        low = np.full(_BLOCK, float(x))
        rest = np.full(_BLOCK, float(t))
        for k in range(_STICKS + 1):
            stick = rest * rng.random(_BLOCK) if k < _STICKS else rest
            rest = rest - stick
            low += np.minimum(stick ** (1.0 / alpha) * sample_increment(
                params, 1.0, rng, _BLOCK), 0.0)
        yield low[:keep]


def exact_survival(params, x: float, t: float, n_paths: int,
                   seed: int) -> McEstimate:
    """Fraction of n_paths paths from x whose minimum over [0, t] stays
    positive, with no time grid; over 2e9 increments (51 a path) in all
    raise BudgetExceeded before any runs."""
    if not (_is_int(n_paths) and n_paths > 0 and _is_int(seed)
            and seed >= 0):
        raise DomainError("n_paths and seed must be integers, n_paths "
                          f"positive, got {n_paths!r} and {seed!r}")
    _check_time(x, t)
    if n_paths * (_STICKS + 1) > _EXACT_BUDGET:
        raise BudgetExceeded(f"{n_paths * (_STICKS + 1):.3g} increments "
                             f"exceed the budget {_EXACT_BUDGET:.3g}")
    alive = sum(int(np.count_nonzero(low > 0.0))
                for low in _exact_minima(params, x, t, n_paths, seed))
    return _binomial(alive, n_paths, _EXACT)
