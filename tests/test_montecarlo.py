"""Path simulation: reproducibility, sharding, and statistical pulls.

Everything here either checks exact integer bookkeeping (shard sums,
histogram mass) or compares a Monte Carlo estimate to an independent
value at a generous multiple of the standard error, so the random
failure probability is negligible and the seeds are pinned anyway.
"""

import numpy as np
import pytest
from scipy.special import erf

from halfstable import DomainError, StableParams
from halfstable.errors import BudgetExceeded
from halfstable.montecarlo import (McEstimate, PathConfig, estimate_density,
                                   estimate_positivity, estimate_survival,
                                   richardson_survival, survival_counts)
from halfstable.spectral import survival

P = StableParams(1.5, 0.6)
CFG = PathConfig(n_paths=20_000, dt=0.01, horizon=1.0, seed=7)


def test_path_config_validation():
    with pytest.raises(DomainError):
        PathConfig(n_paths=0, dt=0.01, horizon=1.0, seed=1)
    with pytest.raises(DomainError):
        PathConfig(n_paths=10, dt=-0.01, horizon=1.0, seed=1)


@pytest.mark.parametrize("field, value", [
    ("n_paths", 2e4), ("n_paths", True), ("dt", float("nan")),
    ("horizon", float("nan")), ("horizon", float("inf")), ("seed", -1),
    ("seed", 1.0), ("budget", float("nan"))])
def test_path_config_refuses_by_name(field, value):
    kwargs = dict(n_paths=10, dt=0.01, horizon=1.0, seed=1)
    kwargs[field] = value
    with pytest.raises(DomainError, match=field):
        PathConfig(**kwargs)


@pytest.mark.parametrize("x, t", [(float("nan"), 1.0), (1.0, float("nan")),
                                  (float("inf"), 1.0)])
def test_time_arguments_refuse_by_name(x, t):
    with pytest.raises(DomainError, match="x and t"):
        estimate_survival(P, x, t, CFG)
    with pytest.raises(DomainError, match="x and t"):
        estimate_density(P, x, t, [0.0, 1.0], CFG)


def test_budget_trips_before_running():
    # 1e6 paths at dt=1e-6 would be 1e12 increments
    with pytest.raises(BudgetExceeded):
        PathConfig(n_paths=1_000_000, dt=1e-6, horizon=1.0, seed=1)
    # and an explicit budget raise is honoured
    PathConfig(n_paths=1_000_000, dt=1e-6, horizon=1.0, seed=1, budget=1e12)


def test_same_seed_reproduces():
    a = estimate_survival(P, 1.0, 1.0, CFG)
    b = estimate_survival(P, 1.0, 1.0, CFG)
    assert a == b


def test_shard_sums_match_single_run():
    whole = survival_counts(P, 1.0, 1.0, CFG)
    first = survival_counts(P, 1.0, 1.0, CFG, first_block=0, n_blocks=1)
    rest = survival_counts(P, 1.0, 1.0, CFG, first_block=1)
    assert (first[0] + rest[0], first[1] + rest[1]) == whole


def test_blocks_do_not_depend_on_path_total():
    # block b is a pure function of (seed, b): shrinking n_paths to one
    # block must reproduce that block's counts bit for bit
    small = PathConfig(n_paths=8192, dt=0.01, horizon=1.0, seed=7)
    assert survival_counts(P, 1.0, 1.0, small) \
        == survival_counts(P, 1.0, 1.0, CFG, first_block=0, n_blocks=1)


def test_shard_range_validation():
    with pytest.raises(DomainError):
        survival_counts(P, 1.0, 1.0, CFG, first_block=5)  # only 3 blocks


@pytest.mark.parametrize("shard", [dict(first_block=0.5),
                                   dict(n_blocks=1.0)])
def test_shard_range_must_be_integers(shard):
    with pytest.raises(DomainError, match="block range"):
        survival_counts(P, 1.0, 1.0, CFG, **shard)


def test_bias_notes_are_stable_strings():
    est = estimate_survival(P, 1.0, 1.0, CFG)
    assert est.bias_note == "discrete-monitoring bias: overestimates survival"
    pos = estimate_positivity(P, 10_000)
    assert pos.bias_note == "none: exact single-increment sampling"


def test_density_mass_equals_survival():
    bins = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    dens = estimate_density(P, 1.0, 1.0, bins, CFG)
    mass = sum(d.value * w for d, w in zip(dens, np.diff(bins)))
    est = estimate_survival(P, 1.0, 1.0, CFG)
    assert abs(mass - est.value) < 1e-12
    assert all(isinstance(d, McEstimate) for d in dens)


def test_density_bin_validation():
    with pytest.raises(DomainError):
        estimate_density(P, 1.0, 1.0, [1.0], CFG)
    with pytest.raises(DomainError):
        estimate_density(P, 1.0, 1.0, [1.0, 1.0], CFG)


def test_positivity_pull():
    est = estimate_positivity(P, 200_000, seed=3)
    assert abs(est.value - 0.6) < 4.0 * est.std_error


def test_positivity_needs_enough_samples():
    with pytest.raises(DomainError):
        estimate_positivity(P, 5_000)


@pytest.mark.parametrize("n, seed", [(2e4, 0), (20_000, -1), (20_000, 1.5)])
def test_positivity_refuses_non_integer_counts_and_seeds(n, seed):
    with pytest.raises(DomainError, match="n and seed"):
        estimate_positivity(P, n, seed)


def test_brownian_survival_biased_above_erf(p_brownian):
    # discrete monitoring misses excursions below 0, so the estimate
    # sits above erf(1/2) by O(sqrt(dt)); check the sign and the size
    cfg = PathConfig(n_paths=50_000, dt=2e-3, horizon=1.0, seed=11)
    est = estimate_survival(p_brownian, 1.0, 1.0, cfg)
    assert est.value > erf(0.5)
    assert est.value - erf(0.5) < 0.05


def test_richardson_extrapolation_against_spectral():
    est = richardson_survival(P, 1.0, 1.0, 20_000, (0.02, 0.005), seed=5)
    want = survival(P, 1.0, 1.0)
    assert abs(est.value - want) < 5.0 * est.std_error
    assert est.bias_note.startswith("dt-extrapolated")
    # the pair order must not matter
    flipped = richardson_survival(P, 1.0, 1.0, 20_000, (0.005, 0.02),
                                  seed=5)
    assert flipped.value == est.value


def test_richardson_rejects_equal_steps():
    with pytest.raises(DomainError):
        richardson_survival(P, 1.0, 1.0, 10_000, (0.01, 0.01), seed=1)
