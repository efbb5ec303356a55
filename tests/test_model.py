import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from halfstable import (DoneyClass, OneSidedMode, StableParams, detect_doney,
                        levy_density, one_sided_mode, psi, sample_increment)
from halfstable import montecarlo
from halfstable.errors import DomainError
from halfstable.montecarlo import PathConfig, estimate_density, survival_counts


def test_params_admissibility():
    StableParams(0.8, 0.99)
    StableParams(2.0, 0.5)
    with pytest.raises(DomainError):
        StableParams(2.2, 0.5)
    with pytest.raises(DomainError):
        StableParams(0.8, 1.0)
    with pytest.raises(DomainError):
        StableParams(1.5, 0.8)  # outside [1 - 1/alpha, 1/alpha]


@pytest.mark.parametrize("call", [
    lambda: montecarlo.exact_survival((3.0, 0.5), 1.0, 1.0, 100, 0),
    lambda: montecarlo.estimate_positivity((1.5, 0.9), 10_000),
    lambda: psi((3.0, 0.5), 1.0)], ids=["exact_survival",
                                        "estimate_positivity", "psi"])
def test_an_inadmissible_pair_refuses_by_name(call):
    # an (alpha, rho) pair passes the StableParams checks: alpha = 3 is
    # outside (0, 2], and rho = 0.9 above 1/alpha at alpha = 1.5
    with pytest.raises(DomainError, match="outside"):
        call()


def test_params_accept_rational_strings():
    p = StableParams("7/5", "3/7")
    assert p.alpha == pytest.approx(1.4)
    assert p.rho == pytest.approx(3.0 / 7.0)


def test_dual_is_involutive(p_generic):
    q = p_generic.dual()
    assert q.rho == pytest.approx(p_generic.rho_hat)
    assert q.dual().rho == pytest.approx(p_generic.rho)
    # jump intensities swap sides under reflection
    assert q.c_plus == pytest.approx(p_generic.c_minus)


def test_psi_closed_cases():
    assert psi(StableParams(2.0, 0.5), 3.0) == pytest.approx(9.0)
    # alpha = 1: sin(pi rho)|z| + i cos(pi rho) z
    p = StableParams(1.0, 0.7)
    z = -2.5
    ref = np.sin(0.7 * np.pi) * abs(z) + 1j * np.cos(0.7 * np.pi) * z
    assert_allclose(psi(p, z), ref, rtol=1e-14)
    val = psi(StableParams(1.5, 0.6), 1.0)
    assert_allclose(val, np.exp(-0.15j * np.pi), rtol=1e-14)


def test_psi_conjugation(rng):
    p = StableParams(1.7, 0.52)
    z = rng.uniform(-5, 5, 40)
    assert_allclose(psi(p, -z), np.conj(psi(p, z)), rtol=1e-14)


def test_levy_density_tails(p_generic):
    x = np.array([0.5, 2.0, 8.0])
    assert_allclose(levy_density(p_generic, x),
                    p_generic.c_plus * x ** (-2.5), rtol=1e-14)
    assert levy_density(p_generic, -1.0) == pytest.approx(p_generic.c_minus)
    with pytest.raises(DomainError):
        levy_density(p_generic, 0.0)
    with pytest.raises(DomainError):
        levy_density(StableParams(1.0, 0.5), 1.0)


def test_doney_detection_examples():
    assert detect_doney(StableParams(1.4, "3/7")) == DoneyClass(1, 2, 0.0)
    cls = detect_doney(StableParams(1.5, "2/3"))
    assert (cls.k, cls.l) == (0, 1)
    assert detect_doney(StableParams(np.sqrt(2) / 2, 0.37),
                        tol=1e-9, k_max=5) is None


@given(k=st.integers(-3, 3), l=st.integers(1, 3),
       alpha=st.floats(1.05, 1.95))
@settings(max_examples=50, deadline=None)
def test_doney_detection_property(k, l, alpha):
    """Any constructed lattice pair must be recovered (possibly as an
    equivalent pair with smaller |k|, since alpha rho = l - k alpha has
    aliases when alpha is itself close to rational)."""
    rho = (l - k * alpha) / alpha
    lo, hi = 1.0 - 1.0 / alpha, 1.0 / alpha
    if not (lo + 1e-6 < rho < hi - 1e-6):
        return
    p = StableParams(alpha, rho)
    cls = detect_doney(p)
    assert cls is not None
    assert cls.residual <= 1e-12
    assert abs(alpha * rho - (cls.l - cls.k * alpha)) <= 1e-9


def test_one_sided_detection():
    assert one_sided_mode(StableParams(1.5, "2/3")) == \
        OneSidedMode("spectrally_negative")
    assert one_sided_mode(StableParams(1.5, "1/3")) == \
        OneSidedMode("spectrally_positive")
    assert one_sided_mode(StableParams(1.5, 0.5)) is None
    assert one_sided_mode(StableParams(2.0, 0.5)) is None
    with pytest.raises(DomainError):
        OneSidedMode("sideways")


def test_sampler_brownian_moments():
    rng = np.random.default_rng(3)
    x = sample_increment(StableParams(2.0, 0.5), 1.0, rng, 200_000)
    assert abs(np.mean(x)) < 0.02
    assert np.var(x) == pytest.approx(2.0, rel=0.02)


def test_sampler_cauchy_case():
    # alpha = 1: X_1 = sin(pi rho) Z - cos(pi rho), Z standard Cauchy
    rng = np.random.default_rng(4)
    p = StableParams(1.0, 0.7)
    x = sample_increment(p, 1.0, rng, 100_000)
    z = (x + np.cos(0.7 * np.pi)) / np.sin(0.7 * np.pi)
    ks = stats.kstest(z, stats.cauchy.cdf)
    assert ks.pvalue > 1e-3


def test_sampler_positivity_and_scaling():
    rng = np.random.default_rng(5)
    p = StableParams(1.5, 0.6)
    n = 400_000
    x = sample_increment(p, 1.0, rng, n)
    se = np.sqrt(0.6 * 0.4 / n)
    assert abs(np.mean(x > 0) - 0.6) < 4 * se
    # t^(1/alpha) self-similarity: same seed, different horizon
    a = sample_increment(p, 1.0, np.random.default_rng(9), 1000)
    b = sample_increment(p, 2.0, np.random.default_rng(9), 1000)
    assert_allclose(b, 2.0 ** (1.0 / 1.5) * a, rtol=1e-12)
    with pytest.raises(DomainError):
        sample_increment(p, 0.0, rng)


def _cms_reference(params, t, rng, size=None):
    """The textbook Chambers-Mallows-Stuck form of the general branch:
    three trig calls and two powers, on the same draws in the same
    order."""
    alpha, rho = params.alpha, params.rho
    b = np.pi * (rho - 0.5)
    v = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    w = rng.standard_exponential(size)
    s = np.sin(alpha * (v + b)) / np.cos(v) ** (1.0 / alpha)
    tail = (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha)
    return t ** (1.0 / alpha) * s * tail


# alpha across (0, 2) on both sides of 1, and both one-sided edges
_CMS_SETS = [(0.2, 0.5), (0.5, 0.3), (0.8, 0.6), (0.999, 0.7), (1.001, 0.4),
             (1.5, 0.6), (1.9, 0.52), (1.5, 1 / 1.5), (1.5, 1 - 1 / 1.5)]


@pytest.mark.parametrize("alpha, rho", _CMS_SETS)
def test_sampler_matches_the_textbook_form(alpha, rho):
    p = StableParams(alpha, rho)
    want = _cms_reference(p, 0.3, np.random.default_rng(21), 200_000)
    got = sample_increment(p, 0.3, np.random.default_rng(21), 200_000)
    assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha, rho", [(1.5, 0.6), (0.8, 0.5),
                                        (1.5, 1 / 1.5)])
def test_paths_match_the_textbook_form(monkeypatch, alpha, rho):
    # one block: the same survivors and the same histogram, path by path
    p = StableParams(alpha, rho)
    cfg = PathConfig(n_paths=8192, dt=1e-2, horizon=1.0, seed=3)
    bins = np.linspace(0.0, 6.0, 25)

    def run():
        hist = estimate_density(p, 1.0, 1.0, bins, cfg)
        return survival_counts(p, 1.0, 1.0, cfg), [h.value for h in hist]

    got = run()
    monkeypatch.setattr(montecarlo, "sample_increment", _cms_reference)
    assert run() == got


class _EndpointRng:
    """Draws v at both ends of uniform's range and w = 1e-300."""

    def uniform(self, low, high, size):
        return np.array([low, high])

    def standard_exponential(self, size):
        return np.full(size, 1e-300)


@pytest.mark.parametrize("alpha, rho", _CMS_SETS)
def test_sampler_at_the_ends_of_its_draws(alpha, rho):
    p = StableParams(alpha, rho)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        want = _cms_reference(p, 1.0, _EndpointRng(), 2)
    if alpha < 0.8:
        # the exact draw lies past the double range: an inf, with a warning
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = sample_increment(p, 1.0, _EndpointRng(), 2)
    else:
        got = sample_increment(p, 1.0, _EndpointRng(), 2)
        assert np.all(np.isfinite(got))
    assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha, rho", [(2.0, 0.5), (1.0, 0.7), (0.5, 0.3),
                                        (1.5, 0.6)])
def test_sampler_without_size_draws_one_float(alpha, rho):
    p = StableParams(alpha, rho)
    x = sample_increment(p, 1.0, np.random.default_rng(8))
    assert isinstance(x, float) and np.isfinite(x)
    assert x == sample_increment(p, 1.0, np.random.default_rng(8), 1)[0]


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_sampler_refuses_a_non_finite_time(t):
    with pytest.raises(DomainError, match="t must be"):
        sample_increment(StableParams(1.5, 0.6), t, np.random.default_rng(8))
