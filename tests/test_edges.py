"""Survival on the two one-sided edges against closed forms.

On the positive edge, rho = 1 - 1/alpha, X has no negative jumps, so the
first passage below 0 from x is T_x = x^alpha S with S positive stable of
index beta = 1/alpha (E e^(-q S) = e^(-q^beta)), and survival is
P(S > t x^-alpha), from Kanter's integral (Ann. Probab. 3, 1975).  On the
negative edge, rho = 1/alpha, X has no positive jumps, and inverting
E_x e^(-q tau) = Z^(q)(x) - q^(1 - 1/alpha) W^(q)(x) term by term in q
(Kyprianou, Fluctuations of Levy Processes, 2014, ch. 8) gives a series
in r = x t^(-1/alpha), entire for alpha > 1.
"""

import time

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from halfstable import StableParams, survival
from halfstable.spectral import SpectralConfig

_TOL = 1e-8
_ALPHAS = [1.05, 1.2, 1.5, 1.9]


def kanter_survival(alpha, x, t, panels=400, order=20):
    """P(S > s), s = t x^-alpha, as (1/pi) int_0^pi 1 - exp(-A(u)
    s^(-beta/(1-beta))) du, A(u) = sin(beta u)^(beta/(1-beta))
    sin((1-beta) u) / sin(u)^(1/(1-beta)), by Gauss-Legendre panels.
    The exponent is summed in logs: near alpha = 1, beta/(1-beta) is
    large and its powers leave the double range.  Doubling the panels
    moves the value by at most 3e-14 at these points."""
    beta = 1.0 / alpha
    gam = beta / (1.0 - beta)
    nodes, weights = leggauss(order)
    edges = np.linspace(0.0, np.pi, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    u = (mid[:, None] + half[:, None] * nodes).ravel()
    log_a = (gam * np.log(np.sin(beta * u))
             + np.log(np.sin((1.0 - beta) * u))
             - np.log(np.sin(u)) / (1.0 - beta))
    inner = -np.expm1(-np.exp(log_a - gam * np.log(t * x ** -alpha)))
    return float(inner @ (half[:, None] * weights).ravel()) / np.pi


def series_survival(alpha, x, t):
    """sum_k r^(alpha (k+1) - 1) / (Gamma(alpha (k+1)) Gamma(1/alpha - k))
    at 45 digits, until a term falls below 1e-30.  For r <= 1 the ratio
    of successive terms, about r^alpha alpha^-alpha k^(1-alpha), stays
    below 1; near alpha = 1 with r >= 2 the terms grow for ~1e6 terms
    first, so the points below keep r <= 1."""
    with mp.workdps(45):
        a = mp.mpf(alpha)
        r = mp.mpf(x) * mp.mpf(t) ** (-1 / a)
        assert r <= 1
        total, k = mp.mpf(0), 0
        while True:
            term = r ** (a * (k + 1) - 1) * mp.rgamma(a * (k + 1)) \
                * mp.rgamma(1 / a - k)
            total += term
            if abs(term) < 1e-30:
                return float(total)
            k += 1


def test_the_witnesses_give_erf_at_alpha_two():
    # at alpha = 2 both edges are Brownian, survival erf(x / (2 sqrt t)):
    # the series is its Taylor series, and S is the Levy distribution
    want = float(mp.erf(0.35 / mp.sqrt(1.3)))
    assert abs(series_survival(2.0, 0.7, 1.3) - want) <= 1e-15
    assert abs(kanter_survival(2.0, 0.7, 1.3) - want) <= 1e-14


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("x,t", [(1.0, 1.0), (0.5, 3.0), (1.5, 2.0)])
def test_survival_on_the_positive_edge_matches_kanter(alpha, x, t):
    p = StableParams(alpha, 1.0 - 1.0 / alpha)
    got = survival(p, x, t, SpectralConfig(tol=_TOL))
    assert abs(got - kanter_survival(alpha, x, t)) <= _TOL


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("x,t", [(1.0, 1.0), (0.5, 1.0), (0.5, 3.0)])
def test_survival_on_the_negative_edge_matches_the_series(alpha, x, t):
    p = StableParams(alpha, 1.0 / alpha)
    got = survival(p, x, t, SpectralConfig(tol=_TOL))
    assert abs(got - series_survival(alpha, x, t)) <= _TOL


@pytest.mark.parametrize("alpha,rho,x,t", [
    (2.0, 0.5, 1.0, 1e6), (2.0, 0.5, 1.0, 1e10), (2.0, 0.5, 1.0, 1e300),
    (2.0, 0.5, 1e-30, 1.0), (1.5, 1.0 / 1.5, 1e-4, 1.0)])
def test_survival_at_large_tau_is_quick_and_right(alpha, rho, x, t):
    # tau = t x^-alpha from 1e6 to 1e300 puts the whole ray below its cut;
    # sizing its panels by the phase turn would take about 0.02 tau edges
    start = time.perf_counter()
    got = survival(StableParams(alpha, rho), x, t, SpectralConfig(tol=_TOL))
    assert time.perf_counter() - start < 0.5
    want = float(mp.erf(x / (2 * mp.sqrt(t)))) if alpha == 2.0 \
        else series_survival(alpha, x, t)
    assert abs(got - want) <= _TOL
