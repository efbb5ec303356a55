"""Ray profiles: the exact small-x branch of the Laplace transform."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfstable import StableParams
from halfstable.eigenfunctions import _g_profile


@pytest.mark.parametrize("alpha", [0.5, 1.2, 1.5, 2.0])
@pytest.mark.parametrize("deriv", [0, 1])
def test_series_branch_matches_grid_dot(alpha, deriv):
    prof = _g_profile(StableParams(alpha, 0.5))
    # G'(0) diverges, so deriv 1 stays off x = 0
    x = np.array([0.0, 1e-30, 1e-20, 1e-13, 5e-12][deriv:])
    assert np.all(x * prof.z_hi <= 1e-3)  # all on the series branch
    zw = prof.w * prof.vals * (1.0 if deriv == 0 else -prof.z)
    grid_dot = np.exp(-np.outer(x, prof.z)) @ zw \
        + prof._low_tail(x, deriv) + prof._high_tail(x, deriv)
    assert_allclose(prof.laplace(x, deriv=deriv), grid_dot, rtol=1e-15)


@pytest.mark.parametrize("alpha,rho", [(0.5, 0.5), (0.6, 0.9), (1.5, 0.55),
                                       (2.0, 0.5)])
@pytest.mark.parametrize("deriv", [0, 1])
def test_laplace_finite_at_tiny_x(alpha, rho, deriv):
    # x^-(alpha+1+deriv) overflows below x ~ 1e-123 while the lower
    # incomplete gamma underflows; the low tail must not turn that into nan
    prof = _g_profile(StableParams(alpha, rho))
    x = np.array([1e-300, 1e-200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = prof.laplace(x, deriv=deriv)
    assert np.all(np.isfinite(vals))
    # G(0) - G(x) ~ x^(alpha rho_hat)/(alpha rho_hat), which is still
    # 5.6e-13 relative at x = 1e-200 for alpha rho_hat = 0.06
    if deriv == 0 and alpha * (1.0 - rho) >= 0.1:
        assert_allclose(vals, prof.laplace(0.0), rtol=1e-15)
