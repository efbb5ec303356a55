"""Ray profiles: the exact small-x branch of the Laplace transform."""

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
