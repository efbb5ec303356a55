"""The scalar/array rule of the vectorized entry points.

A 0-d input (a Python float, a NumPy scalar or a 0-d array) gets a
Python float or complex back; a list or a 1-d array gets an ndarray of
the same length.
"""

import numpy as np
import pytest

from halfstable import StableParams
from halfstable.doublesine import log_s2, s2, s2_abs_squared_on_ray
from halfstable.eigenfunctions import EigenFn, f_eigen
from halfstable.model import levy_density, psi
from halfstable.profiles import ray_profile
from halfstable.spectral import (TestFunction, pi_transform,
                                 transition_density)
from halfstable.wienerhopf import (mu_density, rotated_sup_density,
                                   sup_density)

P = StableParams(1.5, 0.5)
U = TestFunction.power_tower()

CASES = {
    "psi": (lambda v: psi(P, v), complex),
    "levy_density": (lambda v: levy_density(P, v), float),
    "log_s2": (lambda v: log_s2(v, 1.5), complex),
    "s2": (lambda v: s2(v, 1.5), complex),
    "s2_abs_squared_on_ray":
        (lambda v: s2_abs_squared_on_ray(1.2, 0.0, v, 1.5), float),
    "RayProfile.laplace":
        (lambda v: ray_profile(1.5, 1.2, 0.0).laplace(v), float),
    "f_eigen": (lambda v: f_eigen(EigenFn(P), v), float),
    "mu_density": (lambda v: mu_density(P, v), float),
    "sup_density": (lambda v: sup_density(P, v), float),
    "rotated_sup_density": (lambda v: rotated_sup_density(P, v), complex),
    "transition_density":
        (lambda v: transition_density(P, 1.0, v, 1.0), float),
    "pi_transform": (lambda v: pi_transform(P, U, v), float),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scalar_in_scalar_out(name):
    f, kind = CASES[name]
    for v in (1.0, np.float64(1.0), np.array(1.0)):
        one = f(v)
        assert type(one) is kind, (type(v), type(one))
    for v in ([1.0, 2.0], np.array([1.0, 2.0])):
        out = f(v)
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        # the spectral grids depend on the largest argument
        assert out[0] == pytest.approx(one, rel=1e-6)
