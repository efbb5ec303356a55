"""Killed stable processes on the half-line.

Double sine function, Wiener-Hopf extremum densities, eigenfunctions of
the killed semigroup, the generalized sine-transform pair, survival and
transition densities, and a Monte Carlo path oracle for cross-checks.
"""

import os as _os

# Honored only if set before numpy first loads, which is why it is
# handled here rather than in the CLI.
_threads = _os.environ.get("HALFSTABLE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

__version__ = "0.1.0"

from .errors import (BudgetExceeded, DivisionByZero, DomainError,
                     HalfstableError, NonConvergence, NotIntegrable,
                     PoleProximity)
from .model import (DoneyClass, OneSidedMode, StableParams, detect_doney,
                    levy_density, one_sided_mode, psi, sample_increment)
from .doublesine import (SurfacePoint, log_s2, q_pochhammer, s2,
                         s2_abs_squared_on_ray, s2_shift_ratio,
                         tau_binomial_check)
from .wienerhopf import (WhFactor, factorization_residual, h_q_density,
                         inf_density, mu_density, mu_on_surface, mu_residue,
                         phi, resolvent_density, rotated_sup_density,
                         sup_density)
from .eigenfunctions import (EigenFn, doney_g, doney_integrand,
                             doney_laplace_f, doney_mellin_f, f_eigen,
                             g_func, laplace_f, laplace_f_quadrature,
                             mellin_f, mellin_f_continued,
                             mellin_f_quadrature, verify_lucky_integral)
from .spectral import (SpectralConfig, TestFunction, eigen_check,
                       pi_hat_transform, pi_round_trip, pi_transform,
                       semigroup_apply, survival, transition_density)
from .montecarlo import (McEstimate, PathConfig, estimate_density,
                         estimate_positivity, estimate_survival,
                         exact_survival, survival_counts)

__all__ = [
    "BudgetExceeded", "DivisionByZero", "DomainError", "HalfstableError",
    "NonConvergence", "NotIntegrable", "PoleProximity",
    "DoneyClass", "OneSidedMode", "StableParams", "detect_doney",
    "levy_density", "one_sided_mode", "psi", "sample_increment",
    "SurfacePoint", "log_s2", "q_pochhammer", "s2", "s2_abs_squared_on_ray",
    "s2_shift_ratio", "tau_binomial_check",
    "WhFactor", "factorization_residual", "h_q_density", "inf_density",
    "mu_density", "mu_on_surface", "mu_residue", "phi", "resolvent_density",
    "rotated_sup_density", "sup_density",
    "EigenFn", "doney_g", "doney_integrand", "doney_laplace_f",
    "doney_mellin_f", "f_eigen", "g_func", "laplace_f",
    "laplace_f_quadrature", "mellin_f", "mellin_f_continued",
    "mellin_f_quadrature", "verify_lucky_integral",
    "SpectralConfig", "TestFunction", "eigen_check", "pi_hat_transform",
    "pi_round_trip", "pi_transform", "semigroup_apply", "survival",
    "transition_density",
    "McEstimate", "PathConfig", "estimate_density", "estimate_positivity",
    "estimate_survival", "exact_survival", "survival_counts",
    "__version__",
]
