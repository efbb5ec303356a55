"""Exception types shared across the package, and one check that uses them."""

import numpy as np


class HalfstableError(Exception):
    """Base class for everything raised deliberately by this package."""


class DomainError(HalfstableError, ValueError):
    """Input lies outside the mathematical domain of the requested quantity.

    Examples: parameters outside the admissible set, evaluation points
    outside a strip of analyticity, or a formula requested in a regime
    where it degenerates.
    """


class PoleProximity(DomainError):
    """Evaluation point is too close to a pole to return a finite value."""


class DivisionByZero(HalfstableError, ZeroDivisionError):
    """A denominator in a closed-form expression vanished exactly."""


class NotIntegrable(HalfstableError, ValueError):
    """The declared integrand profile implies a divergent integral."""


class NonConvergence(HalfstableError, RuntimeError):
    """A quadrature or iteration failed to reach its accuracy target."""


class BudgetExceeded(HalfstableError, RuntimeError):
    """A simulation or computation would exceed its configured budget."""


def _require_positive(**args):
    """DomainError naming the first argument with an entry that is not a
    positive finite number: "x must be positive and finite, got nan"."""
    for name, value in args.items():
        value = np.asarray(value, dtype=float)
        bad = value[~((value > 0.0) & (value < np.inf))]
        if bad.size:
            raise DomainError(
                f"{name} must be positive and finite, got {bad[0]:g}")
