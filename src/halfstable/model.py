"""Parametrization of strictly stable processes and related bookkeeping.

The process is normalized through its exponent: E exp(i z X_t) =
exp(-t Psi(z)) with

    Psi(z) = |z|^alpha exp(pi i alpha (1/2 - rho) sign z),

where rho = P(X_1 > 0) is the positivity parameter.  Admissible pairs:
alpha in (0, 1] with rho in (0, 1), and alpha in (1, 2] with rho in
[1 - 1/alpha, 1/alpha] (the endpoints are the spectrally one-sided
processes; alpha = 2 forces rho = 1/2).  Under this normalization the
jump density is c_plus x^(-1-alpha) for x > 0 and c_minus |x|^(-1-alpha)
for x < 0 with c_plus = Gamma(1+alpha) sin(pi alpha rho) / pi and
c_minus the same with rho_hat = 1 - rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gamma as _gamma

import numpy as np

from .errors import DomainError
from .numerics import vectorized

DONEY_TOL = 1e-12


def _as_value(x):
    """Accept floats, ints, Fractions and exact rational strings."""
    if isinstance(x, str):
        return float(Fraction(x))
    if isinstance(x, Fraction):
        return float(x)
    return float(x)


@dataclass(frozen=True)
class StableParams:
    alpha: float
    rho: float
    rho_hat: float = field(init=False)
    c_plus: float = field(init=False)
    c_minus: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_value(self.alpha))
        object.__setattr__(self, "rho", _as_value(self.rho))
        a, r = self.alpha, self.rho
        if not (0.0 < a <= 2.0):
            raise DomainError(f"alpha={a} outside (0, 2]")
        if a <= 1.0:
            if not (0.0 < r < 1.0):
                raise DomainError(
                    f"rho={r} outside (0, 1) for alpha={a} <= 1")
        else:
            lo, hi = 1.0 - 1.0 / a, 1.0 / a
            if not (lo - 1e-15 <= r <= hi + 1e-15):
                raise DomainError(
                    f"rho={r} outside [{lo}, {hi}] for alpha={a}")
        object.__setattr__(self, "rho_hat", 1.0 - r)
        object.__setattr__(
            self, "c_plus", _gamma(1.0 + a) * np.sin(np.pi * a * r) / np.pi)
        object.__setattr__(
            self, "c_minus",
            _gamma(1.0 + a) * np.sin(np.pi * a * self.rho_hat) / np.pi)

    def dual(self) -> "StableParams":
        """Parameters of the negated process (rho and rho_hat swapped)."""
        return StableParams(self.alpha, self.rho_hat)


@dataclass(frozen=True)
class DoneyClass:
    k: int
    l: int
    residual: float


@dataclass(frozen=True)
class OneSidedMode:
    side: str  # "spectrally_negative" or "spectrally_positive"

    def __post_init__(self):
        if self.side not in ("spectrally_negative", "spectrally_positive"):
            raise DomainError(f"unknown side {self.side!r}")


def _coerce_params(params):
    if isinstance(params, StableParams):
        return params.alpha, params.rho
    try:
        alpha, rho = params
    except TypeError:
        raise DomainError(
            "expected StableParams or an (alpha, rho) pair") from None
    return _as_value(alpha), _as_value(rho)


@vectorized("z")
def psi(params, z):
    """Characteristic exponent at real z; vectorized, Psi(-z) = conj Psi(z)."""
    alpha, rho = _coerce_params(params)
    phase = np.pi * alpha * (0.5 - rho) * np.sign(z)
    return np.abs(z) ** alpha * np.exp(1j * phase)


@vectorized("x")
def levy_density(params, x):
    """Jump measure density; two-sided power law.

    Not defined at 0; alpha = 1 is refused because the strictly stable
    normalization there carries a drift term that the pure power law
    does not capture.
    """
    alpha, rho = _coerce_params(params)
    p = params if isinstance(params, StableParams) else StableParams(alpha,
                                                                     rho)
    if alpha == 1.0:
        raise DomainError("jump density not exposed at alpha = 1")
    if np.any(x == 0):
        raise DomainError("jump density undefined at x = 0")
    return np.where(x > 0, p.c_plus, p.c_minus) * np.abs(x) ** (-1.0 - alpha)


def one_sided_mode(params):
    """Detect spectral one-sidedness (alpha in (1,2) boundary cases)."""
    alpha, rho = _coerce_params(params)
    if not (1.0 < alpha < 2.0):
        return None
    if abs(alpha * rho - 1.0) < 1e-14:
        return OneSidedMode("spectrally_negative")
    if abs(alpha * (1.0 - rho) - 1.0) < 1e-14:
        return OneSidedMode("spectrally_positive")
    return None


def detect_doney(params, tol=DONEY_TOL, k_max=8):
    """Find integers (k, l) with alpha rho = l - k alpha, if any.

    Scans k = 0, 1, -1, 2, -2, ... up to k_max; for each k the only
    candidate l is the nearest integer to alpha rho + k alpha.  Ties at
    equal |k| are broken by smaller |l|.  Returns a DoneyClass or None.
    """
    alpha, rho = _coerce_params(params)
    target = alpha * rho
    best = None
    for kk in range(0, k_max + 1):
        candidates = []
        for k in ({0} if kk == 0 else (kk, -kk)):
            val = target + k * alpha
            l = int(round(val))
            res = abs(val - l)
            if res <= tol:
                candidates.append((abs(l), k, l, res))
        if candidates:
            candidates.sort()
            _, k, l, res = candidates[0]
            best = DoneyClass(k=k, l=l, residual=res)
            break
    return best


def sample_increment(params, t, rng, size=None):
    """Draw X_t (an increment of length t) exactly.

    alpha = 2: Gaussian with variance 2t.  alpha = 1: the Cauchy-with-
    drift representation sin(pi rho) Z_t - cos(pi rho) t.  Otherwise the
    Chambers-Mallows-Stuck transform with skew angle B = pi (rho - 1/2),
    scaled by t^(1/alpha).
    """
    alpha, rho = _coerce_params(params)
    if t <= 0:
        raise DomainError(f"t must be positive, got {t}")
    if alpha == 2.0:
        return np.sqrt(2.0 * t) * rng.standard_normal(size)
    if alpha == 1.0:
        v = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
        return t * (np.sin(np.pi * rho) * np.tan(v) - np.cos(np.pi * rho))
    b = np.pi * (rho - 0.5)
    v = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    w = rng.standard_exponential(size)
    s = np.sin(alpha * (v + b)) / np.cos(v) ** (1.0 / alpha)
    tail = (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha)
    return t ** (1.0 / alpha) * s * tail
