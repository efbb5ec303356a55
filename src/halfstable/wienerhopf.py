"""Space Wiener-Hopf factor, excursion measure density, supremum density.

For the process killed at an independent unit-rate exponential time, the
law of the running maximum has Laplace transform phi(z) (the supremum
factor); the running minimum gives the dual (infimum) factor.
Everything here rests on two explicit objects:

* phi(z) = z^(-alpha rho / 2) s2(A + w) s2(A - w) with
  A = 1/2 + alpha/2 + alpha rho / 2 and w = i alpha log(z) / (2 pi),
  analytic in the sector |arg z| < pi (1/alpha + rho_hat), and

* the density mu of the exponential mixture representing the supremum:

      f_sup(x) = int_0^inf e^(-x u) mu(u) du,
      mu(u) = (sin(pi alpha rho)/pi) u^(alpha rho_hat / 2)
              |s2(1/2 + alpha + alpha rho/2 + i alpha log(u)/(2 pi))|^2,

  with mu(u) ~ (sin(pi alpha rho)/pi) u^alpha at 0 and ~ ... u^(-alpha
  rho) at infinity.  In the spectrally negative case alpha rho = 1 the
  mixture degenerates to a unit atom and f_sup(x) = e^-x exactly (this
  includes alpha = 2).

The continuation of mu across the rotated ray arg u = -pi/alpha picks
up a residue from the pole pair at e^(+-i pi (1/alpha - rho)), giving

    e^(i pi/alpha) f_sup(e^(i pi/alpha) x) =
        -i (s2(alpha rho)/sqrt(alpha))
            exp(-x e^(i pi rho) + i pi alpha rho rho_hat / 2
                + 3 i pi rho / 2)
        - (sin(pi alpha rho)/pi) (e^(i pi rho) Ghat'(x) + Ghat(x)),

where Ghat is the G profile of the dual parameters (rho and rho_hat
swapped; see ``eigenfunctions``): the continued measure is
(sin(pi alpha rho)/pi) (e^(i pi rho) z - 1) times Ghat's ray weight
z^(alpha rho_hat/2 - 1/2) |s2(1 + alpha + alpha rho/2 + i alpha
log(z)/(2 pi))|^2.  That is what ``rotated_sup_density`` evaluates
(the direct left-hand side would require f_sup at complex arguments
where the defining integral no longer converges), from the same
cached profile that serves the co-eigenfunction F_hat.
``resolvent_density`` assembles the q-resolvent of the process killed
at first exit from (0, inf) out of the two rescaled extremum densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doublesine import SurfacePoint, log_s2, s2, s2_abs_squared_on_ray
from .errors import DomainError
from .model import StableParams, psi
from .numerics import panel_nodes, vectorized
from .profiles import ray_profile

_ATOM_EPS = 1e-14  # |alpha rho - 1| below this means a degenerate mixture


@dataclass(frozen=True)
class WhFactor:
    """One of the two spatial Wiener-Hopf factors.

    direction "supremum" is the factor of the running maximum (uses
    rho), "infimum" the one of the running minimum, which is the same
    formula at the dual parameters (rho_hat in place of rho).
    """

    params: StableParams
    direction: str = "supremum"

    def __post_init__(self):
        if self.direction not in ("supremum", "infimum"):
            raise DomainError(f"direction must be supremum/infimum, "
                              f"got {self.direction!r}")

    @property
    def rho_eff(self) -> float:
        return self.params.rho if self.direction == "supremum" \
            else self.params.rho_hat


def _surface_log(z, sector_halfwidth):
    """Log of the evaluation point, enforcing the sector of analyticity."""
    if isinstance(z, SurfacePoint):
        lg = z.log
    else:
        z = complex(z)
        if z == 0:
            raise DomainError("phi is not defined at z = 0")
        if z.real < 0 and z.imag == 0:
            raise DomainError(
                "negative real axis is ambiguous; pass a SurfacePoint")
        lg = complex(np.log(abs(z)), np.angle(z))
    if abs(lg.imag) >= sector_halfwidth:
        raise DomainError(
            f"|arg z| = {abs(lg.imag):.6f} outside the sector of "
            f"analyticity (< {sector_halfwidth:.6f})")
    return lg


def phi(factor: WhFactor, z):
    """Laplace transform of the appropriate extremum at unit killing rate.

    Accepts complex z (principal argument) or a SurfacePoint; the sector
    of analyticity is |arg z| < pi (1/alpha + 1 - rho_eff).  phi(0+) = 1
    and for alpha = 2 (Brownian case) phi(z) = 1/(1 + z).
    """
    p = factor.params
    alpha, r = p.alpha, factor.rho_eff
    lg = _surface_log(z, np.pi * (1.0 / alpha + 1.0 - r))
    w = 1j * alpha * lg / (2.0 * np.pi)
    big_a = 0.5 + 0.5 * alpha + 0.5 * alpha * r
    val = np.exp(-0.5 * alpha * r * lg
                 + log_s2(big_a + w, alpha) + log_s2(big_a - w, alpha))
    return complex(val)


def factorization_residual(params: StableParams, z) -> float:
    """|phi(-iz) phi_hat(iz) (1 + Psi(z)) - 1| for real z != 0.

    The product reconstructs the resolvent of the free process at unit
    killing rate, so the residual is pure numerical error.
    """
    z = float(z)
    if z == 0.0:
        raise DomainError("z must be nonzero")
    val = (phi(WhFactor(params, "supremum"), -1j * z)
           * phi(WhFactor(params, "infimum"), 1j * z)
           * (1.0 + psi(params, z)))
    return abs(val - 1.0)


def _require_mixture(p: StableParams):
    if abs(p.alpha * p.rho - 1.0) < _ATOM_EPS:
        raise DomainError(
            "spectrally negative case: the supremum mixture degenerates "
            "to a unit atom (the density is exp(-x)); no density exists")


@vectorized("u")
def mu_density(params: StableParams, u):
    """Mixing density of the supremum's exponential representation.

    Positive on (0, inf); vectorized over u.  Undefined in the
    degenerate (spectrally negative / Brownian) case.
    """
    _require_mixture(params)
    alpha, r, rh = params.alpha, params.rho, params.rho_hat
    if np.any(u <= 0):
        raise DomainError("u must be positive")
    pair = s2_abs_squared_on_ray(0.5 + alpha + 0.5 * alpha * r, 0.0, u,
                                 alpha)
    return (np.sin(np.pi * alpha * r) / np.pi) * u ** (0.5 * alpha * rh) \
        * pair


def mu_on_surface(params: StableParams, point: SurfacePoint):
    """Analytic continuation of mu off the positive axis.

    The two double sine factors are evaluated separately since they are
    no longer conjugate.  Near arg u = +-pi(1/alpha - rho) one factor
    passes the simple pole at 1 + alpha: that is the pole pair whose
    residues feed the rotated representation.
    """
    _require_mixture(params)
    alpha, r, rh = params.alpha, params.rho, params.rho_hat
    lg = point.log
    w = 1j * alpha * lg / (2.0 * np.pi)
    a0 = 0.5 + alpha + 0.5 * alpha * r
    val = s2(a0 + w, alpha) * s2(a0 - w, alpha)
    return (np.sin(np.pi * alpha * r) / np.pi) \
        * np.exp(0.5 * alpha * rh * lg) * val


def mu_residue(params: StableParams, sign=+1):
    """Closed-form residue of mu at e^(sign * i pi (1/alpha - rho))."""
    _require_mixture(params)
    alpha, r, rh = params.alpha, params.rho, params.rho_hat
    mag = s2(alpha * r, alpha) / (2.0 * np.pi * np.sqrt(alpha))
    phase = -sign * 1j * np.pi * (0.5 * alpha * r * rh + 1.5 * r
                                  - 1.0 / alpha)
    return mag * np.exp(phase)


def _mu_profile(params: StableParams):
    return ray_profile(params.alpha,
                       0.5 + params.alpha + 0.5 * params.alpha * params.rho,
                       0.5 * params.alpha * params.rho_hat)


@vectorized("x")
def sup_density(params: StableParams, x):
    """Density of the supremum at an exponential time, on (0, inf).

    Spectrally negative (including Brownian) collapses to e^-x; in all
    other cases the mu-mixture is integrated against e^(-x u).
    Vectorized over x >= 0; at 0 the value is the (possibly infinite)
    limit; for alpha rho < 1 it behaves like x^(alpha rho - 1).
    """
    alpha, r = params.alpha, params.rho
    if np.any(x < 0):
        raise DomainError("x must be >= 0")
    if abs(alpha * r - 1.0) < _ATOM_EPS:
        return np.exp(-x)
    return (np.sin(np.pi * alpha * r) / np.pi) \
        * _mu_profile(params).laplace(x)


def inf_density(params: StableParams, x):
    """Density of minus the infimum at an exponential time."""
    return sup_density(params.dual(), x)


@vectorized("x")
def rotated_sup_density(params: StableParams, x, sign=+1):
    """e^(sign i pi/alpha) f_sup(e^(sign i pi/alpha) x) for x > 0, via
    the residue term plus the integral term -c (e^(sign i pi rho)
    Ghat'(x) + Ghat(x)), c = sin(pi alpha rho)/pi, with Ghat the G
    profile of the dual parameters, as in the module docstring (sign =
    -1 mirrors every phase, so the result is the Schwarz reflection of
    the sign = +1 value).

    Valid for x in (0, 50]; beyond that the cancellation between the
    oscillatory residue term and the integral term erodes accuracy.
    Vectorized over x.  For the spectrally negative / Brownian cases the
    integral term vanishes identically and only the residue term
    remains.
    """
    alpha, r, rh = params.alpha, params.rho, params.rho_hat
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if np.any(x <= 0):
        raise DomainError("x must be positive")
    if np.any(x > 50.0):
        raise DomainError("rotated representation supported for x <= 50")

    res_coef = -sign * 1j * (s2(alpha * r, alpha) / np.sqrt(alpha)) \
        * np.exp(sign * 1j * np.pi * (0.5 * alpha * r * rh + 1.5 * r))
    rot = np.exp(sign * 1j * np.pi * r)
    out = res_coef * np.exp(-x * rot)

    c = np.sin(np.pi * alpha * r) / np.pi
    if abs(c) > 1e-15:
        # imported here: eigenfunctions imports this module
        from .eigenfunctions import _g_profile
        prof = _g_profile(params.dual())
        out -= c * (rot * prof.laplace(x, deriv=1) + prof.laplace(x))
    return out


def h_q_density(params: StableParams, q, x, y, z):
    """Joint building block of the resolvent at rate q > 0.

    q^(2/alpha) f_inf((x - z) q^(1/alpha)) f_sup((y - z) q^(1/alpha)),
    defined for z < min(x, y) with x > 0.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    if x <= 0:
        raise DomainError("x must be positive")
    zz = np.asarray(z, dtype=float)
    if np.any(zz >= min(x, y)):
        raise DomainError("need z < min(x, y)")
    s = q ** (1.0 / params.alpha)
    return q ** (2.0 / params.alpha) \
        * inf_density(params, (np.asarray(x) - zz) * s) \
        * sup_density(params, (np.asarray(y) - zz) * s)


def resolvent_density(params: StableParams, q, x, y):
    """q-resolvent density r_q(x, y) of the process killed at first exit
    from the positive half-line: (1/q) int_0^min(x,y) H_q(x, y, z) dz.

    The integrand is singular at z -> min(x, y) like (min - z)^(g - 1)
    with g = alpha rho_hat (x <= y) or alpha rho (x > y); geometric
    panels toward that endpoint resolve it.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    if x <= 0 or y <= 0:
        raise DomainError("x and y must be positive")
    alpha = params.alpha
    m = min(x, y)
    gexp = alpha * params.rho_hat if x <= y else alpha * params.rho
    if x == y and alpha <= 1.0:
        raise DomainError(
            "resolvent density diverges on the diagonal for alpha <= 1")
    # v = m - z; v in (0, m], singularity v^(gexp-1) at v = 0
    v0 = 1e-13 * m
    edges = np.geomspace(v0, m, 72)
    v, w = panel_nodes(edges, 16)
    vals = h_q_density(params, q, x, y, m - v)
    return float(np.sum(w * vals)) / q
