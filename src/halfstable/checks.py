"""The identity suite behind ``halfstable verify``.

``run_suite(params, quick)`` checks the closed forms the package rests
on (double sine values and functional equations, the Wiener-Hopf
factorization, the supremum normalization, the eigenfunction transforms,
survival scaling) and returns one ``CheckRecord`` per check, in a fixed
order.  A check is ok when its residual is at most its tolerance; one
outside the regime it needs is skipped and names the regime; one that
raises a ``HalfstableError`` is a FAIL that names the error, and the
suite goes on.  ``quick`` leaves out the two double-quadrature checks.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import HalfstableError
from .model import StableParams


@dataclass(frozen=True)
class CheckRecord:
    """status is "ok", "FAIL" or "skipped"; residual is None where none
    was computed, tol None for a skip; reason is a skip's regime or
    "<ErrorClass>: <message>" for a check that raised."""
    name: str
    status: str
    residual: Optional[float]
    tol: Optional[float]
    reason: str = ""


def run_suite(params: StableParams,
              quick: bool = False) -> list[CheckRecord]:
    """The record of every check at params, in verify's order."""
    return [_run(*check) for check in _checks(params, quick)]


def _run(name, check, tol, regime) -> CheckRecord:
    if regime is not None:
        return CheckRecord(name, "skipped", None, None, regime)
    try:
        residual = float(check())
    except HalfstableError as exc:
        return CheckRecord(name, "FAIL", None, tol,
                           f"{type(exc).__name__}: {exc}")
    return CheckRecord(name, "ok" if residual <= tol else "FAIL", residual,
                       tol)


def _checks(p, quick):
    """(name, check, tol, regime) per check; check returns the residual,
    and regime is None where the check applies, else what it needs."""
    from .doublesine import s2, tau_binomial_check
    from .eigenfunctions import (EigenFn, f_eigen, laplace_f,
                                 laplace_f_quadrature, mellin_f,
                                 mellin_f_quadrature, verify_lucky_integral)
    from .numerics import (IntegrandProfile, integrate_interval,
                           integrate_semi_infinite)
    from .spectral import (SpectralConfig, TestFunction, pi_round_trip,
                           survival, transition_density)
    from .wienerhopf import (WhFactor, factorization_residual, phi,
                             rotated_sup_density, sup_density)

    alpha, rho = p.alpha, p.rho
    one_sided = ("degenerate one-sided law"
                 if abs(alpha * rho - 1.0) < 1e-9 else None)
    z = 0.37 + 0.21j
    zs = np.geomspace(0.1, 10.0, 7)
    prof = IntegrandProfile(decay="power", rate=-(1.0 + alpha),
                            singularity=alpha * rho - 1.0)
    fn = EigenFn(p)

    def rotated():
        fn_d = EigenFn(p, direction="dual")
        lhs = rotated_sup_density(p, 1.0)
        coef = 2.0 / np.sqrt(alpha) * s2(1.0 + alpha * rho, alpha)
        rhs = coef * (f_eigen(fn_d, 1.0) + np.exp(1j * np.pi * rho)
                      * f_eigen(fn_d, 1.0, deriv=1))
        return abs(lhs - rhs)

    def mellin():
        zm = complex(-0.3 * alpha * p.rho_hat, 0.4)
        mel = mellin_f(fn, zm)
        return abs(mel - mellin_f_quadrature(fn, zm).value) / abs(mel)

    checks = [
        ("s2 value at 1", lambda: abs(s2(1.0, alpha) - np.sqrt(alpha))
         / np.sqrt(alpha), 1e-10, None),
        ("s2 value at (1+alpha)/2",
         lambda: abs(s2(0.5 * (1.0 + alpha), alpha) - 1.0), 1e-10, None),
        ("s2 shift by 1",
         lambda: abs(s2(z + 1.0, alpha) * 2.0 * np.sin(np.pi * z / alpha)
                     / s2(z, alpha) - 1.0), 1e-9, None),
        ("s2 shift by alpha",
         lambda: abs(s2(z + alpha, alpha) * 2.0 * np.sin(np.pi * z)
                     / s2(z, alpha) - 1.0), 1e-9, None),
        ("s2 reflection",
         lambda: abs(s2(z, alpha) * s2(1.0 + alpha - z, alpha) - 1.0),
         1e-9, None),
        ("two-sided profile integral",
         lambda: tau_binomial_check(0.6, 0.0, 1.3), 1e-8, None),
        ("wiener-hopf factorization",
         lambda: max(max(factorization_residual(p, z),
                         factorization_residual(p, -z)) for z in zs),
         1e-8, None),
        ("supremum normalization",
         lambda: abs(integrate_semi_infinite(
             lambda x: sup_density(p, x), prof, tol=1e-9).value - 1.0),
         1e-6, one_sided),
        ("laplace consistency",
         lambda: abs(integrate_semi_infinite(
             lambda x: np.exp(-x) * sup_density(p, x), prof,
             tol=1e-9).value - phi(WhFactor(p), 1.0)), 1e-6, one_sided),
        ("rotated-ray supremum density", rotated, 1e-5, one_sided),
        ("lucky integral", lambda: verify_lucky_integral(p, 1.0, 1.5), 1e-5,
         one_sided or (None if alpha > 1.0 or abs(rho - 0.5) <= 1e-12
                       else "needs alpha > 1 or rho = 1/2")),
        ("eigenfunction laplace transform",
         lambda: abs(laplace_f(fn, 1.1)
                     - laplace_f_quadrature(fn, 1.1).value), 1e-6, None),
        ("eigenfunction mellin transform", mellin, 1e-5,
         None if rho >= 0.5 else "needs rho >= 1/2"),
        ("survival scaling",
         lambda: abs(survival(p, 2.0, 1.0) - survival(p, 1.0, 2.0 ** -alpha)),
         1e-8, None),
    ]
    if alpha == 2.0:
        from scipy.special import erf
        checks.append(("brownian survival",
                       lambda: abs(survival(p, 1.0, 1.0) - erf(0.5)), 1e-6,
                       None))
    if quick:
        return checks
    u = TestFunction.power_tower()
    # When the dual kernel grows, the density is only spectrally
    # resolvable while the integrand's peak exponent stays within
    # double-precision cancellation; cut there and fit the power tail
    # from two probes just inside the cut.
    grow = max(np.cos(np.pi * p.rho_hat), 0.0)
    y_cut = 60.0
    if grow > 1e-12 and alpha > 1.0:
        c_amp = (alpha ** (-1.0 / (alpha - 1.0))
                 - alpha ** (-alpha / (alpha - 1.0)))
        y_cut = min(60.0, (18.0 / c_amp) ** (1.0 - 1.0 / alpha) / grow)

    def marginal():
        s = survival(p, 1.0, 1.0)
        cfg = SpectralConfig(tol=1e-6)
        head = integrate_interval(
            lambda y: transition_density(p, 1.0, y, 1.0, cfg),
            1e-8, y_cut, tol=1e-8, frequency=3.0)
        y1 = 5.0 * y_cut / 6.0
        p1 = transition_density(p, 1.0, y1, 1.0, cfg)
        p2 = transition_density(p, 1.0, y_cut, 1.0, cfg)
        if p1 > p2 > 1e-200:
            expo = np.log(p1 / p2) / np.log(y_cut / y1)
            tail = p2 * y_cut / (expo - 1.0)
        else:
            tail = 0.0  # Gaussian case: no power tail left to add
        return abs(head.value + tail - s)

    return checks + [
        ("transform inversion",
         lambda: abs(pi_round_trip(p, u, 1.0) - u(1.0)), 1e-4,
         None if rho >= 0.5 else "needs rho >= 1/2"),
        ("density marginal vs survival", marginal,
         1e-4 if y_cut >= 59.0 else 1e-3,
         None if alpha > 1.0 or abs(rho - 0.5) < 1e-12
         else "outside density regime"),
    ]
