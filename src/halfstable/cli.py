"""Command-line front end.

One subcommand per public operation plus a `verify` aggregate and a
`simulate` command that prints Monte Carlo and spectral values side by
side.  Tables go to stdout or, with --output, to a file written
atomically (temp file in the target directory, then rename), so an
interrupted run never leaves a half-written artifact.

Exit codes: 0 success, 2 usage, 3 domain error, 4 non-convergence or
budget, 5 verification failure.

Parameters are parsed as rationals ("--rho 3/7") so Doney-class runs
hit their lattice exactly.  CSV cells carry 17 significant digits and
the header echoes the resolved configuration in `#` comment lines.
"""

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import (BudgetExceeded, DomainError, HalfstableError,
                     NonConvergence)

_EXIT_USAGE = 2
_EXIT_DOMAIN = 3
_EXIT_NUMERICS = 4
_EXIT_VERIFY = 5

# what float(Fraction(text)) raises on text that is not a finite number
_NOT_A_NUMBER = (ValueError, ZeroDivisionError, OverflowError)


def _rational(text: str) -> float:
    try:
        return float(Fraction(text))
    except _NOT_A_NUMBER:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")


def _axis(text: str) -> np.ndarray:
    """Comma-separated values; a token lo:hi:n sweeps linearly and
    lo:hi:ng geometrically (count suffixed with g)."""
    vals = []
    for tok in text.split(","):
        if ":" in tok:
            try:
                lo, hi, n = tok.split(":")
                geom = n.endswith("g")
                count = int(n[:-1] if geom else n)
                lo, hi = float(Fraction(lo)), float(Fraction(hi))
            except _NOT_A_NUMBER:
                raise argparse.ArgumentTypeError(
                    f"bad sweep {tok!r}; want lo:hi:n or lo:hi:ng")
            vals.extend(np.geomspace(lo, hi, count) if geom
                        else np.linspace(lo, hi, count))
        else:
            vals.append(_rational(tok))
    return np.asarray(vals, dtype=float)


def _caxis(text: str):
    """Like _axis but each plain token may be complex ("0.5+0.3j")."""
    vals = []
    for tok in text.split(","):
        if ":" in tok:
            vals.extend(_axis(tok))
            continue
        try:
            vals.append(complex(tok))
        except ValueError:
            vals.append(complex(_rational(tok)))
    return vals


def _cell(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_atomic(path, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".halfstable-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(args, command: str, config: dict, header, rows):
    if args.format == "json":
        doc = {"command": command, "config": config,
               "rows": [dict(zip(header, r)) for r in rows]}
        text = json.dumps(doc, default=_cell) + "\n"
    else:
        lines = [f"# halfstable {command} v{__version__}"]
        lines += [f"# {k} = {config[k]}" for k in sorted(config)]
        lines.append(",".join(header))
        lines += [",".join(_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write_atomic(args.output, text)


def _params_of(args):
    from .model import StableParams
    if getattr(args, "one_sided", None):
        if args.rho is not None:
            raise DomainError("give either --rho or --one-sided, not both")
        if args.alpha <= 1.0:
            raise DomainError("one-sided modes need alpha > 1")
        rho = 1.0 / args.alpha if args.one_sided == "negative" \
            else 1.0 - 1.0 / args.alpha
        return StableParams(args.alpha, rho)
    if args.rho is None:
        raise DomainError("--rho is required (or --one-sided)")
    return StableParams(args.alpha, args.rho)


def _base_config(args, p=None) -> dict:
    cfg = {"alpha": f"{args.alpha:.17g}"}
    if p is not None:
        cfg["rho"] = f"{p.rho:.17g}"
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (config, header, rows)

def _complex_rows(f, zs):
    """(z, Re f(z), Im f(z)) rows, one evaluation of f per z."""
    return [(z, v.real, v.imag) for z, v in zip(zs, map(f, zs))]


def _cmd_s2(args):
    from .doublesine import s2
    rows = _complex_rows(lambda z: s2(z, args.alpha), args.z)
    cfg = {"alpha": f"{args.alpha:.17g}", "z": ",".join(map(_cell, args.z))}
    return cfg, ["z", "re", "im"], rows


def _cmd_phi(args):
    from .wienerhopf import WhFactor, phi
    p = _params_of(args)
    factor = WhFactor(p, direction=args.direction)
    rows = _complex_rows(lambda z: phi(factor, z), args.z)
    cfg = _base_config(args, p)
    cfg.update(direction=args.direction, z=",".join(map(_cell, args.z)))
    return cfg, ["z", "re", "im"], rows


def _cmd_eigenfn(args):
    from .eigenfunctions import EigenFn, f_eigen
    p = _params_of(args)
    fn = EigenFn(p, direction=args.direction)
    vals = f_eigen(fn, args.x, deriv=args.deriv)
    cfg = _base_config(args, p)
    cfg.update(direction=args.direction, deriv=args.deriv)
    return cfg, ["x", "value"], list(zip(args.x.tolist(), np.atleast_1d(vals)))


def _cmd_laplace(args):
    from .eigenfunctions import EigenFn, laplace_f
    p = _params_of(args)
    fn = EigenFn(p, direction=args.direction)
    rows = _complex_rows(lambda z: laplace_f(fn, z), args.z)
    cfg = _base_config(args, p)
    cfg.update(direction=args.direction, z=",".join(map(_cell, args.z)))
    return cfg, ["z", "re", "im"], rows


def _cmd_mellin(args):
    from .eigenfunctions import EigenFn, mellin_f
    p = _params_of(args)
    fn = EigenFn(p, direction=args.direction)
    rows = _complex_rows(lambda z: mellin_f(fn, z), args.z)
    cfg = _base_config(args, p)
    cfg.update(direction=args.direction, z=",".join(map(_cell, args.z)))
    return cfg, ["z", "re", "im"], rows


def _cmd_survival(args):
    from .spectral import SpectralConfig, survival
    p = _params_of(args)
    cfg_s = SpectralConfig(tol=args.tol)
    rows = [(x, t, survival(p, x, t, cfg_s))
            for x in args.x for t in args.t]
    cfg = _base_config(args, p)
    cfg.update(tol=f"{args.tol:.3g}")
    return cfg, ["x", "t", "survival"], rows


def _cmd_density(args):
    from .spectral import SpectralConfig, transition_density
    p = _params_of(args)
    cfg_s = SpectralConfig(tol=args.tol)
    rows = []
    for x in args.x:
        for t in args.t:
            vals = transition_density(p, x, args.y, t, cfg_s)
            rows += [(x, y, t, v)
                     for y, v in zip(args.y.tolist(), np.atleast_1d(vals))]
    cfg = _base_config(args, p)
    cfg.update(tol=f"{args.tol:.3g}")
    return cfg, ["x", "y", "t", "density"], rows


def _test_function(spec: str, alpha: float):
    from .spectral import TestFunction
    if spec == "power-tower":
        return TestFunction.power_tower()
    if spec.startswith("stretched:"):
        text = spec.split(":", 1)[1]
        try:
            beta = float(Fraction(text))
        except _NOT_A_NUMBER:
            raise DomainError(f"stretched:<beta> needs a number, got "
                              f"beta = {text!r}") from None
        return TestFunction.stretched_exp(beta, alpha)
    raise DomainError(f"unknown test function {spec!r}; use power-tower "
                      "or stretched:<beta>")


def _cmd_transform(args):
    from .spectral import SpectralConfig, pi_hat_transform, pi_transform
    p = _params_of(args)
    u = _test_function(args.function, p.alpha)
    cfg_s = SpectralConfig(tol=args.tol)
    op = pi_hat_transform if args.dual else pi_transform
    vals = op(p, u, args.lam, cfg_s)
    cfg = _base_config(args, p)
    cfg.update(function=args.function, dual=args.dual, tol=f"{args.tol:.3g}")
    return cfg, ["lam", "value"], list(zip(args.lam.tolist(),
                                           np.atleast_1d(vals)))


def _cmd_resolvent(args):
    from .wienerhopf import resolvent_density
    p = _params_of(args)
    rows = [(q, x, y, resolvent_density(p, q, x, y))
            for q in args.q for x in args.x for y in args.y]
    cfg = _base_config(args, p)
    return cfg, ["q", "x", "y", "resolvent"], rows


def _cmd_doney(args):
    from .eigenfunctions import (doney_g, doney_laplace_f, doney_mellin_f,
                                 g_func, laplace_f, mellin_f_continued,
                                 EigenFn)
    from .model import detect_doney
    p = _params_of(args)
    cls = detect_doney(p)
    if cls is None:
        raise DomainError(
            f"(alpha, rho) = ({p.alpha:.17g}, {p.rho:.17g}) is not on a "
            "product-formula lattice alpha*rho = l - k*alpha")
    fn = EigenFn(p)
    rows = []
    for x in (0.5, 1.0, 2.0):
        rows.append(("G", x, doney_g(p, x, cls), float(g_func(p, x))))
    for z in (0.7, 1.3):
        rows.append(("laplace", z, doney_laplace_f(p, z, cls).real,
                     laplace_f(fn, z).real))
    for z in (-0.2, -0.35):
        rows.append(("mellin", z, abs(doney_mellin_f(p, z, cls)),
                     abs(mellin_f_continued(p, z))))
    cfg = _base_config(args, p)
    cfg.update(k=cls.k, l=cls.l)
    rows = [(kind, pt, a, b, abs(a - b)) for kind, pt, a, b in rows]
    return cfg, ["quantity", "point", "product_form", "generic", "diff"], rows


def _cmd_simulate(args):
    from .montecarlo import PathConfig, estimate_survival, richardson_survival
    from .spectral import survival
    p = _params_of(args)
    spectral = survival(p, args.x, args.t)
    lines = []
    base = {"alpha": p.alpha, "rho": p.rho, "x": args.x, "t": args.t,
            "n_paths": args.n_paths, "seed": args.seed}
    for dt in args.dt:
        est = estimate_survival(p, args.x, args.t, PathConfig(
            n_paths=args.n_paths, dt=dt, horizon=args.t, seed=args.seed))
        rec = dict(base, kind="survival", dt=dt, mc=est.value,
                   std_error=est.std_error, n_effective=est.n_effective,
                   bias_note=est.bias_note, spectral=spectral)
        lines.append(json.dumps(rec))
    if len(args.dt) == 2:
        ext = richardson_survival(p, args.x, args.t, args.n_paths,
                                  tuple(args.dt), args.seed)
        rec = dict(base, kind="survival-extrapolated",
                   dt=",".join(f"{d:g}" for d in args.dt), mc=ext.value,
                   std_error=ext.std_error, n_effective=ext.n_effective,
                   bias_note=ext.bias_note, spectral=spectral)
        lines.append(json.dumps(rec))
    _write_atomic(args.output, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verify

def _verify_checks(p, quick: bool):
    """Yield (name, check, tolerance) tuples.  check is a callable that
    returns the residual, or the string "skipped: ..." when a regime
    guard applies."""
    import numpy as np
    from .doublesine import s2, tau_binomial_check
    from .eigenfunctions import (EigenFn, f_eigen, laplace_f,
                                 laplace_f_quadrature, mellin_f,
                                 mellin_f_quadrature, verify_lucky_integral)
    from .numerics import IntegrandProfile, integrate_semi_infinite
    from .wienerhopf import (WhFactor, factorization_residual, phi,
                             rotated_sup_density, sup_density)

    alpha, rho = p.alpha, p.rho

    yield "s2 value at 1", \
        lambda: abs(s2(1.0, alpha) - np.sqrt(alpha)) / np.sqrt(alpha), 1e-10
    yield "s2 value at (1+alpha)/2", \
        lambda: abs(s2(0.5 * (1.0 + alpha), alpha) - 1.0), 1e-10
    z = 0.37 + 0.21j
    yield "s2 shift by 1", \
        lambda: abs(s2(z + 1.0, alpha) * 2.0 * np.sin(np.pi * z / alpha)
                    / s2(z, alpha) - 1.0), 1e-9
    yield "s2 shift by alpha", \
        lambda: abs(s2(z + alpha, alpha) * 2.0 * np.sin(np.pi * z)
                    / s2(z, alpha) - 1.0), 1e-9
    yield "s2 reflection", \
        lambda: abs(s2(z, alpha) * s2(1.0 + alpha - z, alpha) - 1.0), 1e-9
    yield "two-sided profile integral", \
        lambda: tau_binomial_check(0.6, 0.0, 1.3), 1e-8

    zs = np.geomspace(0.1, 10.0, 7)
    yield "wiener-hopf factorization", \
        lambda: max(max(factorization_residual(p, z),
                        factorization_residual(p, -z)) for z in zs), 1e-8

    if abs(alpha * rho - 1.0) < 1e-9:
        yield "supremum normalization", "skipped: degenerate one-sided law", 0
        yield "laplace consistency", "skipped: degenerate one-sided law", 0
        yield "rotated-ray supremum density", \
            "skipped: degenerate one-sided law", 0
        yield "lucky integral", "skipped: degenerate one-sided law", 0
    else:
        prof = IntegrandProfile(decay="power", rate=-(1.0 + alpha),
                                singularity=alpha * rho - 1.0)
        yield "supremum normalization", \
            lambda: abs(integrate_semi_infinite(
                lambda x: sup_density(p, x), prof, tol=1e-9).value - 1.0), 1e-6
        yield "laplace consistency", \
            lambda: abs(integrate_semi_infinite(
                lambda x: np.exp(-x) * sup_density(p, x), prof,
                tol=1e-9).value - phi(WhFactor(p), 1.0)), 1e-6

        def rotated():
            fn_d = EigenFn(p, direction="dual")
            lhs = rotated_sup_density(p, 1.0)
            coef = 2.0 / np.sqrt(alpha) * s2(1.0 + alpha * rho, alpha)
            rhs = coef * (f_eigen(fn_d, 1.0) + np.exp(1j * np.pi * rho)
                          * f_eigen(fn_d, 1.0, deriv=1))
            return abs(lhs - rhs)

        yield "rotated-ray supremum density", rotated, 1e-5
        if alpha > 1.0 or abs(rho - 0.5) <= 1e-12:
            yield "lucky integral", \
                lambda: verify_lucky_integral(p, 1.0, 1.5), 1e-5
        else:
            yield "lucky integral", \
                "skipped: needs alpha > 1 or rho = 1/2", 0

    fn = EigenFn(p)
    yield "eigenfunction laplace transform", \
        lambda: abs(laplace_f(fn, 1.1)
                    - laplace_f_quadrature(fn, 1.1).value), 1e-6
    if rho >= 0.5:
        def mellin():
            zm = complex(-0.3 * alpha * p.rho_hat, 0.4)
            mel = mellin_f(fn, zm)
            return abs(mel - mellin_f_quadrature(fn, zm).value) / abs(mel)

        yield "eigenfunction mellin transform", mellin, 1e-5
    else:
        yield "eigenfunction mellin transform", \
            "skipped: needs rho >= 1/2", 0

    from .spectral import (SpectralConfig, TestFunction, pi_round_trip,
                           survival, transition_density)
    from .numerics import integrate_interval
    if alpha > 1.0 or rho >= 0.5:
        yield "survival scaling", \
            lambda: abs(survival(p, 2.0, 1.0)
                        - survival(p, 1.0, 2.0 ** -alpha)), 1e-8
    else:
        yield "survival scaling", "skipped: outside survival regime", 0
    if alpha == 2.0:
        from scipy.special import erf
        yield "brownian survival", \
            lambda: abs(survival(p, 1.0, 1.0) - erf(0.5)), 1e-6
    if quick:
        return
    if alpha > 1.0 or rho >= 0.5:
        u = TestFunction.power_tower()
        yield "transform inversion", \
            lambda: abs(pi_round_trip(p, u, 1.0) - u(1.0)), 1e-4
    else:
        yield "transform inversion", "skipped: outside regime", 0
    if not (alpha > 1.0 or abs(rho - 0.5) < 1e-12):
        yield "density marginal vs survival", \
            "skipped: outside density regime", 0
        return
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

    yield "density marginal vs survival", marginal, \
        1e-4 if y_cut >= 59.0 else 1e-3


def _cmd_verify(args):
    """Run every check on its own: one that raises a HalfstableError is
    reported as a FAIL naming the error, and the suite goes on."""
    p = _params_of(args)
    failures = 0
    lines = []
    for name, check, tol in _verify_checks(p, args.quick):
        if isinstance(check, str):
            lines.append(f"{name:36s} {check}")
            continue
        try:
            residual = check()
        except HalfstableError as exc:
            failures += 1
            lines.append(f"{name:36s} FAIL ({type(exc).__name__}: {exc})")
            continue
        ok = residual <= tol
        failures += 0 if ok else 1
        lines.append(f"{name:36s} residual {residual:.3e}  tol {tol:.0e}  "
                     f"{'ok' if ok else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    _write_atomic(args.output, report)
    if args.output is not None:
        sys.stdout.write(report)
    return failures


# ---------------------------------------------------------------------------

def _add_common(sub, rho_required=True):
    sub.add_argument("--alpha", type=_rational, required=True,
                     help="stability index in (0, 2]")
    sub.add_argument("--rho", type=_rational, default=None,
                     help="positivity parameter (rationals accepted)")
    if rho_required:
        sub.add_argument("--one-sided", choices=("negative", "positive"),
                         default=None, dest="one_sided",
                         help="derive rho for a spectrally one-sided "
                              "process instead of passing --rho")
    sub.add_argument("--output", "-o", default=None,
                     help="write here atomically instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--tol", type=float, default=1e-8,
                     help="target accuracy for spectral quadratures")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="halfstable",
        description="Killed stable processes on the half-line: special "
                    "functions, extrema densities, eigenfunctions, "
                    "spectral semigroup, and a Monte Carlo cross-check.")
    top.add_argument("--version", action="version", version=__version__)
    subs = top.add_subparsers(dest="command", required=True)

    s = subs.add_parser("s2", help="double sine function values")
    s.add_argument("--alpha", type=_rational, required=True)
    s.add_argument("--z", type=_caxis, required=True,
                   help="points, e.g. 1,0.5+0.3j or 0.1:2:20")
    s.add_argument("--output", "-o", default=None)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(handler=_cmd_s2)

    s = subs.add_parser("phi", help="Wiener-Hopf extremum transform")
    _add_common(s)
    s.add_argument("--direction", choices=("supremum", "infimum"),
                   default="supremum")
    s.add_argument("--z", type=_caxis, required=True)
    s.set_defaults(handler=_cmd_phi)

    s = subs.add_parser("eigenfn", help="eigenfunction profile values")
    _add_common(s)
    s.add_argument("--direction", choices=("primal", "dual"),
                   default="primal")
    s.add_argument("--x", type=_axis, required=True)
    s.add_argument("--deriv", type=int, choices=(0, 1), default=0)
    s.set_defaults(handler=_cmd_eigenfn)

    s = subs.add_parser("laplace", help="eigenfunction Laplace transform")
    _add_common(s)
    s.add_argument("--direction", choices=("primal", "dual"),
                   default="primal")
    s.add_argument("--z", type=_caxis, required=True)
    s.set_defaults(handler=_cmd_laplace)

    s = subs.add_parser("mellin", help="eigenfunction Mellin transform")
    _add_common(s)
    s.add_argument("--direction", choices=("primal", "dual"),
                   default="primal")
    s.add_argument("--z", type=_caxis, required=True)
    s.set_defaults(handler=_cmd_mellin)

    s = subs.add_parser("survival", help="first-exit survival probability")
    _add_common(s)
    s.add_argument("--x", type=_axis, required=True)
    s.add_argument("--t", type=_axis, required=True)
    s.set_defaults(handler=_cmd_survival)

    s = subs.add_parser("density", help="killed transition density")
    _add_common(s)
    s.add_argument("--x", type=_axis, required=True)
    s.add_argument("--y", type=_axis, required=True)
    s.add_argument("--t", type=_axis, required=True)
    s.set_defaults(handler=_cmd_density)

    s = subs.add_parser("transform", help="generalized sine transform of "
                                          "a built-in test function")
    _add_common(s)
    s.add_argument("--function", default="power-tower",
                   help="power-tower or stretched:<beta>")
    s.add_argument("--dual", action="store_true",
                   help="apply the co-eigenfunction transform")
    s.add_argument("--lam", type=_axis, required=True)
    s.set_defaults(handler=_cmd_transform)

    s = subs.add_parser("resolvent", help="q-resolvent density")
    _add_common(s)
    s.add_argument("--q", type=_axis, required=True)
    s.add_argument("--x", type=_axis, required=True)
    s.add_argument("--y", type=_axis, required=True)
    s.set_defaults(handler=_cmd_resolvent)

    s = subs.add_parser("doney", help="lattice-case product formulas vs "
                                      "the generic route")
    _add_common(s)
    s.set_defaults(handler=_cmd_doney)

    s = subs.add_parser("simulate", help="Monte Carlo vs spectral, JSON "
                                         "lines")
    _add_common(s)
    s.add_argument("--x", type=_rational, required=True)
    s.add_argument("--t", type=_rational, required=True)
    s.add_argument("--n-paths", type=int, default=100_000, dest="n_paths")
    s.add_argument("--dt", type=_axis, default=np.array([1e-3]),
                   help="one step size, or two for extrapolation")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(handler=_cmd_simulate, special="simulate")

    s = subs.add_parser("verify", help="run the identity suite")
    _add_common(s)
    s.add_argument("--quick", action="store_true",
                   help="skip the slow double-quadrature checks")
    s.set_defaults(handler=_cmd_verify, special="verify")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        special = getattr(args, "special", None)
        if special == "simulate":
            args.dt = list(args.dt)
            args.handler(args)
            return 0
        if special == "verify":
            failures = args.handler(args)
            return _EXIT_VERIFY if failures else 0
        config, header, rows = args.handler(args)
        _emit(args, args.command, config, header, rows)
        return 0
    except (NonConvergence, BudgetExceeded) as exc:
        print(f"halfstable: {exc}", file=sys.stderr)
        return _EXIT_NUMERICS
    except HalfstableError as exc:
        print(f"halfstable: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
