"""Command-line front end.

One subcommand per public operation plus a `verify` command, which
prints one line per record of the identity suite in
``halfstable.checks``, and a `simulate` command that prints exact Monte
Carlo and spectral survival side by side.  The point subcommands (phi,
eigenfn, laplace, mellin) are rows of one table, ``_POINT_COMMANDS``:
one parser loop and one handler serve them.  Every handler writes its output
and returns the exit code.  Tables go to stdout or, with --output, to a
file written atomically (temp file in the target directory, then
rename), so an interrupted run never leaves a half-written artifact.

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

from . import __version__, doublesine, eigenfunctions, spectral, wienerhopf
from .checks import run_suite
from .errors import (BudgetExceeded, DomainError, HalfstableError,
                     NonConvergence)
from .model import StableParams, detect_doney
from .montecarlo import exact_survival

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


def _emit(args, config: dict, header, rows) -> int:
    """Write the table as CSV or JSON; a table written exits 0."""
    if args.format == "json":
        doc = {"command": args.command, "config": config,
               "rows": [dict(zip(header, r)) for r in rows]}
        text = json.dumps(doc, default=_cell) + "\n"
    else:
        lines = [f"# halfstable {args.command} v{__version__}"]
        lines += [f"# {k} = {config[k]}" for k in sorted(config)]
        lines.append(",".join(header))
        lines += [",".join(_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write_atomic(args.output, text)
    return 0


def _params_of(args):
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


def _base_config(args, p, **extra) -> dict:
    """alpha, rho and extra, then tol where the subcommand reads one."""
    cfg = {"alpha": f"{args.alpha:.17g}", "rho": f"{p.rho:.17g}", **extra}
    if hasattr(args, "tol"):
        cfg["tol"] = f"{args.tol:.3g}"
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers: each writes its output and returns the exit code

def _z_rows(f, obj, args):
    """(z, Re, Im) rows, one call of f per z, and z for the header."""
    rows = [(z, v.real, v.imag)
            for z, v in zip(args.z, (f(obj, z) for z in args.z))]
    return {"z": ",".join(map(_cell, args.z))}, ["z", "re", "im"], rows


def _x_rows(f, obj, args):
    """(x, value) rows from one call of f vectorized over x."""
    vals = f(obj, args.x, deriv=args.deriv)
    return ({"deriv": args.deriv}, ["x", "value"],
            list(zip(args.x.tolist(), np.atleast_1d(vals))))


def _cmd_s2(args):
    cfg, header, rows = _z_rows(lambda a, z: doublesine.s2(z, a), args.alpha,
                                args)
    return _emit(args, {"alpha": f"{args.alpha:.17g}", **cfg}, header, rows)


# The point subcommands: name -> (help, module, the class built from
# (params, direction), the function evaluated on it, the directions with
# the default first, and the axis: its rows and the options that give
# its points).  One parser loop and ``_cmd_point`` serve them all.
_Z_AXIS = (_z_rows, {"--z": dict(type=_caxis, required=True)})
_X_AXIS = (_x_rows, {"--x": dict(type=_axis, required=True),
                     "--deriv": dict(type=int, choices=(0, 1), default=0)})
_POINT_COMMANDS = {
    "phi": ("Wiener-Hopf extremum transform", wienerhopf, "WhFactor", "phi",
            ("supremum", "infimum"), _Z_AXIS),
    "eigenfn": ("eigenfunction profile values", eigenfunctions, "EigenFn",
                "f_eigen", ("primal", "dual"), _X_AXIS),
    "laplace": ("eigenfunction Laplace transform", eigenfunctions, "EigenFn",
                "laplace_f", ("primal", "dual"), _Z_AXIS),
    "mellin": ("eigenfunction Mellin transform", eigenfunctions, "EigenFn",
               "mellin_f", ("primal", "dual"), _Z_AXIS),
}


def _cmd_point(args):
    _, mod, build, evaluate, _, (rows_of, _) = _POINT_COMMANDS[args.command]
    p = _params_of(args)
    obj = getattr(mod, build)(p, direction=args.direction)
    extra, header, rows = rows_of(getattr(mod, evaluate), obj, args)
    return _emit(args, _base_config(args, p, direction=args.direction,
                                    **extra), header, rows)


def _cmd_survival(args):
    p = _params_of(args)
    cfg_s = spectral.SpectralConfig(tol=args.tol)
    rows = [(x, t, spectral.survival(p, x, t, cfg_s))
            for x in args.x for t in args.t]
    return _emit(args, _base_config(args, p), ["x", "t", "survival"], rows)


def _cmd_density(args):
    p = _params_of(args)
    cfg_s = spectral.SpectralConfig(tol=args.tol)
    rows = []
    for x in args.x:
        for t in args.t:
            vals = spectral.transition_density(p, x, args.y, t, cfg_s)
            rows += [(x, y, t, v)
                     for y, v in zip(args.y.tolist(), np.atleast_1d(vals))]
    return _emit(args, _base_config(args, p), ["x", "y", "t", "density"],
                 rows)


def _test_function(spec: str, alpha: float):
    if spec == "power-tower":
        return spectral.TestFunction.power_tower()
    if spec.startswith("stretched:"):
        text = spec.split(":", 1)[1]
        try:
            beta = float(Fraction(text))
        except _NOT_A_NUMBER:
            raise DomainError(f"stretched:<beta> needs a number, got "
                              f"beta = {text!r}") from None
        return spectral.TestFunction.stretched_exp(beta, alpha)
    raise DomainError(f"unknown test function {spec!r}; use power-tower "
                      "or stretched:<beta>")


def _cmd_transform(args):
    p = _params_of(args)
    u = _test_function(args.function, p.alpha)
    op = spectral.pi_hat_transform if args.dual else spectral.pi_transform
    vals = op(p, u, args.lam, spectral.SpectralConfig(tol=args.tol))
    cfg = _base_config(args, p, function=args.function, dual=args.dual)
    return _emit(args, cfg, ["lam", "value"],
                 list(zip(args.lam.tolist(), np.atleast_1d(vals))))


def _cmd_resolvent(args):
    p = _params_of(args)
    rows = [(q, x, y, wienerhopf.resolvent_density(p, q, x, y))
            for q in args.q for x in args.x for y in args.y]
    return _emit(args, _base_config(args, p), ["q", "x", "y", "resolvent"],
                 rows)


def _cmd_doney(args):
    ef = eigenfunctions
    p = _params_of(args)
    cls = detect_doney(p)
    if cls is None:
        raise DomainError(
            f"(alpha, rho) = ({p.alpha:.17g}, {p.rho:.17g}) is not on a "
            "product-formula lattice alpha*rho = l - k*alpha")
    fn = ef.EigenFn(p)
    rows = []
    for x in (0.5, 1.0, 2.0):
        rows.append(("G", x, ef.doney_g(p, x, cls), float(ef.g_func(p, x))))
    for z in (0.7, 1.3):
        rows.append(("laplace", z, ef.doney_laplace_f(p, z, cls).real,
                     ef.laplace_f(fn, z).real))
    for z in (-0.2, -0.35):
        rows.append(("mellin", z, abs(ef.doney_mellin_f(p, z, cls)),
                     abs(ef.mellin_f_continued(p, z))))
    rows = [(kind, pt, a, b, abs(a - b)) for kind, pt, a, b in rows]
    return _emit(args, _base_config(args, p, k=cls.k, l=cls.l),
                 ["quantity", "point", "product_form", "generic", "diff"],
                 rows)


def _cmd_simulate(args):
    p = _params_of(args)
    value = spectral.survival(p, args.x, args.t,
                              spectral.SpectralConfig(tol=args.tol))
    est = exact_survival(p, args.x, args.t, args.n_paths, args.seed)
    line = json.dumps({"alpha": p.alpha, "rho": p.rho, "x": args.x,
                       "t": args.t, "n_paths": args.n_paths,
                       "seed": args.seed, "mc": est.value,
                       "std_error": est.std_error,
                       "bias_note": est.bias_note, "spectral": value})
    _write_atomic(args.output, line + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify

def _verify_line(rec) -> str:
    if rec.status == "skipped":
        return f"{rec.name:36s} skipped: {rec.reason}"
    if rec.residual is None:
        return f"{rec.name:36s} FAIL ({rec.reason})"
    return (f"{rec.name:36s} residual {rec.residual:.3e}  tol {rec.tol:.0e}  "
            f"{rec.status}")


def _cmd_verify(args):
    """One line per record of ``checks.run_suite``; exit 5 on a FAIL."""
    records = run_suite(_params_of(args), args.quick)
    report = "".join(_verify_line(rec) + "\n" for rec in records)
    _write_atomic(args.output, report)
    if args.output is not None:
        sys.stdout.write(report)
    return _EXIT_VERIFY if any(r.status == "FAIL" for r in records) else 0


# ---------------------------------------------------------------------------

def _add_common(sub, table=True, tol=False):
    """--alpha, --rho, --one-sided and --output, plus --format for the
    subcommands that print a table and --tol for those that read one."""
    sub.add_argument("--alpha", type=_rational, required=True,
                     help="stability index in (0, 2]")
    sub.add_argument("--rho", type=_rational, default=None,
                     help="positivity parameter (rationals accepted)")
    sub.add_argument("--one-sided", choices=("negative", "positive"),
                     default=None, dest="one_sided",
                     help="derive rho for a spectrally one-sided "
                          "process instead of passing --rho")
    sub.add_argument("--output", "-o", default=None,
                     help="write here atomically instead of stdout")
    if table:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if tol:
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

    for name, (about, *_, directions, (_, options)) in \
            _POINT_COMMANDS.items():
        s = subs.add_parser(name, help=about)
        _add_common(s)
        s.add_argument("--direction", choices=directions,
                       default=directions[0])
        for flag, spec in options.items():
            s.add_argument(flag, **spec)
        s.set_defaults(handler=_cmd_point)

    s = subs.add_parser("survival", help="first-exit survival probability")
    _add_common(s, tol=True)
    s.add_argument("--x", type=_axis, required=True)
    s.add_argument("--t", type=_axis, required=True)
    s.set_defaults(handler=_cmd_survival)

    s = subs.add_parser("density", help="killed transition density")
    _add_common(s, tol=True)
    s.add_argument("--x", type=_axis, required=True)
    s.add_argument("--y", type=_axis, required=True)
    s.add_argument("--t", type=_axis, required=True)
    s.set_defaults(handler=_cmd_density)

    s = subs.add_parser("transform", help="generalized sine transform of "
                                          "a built-in test function")
    _add_common(s, tol=True)
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

    s = subs.add_parser("simulate", help="Monte Carlo survival from exact "
                                         "path minima vs spectral, one "
                                         "JSON line")
    _add_common(s, table=False, tol=True)
    s.add_argument("--x", type=_rational, required=True)
    s.add_argument("--t", type=_rational, required=True)
    s.add_argument("--n-paths", type=int, default=100_000, dest="n_paths")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(handler=_cmd_simulate)

    s = subs.add_parser("verify", help="run the identity suite")
    _add_common(s, table=False)
    s.add_argument("--quick", action="store_true",
                   help="skip the slow double-quadrature checks")
    s.set_defaults(handler=_cmd_verify)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except HalfstableError as exc:
        print(f"halfstable: {exc}", file=sys.stderr)
        numerics = isinstance(exc, (NonConvergence, BudgetExceeded))
        return _EXIT_NUMERICS if numerics else _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
