"""The four workloads: their inputs, their operations and the checks.

A workload is a list of rounds.  A round is a fixed list of units (one
parameter-set bundle, one call, one suite, one Monte Carlo call);
the seed only draws the inputs inside that fixed composition, so runs
with different seeds do the same mix of work.  A unit runs one or more
operations; each operation is timed, then checked against the package's
own identities and tolerances.  An operation that raises, returns a
non-finite value or fails its check is a failure.  Nothing is retried.

Every library call goes through the module attribute at call time
(`hs.spectral.survival`), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
import time

import numpy as np

# The defects that fail at the commit this benchmark was written
# against: (workload, operation, failure class) -> the region of
# (alpha, rho) where that class was seen, with a margin.  They still
# count as failures in `failed` and `ok_share`.  A failure outside its
# region, or of another class, makes the run incorrect, so a known
# defect that spreads to new inputs shows.  README.md gives the
# measured inputs behind each region.
KNOWN_DEFECTS = {
    # the profile tail handoff at small alpha; the degenerate mixture
    # near the spectrally negative edge; no convergence at small alpha rho
    ("sweep", "sup_mass", "check"):
        lambda a, r: a < 0.6 or a * r < 0.12 or a * r > 0.97,
    # the quadrature reaches x = 0, where the profile tail diverges
    ("sweep", "sup_mass", "DomainError"): lambda a, r: a * r < 0.06,
    # e^(s_lo) underflows: alpha rho_hat < 30 / 745
    ("sweep", "survival", "TypeError"): lambda a, r: a * (1 - r) < 0.045,
    # alpha rho_hat small, or alpha just above 1 with rho below 1/2
    ("sweep", "survival", "NonConvergence"):
        lambda a, r: a * (1 - r) < 0.1 or (1 < a < 1.2 and r < 0.45),
    # the lucky-integral check has no guard for alpha <= 1, rho != 1/2
    ("verify", "suite", "exit 3"): lambda a, r: (a, r) == (0.8, 0.6),
}


def is_known(workload, kind, failure, inputs):
    """Whether a failure lies inside a known defect's region."""
    region = KNOWN_DEFECTS.get((workload, kind, failure))
    return region is not None and region(inputs["alpha"], inputs["rho"])


class Recorder:
    """Times and checks operations; collects units and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = []       # (kind, seconds, ok)
        self.units = []     # (kind, seconds, ok, inputs)
        self.failures = []

    def op(self, kind, inputs, call, check):
        """Run call() timed, then check(result).

        check returns None, a reason, or (failure class, reason).
        """
        t0 = time.perf_counter()
        try:
            out = call()
            err = None
        except Exception as exc:  # a failed operation, counted below
            out = None
            err = (type(exc).__name__, f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        if err is None:
            try:
                reason = check(out)
            except Exception as exc:  # output of an unexpected shape
                reason = ("bad output", f"check raised {exc!r}")
            if isinstance(reason, tuple):
                err = reason
            elif reason is not None:
                err = ("check", reason)
        self.ops.append((kind, dt, err is None))
        if err is not None:
            self.failures.append({
                "workload": self.workload, "operation": kind,
                "input": inputs, "failure": err[0], "detail": err[1],
                "known": is_known(self.workload, kind, err[0], inputs)})
        return out if err is None else None

    def discard_since(self, n_ops, n_failures):
        """Forget what a traced repeat of a unit recorded."""
        del self.ops[n_ops:]
        del self.failures[n_failures:]


def _finite(x):
    return bool(np.all(np.isfinite(np.asarray(x, dtype=complex))))


def _within(name, err, tol):
    if not np.isfinite(err) or err > tol:
        return f"{name} {err:.3e} > {tol:.0e}"
    return None


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def density_y_max(p, x, t, y_hi, cap=18.0):
    """Largest y the spectral density resolves in double precision.

    The same bound `halfstable verify` uses for its density check: the
    growing kernel may reach at most e^cap before the quadrature has to
    cancel more digits than a double holds.
    """
    a = p.alpha
    grow_dual = max(math.cos(math.pi * p.rho_hat), 0.0)
    grow_primal = x * max(math.cos(math.pi * p.rho), 0.0)
    if grow_dual <= 1e-12 and grow_primal <= 1e-12:
        return y_hi
    c_amp = a ** (-1.0 / (a - 1.0)) - a ** (-a / (a - 1.0))
    budget = (cap / c_amp) ** (1.0 - 1.0 / a) * t ** (1.0 / a) - grow_primal
    if grow_dual <= 1e-12:
        return y_hi if budget > 0 else 0.0
    return min(y_hi, budget / grow_dual)


def _brownian_kernel(x, y, t):
    g = lambda d: np.exp(-d * d / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    return g(x - y) - g(x + y)


# ---------------------------------------------------------------------------
# sweep: a new (alpha, rho) per unit, across the whole admissible domain

# The domain is cut into cells: an alpha stratum of [0.2, 2] crossed
# with the lower or upper half of rho's admissible interval, plus point
# masses at alpha = 1 (both halves), alpha = 2 and the two one-sided
# edges.  The strata meet at alpha = 1, so every round defines the same
# operations: survival needs alpha > 1 or rho >= 1/2, the density
# alpha > 1.  A round draws one (alpha, rho) uniformly inside every cell.
# Bundle cost depends most on alpha and on how close rho is to 1 (for
# alpha <= 1 the survival integral runs down to lam ~ e^(-25 / (alpha
# rho_hat))), so crossing the two keeps the mix of cheap and dear
# bundles the same in every round.
SWEEP_ALPHA = ((0.2, 0.6), (0.6, 1.0), (1.0, 4 / 3), (4 / 3, 5 / 3),
               (5 / 3, 2.0), 1.0)
SWEEP_CELLS = tuple((a, half) for a in SWEEP_ALPHA for half in (0, 1)) \
    + ((2.0, 0), ("negative-edge", 0), ("positive-edge", 0))


def sweep_params(rng, cell):
    """One (alpha, rho) drawn uniformly inside a cell."""
    stratum, half = cell
    if stratum == 2.0:
        return 2.0, 0.5
    if stratum in ("negative-edge", "positive-edge"):
        a = rng.uniform(1.0, 2.0)
        return a, (1.0 / a if stratum == "negative-edge" else 1.0 - 1.0 / a)
    a = stratum if stratum == 1.0 else rng.uniform(*stratum)
    lo, hi = (0.0, 1.0) if a <= 1.0 else (1.0 - 1.0 / a, 1.0 / a)
    return a, lo + (hi - lo) * 0.5 * (half + rng.uniform())


def sweep_round(rng, hs, tiny=False):
    cells = ((2.0, 0), ((4 / 3, 5 / 3), 0)) if tiny else SWEEP_CELLS
    units = []
    for i in rng.permutation(len(cells)):
        a, r = sweep_params(rng, cells[i])
        units.append(("set", {"alpha": a, "rho": r},
                      _sweep_bundle(hs, rng, a, r)))
    return units


def _sweep_bundle(hs, rng, a, r):
    zs = _log_uniform(rng, 0.1, 10.0, 3)
    signs = rng.choice([-1.0, 1.0], 3)
    xs = np.sort(_log_uniform(rng, 0.05, 10.0, 8))
    ys = np.sort(rng.uniform(0.1, 4.0, 16))
    brownian = a == 2.0

    def bundle(rec):
        p = hs.model.StableParams(a, r)
        wh, sp, nu = hs.wienerhopf, hs.spectral, hs.numerics
        where = {"alpha": a, "rho": r}

        def check_phi(z):
            def check(v):
                if not _finite(v) or not 0.0 < v.real <= 1.0 + 1e-9:
                    return f"phi({z:.4g}) = {v} outside (0, 1]"
                if brownian:
                    return _within("phi vs 1/(1+z)", abs(v - 1 / (1 + z)),
                                   1e-8)
                return None
            return check

        for z in zs:
            rec.op("phi", {**where, "z": z},
                   lambda z=z: wh.phi(wh.WhFactor(p), z), check_phi(z))
        for z in signs * zs:
            rec.op("wh_residual", {**where, "z": z},
                   lambda z=z: wh.factorization_residual(p, z),
                   lambda res: _within("factorization residual", res, 1e-8))

        def check_sup(vals):
            if not _finite(vals) or np.any(vals < 0):
                return "supremum density negative or not finite"
            if brownian:
                return _within("sup density vs e^-x",
                               float(np.max(np.abs(vals - np.exp(-xs)))),
                               1e-12)
            return None

        rec.op("sup_density", {**where, "x": xs.tolist()},
               lambda: wh.sup_density(p, xs), check_sup)
        prof = nu.IntegrandProfile(decay="power", rate=-(1.0 + a),
                                   singularity=a * r - 1.0)

        def check_mass(res):
            if not res.converged:
                return "mass quadrature did not converge"
            return _within("supremum mass", abs(res.value - 1.0), 1e-6)

        rec.op("sup_mass", where,
               lambda: nu.integrate_semi_infinite(
                   lambda x: wh.sup_density(p, x), prof, tol=1e-9),
               check_mass)

        if a > 1.0 or r >= 0.5:
            def check_survival(first):
                def check(s):
                    if not (math.isfinite(s) and -1e-9 <= s <= 1.0 + 1e-9):
                        return f"survival {s} outside [0, 1]"
                    if brownian:
                        # x / (2 sqrt t) = 1 at both points
                        bad = _within("survival vs erf(1)",
                                      abs(s - math.erf(1.0)), 1e-6)
                        if bad:
                            return bad
                    if first is not None:
                        return _within("survival scaling", abs(s - first),
                                       1e-8)
                    return None
                return check

            s1 = rec.op("survival", {**where, "x": 2.0, "t": 1.0},
                        lambda: sp.survival(p, 2.0, 1.0),
                        check_survival(None))
            # X is self-similar: P_2(tau > 1) = P_1(tau > 2^-alpha)
            rec.op("survival", {**where, "x": 1.0, "t": 2.0 ** -a},
                   lambda: sp.survival(p, 1.0, 2.0 ** -a),
                   check_survival(s1))

        y_max = density_y_max(p, 1.0, 1.0, 4.0) \
            if (a > 1.0 or abs(r - 0.5) < 1e-12) else 0.0
        if y_max >= 0.5:
            y = ys * (y_max / 4.0)

            def check_density(vals):
                if not _finite(vals) or np.any(vals < -1e-6):
                    return "density below -1e-6 or not finite"
                if brownian:
                    return _within(
                        "density vs image kernel",
                        float(np.max(np.abs(vals - _brownian_kernel(
                            1.0, y, 1.0)))), 1e-7)
                return None

            rec.op("density", {**where, "x": 1, "t": 1, "y": y.tolist()},
                   lambda: sp.transition_density(p, 1.0, y, 1.0),
                   check_density)

    return bundle


# ---------------------------------------------------------------------------
# grid: warm calls at three fixed parameter sets

GRID_SETS = ((1.5, 0.55), (1.5, 0.45), (1.2, 0.5))
GRID_TINY = ((1.2, 0.5),)
# the diagonalization needs rho >= 1/2; each kind stays at one set
SEMIGROUP_SET = (1.2, 0.5)
ROUND_TRIP_SET = (1.5, 0.55)
_N_LAM = 64


def grid_warm(hs, tiny=False):
    """One call of each kind the stream makes per set, at small sizes:
    builds the ray profiles every later call of that set uses."""
    u = hs.spectral.TestFunction.power_tower()
    for a, r in GRID_TINY if tiny else GRID_SETS:
        p = hs.model.StableParams(a, r)
        hs.spectral.survival(p, 1.0, 1.0)
        hs.spectral.transition_density(p, 1.0, np.array([0.5, 1.0]), 1.0)
        hs.spectral.pi_transform(p, u, np.array([0.5, 1.0]))
        hs.spectral.pi_hat_transform(p, u, np.array([0.5, 1.0]))


def grid_round(rng, hs, tiny=False):
    sp = hs.spectral
    u = sp.TestFunction.power_tower()
    units = []
    for a, r in GRID_TINY if tiny else GRID_SETS:
        p = hs.model.StableParams(a, r)
        where = {"alpha": a, "rho": r}
        for x, t in _log_uniform(rng, 0.1, 5.0, (2 if tiny else 12, 2)):
            units.append(_single(
                "survival", {**where, "x": x, "t": t},
                lambda p=p, x=x, t=t: sp.survival(p, x, t),
                _check_probability))
        # a batch's cost follows its spectral cutoff, ~t^(-1/alpha), so
        # the single-call kinds draw (x, t) from narrow ranges
        x, t = _log_uniform(rng, 0.8, 1.25, 2)
        y = np.sort(rng.uniform(0.02, 1.0, 40)) \
            * density_y_max(p, x, t, 5.0)
        units.append(_single(
            "density", {**where, "x": x, "t": t, "y": y.tolist()},
            lambda p=p, x=x, y=y, t=t: sp.transition_density(p, x, y, t),
            _check_density_batch))
        for kind, fn in (("pi_transform", sp.pi_transform),
                         ("pi_hat_transform", sp.pi_hat_transform)):
            lam = np.sort(_log_uniform(rng, 0.1, 10.0, _N_LAM))
            units.append(_single(
                kind, {**where, "lam": lam.tolist()},
                lambda kind=kind, p=p, lam=lam: getattr(sp, kind)(p, u, lam),
                _check_finite))
    a, r = SEMIGROUP_SET
    p = hs.model.StableParams(a, r)
    x, t = _log_uniform(rng, 0.8, 1.25), _log_uniform(rng, 0.4, 0.6)
    units.append(_single(
        "semigroup", {"alpha": a, "rho": r, "x": x, "t": t},
        lambda: sp.semigroup_apply(p, u, t, x), _check_semigroup))
    if not tiny:
        a2, r2 = ROUND_TRIP_SET
        p2 = hs.model.StableParams(a2, r2)
        # the accelerated tail grows like 1/x
        x2 = _log_uniform(rng, 0.8, 1.25)
        want = float(u(x2))
        units.append(_single(
            "round_trip", {"alpha": a2, "rho": r2, "x": x2},
            lambda: sp.pi_round_trip(p2, u, x2),
            lambda v: _within("round trip relative error",
                              abs(v - want) / want, 1e-4)))
    return [units[i] for i in rng.permutation(len(units))]


def _single(kind, inputs, fn, check):
    """A unit made of one operation."""
    return kind, inputs, lambda rec: rec.op(kind, inputs, fn, check)


def _check_probability(v):
    if not (math.isfinite(v) and -1e-9 <= v <= 1.0 + 1e-9):
        return f"probability {v} outside [0, 1]"
    return None


def _check_semigroup(v):
    # 0 <= u <= 1, so the killed semigroup keeps P_t u in [0, 1]
    if not (math.isfinite(v) and -1e-6 <= v <= 1.0 + 1e-6):
        return f"P_t u = {v} outside [0, 1]"
    return None


def _check_density_batch(vals):
    if not _finite(vals) or np.any(vals < -1e-6):
        return "density below -1e-6 or not finite"
    return None


def _check_finite(vals):
    return None if _finite(vals) else "non-finite transform value"


# ---------------------------------------------------------------------------
# verify: the CLI identity suite, in process

VERIFY_SETS = ((1.5, 0.55), (1.3, 0.5), (0.8, 0.6))
# suites per set in a round: each set's median then rests on two suites
VERIFY_PASSES = 2


def verify_round(rng, hs, tiny=False):
    sets = ((2.0, 0.5),) if tiny else VERIFY_SETS
    passes = 1 if tiny else VERIFY_PASSES
    units = []
    for i in rng.permutation(np.tile(np.arange(len(sets)), passes)):
        a, r = sets[i]
        # each set is a unit kind of its own: the suites differ in cost
        units.append((f"suite at {(a, r)}", {"alpha": a, "rho": r},
                      _verify_suite(hs, a, r)))
    return units


def _verify_suite(hs, a, r):
    argv = ["verify", "--alpha", repr(a), "--rho", repr(r), "--quick"]

    def suite(rec):
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                return hs.cli.main(argv)

        def check(code):
            if code == 0:
                return None
            fails = [ln.split(" residual")[0].strip()
                     for ln in out.getvalue().splitlines()
                     if ln.endswith("FAIL")]
            return f"exit {code}", "; ".join(fails) or err.getvalue().strip()

        rec.op("suite", {"alpha": a, "rho": r}, call, check)

    return suite


# ---------------------------------------------------------------------------
# mc: Monte Carlo survival and one killed-endpoint histogram

MC_POINTS = ((1.5, 0.6), (2.0, 0.5), (0.8, 0.5))
MC_PATHS = 6 * 8192          # six whole blocks of the path sampler
MC_DT = 1e-3

# Upward discrete-monitoring bias of estimate_survival at dt = 1e-3,
# x = t = 1, with its standard error.  (1.5, 0.6) and (0.8, 0.5):
# 393216 paths against the spectral value.  alpha = 2: the Brownian
# continuity correction 0.5826 sqrt(2 dt) e^(-1/4) / sqrt(pi); the same
# run measured 0.0109 +- 0.0008.
MC_BIAS = {
    (1.5, 0.6): (0.0019, 0.0007),
    (2.0, 0.5): (0.5826 * math.sqrt(2.0 * MC_DT) * math.exp(-0.25)
                 / math.sqrt(math.pi), 0.0003),
    (0.8, 0.5): (0.0003, 0.0007),
}
MC_SIGMAS = 4.0


def mc_reference(hs, tiny=False):
    """Spectral survival at each Monte Carlo point (part of set-up)."""
    pts = MC_POINTS[1:2] if tiny else MC_POINTS
    return {pt: hs.spectral.survival(hs.model.StableParams(*pt), 1.0, 1.0)
            for pt in pts}


def mc_round(rng, hs, reference, tiny=False):
    """Survival at every point, then one histogram and one block re-run
    on the paths of the first point's survival estimate ((1.5, 0.6), the
    point of acceptance test_11)."""
    pts = list(reference)
    n_paths = 8192 if tiny else MC_PATHS
    cfgs = {}
    estimates = {}
    units = []
    for i in rng.permutation(len(pts)):
        pt = pts[i]
        cfgs[pt] = hs.montecarlo.PathConfig(
            n_paths=n_paths, dt=MC_DT, horizon=1.0,
            seed=int(rng.integers(2 ** 62)))
        units.append(_mc_survival(hs, pt, cfgs[pt], reference[pt],
                                  estimates))
    pt = pts[0]
    units.append(_mc_density(hs, pt, cfgs[pt], estimates))
    units.append(_mc_rerun(hs, pt, cfgs[pt],
                           int(rng.integers(n_paths // 8192))))
    return units


def _mc_survival(hs, pt, cfg, spectral, estimates):
    bias, bias_se = MC_BIAS[pt]
    where = {"point": pt, "seed": cfg.seed}

    def check(est):
        sigma = math.hypot(est.std_error, bias_se)
        return _within("|MC - bias - spectral| in standard errors",
                       abs(est.value - bias - spectral) / sigma, MC_SIGMAS)

    def unit(rec):
        p = hs.model.StableParams(*pt)
        estimates[pt] = rec.op(
            "estimate_survival", where,
            lambda: hs.montecarlo.estimate_survival(p, 1.0, 1.0, cfg), check)

    # each point is its own unit kind: the cost differs by point
    return f"estimate_survival at {pt}", where, unit


def _mc_density(hs, pt, cfg, estimates):
    edges = np.linspace(0.0, 6.0, 25)
    where = {"point": pt, "seed": cfg.seed}

    def check(hist):
        # same cfg, same paths: the clipped histogram holds exactly the
        # survivors of the survival estimate
        vals = np.array([h.value for h in hist])
        if not _finite(vals) or np.any(vals < 0):
            return "histogram value negative or not finite"
        if estimates.get(pt) is None:
            return "no survival estimate of the same paths to compare"
        return _within("histogram mass vs survival estimate",
                       abs(float(np.sum(vals * np.diff(edges)))
                           - estimates[pt].value), 1e-12)

    def unit(rec):
        p = hs.model.StableParams(*pt)
        rec.op("estimate_density", where,
               lambda: hs.montecarlo.estimate_density(p, 1.0, 1.0, edges,
                                                      cfg), check)

    return "estimate_density", where, unit


def _mc_rerun(hs, pt, cfg, block):
    where = {"point": pt, "seed": cfg.seed, "block": block}

    def unit(rec):
        p = hs.model.StableParams(*pt)
        counts = hs.montecarlo.survival_counts
        rec.op("block_rerun", where,
               lambda: [counts(p, 1.0, 1.0, cfg, first_block=block,
                               n_blocks=1) for _ in range(2)],
               lambda pair: None if pair[0] == pair[1]
               else f"block re-run counts {pair[0]} != {pair[1]}")

    return "block_rerun", where, unit
