"""Benchmark of the halfstable package.

    python3 perfbench/run.py --workload sweep|grid|verify|mc \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory, nowhere else.  Each workload is a closed loop: one
caller, each call starting after the previous one returned.  Whole
rounds run until `--seconds` is used up (at least one round).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones:
every unit then runs under the tracer, and one in three also runs
untraced, which gives the tracing overhead.  glibc malloc is told to
keep freed memory in the process (see `_keep_freed_memory`).  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The full result, with provenance and the failure listing,
goes to perfbench/results/.  README.md beside this file explains the
workloads and the metrics.
"""

import os
import sys
import time

_T0 = time.perf_counter()
os.environ["HALFSTABLE_THREADS"] = "1"   # before numpy loads anywhere

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "grid", "verify", "mc")
SETUP_REPEATS = 3
PAIR_EVERY = 3      # traced runs: one unit in three also runs untraced

# the package imports every layer except the CLI, which it loads lazily
_IMPORT = "import halfstable, halfstable.cli"

# glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the value both get
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MALLOC_KEEP_BYTES = 1 << 30


def _keep_freed_memory():
    """Make glibc malloc serve every block from its heap and never hand
    freed memory back to the kernel.

    By default each large numpy temporary is mmapped and unmapped
    again, so every call faults its pages in afresh.  On a 2-vCPU
    virtual machine that was 75 to 90 thousand minor faults and about
    2 s of system time per 9 to 10 s verify suite, and about 15% of a
    sweep bundle.  There the guest hands freed pages back to the host
    (free page reporting), so what a fault costs depends on the host's
    memory, not on the program.  Kept in the process, the pages are
    faulted once.  Returns the two mallopt results (1 means set), or
    None where the C library has no mallopt.
    """
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return {"mmap_threshold": mallopt(_M_MMAP_THRESHOLD, MALLOC_KEEP_BYTES),
            "trim_threshold": mallopt(_M_TRIM_THRESHOLD, MALLOC_KEEP_BYTES)}


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "halfstable" / "__init__.py").is_file():
        _fail(f"no halfstable sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import halfstable as hs
    import halfstable.cli  # noqa: F401
    if Path(hs.__file__).resolve().parent != SRC / "halfstable":
        _fail(f"imported halfstable from {hs.__file__}, not {SRC}")
    return hs, time.perf_counter() - t0


def _fresh_import_seconds():
    """Import time of the package in a new interpreter."""
    code = ("import os, sys, time; os.environ['HALFSTABLE_THREADS'] = '1'; "
            f"sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            f"{_IMPORT}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _clear_caches(hs):
    """Drop the package's per-parameter caches: the state of a fresh
    process, minus the imports."""
    hs.profiles.ray_profile.cache_clear()
    hs.doublesine._validate_convention.cache_clear()


# ---------------------------------------------------------------------------

def setup(hs, workload, tiny, repeats):
    """The set-up a workload needs before its first timed unit.

    Returns (state, seconds per repeat).  The warm phase runs `repeats`
    times, each from cleared caches; its result is the same warm state
    every time.
    """
    from workloads import grid_warm, mc_reference
    state = None
    times = []
    for _ in range(repeats):
        _clear_caches(hs)
        t0 = time.perf_counter()
        if workload == "grid":
            grid_warm(hs, tiny)
        elif workload == "mc":
            state = mc_reference(hs, tiny)
        times.append(time.perf_counter() - t0)
    return state, times


def make_round(workload, rng, hs, state, tiny):
    import workloads as w
    if workload == "sweep":
        return w.sweep_round(rng, hs, tiny)
    if workload == "grid":
        return w.grid_round(rng, hs, tiny)
    if workload == "verify":
        return w.verify_round(rng, hs, tiny)
    return w.mc_round(rng, hs, state, tiny)


def run_units(workload, hs, rng, seconds, state, tiny, tracer):
    """The closed loop.  Returns the recorder, the timed wall time and,
    when tracing, the (untraced, traced) seconds of the paired units.

    With a tracer every unit runs traced.  Every PAIR_EVERY-th unit also
    runs untraced, from the same cache state, for the tracing overhead;
    its untraced run is the one recorded and checked, and which of the
    two goes first alternates, so that neither gains from going second.
    """
    from workloads import Recorder
    rec = Recorder(workload)
    cold = workload in ("sweep", "verify")
    pairs = []
    timed = 0.0
    round_times = []
    n_unit = 0

    def run_once(kind, body, traced, keep):
        if cold:
            _clear_caches(hs)
        n_ops, n_fail = len(rec.ops), len(rec.failures)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.run_op(n_unit, "bench", kind, lambda: body(rec))
            else:
                body(rec)
        finally:
            if traced:
                tracer.uninstall()
        dt = time.perf_counter() - t0
        if not keep:
            rec.discard_since(n_ops, n_fail)
        return dt

    while True:
        t_round = 0.0
        for kind, inputs, body in make_round(
                workload, rng, hs, state, tiny):
            n_fail = len(rec.failures)
            if tracer is None:
                dt = run_once(kind, body, False, True)
            elif n_unit % PAIR_EVERY:
                dt = run_once(kind, body, True, True)
            else:
                traced_first = (n_unit // PAIR_EVERY) % 2 == 1
                if traced_first:
                    t_traced = run_once(kind, body, True, False)
                dt = run_once(kind, body, False, True)
                if not traced_first:
                    t_traced = run_once(kind, body, True, False)
                pairs.append((dt, t_traced))
            n_unit += 1
            t_round += dt
            rec.units.append((kind, dt, len(rec.failures) == n_fail, inputs))
        timed += t_round
        round_times.append(t_round)
        if timed + 0.5 * statistics.fmean(round_times) > seconds:
            break
    return rec, timed, pairs


# ---------------------------------------------------------------------------

def _ranked(samples, timed):
    """Sample times by kind, each failure put at a ceiling.

    samples holds (kind, seconds, ok).  The ceiling is the summed time
    of the successful samples, which no single success exceeds, so a
    failure ranks above every success.  It does not depend on how long
    the failures took: a fast failure cannot read as a speed-up, and a
    failure turned into a completed call cannot read as a slowdown.
    With no success at all, the run's timed wall time stands in.
    """
    ceiling = sum(dt for _, dt, ok in samples if ok) or timed
    times = {}
    for kind, dt, ok in samples:
        times.setdefault(kind, []).append(dt if ok else ceiling)
    return times


def end_to_end(rec, setup_s, timed):
    """The workload's end-to-end metrics.

    units_per_min is 60 over the geometric mean, across unit kinds, of
    each kind's median unit time, failed units ranked above every
    success (a kind with only failures enters at the ceiling).  Every
    kind weighs equally, so the 36 survival calls of a grid round count
    no more than its single round trip; the medians keep the one dear
    corner of the sweep domain from deciding it.
    """
    times = _ranked([(k, dt, ok) for k, dt, ok, _ in rec.units], timed)
    rate = 60.0 / math.exp(statistics.fmean(
        math.log(statistics.median(v)) for v in times.values()))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_share": (sum(ok for _, _, ok in rec.ops) / len(rec.ops),
                     "ratio"),
        "units_per_min": (rate, "1/min"),
    }


def breakdown(rec, timed):
    """Latency per operation kind (and per sweep unit, "set"), failures
    ranked above every success: p50, plus p75 and p90 when at least ten
    samples lie beyond them.  n counts the samples, failed the failures
    among them."""
    samples = rec.ops + [(k, dt, ok) for k, dt, ok, _ in rec.units
                         if k == "set"]
    failed = {}
    for kind, _, ok in samples:
        failed[kind] = failed.get(kind, 0) + (not ok)
    rows = {}
    for kind, vals in sorted(_ranked(samples, timed).items()):
        row = {"n": len(vals), "failed": failed[kind],
               "p50_s": statistics.median(vals)}
        for q in (75, 90):
            if len(vals) * (100 - q) / 100 >= 10:
                row[f"p{q}_s"] = statistics.quantiles(
                    vals, n=100, method="inclusive")[q - 1]
        rows[kind] = row
    return rows


def per_layer(tracer, pairs, probes):
    from tracing import (END, LAYER, LAYERS, PARENT, START, layer_metrics,
                         self_times)
    m = layer_metrics(tracer.spans)
    traced = sum(t for _, t in pairs)
    untraced = sum(u for u, _ in pairs)
    self_t = self_times(tracer.spans)
    layer_self = sum(t for s, t in zip(tracer.spans, self_t)
                     if s[LAYER] in LAYERS)
    # the root spans are the traced units
    traced_wall = sum(s[END] - s[START] for s in tracer.spans
                      if s[PARENT] < 0)
    inc_s = m.get("model.increment_self_s", 0.0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (m.get(f"{layer}.self_s", 0.0), "s")
    counts = ("doublesine.points", "profiles.builds", "profiles.hits",
              "profiles.laplace_points", "wienerhopf.calls",
              "eigenfunctions.g_points", "spectral.calls", "numerics.calls",
              "numerics.evaluations", "numerics.unconverged",
              "model.increments", "montecarlo.paths")
    for key in counts:
        out[key] = (int(m.get(key, 0)), "count")
    for key in ("profiles.build_s", "profiles.laplace_self_s",
                "eigenfunctions.g_self_s", "spectral.integrand_s"):
        out[key] = (m.get(key, 0.0), "s")
    pts = m.get("doublesine.points", 0)
    out["doublesine.s_per_point"] = (
        m.get("doublesine.self_s", 0.0) / pts if pts else 0.0, "s")
    out["model.increments_per_s"] = (
        m.get("model.increments", 0) / inc_s if inc_s else 0.0, "1/s")
    for key, value in probes.items():
        out[key] = (value, "s")
    out["trace.overhead_share"] = (traced / untraced - 1.0, "ratio")
    out["trace.layer_share"] = (layer_self / traced_wall, "ratio")
    return out


# ---------------------------------------------------------------------------

def provenance(hs, seed, tiny, malloc):
    import numpy as np
    import scipy
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "tiny": tiny,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "HALFSTABLE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "halfstable": hs.__version__,
        "mallopt_keep_bytes": (MALLOC_KEEP_BYTES, malloc),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the harness self-test")
    args = ap.parse_args(argv)

    # before numpy allocates anything
    malloc = _keep_freed_memory()
    # the benchmark's own modules load numpy, so they come after the
    # package's import is timed
    hs, import_s = _import_package()
    import numpy as np
    # the traced run reports no setup_s, so it sets up once
    repeats = 1 if args.trace else SETUP_REPEATS
    imports = [import_s] + [_fresh_import_seconds()
                            for _ in range(repeats - 1)]
    state, warm = setup(hs, args.workload, args.tiny, repeats)
    setup_s = statistics.median(imports) + statistics.median(warm)

    rng = np.random.default_rng(np.random.SeedSequence(
        [args.seed, zlib.crc32(args.workload.encode())]))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(hs)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t_run = time.perf_counter()
    rec, timed, pairs = run_units(args.workload, hs, rng, args.seconds,
                                  state, args.tiny, tracer)
    t_run = time.perf_counter() - t_run
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    if args.trace:
        from probes import layer_probes
        metrics = per_layer(tracer, pairs, layer_probes(hs))
    else:
        metrics = end_to_end(rec, setup_s, timed)

    failed = sum(not ok for _, _, ok in rec.ops)
    correct = all(f["known"] for f in rec.failures)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(hs, args.seed, args.tiny, malloc),
        "setup": {"import_s": imports, "warm_s": warm, "setup_s": setup_s},
        "wall_s": {"process": time.perf_counter() - _T0, "loop": t_run,
                   "timed": timed},
        "loop_rusage": {"user_s": ru1.ru_utime - ru0.ru_utime,
                        "system_s": ru1.ru_stime - ru0.ru_stime,
                        "minor_faults": ru1.ru_minflt - ru0.ru_minflt},
        "units": [{"kind": k, "seconds": dt, "ok": ok, "input": inp}
                  for k, dt, ok, inp in rec.units],
        "operations": breakdown(rec, timed),
        "ops": [{"kind": k, "seconds": dt, "ok": ok} for k, dt, ok in rec.ops],
        "failures": rec.failures,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")

    for kind, row in result["operations"].items():
        extra = "".join(f"  {k} {v:.4g}" for k, v in row.items()
                        if k not in ("n", "failed", "p50_s"))
        print(f"{args.workload:7s} {kind:18s} n {row['n']:4d}  "
              f"failed {row['failed']:3d}  p50_s {row['p50_s']:.4g}{extra}")
    for f in rec.failures:
        tag = "known" if f["known"] else "NEW"
        where = json.dumps(f["input"], default=str)[:200]
        print(f"FAIL [{tag}] {f['workload']} {f['operation']} "
              f"{f['failure']}: {f['detail']}  input {where}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rec.ops),
                      "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
