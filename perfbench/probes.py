"""Layer probes: isolated calls into each layer at fixed inputs.

Each probe times single calls and reports the median, so the figure is
a per-point (or per-build, per-batch) cost of that layer alone.  They
run untraced, after the workload, in the --trace 1 run.
"""

import statistics
import time

import numpy as np

ALPHA, RHO = 1.5, 0.55
# (name, |Im z|, repeats): on the real axis, at the largest |Im z| of a
# ray-profile node (4.5), in between (20), and at the far points of the
# two-sided profile identity in `verify` (600).  The repeats keep each
# probe near 0.1 s.
LOG_S2_IM = (("im0", 0.0, 200), ("im4.5", 4.5, 60), ("im20", 20.0, 30),
             ("im600", 600.0, 7))


def _median_time(fn, repeats):
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_probes(hs):
    p = hs.model.StableParams(ALPHA, RHO)
    out = {}
    ds = hs.doublesine
    ds.log_s2(0.9, ALPHA)  # validates the sign convention once
    for name, im, reps in LOG_S2_IM:
        out[f"doublesine.log_s2_point_s.{name}"] = _median_time(
            lambda i: ds.log_s2(complex(0.9 + 1e-3 * i, im), ALPHA), reps)

    # one cold build of the G-profile ray weight of (ALPHA, RHO)
    b, q = 1.0 + ALPHA + 0.5 * ALPHA * p.rho_hat, 0.5 * ALPHA * p.rho - 0.5

    def build(_):
        hs.profiles.ray_profile.cache_clear()
        hs.profiles.ray_profile(ALPHA, b, q)

    out["profiles.build_probe_s"] = _median_time(build, 3)

    xs = np.geomspace(0.01, 50.0, 256)
    hs.eigenfunctions.g_func(p, xs)
    out["eigenfunctions.g_point_s"] = _median_time(
        lambda _: hs.eigenfunctions.g_func(p, xs), 5) / xs.size

    factor = hs.wienerhopf.WhFactor(p)
    out["wienerhopf.phi_point_s"] = _median_time(
        lambda i: hs.wienerhopf.phi(factor, 0.5 + 0.1 * i), 20)

    rng = np.random.default_rng(7)
    out["model.draw_s"] = _median_time(
        lambda _: hs.model.sample_increment(p, 1e-3, rng, 1_000_000), 3)
    return out
