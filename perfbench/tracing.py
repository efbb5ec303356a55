"""Outside-in tracing of the halfstable layers.

Every module of the package is a layer.  `Tracer.install` replaces each
layer's entry points with timing wrappers at run time, on the defining
module and on every module that bound the function with `from .x import
y`, so calls across layers and calls a module makes to its own public
functions both open spans.  `profiles.RayProfile.laplace` is wrapped on
the class.  No library file changes.

A span is (layer, name, start, end, parent, op).  Integrands handed to a
`numerics` routine are wrapped too, in a span charged to the layer that
called the routine, so `numerics` keeps only its panel bookkeeping.
What outside-in wrappers cannot see: private helpers a module calls
internally count as that module's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

LAYERS = ("doublesine", "profiles", "wienerhopf", "eigenfunctions",
          "spectral", "numerics", "model", "montecarlo", "cli")

# (layer, function) -> where the size of its work is: an argument, the
# result's size, or the path count of a Monte Carlo result
_POINTS = {
    ("doublesine", "log_s2"): "arg0",
    ("doublesine", "s2_abs_squared_on_ray"): "arg2",
    ("eigenfunctions", "g_func"): "arg1",
    ("profiles", "RayProfile.laplace"): "arg1",
    ("model", "sample_increment"): "result",
    ("montecarlo", "survival_counts"): "counts",
    ("montecarlo", "estimate_density"): "histogram",
}
_INTEGRATORS = ("integrate_semi_infinite", "integrate_interval",
                "integrate_finite_singular", "integrate_oscillatory_decaying")

# fields of a span record
LAYER, NAME, START, END, PARENT, OP, POINTS, EVALS, UNCONV, BUILD, HIT = \
    range(11)


def _size(x):
    return int(np.size(x))


class Tracer:
    """Holds the spans of one traced run and installs the wrappers."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.op = -1
        self._patches = self._plan()

    # -- installation -------------------------------------------------------

    def _plan(self):
        """List (owner, attribute, wrapper, original) for every binding."""
        mods = {name: getattr(self.package, name) for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                imported_elsewhere = any(
                    vars(other).get(name) is fn
                    for other in mods.values() if other is not mod)
                if name.startswith("_") and not imported_elsewhere:
                    continue
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        # public lru_cache objects (ray_profile) are not plain functions
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if hasattr(fn, "cache_info") and not name.startswith("_") \
                        and getattr(fn, "__module__", None) == mod.__name__:
                    originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        patches = []
        holders = list(mods.values()) + [self.package]
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((holder, name, hit[1], obj))
        ray = mods["profiles"].RayProfile
        patches.append((ray, "laplace",
                        self._wrap("profiles", "RayProfile.laplace",
                                   ray.laplace), ray.laplace))
        return patches

    def install(self):
        for owner, name, wrapper, _ in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, _, original in self._patches:
            setattr(owner, name, original)

    # -- spans --------------------------------------------------------------

    def _open(self, layer, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [layer, name, time.perf_counter(), 0.0, parent, self.op,
               0, 0, 0, 0, 0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        self.stack.pop()
        rec[END] = time.perf_counter()

    def caller_layer(self):
        """Layer of the innermost open span, or 'bench' outside them."""
        return self.spans[self.stack[-1]][LAYER] if self.stack else "bench"

    def _wrap(self, layer, name, fn):
        size_from = _POINTS.get((layer, name))
        is_integrator = layer == "numerics" and name in _INTEGRATORS
        cache = getattr(fn, "cache_info", None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_integrator and args:
                args = (tracer._wrap_integrand(args[0]),) + args[1:]
            before = cache() if cache is not None else None
            rec = tracer._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if size_from == "result":
                rec[POINTS] = _size(out)
            elif size_from == "counts":
                rec[POINTS] = out[1]
            elif size_from == "histogram":
                rec[POINTS] = out[0].n_effective
            elif size_from is not None:
                idx = int(size_from[3:])
                if len(args) > idx:
                    rec[POINTS] = _size(args[idx])
            if is_integrator:
                rec[EVALS] = int(out.evaluations)
                rec[UNCONV] = 0 if out.converged else 1
            if before is not None:
                after = cache()
                rec[BUILD] = after.misses - before.misses
                rec[HIT] = after.hits - before.hits
            return out

        return wrapper

    def _wrap_integrand(self, f):
        tracer = self
        layer = self.caller_layer()

        def integrand(x):
            rec = tracer._open(layer, "integrand")
            try:
                return f(x)
            finally:
                tracer._close(rec)

        return integrand

    def run_op(self, op_id, layer, name, fn):
        """Run fn() inside a root span charged to the harness."""
        self.op = op_id
        rec = self._open(layer, name)
        try:
            return fn()
        finally:
            self._close(rec)
            self.op = -1

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    out = np.array([s[END] - s[START] for s in spans])
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans):
    """Per-layer counts and self times from the spans of a traced run."""
    self_t = self_times(spans)
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for i, s in enumerate(spans):
        layer, name = s[LAYER], s[NAME]
        add(f"{layer}.self_s", self_t[i])
        parent_layer = spans[s[PARENT]][LAYER] if s[PARENT] >= 0 else None
        if name != "integrand" and parent_layer != layer:
            add(f"{layer}.calls", 1)
            add(f"{layer}.evaluations", s[EVALS])
            add(f"{layer}.unconverged", s[UNCONV])
        if layer == "doublesine":
            add("doublesine.points", s[POINTS])
        if layer == "spectral" and name == "integrand":
            add("spectral.integrand_s", self_t[i])
        if name == "g_func":
            add("eigenfunctions.g_points", s[POINTS])
            add("eigenfunctions.g_self_s", self_t[i])
        if name == "RayProfile.laplace":
            add("profiles.laplace_points", s[POINTS])
            add("profiles.laplace_self_s", self_t[i])
        if name == "ray_profile":
            add("profiles.builds", s[BUILD])
            add("profiles.hits", s[HIT])
            if s[BUILD]:
                add("profiles.build_s", s[END] - s[START])
        if layer == "montecarlo":
            add("montecarlo.paths", s[POINTS])
        if name == "sample_increment":
            add("model.increments", s[POINTS])
            add("model.increment_self_s", self_t[i])
    return m
