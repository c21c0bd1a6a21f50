"""In-memory span tracer for the traced benchmark run.

`Tracer.install()` wraps the public functions of each spanned qrdyn module
at every binding in every `qrdyn.*` namespace, so calls between modules
(obstruct -> fixed_rays, classify_limit -> fixed_rays, write_ppm ->
grid_to_rgb) are caught as nested spans.  Workers of untraced runs never
import this module.

Each span keeps four clock readings: wrapper entry `g0`, call start `t0`,
call end `t1` and wrapper exit `g1`.  A span's self time is `t1 - t0` minus
the `g1 - g0` of its children; the wrapper's own bookkeeping (`g1 - g0`
minus `t1 - t0`) is tracer overhead.  Spans are recorded from the thread
that installed the tracer only; `render_grid`'s worker threads run
unwrapped private code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layers are qrdyn modules.  core is not spanned: its primitives run
# millions of times inside the other layers, so their cost lands in the
# callers' self time.
LAYERS = ("cli", "plane", "circle", "rays", "mobius", "blaschke", "obstruct")

# Per-step primitives, called inside the loops of the spanned entry points;
# a span each would cost more than the work it measures.
HOT = frozenset({
    "circle_map", "circle_map_lift", "circle_map_deriv", "circle_map_deriv2",
    "circle_preimages", "circle_map_array", "cubic_coeffs", "solve_cubic",
    "trace_sq_of_angle", "theta_of_K", "mobius_apply", "mobius_compose",
    "mobius_inverse", "trace_sq", "is_hyperbolic", "contraction_k",
    "hyperbolic_dist", "fixed_ray_mobius", "blaschke_apply",
    "blaschke_of_params", "r_attract", "build_parser",
})

# documented answers, not failures: immediate_basin raises NoBasin in the
# one-ray regimes
EXPECTED_RAISES = ("NoBasin",)

# fields of a span record
NAME, PARENT, G0, T0, T1, G1, FAILED = range(7)


class Tracer:
    """Records spans as [name, parent, g0, t0, t1, g1, failed] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.hooks: dict[str, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span named `name`."""
        clock, spans, stack = time.perf_counter, self.spans, self._stack
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            g0 = clock()
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, g0, 0.0, 0.0, 0.0, False]
            spans.append(rec)
            stack.append(idx)
            rec[T0] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[T1] = clock()
                rec[FAILED] = type(e).__name__ not in EXPECTED_RAISES
                stack.pop()
                rec[G1] = clock()
                raise
            rec[T1] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            rec[G1] = clock()
            return out

        return traced

    def install(self) -> None:
        """Wrap every spanned function at each of its qrdyn bindings."""
        layers = {layer: importlib.import_module("qrdyn." + layer) for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qrdyn" or n.startswith("qrdyn."))]
        for layer, mod in layers.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or attr in HOT or attr.startswith("cmd_")
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            self._saved.append((m, k, v))
                            setattr(m, k, wrapped)

    def uninstall(self) -> None:
        for m, k, v in reversed(self._saved):
            setattr(m, k, v)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its call duration minus its children's
    wrapper-to-wrapper durations."""
    out = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[G1] - s[G0]
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s and failed."""
    agg: dict[str, dict[str, float]] = {}
    for s, st in zip(spans, self_times(spans)):
        a = agg.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "failed": 0})
        a["calls"] += 1
        a["self_s"] += st
        a["failed"] += int(s[FAILED])
    return agg

