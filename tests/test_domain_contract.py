"""The library's domain contract: every public function returns finite
values or raises a QrdynError, and core.require_count alone checks the
range of a count and raises ResourceLimit.

The sweep calls every export of `qrdyn` on every combination of a fixed
set of extreme inputs, so it is deterministic (julia_sample draws with a
fixed seed).  Exempt are:

- eval_H, which is elementwise IEEE arithmetic on numbers and arrays: a
  nan stays nan and an overflow gives inf, entry by entry, as numpy's
  arithmetic does;
- the records, enumerations and error types, which hold values and check
  none.  MapParams and Window check themselves and are swept, Window also
  through Window.from_bounds, the constructor from bounds.
"""

import ast
import cmath
import dataclasses
import enum
import math
import types
from pathlib import Path

import numpy as np

import qrdyn
from qrdyn import QrdynError

KS = (1.0 + 1e-12, 1.5, 2.0, 3.0, 1e6, 1e15)
THETAS = (0.0, 1e-300, -0.3, math.pi, 1e300)
ANGLES = (0.0, 1e-300, math.pi, -math.pi, 1e300, math.nan, math.inf, -math.inf)
ZS = (0j, 1e-300 + 0j, 0.3 + 0.4j, 1e300 * (1 + 1j), complex(math.nan, 0.0),
      complex(math.inf, 0.0))
COUNTS = (-1, 0, 1, 2.5, np.int64(2), 10 ** 20)
# classify_limit's max_iter has no limit: a run costs time linear in it
SMALL_COUNTS = COUNTS[:-1]

EXEMPT = {
    "eval_H",
    "BackwardTree", "BasinInterval", "BlaschkeMap", "FixedRay", "GrowthFit",
    "LimitReport", "ObstructionVerdict", "PlaneGrid", "PointResult",
    "RegimeReport",
    "JuliaKind", "LimitOutcome", "PointClass", "Reason", "Regime",
    "Stability", "Verdict",
    "QrdynError", "InvalidParameter", "NumericalFailure", "ResourceLimit",
    "NoBasin", "R_ESCAPE",
}


def finite(x) -> bool:
    """Whether every number in x, a value, record or container, is finite."""
    if x is None or isinstance(x, (str, enum.Enum)):
        return True
    if isinstance(x, np.ndarray):
        return bool(np.isfinite(x).all())
    if isinstance(x, (int, float, complex, np.number)):
        return cmath.isfinite(x)
    if dataclasses.is_dataclass(x):
        return all(finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return all(map(finite, x))
    if isinstance(x, dict):
        return all(map(finite, x.values()))
    raise TypeError(f"no finiteness rule for {type(x).__name__}")


def calls(tmp_path):
    """(export name, function, arguments) of every call of the sweep."""
    q = qrdyn
    for K in KS + ANGLES:
        for theta in THETAS + ANGLES:
            yield "make_params", q.make_params, (K, theta)
    maps = [q.make_params(K, theta) for K in KS for theta in THETAS]
    mus = tuple(p.mu for p in maps[::5])
    for K in KS + (1.0, math.nan):
        for theta in THETAS + (math.nan,):
            for mu in ZS + mus:
                yield "MapParams", q.MapParams, (K, theta, mu)
    for z in ZS + mus:
        yield "params_of_mu", q.params_of_mu, (z,)
    for a in ANGLES:
        for b in ANGLES:
            yield "circle_dist", q.circle_dist, (a, b)
    for x in KS + ANGLES:
        yield "theta_of_K", q.theta_of_K, (x,)
        yield "contraction_k", q.contraction_k, (x,)
    for theta in THETAS + ANGLES:
        yield "k_theta", q.k_theta, (theta,)
    bounds = (-1.0, 1e-300, 1e300) + ANGLES[5:]
    for xmin in bounds:
        for xmax in bounds:
            for ymin in bounds:
                for ymax in bounds:
                    yield ("Window", q.Window.from_bounds,
                           (xmin, xmax, ymin, ymax))
    sizes = (1.0, 5e-324, 1e300, 0.0, -1.0) + ANGLES[5:]
    for center in ZS:
        for width in sizes:
            for height in sizes:
                yield "Window", q.Window, (center, width, height)
    windows = (q.Window(0j, 4.0, 4.0), q.Window.from_bounds(0.0, 1e-300, 0.0, 1e-300),
               q.Window.from_bounds(1e300, 1.5e300, -1e300, 1e300))
    resolutions = COUNTS + tuple((n, 2) for n in COUNTS)

    for i, p in enumerate(maps):
        yield "fixed_rays", q.fixed_rays, (p,)
        for fn in (q.interval_J, q.julia_classification, q.immediate_basin,
                   q.blaschke_of_params):
            yield fn.__name__, fn, (p,)
        try:
            fixed = tuple(r.angle for r in q.fixed_rays(p).rays)
        except QrdynError:
            fixed = ()
        angles = ANGLES + fixed
        for a in angles:
            for fn in (q.radial_stretch, q.circle_map, q.radial_fixed_point):
                yield fn.__name__, fn, (p, a)
            for n in COUNTS:
                for fn in (q.orbit, q.backward_tree, q.dilatation_on_ray):
                    yield fn.__name__, fn, (p, a, n)
            for n in SMALL_COUNTS:
                yield "classify_limit", q.classify_limit, (p, a, n)
        for target in angles + ZS:
            for n in COUNTS:
                yield ("dilatation_distance_series", q.dilatation_distance_series,
                       (p, target, n))
            for n_lo, n_hi in [(a, b) for a in COUNTS for b in COUNTS] + [(-20, 30)]:
                yield "growth_fit", q.growth_fit, (p, target, n_lo, n_hi)
        B = q.blaschke_of_params(p)
        for z in ZS + tuple(cmath.exp(1j * a) for a in angles[:5]):
            yield "blaschke_apply", q.blaschke_apply, (B, z)
        for z in ZS:
            for n in COUNTS:
                yield "dilatation_chain", q.dilatation_chain, (p, z, n)
                yield "classify_point", q.classify_point, (p, z, n)
        for n in COUNTS:
            yield "julia_sample", q.julia_sample, (p, n, 1)
        for window in windows:
            for res in resolutions:
                for n in COUNTS:
                    yield "render_grid", q.render_grid, (p, window, res, n)
        grid = q.render_grid(p, windows[i % 3], (3, 2), 4)
        yield "write_ppm", q.write_ppm, (grid, str(tmp_path / "g.ppm"))
        yield "write_stats", q.write_stats, (grid, p, str(tmp_path / "g.json"))
        for p2 in maps:
            yield "obstruction_report", q.obstruction_report, (p, p2)
        for tol in (0.0, 1e300) + ANGLES[5:]:
            yield "obstruction_report", q.obstruction_report, (p, maps[-1 - i], tol)


def test_every_export_returns_finite_values_or_raises_a_qrdyn_error(tmp_path):
    swept, violations = set(), []
    for name, fn, args in calls(tmp_path):
        swept.add(name)
        try:
            out = fn(*args)
        except QrdynError:
            continue
        except Exception as e:  # noqa: BLE001 - the contract is broken
            violations.append(f"{name}{args!r} raised {e!r}")
            continue
        if not finite(out):
            violations.append(f"{name}{args!r} returned {out!r}")
    assert violations == []
    exports = {name for name in dir(qrdyn) if not name.startswith("_")
               and not isinstance(getattr(qrdyn, name), types.ModuleType)}
    # a new export is swept or exempt, and an exempt one is not swept
    assert swept | EXEMPT == exports and not swept & EXEMPT


SRC = Path(qrdyn.__file__).resolve().parent


def constructions(tree: ast.AST, module: str) -> set[tuple[str, str, str]]:
    """(what, module, enclosing function) of every ResourceLimit built or
    raised and every operator.index call in a module's tree."""
    found = set()

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        target = node.func if isinstance(node, ast.Call) else (
            node.exc if isinstance(node, ast.Raise) else None)
        if target is not None:
            name = ast.unparse(target)
            if name.split(".")[-1] == "ResourceLimit":
                found.add(("ResourceLimit", module, fn))
            if name in ("operator.index", "index"):
                found.add(("operator.index", module, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "<module>")
    return found


def test_counts_are_range_checked_in_core_require_count_alone():
    # a hand-written bound, or an integer check of its own, fails here:
    # each count goes through core.require_count
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= constructions(ast.parse(path.read_text(), str(path)), path.name)
    assert found == {("ResourceLimit", "core.py", "require_count"),
                     ("operator.index", "core.py", "require_count")}
