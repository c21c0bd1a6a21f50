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
import re
import types
from pathlib import Path

import numpy as np

import qrdyn
from qrdyn import QrdynError

KS = (1.0 + 1e-12, 1.5, 2.0, 3.0, 1e6, 1e15)
THETAS = (0.0, 1e-300, -0.3, math.pi, 1e300)
ANGLES = (0.0, 1e-300, math.pi, -math.pi, 1e300, math.nan, math.inf, -math.inf)
ZS = (0j, 1e-300 + 0j, 0.3 + 0.4j, 1e300 * (1 + 1j), 1.7e308 * (1 + 1j),
      complex(math.nan, 0.0), complex(math.inf, 0.0))
COUNTS = (-1, 0, 1, 2.5, np.int64(2), 10 ** 20)

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
                for fn in (q.orbit, q.backward_tree, q.dilatation_on_ray,
                           q.classify_limit):
                    yield fn.__name__, fn, (p, a, n)
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


def nodes_in_functions(tree: ast.AST):
    """(node, name of the enclosing function) of every node of a module's
    tree, "<module>" outside any function."""

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        yield node, fn
        for child in ast.iter_child_nodes(node):
            yield from visit(child, fn)

    return visit(tree, "<module>")


def constructions(tree: ast.AST, module: str) -> set[tuple[str, str, str]]:
    """(what, module, enclosing function) of every ResourceLimit built or
    raised and every operator.index call in a module's tree."""
    found = set()
    for node, fn in nodes_in_functions(tree):
        target = node.func if isinstance(node, ast.Call) else (
            node.exc if isinstance(node, ast.Raise) else None)
        if target is not None:
            name = ast.unparse(target)
            if name.split(".")[-1] == "ResourceLimit":
                found.add(("ResourceLimit", module, fn))
            if name in ("operator.index", "index"):
                found.add(("operator.index", module, fn))
    return found


def test_counts_are_range_checked_in_core_require_count_alone():
    # a hand-written bound, or an integer check of its own, fails here:
    # each count goes through core.require_count
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= constructions(ast.parse(path.read_text(), str(path)), path.name)
    assert found == {("ResourceLimit", "core.py", "require_count"),
                     ("operator.index", "core.py", "require_count")}


def power_functions(tree: ast.AST, value: float) -> set[str]:
    """The functions of a module's tree with a power of two constants equal
    to value, however it is spelled (2 ** -40, 0.5 ** 40)."""

    def constant(node):
        try:
            return ast.literal_eval(node)
        except ValueError:
            return None

    def power(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
            return False
        base, exp = constant(node.left), constant(node.right)
        return isinstance(base, (int, float)) and isinstance(exp, (int, float)) \
            and base ** exp == value

    return {fn for node, fn in nodes_in_functions(tree) if power(node)}


def plane_tree() -> ast.AST:
    """The parsed source of qrdyn's plane module."""
    path = SRC / "plane.py"
    return ast.parse(path.read_text(), str(path))


def test_plane_has_one_radius_recurrence():
    # a second certificate of the plane kernel, with a recurrence of its
    # own, fails here: _quiet_steps and _tile_steps share _disk_step, whose
    # factor 2.0 ** -40 covers the recurrence's rounding
    assert power_functions(plane_tree(), 2.0 ** -40) == {"_disk_step"}


def test_plane_has_one_rectangle_disk():
    # a second disk holding a rectangle of pixels, with rounding terms of
    # its own, fails here: the window gate, the batches of failed cells
    # (all of a zoom's cells among them) and the tile pass's cells all take
    # _rect_disk, whose 2.0 ** -1073 covers the halving of a subnormal
    assert power_functions(plane_tree(), 2.0 ** -1073) == {"_rect_disk"}


def test_plane_has_one_batch_loop():
    # a second loop that hands pixels to the kernel, such as a path of row
    # blocks beside the cells, fails here: the kernel is called on a single
    # point and in _classify_cells' batches of failed cells alone
    callers = {fn for node, fn in nodes_in_functions(plane_tree())
               if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "_classify_block"}
    assert callers == {"classify_point", "_classify_cells"}


def test_plane_has_one_batch_size():
    # a second pixel count beside BLOCK_PIXELS, such as a batch size of the
    # failed cells apart from the zooms' blocks, fails here: the kernel's
    # batches and write_ppm's blocks of rows take the one constant
    names = [target.id for node in plane_tree().body if isinstance(node, ast.Assign)
             for target in node.targets
             if isinstance(target, ast.Name) and target.id.endswith("_PIXELS")]
    assert names == ["BLOCK_PIXELS"]


def test_every_cache_sits_behind_one_plain_public_function():
    # the benchmark's tracer wraps plain functions only, so a public
    # lru_cache object would drop its spans: each cached function is private
    # and called by one undecorated public function of its module alone
    cached = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for fn in defs:
            if not any("lru_cache" in ast.unparse(d) for d in fn.decorator_list):
                continue
            cached.add(fn.name)
            callers = [node for node in defs
                       if any(isinstance(call, ast.Call)
                              and ast.unparse(call.func) == fn.name
                              for call in ast.walk(node))]
            assert fn.name.startswith("_"), (path.name, fn.name)
            assert len(callers) == 1, (path.name, fn.name)
            assert not callers[0].name.startswith("_") \
                and not callers[0].decorator_list, (path.name, callers[0].name)
    assert {"_fixed_rays", "_k_theta", "_distance_series"} <= cached


def test_every_function_and_class_has_a_caller():
    # code with no caller goes: each module-level function and class of
    # qrdyn is exported, a console script (cli.main), named inside another
    # qrdyn function, or called by the benchmark (circle.converged_fraction,
    # which the survey times)
    def name(node):
        return node.id if isinstance(node, ast.Name) else node.attr

    init = ast.parse((SRC / "__init__.py").read_text())
    kept = {a.name for node in init.body if isinstance(node, ast.ImportFrom)
            for a in node.names}
    project = (SRC.parents[1] / "pyproject.toml").read_text()
    kept |= set(re.findall(r'"qrdyn\.\w+:(\w+)"', project))
    for path in sorted((SRC.parents[1] / "bench").glob("*.py")):
        kept |= {name(node.func) for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, (ast.Name, ast.Attribute))}
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        named |= {name(node) for node, fn in nodes_in_functions(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and fn not in ("<module>", name(node))}
    assert [d for d in defined if d[1] not in kept | named] == []
