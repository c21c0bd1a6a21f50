import cmath
import math
import random
import re
import types

import numpy as np
import pytest

import qrdyn
from qrdyn import blaschke, circle, mobius, plane, rays
from qrdyn.core import (MapParams, arg_h, circle_dist, eval_h, eval_H,
                        make_params, normalize_angle, params_of_mu,
                        radial_stretch)
from qrdyn.errors import InvalidParameter, ResourceLimit
from circle_inverse import circle_preimages


def eval_H_polar(p, r, phi):
    """Polar form of H: (r, phi) -> (alpha r^2, 2 arg_h(phi)) with the
    branch of the doubled angle continued through phi - theta = +-pi/2; the
    reference that checks eval_H against the radial stretch and arg_h."""
    if r < 0.0:
        raise InvalidParameter("need r >= 0")
    return radial_stretch(p, phi) * r * r, normalize_angle(2.0 * arg_h(p, phi))


def test_make_params_rejects_bad_K():
    with pytest.raises(InvalidParameter):
        make_params(1.0, 0.0)
    with pytest.raises(InvalidParameter):
        make_params(0.5, 0.0)
    with pytest.raises(InvalidParameter):
        make_params(float("nan"), 0.0)
    # checked before mu divides by K + 1
    for K in (-1.0, -1):
        with pytest.raises(InvalidParameter, match=f"got K={K}"):
            make_params(K, 0.0)
    # |mu| rounds to 1 long before K overflows
    for K in (2e16, 1e155, 1e308):
        for theta in (0.0, 0.3, math.pi / 2):
            with pytest.raises(InvalidParameter, match=re.escape(f"K={K!r} is too large")):
                make_params(K, theta)
    assert abs(make_params(1e15, 0.3).mu) < 1.0


@pytest.mark.parametrize("args,named", [
    ((2.0, 0.0, 1 + 0j), "mu=(1+0j)"), ((2.0, 0.0, 1.5), "mu=1.5"),
    ((2.0, 0.0, complex(math.nan, 0.0)), "mu=(nan+0j)"),
    ((1.0, 0.0, 0j), "K=1.0"), ((math.inf, 0.0, 0.5), "K=inf"),
    ((2.0, math.nan, 1 / 3), "theta=nan"), ((2e16, 0.0, 0.5), "K=2e+16"),
])
def test_map_params_built_directly_is_checked(args, named):
    # the checks of make_params and |mu| < 1, so no function is reached
    # with a map off the domain; an mu off the disk is named, not K
    with pytest.raises(InvalidParameter, match=re.escape(named)):
        MapParams(*args)
    assert MapParams(2.0, 0.0, 1 / 3) == make_params(2.0, 0.0)


def test_theta_normalized_to_half_open_interval():
    p = make_params(2.0, math.pi)  # stretch direction is pi-periodic
    assert p.theta == pytest.approx(0.0, abs=1e-15)
    assert make_params(2.0, math.pi / 2).theta == math.pi / 2
    assert make_params(2.0, -math.pi / 2).theta == math.pi / 2


def test_mu_examples():
    assert make_params(2.0, 0.0).mu == pytest.approx(1.0 / 3.0)
    p = make_params(3.0, math.pi / 4)
    assert p.mu == pytest.approx(0.5j)


def test_params_of_mu_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        K = 1.0 + 10.0 ** rng.uniform(-3, 1.2)
        theta = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2)
        p = make_params(K, theta)
        q = params_of_mu(p.mu)
        assert q.K == pytest.approx(K, rel=1e-12)
        assert circle_dist(q.theta, theta) < 1e-12


def test_params_of_mu_rejects_degenerate():
    with pytest.raises(InvalidParameter):
        params_of_mu(0.0 + 0.0j)
    with pytest.raises(InvalidParameter):
        params_of_mu(1.0 + 0.0j)


def test_h_is_plain_stretch_when_theta_zero():
    p = make_params(4.0, 0.0)
    # x + iy -> Kx + iy
    z = 0.3 + 0.7j
    assert eval_h(p, z) == pytest.approx(4 * 0.3 + 0.7j)


def test_polar_and_cartesian_agree():
    rng = random.Random(11)
    for _ in range(500):
        p = make_params(1.0 + 10.0 ** rng.uniform(-2, 1), rng.uniform(-1.5, 1.5))
        r = 10.0 ** rng.uniform(-2, 1)
        phi = rng.uniform(-math.pi, math.pi)
        rr, pp = eval_H_polar(p, r, phi)
        w = eval_H(p, r * cmath.exp(1j * phi))
        assert abs(w - rr * cmath.exp(1j * pp)) < 1e-10 * max(1.0, rr)


def test_radial_stretch_range():
    p = make_params(5.0, 0.3)
    assert radial_stretch(p, p.theta) == pytest.approx(25.0)
    assert radial_stretch(p, p.theta + math.pi / 2) == pytest.approx(1.0)


def test_arg_h_fixes_theta_direction():
    p = make_params(3.0, 0.8)
    assert arg_h(p, p.theta) == pytest.approx(p.theta)


def test_normalize_angle_half_open():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi
    assert normalize_angle(3 * math.pi) == math.pi
    assert abs(normalize_angle(2 * math.pi)) < 1e-15


def test_eval_H_polar_rejects_negative_radius():
    p = make_params(2.0, 0.0)
    with pytest.raises(InvalidParameter):
        eval_H_polar(p, -1.0, 0.0)


P = make_params(2.0, 0.3)
# each public loop count, as a call of that count alone
LOOP_COUNTS = {
    "orbit n": lambda n: circle.orbit(P, 0.5, n),
    "backward_tree depth": lambda n: circle.backward_tree(P, 0.5, n),
    "converged_fraction n_iter":
        lambda n: circle.converged_fraction(P, np.zeros(3), 0.0, n, 1e-6),
    "classify_limit max_iter": lambda n: circle.classify_limit(P, 0.5, n),
    "dilatation_chain n": lambda n: mobius.dilatation_chain(P, 0.5 + 0.5j, n),
    "dilatation_on_ray n": lambda n: mobius.dilatation_on_ray(
        P, rays.fixed_rays(P).rays[0].angle, n),
    "dilatation_distance_series n_max":
        lambda n: mobius.dilatation_distance_series(P, 0.5 + 0.5j, n),
    "julia_sample count": lambda n: blaschke.julia_sample(P, n, 1),
    "render_grid max_iter":
        lambda n: plane.render_grid(P, plane.Window(0j, 1.0, 1.0), 4, n),
    "render_grid resolution":
        lambda n: plane.render_grid(P, plane.Window(0j, 1.0, 1.0), (4, n), 3),
    "classify_point max_iter": lambda n: plane.classify_point(P, 0.1j, n),
}
# the range [lo, limit] of each loop count, None for no limit
COUNT_RANGES = {
    "orbit n": (0, circle.MAX_ORBIT_LEN),
    "backward_tree depth": (0, circle.MAX_TREE_DEPTH),
    "converged_fraction n_iter": (0, circle.MAX_ORBIT_LEN),
    "classify_limit max_iter": (0, circle.MAX_ORBIT_LEN),
    "dilatation_chain n": (1, mobius.MAX_CHAIN_LEN),
    "dilatation_on_ray n": (1, mobius.MAX_CHAIN_LEN),
    "dilatation_distance_series n_max": (1, mobius.MAX_CHAIN_LEN),
    "julia_sample count": (1, blaschke.MAX_SAMPLE_COUNT),
    "render_grid max_iter": (1, 2 ** 31 - 1),
    "render_grid resolution": (1, plane.MAX_RESOLUTION),
    "classify_point max_iter": (1, 2 ** 31 - 1),
}


@pytest.mark.parametrize("value", [2.5, np.float64(3.0), "3", None])
@pytest.mark.parametrize("fn_name", sorted(LOOP_COUNTS))
def test_non_integer_loop_counts_raise_invalid_parameter(fn_name, value):
    # one shared operator.index check: a bare TypeError from range() before
    fn, name = fn_name.split()
    with pytest.raises(InvalidParameter,
                       match=re.escape(f"{fn} needs an integer {name}, "
                                       f"got {name}={value!r}")):
        LOOP_COUNTS[fn_name](value)
    LOOP_COUNTS[fn_name](np.int64(2))  # numpy integers are integers


@pytest.mark.parametrize("fn_name", sorted(LOOP_COUNTS))
def test_loop_counts_out_of_range_name_function_and_value(fn_name):
    # one shared range check names the function, the count and its value;
    # a negative n_iter used to return the starting fraction
    fn, name = fn_name.split()
    lo, limit = COUNT_RANGES[fn_name]
    with pytest.raises(InvalidParameter, match=re.escape(
            f"{fn} needs {name} >= {lo}, got {name}={lo - 1}") + "$"):
        LOOP_COUNTS[fn_name](np.int64(lo - 1))
    if limit is not None:
        with pytest.raises(ResourceLimit, match=re.escape(
                f"{fn} {name} {limit + 1} exceeds limit {limit}") + "$"):
            LOOP_COUNTS[fn_name](limit + 1)
    LOOP_COUNTS[fn_name](lo)  # the bound itself is in range


# growth_fit's window bounds, each as a call of that bound alone, with an
# integer of the same type that makes a window of at least two points
GROWTH_FIT_BOUNDS = {
    "n_lo": (lambda n: mobius.growth_fit(P, 0.5 + 0.5j, n, 60), np.int64(2)),
    "n_hi": (lambda n: mobius.growth_fit(P, 0.5 + 0.5j, 2, n), np.int64(60)),
}


@pytest.mark.parametrize("value", [10.5, 60.0, np.float64(3.0), "3", None])
@pytest.mark.parametrize("name", sorted(GROWTH_FIT_BOUNDS))
def test_growth_fit_window_bounds_must_be_integers(name, value):
    # a float n_lo fell through to a slice (a bare TypeError), and a float
    # n_hi was reported as dilatation_distance_series' n_max
    fn, integer = GROWTH_FIT_BOUNDS[name]
    with pytest.raises(InvalidParameter,
                       match=re.escape(f"growth_fit needs an integer {name}, "
                                       f"got {name}={value!r}")):
        fn(value)
    assert fn(integer).n_used == (6, 60)


# the public names of the package, submodules aside: a name added here is
# part of the library's contract, and a test helper is not
PUBLIC_NAMES = {
    "BackwardTree", "BasinInterval", "BlaschkeMap", "FixedRay", "GrowthFit",
    "InvalidParameter", "JuliaKind", "LimitOutcome", "LimitReport",
    "MapParams", "NoBasin", "NumericalFailure", "ObstructionVerdict",
    "PlaneGrid", "PointClass", "PointResult", "QrdynError", "R_ESCAPE",
    "Reason", "Regime", "RegimeReport", "ResourceLimit", "Stability",
    "Verdict", "Window", "backward_tree", "blaschke_apply",
    "blaschke_of_params", "circle_dist", "circle_map", "classify_limit",
    "classify_point", "contraction_k", "dilatation_chain",
    "dilatation_distance_series", "dilatation_on_ray", "eval_H",
    "fixed_rays", "growth_fit", "immediate_basin", "interval_J",
    "julia_classification", "julia_sample", "k_theta", "make_params",
    "obstruction_report", "orbit", "params_of_mu", "radial_fixed_point",
    "radial_stretch", "render_grid", "theta_of_K", "write_ppm",
    "write_stats",
}


def test_public_names_of_the_package():
    names = {name for name in dir(qrdyn) if not name.startswith("_")
             and not isinstance(getattr(qrdyn, name), types.ModuleType)}
    assert names == PUBLIC_NAMES


# each scalar angle primitive, with the name of its angle
ANGLE_PRIMITIVES = {
    "arg_h": (arg_h, "phi"),
    "radial_stretch": (radial_stretch, "phi"),
    "circle_map": (circle.circle_map, "phi"),
    "circle_map_deriv": (circle.circle_map_deriv, "phi"),
    "circle_preimages": (circle_preimages, "psi"),
}


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("fn_name", sorted(ANGLE_PRIMITIVES))
def test_non_finite_angles_raise_invalid_parameter(fn_name, angle):
    # one shared finiteness check: math.cos raised a bare ValueError for
    # +-inf, and nan came back as nan
    fn, name = ANGLE_PRIMITIVES[fn_name]
    with pytest.raises(InvalidParameter,
                       match=re.escape(f"{fn_name} needs a finite {name}, "
                                       f"got {name}={angle!r}")):
        fn(P, angle)
    assert all(map(math.isfinite, np.atleast_1d(fn(P, 0.5))))
