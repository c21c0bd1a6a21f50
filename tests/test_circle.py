import math
import random

import numpy as np
import pytest

from qrdyn.circle import (MAX_ORBIT_LEN, _circle_step, backward_tree, circle_map,
                          circle_map_deriv, classify_limit, converged_fraction,
                          orbit, require_fixed_angle, LimitOutcome)
from qrdyn.core import circle_dist, make_params, normalize_angle
from qrdyn.errors import InvalidParameter, ResourceLimit
from circle_inverse import circle_preimages


def circle_map_lift(p, phi):
    """Monotone degree-2 lift of the circle map: continuous on
    (theta - pi/2, theta + 3 pi/2) and satisfying
    lift(phi + 2 pi) = lift(phi) + 4 pi."""
    x = phi - p.theta
    # unwrap the atan branch: shift x into [-pi/2, pi/2] by a multiple of pi
    k = round(x / math.pi)
    xr = x - k * math.pi
    return 2.0 * p.theta + 2.0 * (math.atan(math.tan(xr) / p.K) + k * math.pi)


def random_params(rng):
    return make_params(1.0 + 10.0 ** rng.uniform(-2, 1.2),
                       rng.uniform(-math.pi / 2, math.pi / 2))


def test_circle_map_known_values():
    p = make_params(2.0, 0.0)
    assert circle_map(p, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert circle_dist(circle_map(p, math.pi / 2), math.pi) < 1e-12
    # quarter turn is halved in slope at theta by factor 1/K
    assert circle_map_deriv(p, 0.0) == pytest.approx(1.0)


def test_deriv_matches_finite_difference():
    rng = random.Random(3)
    for _ in range(100):
        p = random_params(rng)
        phi = rng.uniform(-math.pi, math.pi)
        h = 1e-6
        fd = (circle_map_lift(p, phi + h) - circle_map_lift(p, phi - h)) / (2 * h)
        assert circle_map_deriv(p, phi) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_lift_degree_two():
    rng = random.Random(5)
    for _ in range(50):
        p = random_params(rng)
        phi = rng.uniform(-10, 10)
        a = circle_map_lift(p, phi)
        assert circle_map_lift(p, phi + 2 * math.pi) == pytest.approx(a + 4 * math.pi)
        assert circle_dist(a, circle_map(p, phi)) < 1e-10


def test_lift_monotone():
    p = make_params(6.0, 0.4)
    xs = np.linspace(-3.0, 3.0, 2000)
    ys = [circle_map_lift(p, x) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))


def test_preimages_round_trip():
    rng = random.Random(6)
    for _ in range(300):
        p = random_params(rng)
        psi = rng.uniform(-math.pi, math.pi)
        a, b = circle_preimages(p, psi)
        assert circle_dist(circle_map(p, a), psi) < 1e-12
        assert circle_dist(circle_map(p, b), psi) < 1e-12
        assert circle_dist(a, b + math.pi) < 1e-12


def test_array_map_matches_scalar():
    # one in-place step on unit complex numbers against the scalar map
    p = make_params(3.5, -0.7)
    phis = np.linspace(-math.pi, math.pi, 257)
    z = np.exp(1j * phis)
    _circle_step(p.mu, z, np.empty_like(z))
    for x, y in zip(phis, np.angle(z)):
        assert circle_dist(circle_map(p, float(x)), float(y)) < 1e-12


def test_orbit_length_and_consistency():
    p = make_params(2.5, 0.2)
    seq = orbit(p, 1.0, 10)
    assert len(seq) == 11
    for a, b in zip(seq, seq[1:]):
        assert circle_dist(circle_map(p, a), b) < 1e-12
    assert orbit(p, 1.0, 0) == [1.0]


@pytest.mark.parametrize("phi,n,named", [
    (math.nan, 5, "phi=nan"), (math.inf, 5, "phi=inf"),
    (-math.inf, 5, "phi=-inf"), (1.0, -4, "n=-4")])
def test_orbit_rejects_out_of_domain(phi, n, named):
    with pytest.raises(InvalidParameter, match=named):
        orbit(make_params(2.5, 0.2), phi, n)


@pytest.mark.parametrize("n", [MAX_ORBIT_LEN + 1, 10 ** 20])
def test_orbit_length_limit(n):
    # rejected before the first step: 10**20 angles could not be stored
    with pytest.raises(ResourceLimit,
                       match=f"orbit n {n} exceeds limit {MAX_ORBIT_LEN}$"):
        orbit(make_params(2.5, 0.2), 0.5, n)


@pytest.mark.parametrize("phi,named", [
    (math.nan, "phi=nan"), (math.inf, "phi=inf"), (-math.inf, "phi=-inf"),
    (0.5, "phi=0.5")])
def test_require_fixed_angle_rejects(phi, named):
    # NaN compares false with every residual, so the check must not pass it
    with pytest.raises(InvalidParameter, match=named):
        require_fixed_angle(make_params(2.0, 0.0), phi)


def test_classify_limit_rejects_negative_max_iter():
    with pytest.raises(InvalidParameter, match="max_iter=-4"):
        classify_limit(make_params(2.0, 0.3), 0.5, max_iter=-4)
    # max_iter = 0 still tests the start itself
    assert classify_limit(make_params(2.0, 0.3), 0.5, max_iter=0).iterations == 0


@pytest.mark.parametrize("phi,max_iter,named", [
    (math.nan, 10, "phi=nan"), (math.inf, 10, "phi=inf"),
    (-math.inf, 10, "phi=-inf"), (0.5, 2.0, "max_iter=2.0"),
    (0.5, 1.5, "max_iter=1.5"), (0.5, "3", "max_iter='3'")])
def test_classify_limit_rejects_out_of_domain(phi, max_iter, named):
    with pytest.raises(InvalidParameter, match=named):
        classify_limit(make_params(2.0, 0.3), phi, max_iter)


@pytest.mark.parametrize("phi,named", [
    (math.nan, "phi=nan"), (math.inf, "phi=inf"), (-math.inf, "phi=-inf")])
def test_backward_tree_rejects_non_finite_phi(phi, named):
    with pytest.raises(InvalidParameter, match=named):
        backward_tree(make_params(2.0, 0.3), phi, 3)


@pytest.mark.parametrize("target,named", [
    (math.nan, "target=nan"), (math.inf, "target=inf"),
    (-math.inf, "target=-inf")])
def test_converged_fraction_rejects_non_finite_target(target, named):
    phis = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    with pytest.raises(InvalidParameter, match=named):
        converged_fraction(make_params(4.0, 0.0), phis, target, 10, 1e-6)


def test_classify_limit_attracting():
    p = make_params(4.0, 0.0)
    rep = classify_limit(p, 0.5)
    assert rep.outcome is LimitOutcome.CONVERGED
    assert circle_dist(rep.target, 0.0) < 1e-12


def test_classify_limit_repelling_start():
    p = make_params(4.0, 0.0)
    rep = classify_limit(p, 1.2309594173407747)
    assert rep.outcome is LimitOutcome.LANDED_ON_REPELLER


def test_classify_limit_undecided_one_ray():
    # single repelling ray: generic orbits never settle
    p = make_params(1.5, 0.0)
    rep = classify_limit(p, 0.5, max_iter=2000)
    assert rep.outcome is LimitOutcome.UNDECIDED
    assert rep.target is None and rep.iterations == 2000
    # the report is made one step past the last tested iterate
    for n in (0, 1, 7, 2000):
        rep = classify_limit(p, 0.5, max_iter=n)
        assert rep.final_angle == orbit(p, 0.5, n + 1)[-1]


def test_classify_limit_reports_the_streak():
    # iterations is the first iterate of the confirming streak, final_angle
    # the last one, which is where the report is made
    p = make_params(4.0, 0.0)
    rep = classify_limit(p, 0.5)
    seq = orbit(p, 0.5, rep.iterations + 4)
    assert rep.final_angle == seq[-1]
    assert all(circle_dist(a, rep.target) < 1e-9 for a in seq[rep.iterations:])
    assert circle_dist(seq[rep.iterations - 1], rep.target) >= 1e-9


def test_backward_tree_counts_and_density():
    p = make_params(1.5, 0.0)
    t = backward_tree(p, 0.5, 10)
    assert len(t.angles) == 2 ** 10
    assert t.angles == sorted(t.angles)
    # gaps shrink like (K/2)^depth next to the repelling fixed angle
    assert t.max_gap < 0.15
    assert backward_tree(p, 0.0, 14).max_gap == pytest.approx(0.0346, abs=5e-3)
    assert backward_tree(p, 0.0, 16).max_gap < 0.02


def test_backward_tree_fixed_angle_dedup():
    # the fixed angle 0 is its own preimage, so every level holds it; its
    # other preimage is pi, and at K = 1.5 no two preimages round to one
    # float, so each level keeps all 2^depth angles
    p = make_params(1.5, 0.0)
    t = backward_tree(p, 0.0, 6)
    assert 0.0 in t.angles
    assert len(t.angles) == 2 ** 6


def test_backward_tree_keeps_every_distinct_preimage():
    # preimages crowd at the repelling fixed angle, 1/(2K) closer a level,
    # and are kept while floats tell them apart (20,181 once merged within
    # 1e-13)
    angles = backward_tree(make_params(10.0, 0.3), 0.4, 16).angles
    assert len(angles) >= 63_000
    assert all(a < b for a, b in zip(angles, angles[1:]))


def test_backward_tree_depth_limit():
    p = make_params(1.5, 0.0)
    with pytest.raises(ResourceLimit):
        backward_tree(p, 0.5, 21)


def test_backward_tree_rejects_negative_depth():
    p = make_params(2.0, 0.3)
    with pytest.raises(InvalidParameter, match="depth=-3"):
        backward_tree(p, 0.5, -3)
    assert backward_tree(p, 0.5, 0).angles == [0.5]
