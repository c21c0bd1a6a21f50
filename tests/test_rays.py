import math
import random

import pytest

from qrdyn.circle import circle_map, circle_map_deriv
from qrdyn.core import circle_dist, make_params
from qrdyn.errors import InvalidParameter
from qrdyn.rays import (Regime, Stability, cubic_coeffs, fixed_rays,
                        interval_J, k_theta, solve_cubic, theta_of_K,
                        trace_sq_of_angle)


def bisect_fixed_angles_theta0(K):
    """Independent oracle for theta = 0: nonzero fixed angles solve
    K tan(phi/2) = tan(phi) on (0, pi/2); 0 is always fixed."""
    f = lambda phi: K * math.tan(phi / 2.0) - math.tan(phi)
    angles = [0.0]
    lo, hi = 1e-9, math.pi / 2 - 1e-9
    if f(lo) * f(hi) < 0:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        angles.extend([root, -root])
    return sorted(angles)


def test_theta0_K4_against_bisection_oracle():
    p = make_params(4.0, 0.0)
    rep = fixed_rays(p)
    assert rep.regime is Regime.THREE
    got = sorted(r.angle for r in rep.rays)
    want = bisect_fixed_angles_theta0(4.0)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)
    # closed form: +-2 atan(sqrt(1 - 2/K))
    a = 2.0 * math.atan(math.sqrt(1.0 - 2.0 / 4.0))
    assert got[2] == pytest.approx(a, abs=1e-9)
    assert got[2] == pytest.approx(1.2309594, abs=1e-7)
    mults = sorted(r.multiplier for r in rep.rays)
    assert mults[0] == pytest.approx(0.5)
    assert mults[1] == pytest.approx(3.0)
    assert mults[2] == pytest.approx(3.0)
    stabs = [r.stability for r in sorted(rep.rays, key=lambda r: r.angle)]
    assert stabs == [Stability.REPELLING, Stability.ATTRACTING,
                     Stability.REPELLING]


def test_theta0_small_K_single_repelling():
    rep = fixed_rays(make_params(1.5, 0.0))
    assert rep.regime is Regime.ONE_REPELLING
    assert len(rep.rays) == 1
    r = rep.rays[0]
    assert r.angle == pytest.approx(0.0, abs=1e-12)
    assert r.multiplier == pytest.approx(4.0 / 3.0)
    assert bisect_fixed_angles_theta0(1.5) == [0.0]


def test_theta0_K2_parabolic():
    rep = fixed_rays(make_params(2.0, 0.0))
    assert rep.regime is Regime.ONE_PARABOLIC
    assert len(rep.rays) == 1
    assert rep.rays[0].stability is Stability.NEUTRAL
    assert rep.rays[0].multiplier == pytest.approx(1.0)


def test_vertical_direction_single_ray():
    # theta = pi/2: the cubic has the exact root t = -1, one fixed ray at 0
    for K in (1.5, 3.0, 10.0):
        rep = fixed_rays(make_params(K, math.pi / 2))
        assert len(rep.rays) == 1
        r = rep.rays[0]
        assert circle_dist(r.angle, 0.0) < 1e-9
        assert r.multiplier == pytest.approx(2.0 * K)


def test_all_roots_are_fixed_angles():
    rng = random.Random(12)
    for _ in range(200):
        p = make_params(1.0 + 10 ** rng.uniform(-2, 1.2),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        for r in fixed_rays(p).rays:
            assert circle_dist(circle_map(p, r.angle), r.angle) < 1e-8
            assert r.multiplier == pytest.approx(
                circle_map_deriv(p, r.angle))


def test_solve_cubic_simple():
    # (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6
    roots = solve_cubic((1.0, -6.0, 11.0, -6.0))
    assert [m for _, m in roots] == [1, 1, 1]
    assert [t for t, _ in roots] == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)


def test_solve_cubic_double_root():
    # (t-1)^2 (t+2) = t^3 - 3t + 2
    roots = solve_cubic((1.0, 0.0, -3.0, 2.0))
    assert sorted(m for _, m in roots) == [1, 2]
    d = {m: t for t, m in roots}
    assert d[2] == pytest.approx(1.0, abs=1e-6)
    assert d[1] == pytest.approx(-2.0, abs=1e-10)


def test_solve_cubic_triple_root():
    roots = solve_cubic((1.0, -3.0, 3.0, -1.0))  # (t-1)^3
    assert len(roots) == 1
    assert roots[0][1] == 3
    assert roots[0][0] == pytest.approx(1.0, abs=1e-4)


def test_cubic_coeffs_theta0():
    assert cubic_coeffs(make_params(4.0, 0.0)) == (4.0, 0.0, -2.0, 0.0)


def test_theta_of_K_endpoints_and_monotone():
    assert theta_of_K(2.0) == 0.0
    vals = [theta_of_K(K) for K in (2.1, 3.0, 5.0, 20.0, 500.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < math.pi / 2
    with pytest.raises(InvalidParameter):
        theta_of_K(1.5)


def test_k_theta_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        theta = rng.uniform(1e-4, math.pi / 2 - 1e-4)
        K = k_theta(theta)
        assert abs(theta_of_K(K) - theta) < 1e-10
    assert k_theta(0.0) == 2.0
    assert k_theta(math.pi / 6) == pytest.approx(6.41, abs=0.01)


def test_regimes_across_bifurcation():
    theta = 0.4
    Kc = k_theta(theta)
    assert fixed_rays(make_params(0.9 * Kc, theta)).regime is Regime.ONE_REPELLING
    assert fixed_rays(make_params(Kc, theta)).regime is Regime.TWO_WITH_NEUTRAL
    assert fixed_rays(make_params(1.1 * Kc, theta)).regime is Regime.THREE


def test_trace_sq_formula():
    assert trace_sq_of_angle(2.0, 0.0) == pytest.approx(4.5)
    assert trace_sq_of_angle(4.0, 0.0) == pytest.approx(6.25)


@pytest.mark.parametrize("K,phi", [(1e200, 0.0), (1.5e154, 0.5), (1e154, 0.0),
                                   (2.0, math.inf), (math.nan, 0.0)])
def test_trace_sq_not_finite_is_invalid_parameter(K, phi):
    # (K + 1)^2 overflows from K of about 1.3e154 on: that was a bare
    # OverflowError, and an inf product was returned as trace_sq
    with pytest.raises(InvalidParameter) as e:
        trace_sq_of_angle(K, phi)
    assert f"K={K!r}, phi={phi!r}" in str(e.value)


def test_interval_J():
    p = make_params(4.0, 0.0)
    lo, hi = interval_J(p)
    assert hi == pytest.approx(math.acos(math.sqrt(7.0 / 15.0)))
    assert lo == -hi
    # derivative is below 1 inside, above 1 outside
    assert circle_map_deriv(p, 0.99 * hi) < 1.0
    assert circle_map_deriv(p, 1.01 * hi) > 1.0
    assert interval_J(make_params(1.5, 0.0)) is None
    a, b = interval_J(make_params(2.0, 0.3))
    assert a == b == pytest.approx(0.3)
