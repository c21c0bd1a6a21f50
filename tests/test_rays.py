import importlib.util
import inspect
import math
import random
import re
from pathlib import Path

import pytest

import qrdyn.rays
from qrdyn.blaschke import immediate_basin, julia_classification, julia_sample
from qrdyn.circle import (circle_map, circle_map_deriv, classify_limit,
                          is_fixed_angle, require_fixed_angle)
from qrdyn.core import circle_dist, make_params
from qrdyn.errors import InvalidParameter, NumericalFailure
from qrdyn.mobius import contraction_k
from qrdyn.obstruct import obstruction_report
from qrdyn.rays import (Regime, Stability, _cubic_roots, _fixed_rays,
                        _k_theta, cubic_coeffs, fixed_rays, interval_J,
                        k_theta, theta_of_K, trace_sq_of_angle)
from quartic_oracle import exact_regime

RAY_COUNT = {"one_repelling": 1, "one_parabolic": 1,
             "two_with_neutral": 2, "three": 3}


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


def test_cubic_roots_simple():
    # (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6, with a positive discriminant
    regime, roots = _cubic_roots((1.0, -6.0, 11.0, -6.0), 1, 0.0)
    assert regime is Regime.THREE
    assert roots == [(1.0, Stability.REPELLING), (2.0, Stability.ATTRACTING),
                     (3.0, Stability.REPELLING)]


def test_cubic_roots_double_root():
    # (t-1)^2 (t+2) = t^3 - 3t + 2: the double root is the critical point 1
    regime, roots = _cubic_roots((1.0, 0.0, -3.0, 2.0), 0, 0.0)
    assert regime is Regime.TWO_WITH_NEUTRAL
    assert roots == [(-2.0, Stability.REPELLING), (1.0, Stability.NEUTRAL)]


def test_cubic_roots_triple_root():
    regime, roots = _cubic_roots((1.0, -3.0, 3.0, -1.0), 0, 0.0)  # (t-1)^3
    assert regime is Regime.ONE_PARABOLIC
    assert roots == [(1.0, Stability.NEUTRAL)]


def test_cubic_coeffs_theta0():
    assert cubic_coeffs(make_params(4.0, 0.0)) == (4.0, 0.0, -2.0, 0.0)


def test_theta_of_K_endpoints_and_monotone():
    assert theta_of_K(2.0) == 0.0
    vals = [theta_of_K(K) for K in (2.1, 3.0, 5.0, 20.0, 500.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < math.pi / 2
    assert theta_of_K(8.9e307) == math.pi / 2
    # from about 9e307 on 2K - 1 overflowed and the angle came back as 0.0
    # where it rounds to pi/2; inf and nan gave nan
    for K in (1.5, 9e307, 1.7e308, math.inf, math.nan):
        with pytest.raises(InvalidParameter, match=re.escape(f"got K={K!r}")):
            theta_of_K(K)


def test_k_theta_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        theta = rng.uniform(1e-4, math.pi / 2 - 1e-4)
        K = k_theta(theta)
        assert abs(theta_of_K(K) - theta) < 1e-10
    assert k_theta(0.0) == 2.0
    assert k_theta(math.pi / 6) == pytest.approx(6.41, abs=0.01)


def test_k_theta_at_small_theta():
    # theta_of_K = acos(cos theta) lost theta as cos theta -> 1: k_theta was
    # 2.0000161576280515 for every theta <= 1e-8, and K_theta(1e-9) is
    # about 2 + 2.4e-6.  The quartic oracle places k_theta(theta) at the
    # bifurcation, and K_theta (1 -+ 1e-6) on either side of it once theta
    # is above 1e-9, where that moves theta_K by more than the band's 1e-12
    rng = random.Random(15)
    for _ in range(200):
        theta = 10 ** rng.uniform(-12.0, -1.0)
        Kc = k_theta(theta)
        assert exact_regime(Kc, theta) == "two_with_neutral", theta
        if theta > 1e-9:
            assert exact_regime(Kc * (1 - 1e-6), theta) == "one_repelling"
            assert exact_regime(Kc * (1 + 1e-6), theta) == "three"


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


def test_one_report_per_map():
    p, partner = make_params(4.0, 0.1), make_params(3.0, -0.7)
    _fixed_rays.cache_clear()
    # the calls of one survey job
    fixed_rays(p)
    for phi in (-2.0, 0.1, 1.0):
        classify_limit(p, phi, max_iter=200)
    julia_classification(p)
    immediate_basin(p)
    julia_sample(p, 50, seed=1)
    obstruction_report(p, partner)
    info = _fixed_rays.cache_info()
    assert info.misses == 2
    assert info.hits == 7
    for i in range(info.maxsize + 6):
        fixed_rays(make_params(1.5 + 0.01 * i, 0.2))
        assert _fixed_rays.cache_info().currsize <= info.maxsize
    assert _fixed_rays.cache_info().currsize == info.maxsize


def test_numerical_failure_is_not_cached(monkeypatch):
    calls = []

    def failing_cubic_roots(coeffs, F, band):
        calls.append(coeffs)
        raise NumericalFailure("injected")

    monkeypatch.setattr(qrdyn.rays, "_cubic_roots", failing_cubic_roots)
    _fixed_rays.cache_clear()
    p = make_params(4.0, 0.1)
    for _ in range(2):
        with pytest.raises(NumericalFailure, match="injected"):
            fixed_rays(p)
    assert len(calls) == 2


def load_workloads():
    """The benchmark's seeded generators and oracles, which import nothing
    from qrdyn."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixed_rays_at_large_K():
    # the float nearest a fixed angle leaves a residual of about
    # H~'(phi) * eps, and H~' reaches about 2K: a flat 1e-8 bound on the
    # residual failed the first map below (multiplier 1.96e8, residual 4.9e-8)
    # and most maps with K above about 10^7.5
    rng = random.Random(2)
    maps = [make_params(172967547.29136255, 0.13268767588785568)]
    maps += [make_params(10 ** rng.uniform(4.0, 15.0), rng.uniform(-1.5, 1.5))
             for _ in range(300)]
    # ROADMAP item 1's probe: the flat bound raised on 282 of these
    maps += [make_params(10 ** rng.uniform(8.0, 9.0),
                         rng.uniform(-math.pi / 2, math.pi / 2))
             for _ in range(300)]
    # one and three rays on either side of K_theta in [1e4, 1e8], at least
    # 5% away from it
    for _ in range(200):
        theta = math.acos(math.sqrt(8.0 / 10 ** rng.uniform(4.0, 8.0)))
        stretch = 1.0 + rng.choice((1.0, -1.0)) * rng.uniform(0.05, 0.95)
        maps.append(make_params(k_theta(theta) * stretch,
                                theta * rng.choice((1.0, -1.0))))
    # within 5% of K_theta in [1e4, 1e8], and near theta = pi/2, where
    # K_theta ~ 8/cos^2 theta is beyond any K: the regime taken from the
    # merged roots of np.roots was wrong on 528 of these 6000 maps and
    # raised NumericalFailure on 872
    rng = random.Random(11)
    for _ in range(2000):
        theta = math.acos(math.sqrt(8.0 / 10 ** rng.uniform(4.0, 8.0)))
        stretch = 1.0 + rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-12.0, -1.0)
        maps.append(make_params(k_theta(theta) * stretch,
                                theta * rng.choice((1.0, -1.0))))
    for _ in range(4000):
        theta = math.pi / 2 - 10 ** rng.uniform(-8.0, -1.0)
        maps.append(make_params(10 ** rng.uniform(4.0, 15.5),
                                theta * rng.choice((1.0, -1.0))))
    W = load_workloads()
    at_bifurcation = 0
    for p in maps:
        rep = _fixed_rays.__wrapped__(p)
        assert rep.regime.value == exact_regime(p.K, p.theta), p
        # the benchmark's oracle, the sign of K - K_theta from its own
        # bisection, leaves exactly the maps at the bifurcation undecided
        expected = W.expected_regime(p.K, p.theta)
        assert rep.regime.value == (expected or "two_with_neutral"), p
        at_bifurcation += expected is None
        for r in rep.rays:
            require_fixed_angle(p, r.angle)
            assert r.multiplier == circle_map_deriv(p, r.angle)
            assert r.trace_sq == trace_sq_of_angle(p.K, r.angle)
            # contraction_k is pinned to its exact value in test_mobius
            if r.trace_sq > 4.0:
                assert r.contraction_k == contraction_k(r.trace_sq)
                assert 0.0 < r.contraction_k < 1.0, p
            else:
                assert r.contraction_k == 1.0
    assert at_bifurcation == 517


def test_fixed_rays_agree_with_the_sign_of_F():
    rng = random.Random(14)
    # K = 2 with theta != 0: F = -27 sin^2 theta < 0, one ray, though
    # math.cos(theta) rounds to 1.0 below theta of about 1.5e-8
    maps = [make_params(2.0, 1e-9), make_params(2.0, -1e-12),
            make_params(2.0, 0.0)]
    assert [exact_regime(p.K, p.theta) for p in maps] == \
        ["one_repelling", "one_repelling", "one_parabolic"]
    for _ in range(2000):
        theta = rng.choice((rng.uniform(-math.pi / 2, math.pi / 2),
                            rng.uniform(-1e-3, 1e-3), 0.0))
        maps.append(make_params(1.0 + 10 ** rng.uniform(-9.0, 9.0), theta))
    for p in maps:
        rep = _fixed_rays.__wrapped__(p)
        assert rep.regime.value == exact_regime(p.K, p.theta), p
        for r in rep.rays:
            assert is_fixed_angle(p, r.angle), p
            if r.stability is not Stability.NEUTRAL:
                want = Stability.REPELLING if r.multiplier > 1.0 \
                    else Stability.ATTRACTING
                assert r.stability is want, p


def test_fixed_rays_near_the_parabolic_map():
    # a band of 8 eps/theta in theta, sized for the old acos form of
    # theta_of_K, is about 16 eps (K+1)^3 (K-1) wide in F here: 371 of these
    # maps were called two_with_neutral and 110 raised NumericalFailure
    rng = random.Random(5)
    at_bifurcation = 0
    for _ in range(3000):
        theta = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-12.0, -3.0)
        K = 2.0 + rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-9.0, -2.0)
        p = make_params(K, theta)
        rep = _fixed_rays.__wrapped__(p)
        assert rep.regime.value == exact_regime(p.K, p.theta), p
        at_bifurcation += rep.regime is Regime.TWO_WITH_NEUTRAL
        for r in rep.rays:
            assert is_fixed_angle(p, r.angle), p
    assert at_bifurcation == 18


def test_numerical_failure_names_the_map(monkeypatch):
    p = make_params(4.0, 0.1)
    monkeypatch.setattr(qrdyn.rays, "is_fixed_angle", lambda p, phi: False)
    with pytest.raises(NumericalFailure) as e:
        _fixed_rays.__wrapped__(p)
    # F/terms = (375 cos^2 0.1 - 343) / (375 cos^2 0.1 + 343)
    assert "K=4.0, theta=0.1, |F|/terms=0.0396" in str(e.value)


def test_fixed_rays_is_a_plain_function():
    # the benchmark's tracer only wraps plain functions, so an lru_cache
    # object in its place would drop the fixed_rays spans
    assert inspect.isfunction(fixed_rays)


def test_k_theta_is_one_bisection_per_direction():
    thetas = [0.0, 1e-7, 0.4, 1.2, 1.5]
    _k_theta.cache_clear()
    want = [repr(k_theta(th)) for th in thetas]
    for th, w in zip(thetas, want):
        _k_theta.cache_clear()
        _fixed_rays.cache_clear()
        assert repr(k_theta(th)) == w  # before fixed_rays
        fixed_rays(make_params(3.0, th))
        fixed_rays(make_params(5.0, th))
        assert repr(k_theta(th)) == w  # after it, from the cache
        info = _k_theta.cache_info()
        assert (info.misses, info.hits) == (1, 3)
    assert _k_theta.cache_info().maxsize == 64
    assert inspect.isfunction(k_theta)


def test_k_theta_errors_are_not_cached():
    _k_theta.cache_clear()
    for _ in range(2):
        with pytest.raises(InvalidParameter, match=r"need theta in .*theta=-0\.3"):
            k_theta(-0.3)
    assert _k_theta.cache_info().currsize == 0
