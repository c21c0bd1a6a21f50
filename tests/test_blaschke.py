import cmath
import math
import random
import re

import pytest

from qrdyn.blaschke import (MAX_SAMPLE_COUNT, BasinInterval, blaschke_apply,
                            blaschke_of_params, immediate_basin,
                            julia_classification, julia_sample, JuliaKind)
from qrdyn.circle import circle_map, classify_limit, LimitOutcome
from qrdyn.core import circle_dist, make_params
from qrdyn.errors import InvalidParameter, NoBasin, ResourceLimit
from qrdyn.rays import fixed_rays, k_theta, Regime, Stability


def test_zeros_square_to_minus_mu():
    rng = random.Random(31)
    for _ in range(100):
        p = make_params(1.0 + 10 ** rng.uniform(-2, 1.2),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        B = blaschke_of_params(p)
        assert abs(B.zero ** 2 + p.mu) < 1e-14
        assert abs(blaschke_apply(B, B.zero)) < 1e-14
        assert abs(blaschke_apply(B, -B.zero)) < 1e-14


def test_circle_restriction_matches_circle_map():
    rng = random.Random(32)
    for _ in range(500):
        p = make_params(1.0 + 10 ** rng.uniform(-2, 1.3),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        phi = rng.uniform(-math.pi, math.pi)
        B = blaschke_of_params(p)
        lhs = blaschke_apply(B, cmath.exp(1j * phi))
        rhs = cmath.exp(1j * circle_map(p, phi))
        assert abs(lhs - rhs) < 1e-12


def test_blaschke_preserves_disk():
    p = make_params(3.0, 0.4)
    B = blaschke_of_params(p)
    rng = random.Random(33)
    for _ in range(100):
        z = rng.random() * cmath.exp(1j * rng.uniform(0, 7))
        assert abs(blaschke_apply(B, z)) < 1.0
    # nan compares false with the bound, so the check must not pass it
    for z in (2.0 + 0j, complex(math.nan, 0.0), complex(0.5, math.nan),
              complex(math.inf, 0.0), complex(0.0, -math.inf)):
        with pytest.raises(InvalidParameter, match=re.escape(f"z={z!r}")):
            blaschke_apply(B, z)


def test_julia_classification_by_regime():
    assert julia_classification(make_params(1.5, 0.0)).kind is JuliaKind.FULL_CIRCLE
    assert julia_classification(make_params(2.0, 0.0)).kind is JuliaKind.FULL_CIRCLE
    assert julia_classification(make_params(4.0, 0.0)).kind is JuliaKind.CANTOR_ON_CIRCLE
    Kc = k_theta(0.4)
    assert julia_classification(make_params(Kc, 0.4)).kind is JuliaKind.CANTOR_ON_CIRCLE


def test_julia_sample_deterministic_and_avoids_basin():
    p = make_params(4.0, 0.0)
    s1 = julia_sample(p, 200, seed=5)
    s2 = julia_sample(p, 200, seed=5)
    assert s1 == s2
    assert len(s1) == 200
    # the Julia set avoids a neighbourhood of the attracting angle 0
    assert min(abs(a) for a in s1) > 0.5


def test_julia_sample_rejects_out_of_domain():
    p = make_params(2.0, 0.3)
    with pytest.raises(InvalidParameter, match="count=0"):
        julia_sample(p, 0, 1)


@pytest.mark.parametrize("count", [MAX_SAMPLE_COUNT + 1, 10 ** 20])
def test_julia_sample_count_limit(count):
    # rejected before any sampling: 10**20 could not even be allocated
    with pytest.raises(ResourceLimit, match=f"count {count} exceeds"):
        julia_sample(make_params(2.0, 0.3), count, 1)


def test_julia_sample_dense_when_full_circle():
    p = make_params(1.5, 0.0)
    s = sorted(julia_sample(p, 2000, seed=9))
    gaps = [b - a for a, b in zip(s, s[1:])]
    gaps.append(s[0] + 2 * math.pi - s[-1])
    assert max(gaps) < 0.2


def test_immediate_basin_three_rays():
    p = make_params(4.0, 0.0)
    b = immediate_basin(p)
    rep = fixed_rays(p)
    angles = sorted(r.angle for r in rep.rays)
    assert b.lo == pytest.approx(angles[0])
    assert b.hi == pytest.approx(angles[2])
    assert not b.closed_lo and not b.closed_hi
    # interior points converge to the attracting angle
    res = classify_limit(p, 0.5 * b.hi)
    assert res.outcome is LimitOutcome.CONVERGED
    assert circle_dist(res.target, angles[1]) < 1e-9


def test_immediate_basin_two_rays_closed_at_neutral():
    theta = 0.4
    p = make_params(k_theta(theta), theta)
    rep = fixed_rays(p)
    assert rep.regime is Regime.TWO_WITH_NEUTRAL
    b = immediate_basin(p)
    neutral = next(r.angle for r in rep.rays
                   if r.stability is Stability.NEUTRAL)
    assert (b.closed_lo and b.lo == neutral) or (b.closed_hi and b.hi == neutral)
    assert b.hi > b.lo


def test_immediate_basin_absent():
    with pytest.raises(NoBasin):
        immediate_basin(make_params(1.5, 0.0))
    with pytest.raises(NoBasin):
        immediate_basin(make_params(2.0, 0.0))


def test_basin_contains():
    b = BasinInterval(lo=-1.0, hi=1.0, closed_lo=False, closed_hi=False)
    assert b.contains(0.0)
    assert not b.contains(1.5)
    assert not b.contains(1.0)
