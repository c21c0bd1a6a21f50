"""The kernels against the plain loops they replaced.

Each `ref_*` function is the earlier implementation, kept here verbatim (its
helpers inlined) as the reference.  Kernels whose float operations are
unchanged must agree bit for bit; the others within bounds fixed from the
arithmetic that changed:

- converged_fraction iterates unit complex numbers instead of angles: the
  same fraction on the benchmark's survey grids, within 1e-3 on
  criterion 7b's grids;
- backward_tree takes np.arctan2, which differs from math.atan2 by an ulp
  on some inputs: the same tree size, angles and max_gap within 1e-12;
- dilatation_chain drops the normalization and the square root of each
  factor: within 1e-12 for n <= 100 of the DiskMobius chain, and bit for
  bit equal to the matrix-free loop that first dropped them;
- dilatation_on_ray folds the same unnormalized factors instead of
  iterating a normalized DiskMobius: within 1e-12 for n <= 100;
- dilatation_distance_series walks the inverse factors (conj s, -b) and
  adds their determinant as log(1 - |mu|^2) per step instead of composing
  normalized inverses: within 1e-12 max(1, d) for n <= 200;
- classify_point is a one-element _classify_block: the same (label, n) as
  the scalar loop;
- trace_sq_of_angle checks that its result is finite: the same bits
  wherever the formula gave a finite number.
"""

import cmath
import math
import random

import numpy as np
import pytest

from qrdyn.blaschke import julia_sample
from qrdyn.circle import (DEDUP_TOL, LimitOutcome, LimitReport,
                          _dedup_sorted, backward_tree, circle_map,
                          circle_preimages, classify_limit, converged_fraction)
from qrdyn.core import (arg_h, circle_dist, eval_H, make_params,
                        normalize_angle)
from qrdyn.mobius import (DiskMobius, _chain_angles, dilatation_chain,
                          dilatation_distance_series, dilatation_on_ray,
                          fixed_ray_mobius, hyperbolic_dist, mobius_apply)
from qrdyn.plane import (PointClass, PointResult, R_ESCAPE, classify_point,
                         r_attract)
from qrdyn.rays import (Stability, fixed_rays, k_theta, theta_of_K,
                        trace_sq_of_angle)


# ------------------------------------------------------------- references

def ref_circle_map_array(p, phis):
    x = phis - p.theta
    out = 2.0 * p.theta + 2.0 * np.arctan2(np.sin(x), p.K * np.cos(x))
    out = np.mod(out, 2.0 * np.pi)
    out[out > np.pi] -= 2.0 * np.pi
    return out


def ref_converged_fraction(p, phis, target, n_iter, tol):
    a = np.asarray(phis, dtype=float)
    for _ in range(n_iter):
        a = ref_circle_map_array(p, a)
    d = np.abs(np.mod(a - target + np.pi, 2.0 * np.pi) - np.pi)
    return float(np.mean(d < tol))


def ref_dedup(nxt):
    level = [nxt[0]]
    for a in nxt[1:]:
        if a - level[-1] > DEDUP_TOL:
            level.append(a)
    if len(level) > 1 and (level[0] + 2.0 * math.pi) - level[-1] <= DEDUP_TOL:
        level.pop()
    return level


def ref_backward_tree(p, phi, depth):
    level = [normalize_angle(phi)]
    for _ in range(depth):
        nxt = []
        for a in level:
            nxt.extend(circle_preimages(p, a))
        nxt.sort()
        level = ref_dedup(nxt)
    if len(level) == 1:
        return level, 2.0 * math.pi
    gaps = [b - a for a, b in zip(level, level[1:])]
    gaps.append(level[0] + 2.0 * math.pi - level[-1])
    return level, max(gaps)


def ref_dilatation_chain(p, z, n):
    angles = _chain_angles(p, z, n)
    w = p.mu
    for i in range(n - 2, -1, -1):
        r = cmath.exp(-2j * arg_h(p, angles[i]))
        s = cmath.sqrt(r)
        w = mobius_apply(DiskMobius.from_coeffs(s, p.mu / s), w)
    return w


def ref_dilatation_chain_matrix_free(p, z, n):
    angles = _chain_angles(p, z, n)  # phi_0 .. phi_{n-1}
    mu = p.mu
    w = mu
    for i in range(n - 2, -1, -1):  # apply A_{n-1} first, A_1 last
        s = cmath.exp(-1j * arg_h(p, angles[i]))
        b = mu / s
        w = (s * w + b) / (b.conjugate() * w + s.conjugate())
    return w


def ref_dilatation_on_ray(p, phi, n):
    A = fixed_ray_mobius(p, phi)
    w = p.mu
    for _ in range(n - 1):
        w = mobius_apply(A, w)
    return w


def ref_ray_phase_mobius(p, phi_prev):
    r = cmath.exp(-2j * arg_h(p, phi_prev))
    s = cmath.sqrt(r)
    return DiskMobius.from_coeffs(s, p.mu / s)


def ref_chain_distances(maps, w0, n_max):
    log_w0 = math.log1p(-abs(w0) ** 2)
    v = 0.0 + 0.0j
    log_s = 0.0
    out = [hyperbolic_dist(0.0j, w0)]  # n = 1, empty chain
    for k in range(1, n_max):
        inv = DiskMobius(maps[k - 1].a.conjugate(), -maps[k - 1].b)
        den = inv.b.conjugate() * v + inv.a.conjugate()
        v = (inv.a * v + inv.b) / den
        log_s -= 2.0 * math.log(abs(den))
        d_num = abs(v - w0)
        d_den = abs(1.0 - v.conjugate() * w0)
        rho = d_num / d_den
        log_one_minus_rho_sq = log_s + log_w0 - 2.0 * math.log(d_den)
        out.append(2.0 * math.log1p(rho) - log_one_minus_rho_sq)
    return out


def ref_dilatation_distance_series(p, target, n_max):
    if isinstance(target, complex):
        angles = _chain_angles(p, target, n_max)
        maps = [ref_ray_phase_mobius(p, a) for a in angles[:n_max - 1]]
    else:
        A = fixed_ray_mobius(p, float(target))
        maps = [A] * (n_max - 1)
    return ref_chain_distances(maps, p.mu, n_max)


def ref_classify_point(p, z, max_iter):
    ra = r_attract(p)
    w = complex(z)
    for n in range(max_iter + 1):
        m = abs(w)
        if m > R_ESCAPE:
            return PointResult(PointClass.ESCAPED, n)
        if m < ra:
            return PointResult(PointClass.ATTRACTED, n)
        w = eval_H(p, w)
    return PointResult(PointClass.UNDECIDED, max_iter)


def ref_classify_limit(p, phi, max_iter=10_000, tol=1e-9, confirm=5):
    targets = [(r.angle, r.stability) for r in fixed_rays(p).rays]
    cur = normalize_angle(phi)
    streak_idx = -1
    streak_len = 0
    streak_start = 0
    for it in range(max_iter + 1):
        hit = -1
        for i, (ang, _) in enumerate(targets):
            if circle_dist(cur, ang) < tol:
                hit = i
                break
        if hit >= 0 and hit == streak_idx:
            streak_len += 1
        else:
            streak_idx = hit
            streak_len = 1 if hit >= 0 else 0
            streak_start = it
        if streak_len >= confirm:
            ang, stab = targets[streak_idx]
            if stab is Stability.REPELLING:
                return LimitReport(LimitOutcome.LANDED_ON_REPELLER, ang,
                                   streak_start, cur)
            return LimitReport(LimitOutcome.CONVERGED, ang, streak_start, cur)
        cur = circle_map(p, cur)
    return LimitReport(LimitOutcome.UNDECIDED, None, max_iter, cur)


def ref_julia_sample(p, count, seed, depth=30):
    report = fixed_rays(p)
    repellers = [r for r in report.rays if r.stability is Stability.REPELLING]
    if not repellers:
        repellers = list(report.rays)
    rng = random.Random(seed)
    x = repellers[0].angle
    out = []
    for i in range(count + depth):
        pre = circle_preimages(p, x)
        x = pre[rng.getrandbits(1)]
        if i >= depth:
            out.append(x)
    return out


def ref_trace_sq_of_angle(K, phi):
    return (K + 1.0) ** 2 * (1.0 + math.cos(phi)) / (2.0 * K)


# ----------------------------------------------------------------- inputs

def regime_params(seed, n=6):
    """(K, theta) pairs from every regime, as the benchmark's survey draws
    them: below, at and above K_theta, plus the parabolic K = 2, theta = 0."""
    rng = random.Random(seed)
    out = [make_params(2.0, 0.0)]
    for _ in range(n):
        theta = rng.uniform(0.0, 1.3) * rng.choice((1.0, -1.0))
        kt = k_theta(abs(theta))
        out.append(make_params(rng.uniform(1.05, 0.9 * kt), theta))
        out.append(make_params(kt * rng.uniform(1.15, 3.0), theta))
        Kc = math.exp(rng.uniform(math.log(2.2), math.log(40.0)))
        out.append(make_params(Kc, theta_of_K(Kc)))
    return out


def survey_target(p):
    rays = fixed_rays(p).rays
    keep = [r for r in rays if r.stability is not Stability.REPELLING] or list(rays)
    return keep[0].angle


# ------------------------------------------------------------------ tests

def test_converged_fraction_equals_reference_on_survey_grids():
    rng = random.Random(71)
    for p in regime_params(71):
        phis = (np.linspace(-math.pi, math.pi, 1000, endpoint=False)
                + rng.uniform(-math.pi, math.pi) / 1000)
        target = survey_target(p)
        assert converged_fraction(p, phis, target, 60, 1e-6) \
            == ref_converged_fraction(p, phis, target, 60, 1e-6)


def test_converged_fraction_near_reference_on_criterion_7b():
    p = make_params(4.0, 0.0)
    phis = np.linspace(-math.pi, math.pi, 100_000, endpoint=False)
    assert abs(converged_fraction(p, phis, 0.0, 500, 1e-6)
               - ref_converged_fraction(p, phis, 0.0, 500, 1e-6)) <= 1e-3
    theta = math.pi / 6
    pc = make_params(k_theta(theta), theta)
    neutral = next(r.angle for r in fixed_rays(pc).rays
                   if r.stability is Stability.NEUTRAL)
    phis2 = np.linspace(-math.pi, math.pi, 2000, endpoint=False)
    assert abs(converged_fraction(pc, phis2, neutral, 10_000, 1e-3)
               - ref_converged_fraction(pc, phis2, neutral, 10_000, 1e-3)) <= 1e-3


def test_dedup_keeps_the_greedy_rule_on_clusters():
    # a mask of gaps > DEDUP_TOL would keep only the first angle of a run of
    # steps of 0.6 DEDUP_TOL; the greedy rule keeps every second one
    run = np.arange(8) * (0.6 * DEDUP_TOL)
    assert _dedup_sorted(run).tolist() == ref_dedup(run.tolist())
    assert _dedup_sorted(run).tolist() == run[::2].tolist()
    rng = np.random.default_rng(72)
    for _ in range(300):
        steps = rng.choice([0.3, 0.7, 1.0, 1.3, 1e6], size=rng.integers(1, 40))
        a = np.sort(np.cumsum(steps * DEDUP_TOL) - 1.0)
        assert _dedup_sorted(a).tolist() == ref_dedup(a.tolist())
    # the wraparound duplicate of the first angle goes
    a = np.array([-math.pi, 0.0, math.pi])
    assert _dedup_sorted(a).tolist() == ref_dedup(a.tolist()) == [-math.pi, 0.0]


def test_backward_tree_near_reference():
    rng = random.Random(73)
    cases = [(p, rng.uniform(-math.pi, math.pi), rng.choice((1, 6, 10, 12)))
             for p in regime_params(73)]
    # large K clusters preimages at the repelling angles; fixed roots put
    # exact duplicates in every level
    cases += [(make_params(K, th), phi, 10) for K in (60.0, 400.0)
              for th in (0.0, 0.7) for phi in (0.0, 1.0)]
    cases += [(make_params(1.5, 0.0), 0.0, 14), (make_params(4.0, 0.0), 0.0, 8)]
    for p, phi, depth in cases:
        tree = backward_tree(p, phi, depth)
        ref, ref_gap = ref_backward_tree(p, phi, depth)
        assert len(tree.angles) == len(ref)
        assert max(abs(a - b) for a, b in zip(tree.angles, ref)) <= 1e-12
        assert abs(tree.max_gap - ref_gap) <= 1e-12
        assert all(type(a) is float for a in tree.angles)


def test_criterion_7a_gap_unchanged():
    # criterion 7a stays red with the same depth-14 gap
    tree = backward_tree(make_params(1.5, 0.0), 0.0, 14)
    assert abs(tree.max_gap - ref_backward_tree(make_params(1.5, 0.0), 0.0, 14)[1]) <= 1e-12
    assert tree.max_gap == pytest.approx(0.0346, abs=5e-5)


def test_dilatation_chain_near_reference():
    rng = random.Random(74)
    for _ in range(40):
        p = make_params(1.0 + 10 ** rng.uniform(-1.5, 1.3),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for n in (1, 2, 3, 17, 32, 100):
            assert abs(dilatation_chain(p, z, n) - ref_dilatation_chain(p, z, n)) <= 1e-12
    # a start on a fixed ray keeps the constant orbit
    p = make_params(4.0, 0.0)
    for n in (2, 50, 100):
        assert abs(dilatation_chain(p, 1 + 0j, n) - ref_dilatation_chain(p, 1 + 0j, n)) <= 1e-12


def test_dilatation_chain_bit_identical_to_matrix_free_loop():
    # the survey's draws: a start anywhere in the square, n = 1..32; and
    # longer chains, starts on fixed rays and huge |z|
    rng = random.Random(77)
    for p in regime_params(77):
        for _ in range(4):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for n in range(1, 33):
                assert dilatation_chain(p, z, n) == ref_dilatation_chain_matrix_free(p, z, n)
        for ray in fixed_rays(p).rays:
            z = cmath.exp(1j * ray.angle)
            for n in (1, 2, 50, 200):
                assert dilatation_chain(p, z, n) == ref_dilatation_chain_matrix_free(p, z, n)
        z = complex(1e300, -3e299)
        assert dilatation_chain(p, z, 40) == ref_dilatation_chain_matrix_free(p, z, 40)


def test_dilatation_on_ray_near_reference():
    for p in regime_params(78):
        for ray in fixed_rays(p).rays:
            for n in range(1, 101):
                assert abs(dilatation_on_ray(p, ray.angle, n)
                           - ref_dilatation_on_ray(p, ray.angle, n)) <= 1e-12


def test_distance_series_near_reference():
    rng = random.Random(79)
    for p in regime_params(79):
        targets = [ray.angle for ray in fixed_rays(p).rays]
        targets += [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(3)]
        targets += [cmath.exp(1j * fixed_rays(p).rays[0].angle)]
        for target in targets:
            got = dilatation_distance_series(p, target, 200)
            ref = ref_dilatation_distance_series(p, target, 200)
            assert len(got) == len(ref) == 200
            for d, r in zip(got, ref):
                assert abs(d - r) <= 1e-12 * max(1.0, abs(r))


def test_classify_point_equals_scalar_loop():
    # radii log-uniform from inside r_attract to past R_ESCAPE, so that many
    # points take tens of steps near the boundary of the two basins
    rng = random.Random(80)
    checked = 0
    for _ in range(50):
        p = make_params(1.0 + 10 ** rng.uniform(-1.5, 1.3),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        lo, hi = math.log(0.5 * r_attract(p)), math.log(2.0 * R_ESCAPE)
        max_iter = rng.choice((1, 2, 30, 60))
        for _ in range(220):
            z = cmath.rect(math.exp(rng.uniform(lo, hi)), rng.uniform(-math.pi, math.pi))
            got = classify_point(p, z, max_iter)
            assert type(got.n) is int
            assert got == ref_classify_point(p, z, max_iter)
            checked += 1
    assert checked >= 10_000


def test_classify_limit_bit_identical_to_reference():
    rng = random.Random(75)
    for p in regime_params(75):
        for _ in range(3):
            phi = rng.uniform(-math.pi, math.pi)
            assert classify_limit(p, phi, max_iter=1500) \
                == ref_classify_limit(p, phi, max_iter=1500)
        # a start on a fixed angle
        ang = fixed_rays(p).rays[0].angle
        assert classify_limit(p, ang, max_iter=50) == ref_classify_limit(p, ang, max_iter=50)


def test_julia_sample_bit_identical_to_reference():
    for i, p in enumerate(regime_params(76)):
        assert julia_sample(p, 500, seed=i) == ref_julia_sample(p, 500, seed=i)


def test_trace_sq_of_angle_bit_identical_to_reference():
    rng = random.Random(80)
    for p in regime_params(80):
        phis = [r.angle for r in fixed_rays(p).rays]
        phis += [rng.uniform(-math.pi, math.pi) for _ in range(20)] + [math.pi]
        for phi in phis:
            assert trace_sq_of_angle(p.K, phi) == ref_trace_sq_of_angle(p.K, phi)
