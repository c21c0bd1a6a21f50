import cmath
import decimal
import math
import os
import random
import re
import sys
import threading

import pytest

from qrdyn import mobius
from qrdyn.core import MapParams, make_params
from qrdyn.errors import InvalidParameter, ResourceLimit
from qrdyn.mobius import (MAX_CHAIN_LEN, contraction_k, dilatation_chain,
                          dilatation_distance_series, dilatation_on_ray,
                          growth_fit)
from qrdyn.rays import Regime, fixed_rays, k_theta
from disk_mobius import (DiskMobius, fixed_ray_mobius, hyperbolic_dist,
                         mobius_apply)


def random_mobius(rng):
    a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if abs(a) <= abs(b):
        a *= (abs(b) + 1.0) / max(abs(a), 1e-3)
    return DiskMobius.from_coeffs(a, b)


def test_from_coeffs_normalizes():
    m = DiskMobius.from_coeffs(2.0 + 0j, 1.0 + 0j)
    assert abs(m.a) ** 2 - abs(m.b) ** 2 == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        DiskMobius.from_coeffs(1.0 + 0j, 2.0 + 0j)


def test_mobius_preserves_disk():
    rng = random.Random(21)
    for _ in range(200):
        m = random_mobius(rng)
        w = 0.9 * cmath.exp(1j * rng.uniform(0, 7)) * rng.random()
        assert abs(mobius_apply(m, w)) < 1.0


def test_hyperbolic_dist_basics():
    assert hyperbolic_dist(0.0j, 0.0j) == 0.0
    # d(0, r) = log((1+r)/(1-r))
    for r in (0.1, 0.5, 0.9, 0.999999):
        assert hyperbolic_dist(0.0j, complex(r, 0)) == pytest.approx(
            math.log((1 + r) / (1 - r)), rel=1e-12)
    with pytest.raises(InvalidParameter):
        hyperbolic_dist(0.0j, 1.0 + 0j)


def test_hyperbolic_dist_mobius_invariant():
    rng = random.Random(23)
    for _ in range(200):
        m = random_mobius(rng)
        w1 = 0.9 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
        w2 = 0.9 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
        d1 = hyperbolic_dist(w1, w2)
        d2 = hyperbolic_dist(mobius_apply(m, w1), mobius_apply(m, w2))
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)


def test_contraction_examples():
    # tr^2 = 4.5 -> k = 1/2; tr^2 = 6.25 -> k = 1/4
    assert contraction_k(4.5) == pytest.approx(0.5)
    assert contraction_k(6.25) == pytest.approx(0.25)
    # k + 1/k + 2 = tr^2
    for T in (4.1, 5.0, 9.0, 100.0):
        k = contraction_k(T)
        assert k + 1.0 / k + 2.0 == pytest.approx(T, rel=1e-10)
    # nan passed a T <= 4 guard and came back as nan
    for T in (4.0, math.nan):
        with pytest.raises(InvalidParameter, match=f"got {T}"):
            contraction_k(T)


def test_contraction_matches_its_exact_value():
    # 2/(T - 2 + sqrt(T^2 - 4T)) in 80 digits.  (T - 2 - sqrt(T^2 - 4T))/2
    # in floats lost eps T^2 of relative accuracy and returned 0 from
    # T ~ 1e8, and fixed_rays reports tr^2 up to about 2.4e16;
    # 2/(T - 2 + sqrt T sqrt(T - 4)) overflowed to 0 from T ~ 9e307 on
    rng = random.Random(25)
    eps = sys.float_info.epsilon
    Ts = [4.0 + 10 ** rng.uniform(-14.0, 16.5) for _ in range(2000)]
    for T in Ts + [9e307, 1e308, 1.7e308]:
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            D = decimal.Decimal(T)
            exact = 2 / (D - 2 + (D * D - 4 * D).sqrt())
            assert abs(decimal.Decimal(contraction_k(T)) - exact) \
                <= decimal.Decimal(4.0 * eps) * exact, T


def test_fixed_ray_mobius_hyperbolic_with_expected_trace():
    rng = random.Random(24)
    for _ in range(100):
        p = make_params(1.0 + 10 ** rng.uniform(-2, 1),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        for r in fixed_rays(p).rays:
            # the squared trace of the normalized matrix is the closed form
            # the rays carry
            T = 4.0 * fixed_ray_mobius(p, r.angle).a.real ** 2
            assert T == pytest.approx(r.trace_sq, rel=1e-10)
            assert 0.0 < r.contraction_k < 1.0


def test_fixed_ray_mobius_rejects_non_fixed_angle():
    p = make_params(4.0, 0.0)
    with pytest.raises(InvalidParameter, match="phi=0.7"):
        dilatation_on_ray(p, 0.7, 20)
    with pytest.raises(InvalidParameter, match="phi=0.7"):
        dilatation_distance_series(p, 0.7, 20)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter, match=f"phi={phi}"):
            fixed_ray_mobius(p, phi)
        with pytest.raises(InvalidParameter, match=f"phi={phi}"):
            dilatation_distance_series(p, phi, 20)
        with pytest.raises(InvalidParameter, match=f"phi={phi}"):
            dilatation_on_ray(p, phi, 20)


def test_dilatation_on_ray_first_terms():
    # mu_{H^1} is mu itself; mu_{H^2} = A(mu)
    p = make_params(2.0, 0.0)
    assert dilatation_on_ray(p, 0.0, 1) == pytest.approx(p.mu)
    A = fixed_ray_mobius(p, 0.0)
    assert dilatation_on_ray(p, 0.0, 2) == pytest.approx(mobius_apply(A, p.mu))


def test_chain_matches_ray_on_fixed_rays():
    rng = random.Random(25)
    for _ in range(20):
        p = make_params(1.0 + 10 ** rng.uniform(-1, 1),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        for r in fixed_rays(p).rays:
            z = cmath.exp(1j * r.angle)
            for n in (1, 2, 10, 100):
                a = dilatation_on_ray(p, r.angle, n)
                b = dilatation_chain(p, z, n)
                assert abs(a - b) < 1e-10


def test_chain_rejects_origin():
    p = make_params(2.0, 0.0)
    with pytest.raises(InvalidParameter, match="undefined at z = 0"):
        dilatation_chain(p, 0.0 + 0j, 5)
    with pytest.raises(InvalidParameter, match="undefined at z = 0"):
        dilatation_distance_series(p, 0.0 + 0j, 5)
    with pytest.raises(InvalidParameter, match="undefined at z = 0"):
        growth_fit(p, 0.0 + 0j, 10, 60)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 1.0),
                               complex(0.3, -math.inf)])
def test_chain_rejects_non_finite_start(z):
    p = make_params(2.0, 0.3)
    named = re.escape(f"z={z!r}")
    with pytest.raises(InvalidParameter, match=named):
        dilatation_chain(p, z, 5)
    with pytest.raises(InvalidParameter, match=named):
        dilatation_distance_series(p, z, 5)
    with pytest.raises(InvalidParameter, match=named):
        growth_fit(p, z, 10, 60)


@pytest.mark.parametrize("n", [MAX_CHAIN_LEN + 1, 10 ** 20])
def test_chain_length_limit(n):
    # rejected before any factor is built: 10**20 could not even be allocated
    # each function names its own count
    p = make_params(2.0, 0.0)

    def match(fn, name):
        return re.escape(f"{fn} {name} {n} exceeds limit {MAX_CHAIN_LEN}") + "$"

    with pytest.raises(ResourceLimit, match=match("dilatation_chain", "n")):
        dilatation_chain(p, 0.3 + 0.4j, n)
    with pytest.raises(ResourceLimit, match=match("dilatation_on_ray", "n")):
        dilatation_on_ray(p, 0.0, n)
    for target in (0.0, 0.3 + 0.4j):
        with pytest.raises(ResourceLimit,
                           match=match("dilatation_distance_series", "n_max")):
            dilatation_distance_series(p, target, n)
        with pytest.raises(ResourceLimit, match=match("growth_fit", "n_hi")):
            growth_fit(p, target, 10, n)


@pytest.mark.parametrize("mu", [1 + 0j, 1.5, -0.6 + 0.8j, complex(math.nan, 0.0)])
def test_the_chain_is_not_reached_with_mu_off_the_disk(mu):
    # a MapParams built directly checks |mu| < 1 itself: the chain returned
    # a point outside the disk for mu = 1.5, and the distance series raised
    # a bare ValueError from log(1 - |mu|^2)
    for fn in (dilatation_chain, dilatation_distance_series):
        with pytest.raises(InvalidParameter, match=re.escape(f"mu={mu!r}")):
            fn(MapParams(2.0, 0.0, mu), 0.3 + 0.4j, 5)


def test_distance_series_matches_direct_evaluation():
    p = make_params(3.0, 0.5)
    r0 = fixed_rays(p).rays[0]
    series = dilatation_distance_series(p, r0.angle, 20)
    for n in (1, 5, 12, 20):
        mu_n = dilatation_on_ray(p, r0.angle, n)
        assert series[n - 1] == pytest.approx(
            hyperbolic_dist(0.0j, mu_n), rel=1e-9, abs=1e-9)


def test_first_distance_is_the_reference_distance_of_mu():
    # the n = 1 term, the series loop's formula at v = 0 and log_s = 0, is
    # the reference distance bit for bit: on every fixed ray and from a
    # start, with K from 1 + 1e-12 to 1e15 and maps at the bifurcation
    rng = random.Random(43)
    maps = [make_params(2.0, 0.0)]
    for _ in range(150):
        maps.append(make_params(1.0 + 10 ** rng.uniform(-12.0, 15.0),
                                rng.uniform(-math.pi / 2, math.pi / 2)))
        theta = rng.uniform(-1.5, 1.5)
        maps.append(make_params(k_theta(abs(theta)), theta))
    assert {fixed_rays(p).regime for p in maps} == set(Regime)
    for p in maps:
        want = hyperbolic_dist(0j, p.mu)
        targets = [r.angle for r in fixed_rays(p).rays]
        targets.append(cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        for target in targets:
            for n in (1, 3):
                got = dilatation_distance_series(p, target, n)[0]
                assert repr(got) == repr(want), (p, target)


def test_distance_series_survives_boundary_pinning():
    # by n = 200 the dilatation is numerically on the unit circle, but the
    # distance increments must still equal log(1/k)
    p = make_params(2.0, 0.0)
    d = dilatation_distance_series(p, 0.0, 200)
    assert d[199] - d[198] == pytest.approx(math.log(2.0), rel=1e-9)
    # bounded deviation from the linear model over the whole range
    dev = [abs(d[n] - (n + 1) * math.log(2.0)) for n in range(200)]
    assert max(dev) < 2.0


def test_growth_fit_slope_log2():
    p = make_params(2.0, 0.0)
    fit = growth_fit(p, 0.0, 10, 60)
    assert fit.slope == pytest.approx(math.log(2.0), rel=0.01)
    assert fit.residual < 0.05


def test_growth_fit_on_chain_target():
    # generic orbit accumulates toward the attracting ray of (4, 0);
    # slope should approach that ray's log(1/k) = log 4
    p = make_params(4.0, 0.0)
    fit = growth_fit(p, cmath.exp(0.3j), 10, 60)
    assert fit.slope == pytest.approx(math.log(4.0), rel=0.01)


def test_growth_fit_window_validation():
    p = make_params(2.0, 0.0)
    with pytest.raises(InvalidParameter):
        growth_fit(p, 0.0, 10, 15)


@pytest.mark.parametrize("target", [0.0, cmath.exp(0.3j)])
@pytest.mark.parametrize("n_lo,n_hi", [(-20, 0), (-20, 6), (-5, 5)])
def test_growth_fit_needs_two_points_after_burn_in(target, n_lo, n_hi):
    # the burn-in raises the window's start to 6, leaving fewer than 2 points
    p = make_params(2.0, 0.0)
    with pytest.raises(InvalidParameter,
                       match=rf"\[n_lo, n_hi\] = \[{n_lo}, {n_hi}\].*burn-in of 5"):
        growth_fit(p, target, n_lo, n_hi)
    assert growth_fit(p, target, n_lo, 7).n_used == (6, 7)


@pytest.mark.parametrize("target", [0.0, cmath.exp(0.3j)])
@pytest.mark.parametrize("n_max", [0, -3])
def test_distance_series_rejects_empty_range(target, n_max):
    with pytest.raises(InvalidParameter, match=f"n_max={n_max}"):
        dilatation_distance_series(make_params(2.0, 0.0), target, n_max)


# ------------------------------------------------------ the walk and series memos

def fresh(fn, *args):
    """fn(*args) with the walk and series memos emptied first, as a repr so
    that two results compare bit for bit (signed zeros included)."""
    mobius._walk = None
    mobius._distance_series.cache_clear()
    return repr(fn(*args))


def check_against_fresh(calls):
    """Every call's result from the memos equals a fresh computation; the
    fresh ones are all made before the sequence runs."""
    want = [fresh(*call) for call in calls]
    mobius._walk = None
    mobius._distance_series.cache_clear()
    got = [repr(call[0](*call[1:])) for call in calls]
    for call, a, b in zip(calls, got, want):
        assert a == b, call


def test_series_memo_keeps_fixed_angles_and_starts_apart():
    # 0.0 == -0.0 == 0j: a key that did not tell floats from complex
    # numbers would answer the start 0j with the series of the angle 0.0
    p = make_params(4.0, 0.0)
    check_against_fresh([(dilatation_distance_series, p, 0.0, 60),
                         (dilatation_distance_series, p, -0.0, 60),
                         (growth_fit, p, 0.0, 10, 60),
                         (growth_fit, p, -0.0, 10, 60)])
    for n_max in (60, 40):
        dilatation_distance_series(p, 0.0, n_max)
        with pytest.raises(InvalidParameter, match="undefined at z = 0"):
            dilatation_distance_series(p, 0j, n_max)
        with pytest.raises(InvalidParameter, match="undefined at z = 0"):
            growth_fit(p, 0j, 10, n_max)


def test_memos_return_fresh_lists():
    p = make_params(4.0, 0.0)
    a = dilatation_distance_series(p, 0.0, 20)
    a[0] = -1.0
    assert dilatation_distance_series(p, 0.0, 20)[0] == math.log(4.0)
    assert mobius._distance_series.cache_info().maxsize == 1
    phases = mobius._chain_phases(p, 0.3 + 0.4j, 6)
    want = list(phases)
    phases[0] = 0j
    assert mobius._chain_phases(p, 0.3 + 0.4j, 6) == want


def test_chain_memo_matches_fresh_walks():
    p, q = make_params(3.0, 0.4), make_params(1.7, -1.1)
    z, w = 0.3 - 0.8j, -0.5 + 0.1j
    calls = []
    # two maps and two starts interleaved, n rising and falling
    for n in (1, 2, 5, 3, 1, 9, 32, 17, 33):
        for m, s in ((p, z), (p, w), (q, z), (p, z), (q, w)):
            calls.append((dilatation_chain, m, s, n))
    # a start sharing z's arg, a walk longer than the memo keeps, and the
    # series of a start after its chains
    for n in (4, 8, 6):
        calls.append((dilatation_chain, p, 2.0 * z, n))
        calls.append((dilatation_chain, p, z, n))
    calls += [(dilatation_chain, p, z, mobius.WALK_MEMO_MAX + 50),
              (dilatation_chain, p, z, 20),
              (dilatation_chain, p, z, mobius.WALK_MEMO_MAX + 1),
              (dilatation_chain, p, z, mobius.WALK_MEMO_MAX + 2),
              (dilatation_distance_series, p, z, 40),
              (dilatation_chain, p, z, 41),
              (growth_fit, p, z, 10, 60),
              (dilatation_distance_series, q, complex(z), 60),
              (dilatation_distance_series, q, z, 60)]
    check_against_fresh(calls)


def usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_chain_memo_survives_thread_switches():
    # more threads than cores, switching every microsecond, each comparing
    # its chains with walks made before any thread started
    maps = [make_params(3.0, 0.4), make_params(1.7, -1.1), make_params(12.0, 1.2)]
    starts = [0.3 - 0.8j, -0.5 + 0.1j, 2.0 + 2.0j]
    jobs = [(p, z, n) for p in maps for z in starts for n in (1, 3, 8, 20, 7)]
    want = {job: fresh(dilatation_chain, *job) for job in jobs}
    bad = []

    def worker(seed):
        order = random.Random(seed).sample(jobs, len(jobs))
        try:
            for _ in range(6):
                for job in order:
                    if repr(dilatation_chain(*job)) != want[job]:
                        bad.append(job)
        except Exception as e:  # a thread's exception would not fail the test
            bad.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(usable_cores() + 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


# ------------------------------------------ the fixed-ray series in closed form

SERIES_REL_TOL = 1e-12  # fixed before measuring; the worst case here is 6.4e-15


def closed_form_series(p, phi, n_max):
    """d_h(0, mu_{H^n}) for n = 1..n_max on the fixed ray phi, from the
    closed form of A^m: independent of the chain walk and the inverse orbit.

    A = [[s, mu/s], [conj(mu/s), conj s]] with s = e^{-i phi/2} has
    determinant 1 - |mu|^2 = 4K/(K+1)^2; scaled into SU(1,1) (and negated
    if its trace is negative, which leaves the map alone) it has trace
    2 cosh a, and then A^m = (sinh(ma) A - sinh((m-1)a) I)/sinh a.  With
    A^m = [[alpha, beta], [conj beta, conj alpha]] and w = A^m(mu),
    1 - |w|^2 = (1 - |mu|^2)/|conj(beta) mu + conj(alpha)|^2."""
    K, mu = p.K, p.mu
    c = 2.0 * math.sqrt(K) / (K + 1.0)
    s = cmath.exp(-0.5j * phi)
    a11, a12 = s / c, mu / s / c
    if a11.real < 0.0:
        a11, a12 = -a11, -a12
    a = math.acosh(a11.real)
    out = []
    for m in range(n_max):
        alpha = (math.sinh(m * a) * a11 - math.sinh((m - 1) * a)) / math.sinh(a)
        beta = math.sinh(m * a) * a12 / math.sinh(a)
        den = beta.conjugate() * mu + alpha.conjugate()
        w = (alpha * mu + beta) / den
        log_one_minus_w_sq = math.log(c * c) - 2.0 * math.log(abs(den))
        out.append(2.0 * math.log1p(abs(w)) - log_one_minus_w_sq)
    return out


def test_distance_series_matches_the_closed_form_on_fixed_rays():
    # ray_trace_sq is (1 + cos phi)(K+1)^2/(2K); the slope of the growth is
    # log(1/k) = 2a, with cosh a = sqrt(tr^2)/2
    rng = random.Random(97)
    worst, maps = 0.0, 0
    while maps < 60:
        p = make_params(math.exp(rng.uniform(math.log(1.12), math.log(1000.0))),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        T, phi = max(((1.0 + math.cos(r.angle)) * (p.K + 1.0) ** 2 / (2.0 * p.K),
                      r.angle) for r in fixed_rays(p).rays)
        if T <= 4.5:
            continue
        maps += 1
        got = dilatation_distance_series(p, phi, 60)
        want = closed_form_series(p, phi, 60)
        for d, e in zip(got, want):
            worst = max(worst, abs(d - e) / e)
        log_1_k = 2.0 * math.acosh(math.sqrt(T) / 2.0)
        assert abs(growth_fit(p, phi, 10, 60).slope - log_1_k) <= 1e-5
    assert worst <= SERIES_REL_TOL
