"""Seeded input generators and independent oracles for the qrdyn benchmark.

Nothing in this module imports qrdyn.  Inputs come from the benchmark's own
seeded code, so two commits compared with the same seed receive identical
inputs, and the oracles re-derive the paper's closed forms instead of
calling the code under test.

Workloads (why each exists):

- render-wide: `qrdyn render` on windows holding the whole non-escaping set
  (the closed unit disk), 256^2 to 1024^2.  Mean escape count is about 1.3,
  so colouring and PPM output dominate; a dynamics-kernel change barely
  shows here.  Grids of 2048^2, which outgrow a 105 MB L3, were tried and
  left out: on a shared host their timings swung by up to 30% between runs
  of the same code.
- render-zoom: the same CLI path on small grids whose windows (half-width
  1e-14 to 1e-6) straddle the escaping/basin boundary at a repelling radial
  fixed point, so the mean escape count is about 20 and `render_grid`
  dominates.  Some iteration budgets are below the depth needed, leaving
  undecided pixels.
- survey: one job per (K, theta) across all four regimes, making the calls
  of the acceptance criteria, `obstruction_report` against a partner map
  included; `circle`, `mobius` and `blaschke` do the work and `plane` does
  none.
"""

from __future__ import annotations

import math
import random
import sys

EPS = sys.float_info.epsilon
HALF_PI = 0.5 * math.pi

# ---------------------------------------------------------------- oracles


def wrap(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = math.fmod(x, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


def fold_theta(theta: float) -> float:
    """Direction angle reduced to (-pi/2, pi/2], as the library stores it."""
    t = math.fmod(theta, math.pi)
    if t > HALF_PI:
        t -= math.pi
    elif t <= -HALF_PI:
        t += math.pi
    return t


def circle_map(K: float, theta: float, phi: float) -> float:
    """The circle map 2 arg h(e^{i phi}), written from the paper's formula."""
    x = phi - theta
    return wrap(2.0 * theta + 2.0 * math.atan2(math.sin(x), K * math.cos(x)))


def circle_deriv(K: float, theta: float, phi: float) -> float:
    c = math.cos(phi - theta)
    return 2.0 * K / (1.0 + (K * K - 1.0) * c * c)


def alpha(K: float, theta: float, phi: float) -> float:
    """Radial factor with |H(r e^{i phi})| = alpha r^2."""
    c = math.cos(phi - theta)
    return 1.0 + (K * K - 1.0) * c * c


def theta_of_K(K: float) -> float:
    """Closed form cos theta = ((2K-1)/(K^2-1))^{3/2} (K-1), for K >= 2."""
    f = ((2.0 * K - 1.0) / (K * K - 1.0)) ** 1.5 * (K - 1.0)
    return math.acos(min(1.0, f))


def k_theta(theta: float) -> float:
    """Bifurcation stretch for |theta| in [0, pi/2); inf at theta = pi/2.

    Bisection of the closed form, which increases strictly on (2, inf)."""
    t = abs(fold_theta(theta))
    if t == 0.0:
        return 2.0
    if t >= HALF_PI:
        return math.inf
    lo, hi = 2.0, 4.0
    while theta_of_K(hi) < t:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if theta_of_K(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ambiguity_band(theta: float, kt: float | None = None) -> float:
    """Relative half-width of the K interval around K_theta inside which the
    regime is numerically ambiguous.

    `qrdyn.rays.k_theta` documents its residual tolerance in theta as
    max(1e-12, 8 eps/theta); dividing by d theta/dK at K_theta turns that
    into a K interval.  At theta = 0 the bifurcation K = 2 is exact.
    """
    t = abs(fold_theta(theta))
    if t == 0.0 or t >= HALF_PI:
        return 0.0
    if kt is None:
        kt = k_theta(t)
    tol = max(1e-12, 8.0 * EPS / t)
    h = 1e-6 * kt
    dtheta_dk = (theta_of_K(kt + h) - theta_of_K(kt - h)) / (2.0 * h)
    return tol / dtheta_dk / kt


def expected_regime(K: float, theta: float, kt: float | None = None) -> str | None:
    """Regime from the sign of K - K_theta; None inside the ambiguity band."""
    t = abs(fold_theta(theta))
    if t >= HALF_PI:
        return "one_repelling"
    if kt is None:
        kt = k_theta(t)
    if t == 0.0 and K == 2.0:
        return "one_parabolic"
    rel = (K - kt) / kt
    if abs(rel) <= ambiguity_band(t, kt):
        return None
    return "one_repelling" if rel < 0.0 else "three"


RAY_COUNT = {"one_repelling": 1, "one_parabolic": 1,
             "two_with_neutral": 2, "three": 3}


def fixed_angles(K: float, theta: float, samples: int = 2048) -> list[float]:
    """Fixed angles of the circle map by angle-domain bisection of
    H~(phi) - phi; misses the near-double roots at the bifurcation."""
    def g(phi):
        return wrap(circle_map(K, theta, phi) - phi)

    grid = [-math.pi + 2.0 * math.pi * i / samples for i in range(samples + 1)]
    vals = [g(x) for x in grid]
    roots = []
    for a, b, ga, gb in zip(grid, grid[1:], vals, vals[1:]):
        if ga == 0.0:
            roots.append(a)
            continue
        # a true crossing, not the jump of the wrapped difference at +-pi;
        # a zero at b is found as the next interval's zero at a
        if gb == 0.0 or ga * gb > 0.0 or abs(ga - gb) > math.pi:
            continue
        for _ in range(100):
            m = 0.5 * (a + b)
            gm = g(m)
            if (gm < 0.0) == (ga < 0.0):
                a, ga = m, gm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return roots


def trace_sq(K: float, phi: float) -> float:
    """Squared trace of the dilatation Mobius map on the fixed ray phi."""
    return (K + 1.0) ** 2 * (1.0 + math.cos(phi)) / (2.0 * K)


def contraction(T: float) -> float:
    """Half-plane contraction k of a hyperbolic map with tr^2 = T > 4."""
    return (T - 2.0 - math.sqrt(T * T - 4.0 * T)) / 2.0


# ------------------------------------------------------------- generators

RENDER_CATALOGUE_SEED = 20120518
# one render-wide round: (side, jobs per round).  The catalogue holds just
# one round's renders, so every round does the same work (the few large
# renders would otherwise make a run's p90 depend on which ones it drew) and
# reaches the same 1024^2 peak memory; the seed orders them.
WIDE_ROUND = ((1024, 1), (768, 2), (512, 4), (384, 6), (256, 12))
ZOOM_ROUND = ((96, 4), (128, 4), (160, 3), (192, 2))
ZOOM_PER_SIDE = 24


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _regime_params(rng: random.Random, kind: str) -> tuple[float, float]:
    """(K, theta) whose regime is `kind`, well away from K_theta except for
    the exact bifurcation kind."""
    if kind == "one_parabolic":
        return 2.0, 0.0
    if kind == "two_with_neutral":
        Kc = _log_uniform(rng, 2.2, 40.0)
        return Kc, theta_of_K(Kc)
    theta = rng.uniform(0.0, 1.3) * rng.choice((1.0, -1.0))
    kt = k_theta(theta)
    if kind == "one_repelling":
        return rng.uniform(1.05, 0.9 * kt), theta
    return kt * rng.uniform(1.15, 3.0), theta


def _render_record(K, theta, bounds, side, max_iter) -> dict:
    return {"K": K, "theta": theta, "window": list(bounds), "res": side,
            "max_iter": max_iter}


def render_key(job: dict) -> str:
    """Catalogue key of a render job: its exact inputs."""
    return "{!r} {!r} {} {} {}".format(
        job["K"], job["theta"], ",".join(repr(x) for x in job["window"]),
        job["res"], job["max_iter"])


def wide_catalogue() -> list[dict]:
    """Fixed render-wide entries, one round's worth; recorded digests exist
    for each."""
    rng = random.Random(RENDER_CATALOGUE_SEED)
    kinds = ("one_repelling", "two_with_neutral", "three", "one_parabolic")
    out = []
    for side, n in WIDE_ROUND:
        for _ in range(n):
            K, theta = _regime_params(rng, kinds[len(out) % len(kinds)])
            hw = rng.uniform(1.05, 1.6)  # the non-escaping set lies in |z| <= 1
            cx = rng.uniform(-1.0, 1.0) * (hw - 1.0)
            cy = rng.uniform(-1.0, 1.0) * (hw - 1.0)
            out.append(_render_record(K, theta, (cx - hw, cx + hw, cy - hw, cy + hw),
                                      side, rng.choice((50, 100, 200))))
    return out


def zoom_catalogue() -> list[dict]:
    """Fixed render-zoom entries centred on a repelling radial fixed point."""
    rng = random.Random(RENDER_CATALOGUE_SEED + 1)
    out = []
    for side, _ in ZOOM_ROUND:
        while sum(1 for j in out if j["res"] == side) < ZOOM_PER_SIDE:
            K = _log_uniform(rng, 1.3, 12.0)
            theta = rng.uniform(-1.3, 1.3)
            rep = [phi for phi in fixed_angles(K, theta)
                   if circle_deriv(K, theta, phi) > 1.05]
            if not rep:
                continue
            phi = rng.choice(rep)
            r = 1.0 / alpha(K, theta, phi)
            cx, cy = r * math.cos(phi), r * math.sin(phi)
            hw = 10.0 ** rng.uniform(-14.0, -6.0)
            # depth at which a pixel offset of ~hw has doubled past r
            needed = math.log2(r / hw) + 6.0
            max_iter = max(8, int(needed * rng.uniform(0.8, 1.6)))
            out.append(_render_record(K, theta, (cx - hw, cx + hw, cy - hw, cy + hw),
                                      side, max_iter))
    return out


def render_jobs(catalogue: list[dict], round_spec, seed: int,
                rounds: int) -> list[dict]:
    """Rounds of catalogue entries: each round holds `round_spec` jobs per
    side, in an order drawn from the seed.  Each side walks through seeded
    permutations of its entries, so every entry is used about equally
    often and runs of different seeds do about the same work."""
    rng = random.Random(seed)
    streams: dict[int, list[dict]] = {}
    for job in catalogue:
        streams.setdefault(job["res"], []).append(job)
    queues: dict[int, list[dict]] = {side: [] for side in streams}

    def take(side):
        if not queues[side]:
            queues[side] = rng.sample(streams[side], len(streams[side]))
        return queues[side].pop()

    jobs = []
    for _ in range(rounds):
        rnd = [take(side) for side, n in round_spec for _ in range(n)]
        rng.shuffle(rnd)
        jobs.extend(rnd)
    return jobs


def _partner(rng: random.Random, K: float, theta: float) -> dict:
    """A partner map for obstruction_report: half share the direction (the
    corollary case), half take another one."""
    theta2 = theta if rng.random() < 0.5 else rng.uniform(-HALF_PI, HALF_PI)
    K2 = 1.0 + _log_uniform(rng, 0.01, 100.0)
    if K2 == K:
        K2 *= 1.5
    return {"K2": K2, "theta2": theta2, "regime2": expected_regime(K2, theta2)}


# one survey round: jobs per regime
SURVEY_ROUND = (("one_repelling", 7), ("three", 7), ("two_with_neutral", 4),
                ("one_parabolic", 2))


def survey_jobs(seed: int, rounds: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for _ in range(rounds):
        rnd = []
        for kind, n in SURVEY_ROUND:
            for _ in range(n):
                K, theta = _regime_params(rng, kind)
                rnd.append({"kind": kind, "K": K, "theta": theta,
                            "phis": [rng.uniform(-math.pi, math.pi) for _ in range(3)],
                            "z": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
                            "seed": rng.randrange(1 << 30),
                            **_partner(rng, K, theta)})
        rng.shuffle(rnd)
        jobs.extend(rnd)
    return jobs
