"""The degree-two Blaschke product realizing the circle map on S^1."""

from __future__ import annotations

import cmath
import enum
import math
import random
from dataclasses import dataclass

from .core import TAU, MapParams, modulus, require_count
from .rays import Regime, Stability, fixed_rays
from .errors import InvalidParameter, NoBasin

SAMPLE_BURN_IN = 30      # julia_sample: backward steps discarded before sampling
BASIN_MARGIN = 1e-9      # BasinInterval.contains: distance kept from both ends
# the sample is a list of floats that `qrdyn julia` prints whole: at a
# million angles it peaks near 280 MB
MAX_SAMPLE_COUNT = 1_000_000


@dataclass(frozen=True)
class BlaschkeMap:
    mu: complex
    zero: complex  # B vanishes at +-zero


def blaschke_of_params(p: MapParams) -> BlaschkeMap:
    a = cmath.exp(1j * (p.theta - math.pi / 2)) * math.sqrt((p.K - 1.0) / (p.K + 1.0))
    return BlaschkeMap(mu=p.mu, zero=a)


def blaschke_apply(B: BlaschkeMap, z: complex) -> complex:
    if not modulus(z) <= 1.0 + 1e-9:  # nan fails too
        raise InvalidParameter(f"blaschke_apply needs |z| <= 1, got z={z!r}")
    z2 = z * z
    return (z2 + B.mu) / (1.0 + B.mu.conjugate() * z2)


class JuliaKind(enum.Enum):
    FULL_CIRCLE = "full_circle"
    CANTOR_ON_CIRCLE = "cantor_on_circle"


@dataclass(frozen=True)
class JuliaClassification:
    kind: JuliaKind
    regime: Regime


def julia_classification(p: MapParams) -> JuliaClassification:
    """Julia set of B: the whole circle in the one-ray regimes, a Cantor
    subset of the circle once a non-repelling ray exists."""
    report = fixed_rays(p)
    if report.regime in (Regime.ONE_REPELLING, Regime.ONE_PARABOLIC):
        kind = JuliaKind.FULL_CIRCLE
    else:
        kind = JuliaKind.CANTOR_ON_CIRCLE
    return JuliaClassification(kind=kind, regime=report.regime)


def julia_sample(p: MapParams, count: int, seed: int) -> list[float]:
    """Inverse-iteration sample of the Julia set on S^1.

    Random-branch backward orbit of a repelling fixed angle; the first
    SAMPLE_BURN_IN iterates are discarded.  Deterministic for a given seed.
    """
    count = require_count("julia_sample", "count", count, 1, MAX_SAMPLE_COUNT)
    report = fixed_rays(p)
    repellers = [r for r in report.rays if r.stability is Stability.REPELLING]
    if not repellers:  # parabolic circle: the neutral angle lies in J too
        repellers = list(report.rays)
    getrandbits = random.Random(seed).getrandbits
    # a random one of the preimages phi = theta + atan2(K sin u, cos u),
    # u = (x - 2 theta)/2, and phi + pi, reduced with normalize_angle's float
    # operations: bit-identical to the tests' reference circle_preimages
    K, theta, two_theta, pi = p.K, p.theta, 2.0 * p.theta, math.pi
    atan2, sin, cos = math.atan2, math.sin, math.cos
    x = repellers[0].angle
    out = []
    for _ in range(count + SAMPLE_BURN_IN):
        u = (x - two_theta) / 2.0
        # x is in (-3pi/2, 3pi/2], where x % TAU is x above 0, fl(x + TAU)
        # below 0 and +0.0 at +-0.0, which TAU - TAU below also gives
        x = theta + atan2(K * sin(u), cos(u))
        if x <= 0.0:
            x += TAU
        if x > pi:
            x -= TAU
        if getrandbits(1):
            # x + pi is in (0, 2pi], where % TAU only maps 2pi to 0
            x += pi
            if x >= TAU:
                x -= TAU
            if x > pi:
                x -= TAU
        out.append(x)
    del out[:SAMPLE_BURN_IN]
    return out


@dataclass(frozen=True)
class BasinInterval:
    """Immediate basin of the non-repelling fixed angle, as an interval.

    The neutral endpoint belongs to the basin in the two-ray case; that is
    recorded in closed_lo/closed_hi but numeric membership tests treat both
    ends as open.
    """

    lo: float
    hi: float
    closed_lo: bool
    closed_hi: bool

    def contains(self, angle: float) -> bool:
        return self.lo + BASIN_MARGIN < angle < self.hi - BASIN_MARGIN


def immediate_basin(p: MapParams) -> BasinInterval:
    report = fixed_rays(p)
    if report.regime in (Regime.ONE_REPELLING, Regime.ONE_PARABOLIC):
        raise NoBasin(f"no non-repelling fixed ray at K={p.K!r}, "
                      f"theta={p.theta!r}: the regime is {report.regime.value}")
    if report.regime is Regime.THREE:
        angles = [r.angle for r in report.rays]
        return BasinInterval(lo=min(angles), hi=max(angles),
                             closed_lo=False, closed_hi=False)
    # two rays: interval bounded by the repelling and the neutral angle,
    # closed at the neutral end
    rep = next(r for r in report.rays if r.stability is Stability.REPELLING)
    neu = next(r for r in report.rays if r.stability is not Stability.REPELLING)
    lo, hi = sorted((rep.angle, neu.angle))
    return BasinInterval(lo=lo, hi=hi,
                         closed_lo=(lo == neu.angle), closed_hi=(hi == neu.angle))
