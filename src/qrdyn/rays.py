"""Fixed rays: the cubic in t = tan[(phi - theta)/2], stability classes,
the bifurcation stretch K_theta, and the contraction interval J."""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import MapParams, circle_dist, normalize_angle
from .circle import FIXED_RESIDUAL, circle_map, circle_map_deriv
from .errors import InvalidParameter, NumericalFailure
from .mobius import contraction_k

NEUTRAL_BAND = 1e-9      # |H~' - 1| below this is neutral
ROOT_MERGE = 1e-7        # cubic roots closer than this coincide


class Stability(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    NEUTRAL = "neutral"


class Regime(enum.Enum):
    ONE_REPELLING = "one_repelling"
    ONE_PARABOLIC = "one_parabolic"
    TWO_WITH_NEUTRAL = "two_with_neutral"
    THREE = "three"


@dataclass(frozen=True)
class FixedRay:
    angle: float
    multiplier: float
    stability: Stability
    trace_sq: float
    contraction_k: float


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    rays: tuple[FixedRay, ...]  # sorted by angle
    k_theta: float | None       # bifurcation stretch, when theta in [0, pi/2)


def cubic_coeffs(p: MapParams) -> tuple[float, float, float, float]:
    """Coefficients (a, b, c, d) of the fixed-ray cubic
    a t^3 + b t^2 + c t + d with t = tan[(phi - theta)/2]."""
    th = math.tan(p.theta / 2.0)
    return (p.K, (2.0 - p.K) * th, 2.0 - p.K, p.K * th)


def _poly(coeffs, t):
    a, b, c, d = coeffs
    return ((a * t + b) * t + c) * t + d


def _dpoly(coeffs, t):
    a, b, c, _ = coeffs
    return (3.0 * a * t + 2.0 * b) * t + c


def solve_cubic(coeffs) -> list[tuple[float, int]]:
    """Real roots of the cubic as sorted (root, multiplicity) pairs.

    Companion-matrix roots polished with two Newton steps; roots closer
    than ROOT_MERGE are merged, which is what makes the double root at the
    bifurcation detectable.
    """
    a = coeffs[0]
    if a == 0.0:
        raise InvalidParameter("leading coefficient must be nonzero")
    rts = np.roots(list(coeffs))
    # a multiple real root comes back as a cluster with imaginary parts up
    # to ~eps^(1/m); accept those as real but remember the spread so the
    # merge below treats the whole cluster as one root
    real = [(r.real, abs(r.imag)) for r in rts
            if abs(r.imag) <= 1e-5 * (1.0 + abs(r))]
    if not real:  # cannot happen for a real cubic, but stay safe
        r = min(rts, key=lambda r: abs(r.imag))
        real = [(r.real, abs(r.imag))]

    polished = []
    for t, im in real:
        for _ in range(2):
            d = _dpoly(coeffs, t)
            if abs(d) < 1e-12:
                break
            step = _poly(coeffs, t) / d
            if abs(step) > 1.0:
                break
            t -= step
        polished.append((t, im))
    polished.sort()

    merged: list[tuple[float, int, float]] = []  # (root, mult, imag spread)
    for t, im in polished:
        if merged:
            prev, m, pim = merged[-1]
            tol = max(ROOT_MERGE * (1.0 + abs(t)), 3.0 * (im + pim))
            if abs(t - prev) <= tol:
                merged[-1] = ((prev * m + t) / (m + 1), m + 1, max(im, pim))
                continue
        merged.append((t, 1, im))
    merged = [(t, m) for t, m, _ in merged]

    scale = max(abs(c) for c in coeffs)
    for t, m in merged:
        resid = abs(_poly(coeffs, t))
        if m == 1 and resid > 1e-10 * scale * (1.0 + abs(t)) ** 3:
            raise NumericalFailure(f"cubic root residual {resid} at t={t}")
    return merged


def trace_sq_of_angle(K: float, phi: float) -> float:
    """Squared trace of the dilatation Mobius map of the fixed ray at phi.

    Raises InvalidParameter where it is not a finite number, as for K from
    about 1e154 on, where (K + 1)^2 (1 + cos phi) overflows."""
    try:
        T = (K + 1.0) ** 2 * (1.0 + math.cos(phi)) / (2.0 * K)
    except (ArithmeticError, ValueError):
        T = math.nan
    if not math.isfinite(T):
        raise InvalidParameter(f"trace_sq is not finite at K={K!r}, phi={phi!r}")
    return T


def _make_ray(p: MapParams, phi: float, mult: int) -> FixedRay:
    m = circle_map_deriv(p, phi)
    if mult >= 2 or abs(m - 1.0) < NEUTRAL_BAND:
        stab = Stability.NEUTRAL
    elif m < 1.0:
        stab = Stability.ATTRACTING
    else:
        stab = Stability.REPELLING
    T = trace_sq_of_angle(p.K, phi)
    # tr^2 <= 4 (no contraction) does occur, e.g. for K within 1e-9 of 1
    k = contraction_k(T) if T > 4.0 else 1.0
    return FixedRay(angle=phi, multiplier=m, stability=stab,
                    trace_sq=T, contraction_k=k)


def fixed_rays(p: MapParams) -> RegimeReport:
    """All fixed rays of H with stability classes and the regime."""
    roots = solve_cubic(cubic_coeffs(p))
    rays = []
    for t, mult in roots:
        phi = normalize_angle(p.theta + 2.0 * math.atan(t))
        image = circle_map(p, phi)
        if circle_dist(image, phi) > FIXED_RESIDUAL:
            # pi-periodicity of H~ can hand us the antipodal branch
            alt = normalize_angle(phi + math.pi)
            if circle_dist(circle_map(p, alt), alt) <= FIXED_RESIDUAL:
                phi = alt
            else:
                raise NumericalFailure(
                    f"root t={t} gives non-fixed angle {phi} "
                    f"(residual {circle_dist(image, phi):.3e})")
        rays.append(_make_ray(p, phi, mult))
    rays.sort(key=lambda r: r.angle)

    stabs = {r.stability for r in rays}
    total = sum(m for _, m in roots)
    if len(rays) == 3:
        regime = Regime.THREE
    elif len(rays) == 2:
        regime = Regime.TWO_WITH_NEUTRAL
    elif total == 3 or Stability.NEUTRAL in stabs:
        regime = Regime.ONE_PARABOLIC
    else:
        regime = Regime.ONE_REPELLING

    abs_theta = abs(p.theta)
    kt = k_theta(abs_theta) if abs_theta < math.pi / 2 else None
    return RegimeReport(regime=regime, rays=tuple(rays), k_theta=kt)


def theta_of_K(K: float) -> float:
    """Direction angle whose bifurcation stretch is K; requires K > 2
    (K = 2 gives theta = 0)."""
    if K < 2.0:
        raise InvalidParameter("need K >= 2")
    f = ((2.0 * K - 1.0) / (K * K - 1.0)) ** 1.5 * (K - 1.0)
    return math.acos(min(1.0, f))


def k_theta(theta: float) -> float:
    """The critical stretch K_theta where the fixed-ray count bifurcates.

    theta_of_K is strictly increasing on (2, inf), so bisection applies.
    """
    if theta == 0.0:
        return 2.0
    if not 0.0 < theta < math.pi / 2:
        raise InvalidParameter("need theta in [0, pi/2)")
    # K_theta ~ 8/cos^2(theta) as theta -> pi/2, so size the bracket to fit
    lo, hi = 2.0 + 1e-9, max(1e3, 32.0 / math.cos(theta) ** 2)
    if theta_of_K(lo) > theta:
        lo = 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if theta_of_K(mid) < theta:
            lo = mid
        else:
            hi = mid
    K = 0.5 * (lo + hi)
    # theta_of_K(K) = acos(f) with 1 - f ~ theta^2/2 near K = 2, so the
    # rounding of f alone perturbs theta by ~eps/theta; the residual cannot
    # beat that for small theta
    tol = max(1e-12, 8.0 * sys.float_info.epsilon / theta)
    if abs(theta_of_K(K) - theta) > tol:
        raise NumericalFailure(f"k_theta bisection residual too large at theta={theta}")
    return K


def interval_J(p: MapParams) -> tuple[float, float] | None:
    """Open interval (theta - eta, theta + eta) where H~' < 1; None for K < 2
    and the single point {theta} for K = 2."""
    if p.K < 2.0:
        return None
    if p.K == 2.0:
        return (p.theta, p.theta)
    eta = math.acos(math.sqrt((2.0 * p.K - 1.0) / (p.K * p.K - 1.0)))
    return (p.theta - eta, p.theta + eta)
