"""Fixed rays: the cubic in t = tan[(phi - theta)/2], stability classes,
the bifurcation stretch K_theta, and the contraction interval J."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import MapParams, normalize_angle
from .circle import circle_map_deriv, is_fixed_angle
from .errors import InvalidParameter, NumericalFailure
from .mobius import _half_plane_k


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


# tau: how closely k_theta matches its direction theta.  theta_of_K has no
# cancellation, so this one absolute bound holds for every theta
THETA_RESOLUTION = 1e-12


def _quartic(p: MapParams) -> tuple[Fraction, Fraction, float]:
    """(F, terms, band): the fixed-ray count from the sign of one quartic.

    F = c^2 (K+1)^3 (K-1) - (2K-1)^3, c = cos theta, is the cubic's
    discriminant up to a positive factor: F > 0 gives three rays, F < 0
    one.  F is exact on the float K and on c^2, which is cos^2 or
    1 - sin^2 from whichever of math.cos and math.sin is smaller, so it
    keeps theta where math.cos(theta) rounds to 1.  terms is the sum of
    F's two terms.  With |F| <= band = |dF/dtheta| tau a map is as near
    K_theta as k_theta places it: at the bifurcation."""
    cos, sin = math.cos(p.theta), math.sin(p.theta)
    c2 = Fraction(cos) ** 2 if abs(cos) < abs(sin) else 1 - Fraction(sin) ** 2
    K = Fraction(p.K)
    x = (K + 1) ** 3 * (K - 1)
    u, v = c2 * x, (2 * K - 1) ** 3
    band = 2.0 * abs(cos * sin) * float(x) * THETA_RESOLUTION
    return u - v, u + v, band


def quartic_diagnostic(p: MapParams) -> str:
    """The inputs of the regime decision, for error messages."""
    F, terms, _ = _quartic(p)
    return f"K={p.K!r}, theta={p.theta!r}, |F|/terms={float(abs(F) / terms):.3g}"


def _root(coeffs, lo: float, hi: float) -> float:
    """The cubic's root between lo and hi, where its values have opposite
    signs, bisected until lo and hi are adjacent floats."""
    lo_neg = _poly(coeffs, lo) < 0.0
    while True:
        # split at 0 first: halving towards 0 would run into the subnormals
        mid = 0.0 if lo * hi < 0.0 else 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return min(lo, hi, key=lambda t: abs(_poly(coeffs, t)))
        v = _poly(coeffs, mid)
        if v == 0.0:
            return mid
        if (v < 0.0) == lo_neg:
            lo = mid
        else:
            hi = mid


def _cubic_roots(coeffs, F: Fraction, band: float
                 ) -> tuple[Regime, list[tuple[float, Stability]]]:
    """The regime from the sign of F, and the cubic's real roots in
    increasing order, each with the stability of its ray.

    Each root is bracketed by the critical points, the roots of
    3a t^2 + 2b t + c.  Stability follows from the order: a lone root is
    repelling, three roots are repelling, attracting, repelling, and at the
    bifurcation the critical point where |p| is smaller is the neutral
    double root.
    """
    a, b, c, _ = coeffs
    R = 1.0 + max(map(abs, coeffs[1:])) / a  # Cauchy: every root is in (-R, R)
    D = b * b - 3.0 * a * c
    if not D > 0.0:
        # a monotone cubic: K <= 2, and F = 0 only at K = 2 with
        # theta = 0, the triple root of the parabolic map
        t = _root(coeffs, -R, R)
        if F == 0:
            return Regime.ONE_PARABOLIC, [(t, Stability.NEUTRAL)]
        return Regime.ONE_REPELLING, [(t, Stability.REPELLING)]
    q = -(b + math.copysign(math.sqrt(D), b))
    t1, t2 = sorted((q / (3.0 * a), c / q))  # local maximum, local minimum
    rep, att, neu = Stability.REPELLING, Stability.ATTRACTING, Stability.NEUTRAL
    if abs(F) <= band:
        if abs(_poly(coeffs, t1)) <= abs(_poly(coeffs, t2)):
            return Regime.TWO_WITH_NEUTRAL, [(t1, neu), (_root(coeffs, t2, R), rep)]
        return Regime.TWO_WITH_NEUTRAL, [(_root(coeffs, -R, t1), rep), (t2, neu)]
    if F > 0:
        return Regime.THREE, [(_root(coeffs, -R, t1), rep),
                              (_root(coeffs, t1, t2), att),
                              (_root(coeffs, t2, R), rep)]
    lo, hi = (t2, R) if _poly(coeffs, t2) < 0.0 else (-R, t1)
    return Regime.ONE_REPELLING, [(_root(coeffs, lo, hi), rep)]


def _make_ray(p: MapParams, phi: float, stab: Stability) -> FixedRay:
    """The ray at the fixed angle phi, with tr^2 of its Mobius factor from
    sqrt(T - 4) = (K - 1)|cos(2 theta - 3 phi/2)|/sqrt K, which has no
    subtraction: T - 4 vanishes only on the parabolic curve, where k = 1."""
    s = (p.K - 1.0) * abs(math.cos(2.0 * p.theta - 1.5 * phi)) / math.sqrt(p.K)
    T = 4.0 + s * s
    return FixedRay(angle=phi, multiplier=circle_map_deriv(p, phi),
                    stability=stab, trace_sq=T, contraction_k=_half_plane_k(s, T))


def fixed_rays(p: MapParams) -> RegimeReport:
    """All fixed rays of H with stability classes and the regime.

    The report is computed once per map and shared by later calls on an
    equal MapParams while it stays among the 64 most recently used; that
    is safe because MapParams and RegimeReport are frozen."""
    return _fixed_rays(p)


# a survey job asks about its own map and one obstruction partner; a plain
# function stays in front of the cache so that tracers still see the calls
@functools.lru_cache(maxsize=64)
def _fixed_rays(p: MapParams) -> RegimeReport:
    F, _, band = _quartic(p)
    regime, roots = _cubic_roots(cubic_coeffs(p), F, band)
    rays = []
    for t, stab in roots:
        phi = normalize_angle(p.theta + 2.0 * math.atan(t))
        if not is_fixed_angle(p, phi):
            raise NumericalFailure(
                f"root t={t!r} gives non-fixed angle phi={phi!r} at "
                + quartic_diagnostic(p))
        rays.append(_make_ray(p, phi, stab))
    rays.sort(key=lambda r: r.angle)
    kt = k_theta(abs(p.theta)) if abs(p.theta) < math.pi / 2 else None
    return RegimeReport(regime=regime, rays=tuple(rays), k_theta=kt)


def theta_of_K(K: float) -> float:
    """Direction angle whose bifurcation stretch is K (0 at K = 2), for
    K >= 2 with 2K - 1 finite: tan theta = r^(3/2) sqrt(K) with
    r = (K-2)/(2K-1), which keeps theta to a few ulps as theta -> 0, where
    acos(cos theta) loses it."""
    d = 2.0 * K - 1.0
    if not (K >= 2.0 and math.isfinite(d)):  # nan fails too
        raise InvalidParameter(
            f"theta_of_K needs K >= 2 with 2K - 1 finite, got K={K!r}")
    r = (K - 2.0) / d
    return math.atan(r * math.sqrt(K * r))


def k_theta(theta: float) -> float:
    """The critical stretch K_theta where the fixed-ray count bifurcates.

    theta_of_K is strictly increasing on (2, inf), so bisection applies.
    The result is shared by later calls on an equal theta while it stays
    among the 64 most recently used, as fixed_rays does.
    """
    return _k_theta(theta)


# fixed_rays bisects its own direction, and callers then ask for it again
@functools.lru_cache(maxsize=64)
def _k_theta(theta: float) -> float:
    if theta == 0.0:
        return 2.0
    if not 0.0 < theta < math.pi / 2:
        raise InvalidParameter(f"need theta in [0, pi/2), got theta={theta!r}")
    # K_theta ~ 8/cos^2(theta) as theta -> pi/2, so size the bracket to fit
    lo, hi = 2.0, max(1e3, 32.0 / math.cos(theta) ** 2)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if theta_of_K(mid) < theta:
            lo = mid
        else:
            hi = mid
    K = 0.5 * (lo + hi)
    resid = abs(theta_of_K(K) - theta)
    if resid > THETA_RESOLUTION:
        raise NumericalFailure(
            f"k_theta bisection residual {resid:.3g} too large at theta={theta!r}")
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
