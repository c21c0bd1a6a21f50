"""The induced degree-two circle endomorphism, its derivatives and orbits."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import MapParams, arg_h, circle_dist, normalize_angle
from .errors import InvalidParameter, ResourceLimit

MAX_TREE_DEPTH = 20
DEDUP_TOL = 1e-13
FIXED_RESIDUAL = 1e-8    # circle distance allowed between H~(phi) and phi


def circle_map(p: MapParams, phi: float) -> float:
    """Angle of H(e^{i phi}), reduced to (-pi, pi]."""
    return normalize_angle(2.0 * arg_h(p, phi))


def require_fixed_angle(p: MapParams, phi: float) -> None:
    """Raise InvalidParameter unless H~(phi) is within FIXED_RESIDUAL of phi."""
    resid = circle_dist(circle_map(p, phi), phi)
    if resid > FIXED_RESIDUAL:
        raise InvalidParameter(
            f"phi={phi!r} is not a fixed angle of the circle map at K={p.K!r}, "
            f"theta={p.theta!r}: residual {resid:.3e} > {FIXED_RESIDUAL}")


def circle_map_lift(p: MapParams, phi: float) -> float:
    """Monotone degree-2 lift: continuous on (theta - pi/2, theta + 3 pi/2)
    and satisfying lift(phi + 2 pi) = lift(phi) + 4 pi."""
    x = phi - p.theta
    # unwrap the atan branch: shift x into [-pi/2, pi/2] by a multiple of pi
    k = round(x / math.pi)
    xr = x - k * math.pi
    return 2.0 * p.theta + 2.0 * (math.atan(math.tan(xr) / p.K) + k * math.pi)


def circle_map_deriv(p: MapParams, phi: float) -> float:
    c = math.cos(phi - p.theta)
    return 2.0 * p.K / (1.0 + (p.K * p.K - 1.0) * c * c)


def circle_map_deriv2(p: MapParams, phi: float) -> float:
    x = phi - p.theta
    k2 = p.K * p.K - 1.0
    denom = 1.0 + k2 * math.cos(x) ** 2
    return 2.0 * p.K * k2 * math.sin(2.0 * x) / (denom * denom)


def circle_preimages(p: MapParams, psi: float) -> tuple[float, float]:
    """The two angles phi, phi + pi with circle_map(phi) = psi."""
    u = (psi - 2.0 * p.theta) / 2.0
    x = math.atan2(p.K * math.sin(u), math.cos(u))
    phi = normalize_angle(p.theta + x)
    return phi, normalize_angle(phi + math.pi)


def circle_map_array(p: MapParams, phis: np.ndarray) -> np.ndarray:
    """Vectorized circle_map over an array of angles."""
    x = phis - p.theta
    out = 2.0 * p.theta + 2.0 * np.arctan2(np.sin(x), p.K * np.cos(x))
    out = np.mod(out, 2.0 * np.pi)
    out[out > np.pi] -= 2.0 * np.pi
    return out


def orbit(p: MapParams, phi: float, n: int) -> list[float]:
    """Forward orbit [phi, H~(phi), ..., H~^n(phi)]."""
    if not math.isfinite(phi):
        raise InvalidParameter(f"orbit needs a finite phi, got phi={phi!r}")
    if n < 0:
        raise InvalidParameter(f"orbit needs n >= 0, got n={n}")
    seq = [normalize_angle(phi)]
    for _ in range(n):
        seq.append(circle_map(p, seq[-1]))
    return seq


class LimitOutcome(enum.Enum):
    CONVERGED = "converged"
    LANDED_ON_REPELLER = "landed_on_repeller"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class LimitReport:
    outcome: LimitOutcome
    target: float | None
    iterations: int
    final_angle: float


def classify_limit(p: MapParams, phi: float, max_iter: int = 10_000,
                   tol: float = 1e-9, confirm: int = 5,
                   report=None) -> LimitReport:
    """Iterate the circle map and test for arrival at a fixed angle.

    Convergence to an angle is only reported after `confirm` consecutive
    iterates within `tol` circle distance of it; neutral attraction is slow,
    so a single close pass is not trusted.
    """
    from .rays import Stability, fixed_rays  # local import avoids a cycle

    if report is None:
        report = fixed_rays(p)
    targets = [(r.angle, r.stability) for r in report.rays]

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


def converged_fraction(p: MapParams, phis: np.ndarray, target: float,
                       n_iter: int, tol: float) -> float:
    """Fraction of an angle array within tol of target after n_iter steps."""
    a = np.asarray(phis, dtype=float)
    for _ in range(n_iter):
        a = circle_map_array(p, a)
    d = np.abs(np.mod(a - target + np.pi, 2.0 * np.pi) - np.pi)
    return float(np.mean(d < tol))


@dataclass(frozen=True)
class BackwardTree:
    angles: list[float]  # sorted, deduplicated depth-level preimages
    max_gap: float       # largest circular gap, including wraparound


def backward_tree(p: MapParams, phi: float, depth: int) -> BackwardTree:
    """All depth-level preimages of phi under the circle map."""
    if depth > MAX_TREE_DEPTH:
        raise ResourceLimit(f"depth {depth} exceeds limit {MAX_TREE_DEPTH}")
    level = [normalize_angle(phi)]
    for _ in range(depth):
        nxt = []
        for a in level:
            nxt.extend(circle_preimages(p, a))
        nxt.sort()
        level = [nxt[0]]
        for a in nxt[1:]:
            if a - level[-1] > DEDUP_TOL:
                level.append(a)
        # wraparound duplicate
        if len(level) > 1 and (level[0] + 2.0 * math.pi) - level[-1] <= DEDUP_TOL:
            level.pop()
    if len(level) == 1:
        return BackwardTree(level, 2.0 * math.pi)
    gaps = [b - a for a, b in zip(level, level[1:])]
    gaps.append(level[0] + 2.0 * math.pi - level[-1])
    return BackwardTree(level, max(gaps))
