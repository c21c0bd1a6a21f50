"""The induced degree-two circle endomorphism, its derivative and orbits."""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (TAU, MapParams, arg_h, circle_dist, normalize_angle,
                   require_count, require_finite)
from .errors import InvalidParameter

MAX_TREE_DEPTH = 20
# The most steps orbit, classify_limit and converged_fraction take; `qrdyn
# orbit` prints the whole orbit: at a million angles it peaks near 280 MB
MAX_ORBIT_LEN = 1_000_000
FIXED_RESIDUAL = 1e-8    # circle distance allowed between H~(phi) and phi,
                         # per unit of max(1, H~'(phi))
LIMIT_TOL = 1e-9         # classify_limit: circle distance that counts as arrival
LIMIT_CONFIRM = 5        # classify_limit: consecutive arrivals before reporting


def circle_map(p: MapParams, phi: float) -> float:
    """Angle of H(e^{i phi}), reduced to (-pi, pi]."""
    require_finite("circle_map", "phi", phi)
    return normalize_angle(2.0 * arg_h(p, phi))


def is_fixed_angle(p: MapParams, phi: float) -> bool:
    """Whether phi is finite and H~(phi) is within
    FIXED_RESIDUAL * max(1, H~'(phi)) of phi.

    An error in phi comes back in H~(phi) multiplied by H~'(phi), which
    reaches about 2K, so a flat bound would reject even the float nearest
    a fixed angle once K is large."""
    return math.isfinite(phi) and circle_dist(circle_map(p, phi), phi) \
        <= FIXED_RESIDUAL * max(1.0, circle_map_deriv(p, phi))


def require_fixed_angle(p: MapParams, phi: float) -> None:
    """Raise InvalidParameter unless is_fixed_angle(p, phi)."""
    if not is_fixed_angle(p, phi):
        raise InvalidParameter(
            f"phi={phi!r} is not a fixed angle of the circle map at K={p.K!r}, "
            f"theta={p.theta!r}")


def circle_map_deriv(p: MapParams, phi: float) -> float:
    require_finite("circle_map_deriv", "phi", phi)
    c = math.cos(phi - p.theta)
    return 2.0 * p.K / (1.0 + (p.K * p.K - 1.0) * c * c)


def _circle_step(mu: complex, z: np.ndarray, w: np.ndarray) -> None:
    """One circle-map step on nonzero complex numbers z, in place:
    z <- w^2 with w = z + mu conj(z), a positive multiple of h(z), so
    arg z becomes H~(arg z).  w is scratch space of z's shape.  |z| is not
    kept: |w|/|z| lies in [2/(K+1), 2K/(K+1)], and the caller rescales."""
    np.conjugate(z, out=w)
    w *= mu
    w += z
    np.multiply(w, w, out=z)


def _rescale_period(K: float) -> int:
    """The most circle steps, at most 8, that keep log2 |z| within 1000 of 0
    from |z| = 1, far from overflow and the subnormals: a step doubles
    log2 |z| and adds 2 log2(|w|/|z|), at most 2 max(1, log2((K+1)/2)) in
    size, so j steps reach at most (2^(j+1) - 2) max(1, log2((K+1)/2))."""
    c = max(1.0, math.log2((K + 1.0) / 2.0))
    j = 8
    while j > 1 and (2 ** (j + 1) - 2) * c > 1000.0:
        j -= 1
    return j


def orbit(p: MapParams, phi: float, n: int) -> list[float]:
    """Forward orbit [phi, H~(phi), ..., H~^n(phi)]."""
    require_finite("orbit", "phi", phi)
    n = require_count("orbit", "n", n, 0, MAX_ORBIT_LEN)
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
    """What classify_limit found.  iterations is the first iterate of the
    confirming streak, or max_iter if undecided; final_angle is the iterate
    at which the report was made, the last of the streak, or
    H~^(max_iter+1)(phi) if undecided, one step past the last tested iterate."""
    outcome: LimitOutcome
    target: float | None
    iterations: int
    final_angle: float


def classify_limit(p: MapParams, phi: float, max_iter: int = 10_000) -> LimitReport:
    """Iterate the circle map and test for arrival at a fixed angle.

    Convergence to an angle is only reported after LIMIT_CONFIRM consecutive
    iterates within LIMIT_TOL circle distance of it; neutral attraction is
    slow, so a single close pass is not trusted.

    An iterate gets only the map step while the float e = cur - a has
    2 LIMIT_TOL < |e| < TAU - 2 LIMIT_TOL for every fixed angle a:
    circle_dist(cur, a) is then at least 2 LIMIT_TOL less two ulps of TAU,
    above LIMIT_TOL, so the arrival test would find no hit.
    """
    from .rays import Stability, fixed_rays  # local import avoids a cycle

    require_finite("classify_limit", "phi", phi)
    max_iter = require_count("classify_limit", "max_iter", max_iter, 0,
                             MAX_ORBIT_LEN)
    rays = fixed_rays(p).rays

    # circle_map written out with the same float operations, so the report
    # is bit-identical to calling it
    K, theta, pi, tol = p.K, p.theta, math.pi, LIMIT_TOL
    atan2, sin, cos = math.atan2, math.sin, math.cos
    # a cubic has at most three fixed angles; the gate reads only as many
    # as the map has, so the padding is never tested
    a0, a1, a2 = ([r.angle for r in rays] * 3)[:3]
    two, three = len(rays) > 1, len(rays) > 2
    lo, hi = 2.0 * tol, TAU - 2.0 * tol
    cur = normalize_angle(phi)
    # the streak: the index of the ray being arrived at, -1 for none, and
    # its first iterate
    hit = start = -1
    for it in range(max_iter + 1):
        if lo < abs(cur - a0) < hi and (not two or lo < abs(cur - a1) < hi) \
                and (not three or lo < abs(cur - a2) < hi):
            hit = -1  # a miss: the next hit starts a new streak
        else:
            i = next((i for i, r in enumerate(rays)
                      if circle_dist(cur, r.angle) < tol), -1)
            if i != hit:
                hit, start = i, it
            if hit >= 0 and it - start + 1 >= LIMIT_CONFIRM:
                r = rays[hit]
                outcome = (LimitOutcome.LANDED_ON_REPELLER
                           if r.stability is Stability.REPELLING
                           else LimitOutcome.CONVERGED)
                return LimitReport(outcome, r.angle, start, cur)
        x = cur - theta
        cur = (2.0 * (theta + atan2(sin(x), K * cos(x)))) % TAU
        if cur > pi:
            cur -= TAU
    return LimitReport(LimitOutcome.UNDECIDED, None, max_iter, cur)


def converged_fraction(p: MapParams, phis: np.ndarray, target: float,
                       n_iter: int, tol: float) -> float:
    """Fraction of an angle array within tol of target after n_iter steps.

    The angles are iterated as complex numbers z = e^{i phi} by
    z <- (z + mu conj z)^2, whose argument is H~(arg z).  A square is
    cheaper than the division by its conjugate that would keep |z| = 1, so
    every _rescale_period(K) steps z is divided by |z| instead.
    """
    require_finite("converged_fraction", "target", target)
    n_iter = require_count("converged_fraction", "n_iter", n_iter, 0,
                           MAX_ORBIT_LEN)
    z = np.exp(1j * np.asarray(phis, dtype=float))
    w = np.empty_like(z)
    period = _rescale_period(p.K)
    for i in range(1, n_iter + 1):
        _circle_step(p.mu, z, w)
        if i % period == 0:
            z /= np.abs(z)
    # the angle does not depend on |z|
    d = np.abs(np.angle(z * cmath.exp(-1j * target)))
    return float(np.mean(d < tol))


@dataclass(frozen=True)
class BackwardTree:
    angles: list[float]  # sorted, distinct depth-level preimages
    max_gap: float       # largest circular gap, including wraparound


def _wrap(a: np.ndarray) -> np.ndarray:
    """normalize_angle on an array, in place."""
    np.mod(a, TAU, out=a)
    a[a > math.pi] -= TAU
    return a


def _distinct_angles(a: np.ndarray) -> np.ndarray:
    """The angles of a, sorted, each float once (the first of -0.0 and 0.0
    in sorted order): np.unique's bytes, without its import of numpy.ma."""
    a = np.sort(a)
    first = np.ones(a.size, bool)  # the first of each run of equal angles
    first[1:] = a[1:] != a[:-1]
    return a[first]


def backward_tree(p: MapParams, phi: float, depth: int) -> BackwardTree:
    """All depth-level preimages of phi under the circle map that are distinct
    as floats, sorted; preimages that round to one float are kept once."""
    require_finite("backward_tree", "phi", phi)
    depth = require_count("backward_tree", "depth", depth, 0, MAX_TREE_DEPTH)
    level = np.array([normalize_angle(phi)])
    for _ in range(depth):
        # both preimages phi, phi + pi of every angle under the circle map
        u = (level - 2.0 * p.theta) / 2.0
        first = _wrap(p.theta + np.arctan2(p.K * np.sin(u), np.cos(u)))
        level = _distinct_angles(np.concatenate((first, _wrap(first + math.pi))))
    gaps = np.diff(level, append=level[0] + 2.0 * math.pi)
    return BackwardTree(level.tolist(), float(gaps.max()))
