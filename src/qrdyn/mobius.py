"""Dilatation growth along orbits, measured in the hyperbolic disk.

The dilatation of H^n is mu pushed through a chain of n - 1 disk
automorphisms, each applied as the unnormalized factor
w -> (s w + b)/(conj(b) w + conj(s)) with |s| = 1 and b = mu/s; on a fixed
ray phi every factor is the one map with s = e^{-i phi/2}.  A hyperbolic
map (tr^2 > 4) is conjugate to z -> k z on the half plane with k =
contraction_k(tr^2) < 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (TAU, MapParams, arg_h, circle_dist, normalize_angle,
                   require_count)
from .circle import require_fixed_angle
from .errors import InvalidParameter

FIT_BURN_IN = 5  # iterates dropped before fitting (the O(1) transient)
# `qrdyn growth` prints every distance: at a million it peaks near 280 MB,
# while the growth is linear from a few dozen iterates on
MAX_CHAIN_LEN = 1_000_000


def contraction_k(T: float) -> float:
    """Half-plane contraction factor of a hyperbolic map with tr^2 = T."""
    if not T > 4.0:
        raise InvalidParameter(f"need tr^2 > 4 for a hyperbolic map, got {T}")
    return _half_plane_k(math.sqrt(T - 4.0), T)


def _half_plane_k(s: float, T: float) -> float:
    """The root k <= 1 of k + 1/k + 2 = T, given s = sqrt(T - 4) >= 0, as
    (2/(s + sqrt T))^2.  Unlike (T - 2 - s sqrt T)/2 it does not cancel at
    large T, and unlike 2/(T - 2 + s sqrt T) it does not overflow there;
    a fixed ray takes s from its closed form, which keeps T - 4 where T
    has rounded to 4."""
    return (2.0 / (s + math.sqrt(T))) ** 2


# the most recent walk from a complex start: (p, phi0, phases, g) with phi0
# the normalized arg of the start, phases the tuple s_1 .. s_m and g the
# arg h of the next step.  The walk depends on p and phi0 alone, so a start
# asked again with a longer n only walks the new steps.  The entry is
# replaced by one assignment: another thread reads the old walk or the new
# one, and both are right.  A walk longer than WALK_MEMO_MAX is not kept.
_walk = None
WALK_MEMO_MAX = 4096


def _chain_phases(p: MapParams, target, n: int) -> list[complex]:
    """The unit numbers s_1 .. s_{n-1} of the chain factors that carry mu to
    the dilatation of H^n: every s is e^{-i phi/2} on a fixed angle phi (a
    real target), and s_i = e^{-i arg h(phi_{i-1})} along the orbit of
    arg z from a start z (a complex target), so |z| never overflows.  The
    sign of s and the normalization of a factor cancel in its ratio."""
    global _walk
    if not isinstance(target, complex):
        phi = float(target)
        require_fixed_angle(p, phi)
        return [cmath.exp(-0.5j * phi)] * (n - 1)
    if target == 0:
        raise InvalidParameter("the chain is undefined at z = 0")
    if not cmath.isfinite(target):
        raise InvalidParameter(
            f"the chain needs a finite start z, got z={target!r}")
    phi = normalize_angle(cmath.phase(target))
    walk = _walk
    if walk is not None and walk[1] == phi and walk[0] == p:
        phases, g = walk[2], walk[3]
        if n - 1 <= len(phases):
            return list(phases[:n - 1])
    else:
        # one arg h per step gives both s_i and phi_i = H~(phi_{i-1}) = 2 arg h
        phases, g = (), arg_h(p, phi)
        # a numerically fixed starting angle stays put: forward iteration
        # off a repelling fixed angle would amplify the rounding of the input
        # instead of following the intended constant orbit
        if circle_dist(normalize_angle(2.0 * g), phi) < 1e-13:
            return [cmath.exp(-1j * g)] * (n - 1)
    # arg_h and normalize_angle written out with the same float operations
    K, theta, pi, exp = p.K, p.theta, math.pi, cmath.exp
    atan2, sin, cos = math.atan2, math.sin, math.cos
    out = list(phases)
    for _ in range(n - 1 - len(phases)):
        out.append(exp(-1j * g))
        x = (2.0 * g) % TAU
        if x > pi:
            x -= TAU
        x -= theta
        g = theta + atan2(sin(x), K * cos(x))
    if len(out) <= WALK_MEMO_MAX:
        _walk = (p, phi, tuple(out), g)
    return out


def _fold(mu: complex, phases: list[complex]) -> complex:
    """The chain factors of phases applied to mu, the last factor first."""
    w = mu
    for s in reversed(phases):
        b = mu / s
        w = (s * w + b) / (b.conjugate() * w + s.conjugate())
    return w


def dilatation_on_ray(p: MapParams, phi: float, n: int) -> complex:
    """Complex dilatation of H^n on the fixed ray phi: A^{n-1}(mu) with
    A the factor of s = e^{-i phi/2}."""
    n = require_count("dilatation_on_ray", "n", n, 1, MAX_CHAIN_LEN)
    return _fold(p.mu, _chain_phases(p, float(phi), n))


def dilatation_chain(p: MapParams, z: complex, n: int) -> complex:
    """Complex dilatation of H^n at z via the non-autonomous Mobius chain."""
    n = require_count("dilatation_chain", "n", n, 1, MAX_CHAIN_LEN)
    return _fold(p.mu, _chain_phases(p, complex(z), n))


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    residual: float
    n_used: tuple[int, int]  # actual fit window after burn-in / underflow cap


def dilatation_distance_series(p: MapParams, target, n_max: int) -> list[float]:
    """d_h(0, mu_{H^n}) for n = 1..n_max; target is a fixed angle (real) or
    an orbit start point (complex).

    Uses d_h(0, t_n(mu)) = d_h(t_n^{-1}(0), mu) for the chain t_n of the
    first n - 1 factors, whose inverses are the factors (conj s, -b), and
    tracks log(1-|v|^2) of the inverse orbit v so the distance stays
    accurate when v pins to the boundary numerically.  Each factor has
    determinant 1 - |mu|^2.

    The most recent series is kept, so growth_fit after this call on the
    same arguments does not compute it again.
    """
    n_max = require_count("dilatation_distance_series", "n_max", n_max, 1,
                          MAX_CHAIN_LEN)
    target = complex(target) if isinstance(target, complex) else float(target)
    return list(_distance_series(p, target, n_max))


# typed: a fixed angle 0.0 and a start 0j are equal keys otherwise
@functools.lru_cache(maxsize=1, typed=True)
def _distance_series(p: MapParams, target, n_max: int) -> tuple[float, ...]:
    mu = p.mu
    log_det = math.log1p(-abs(mu) ** 2)  # also log(1 - |mu|^2) of w0 = mu
    # n = 1, the empty chain: the loop's formula at v = 0, log_s = 0
    out = [2.0 * math.log1p(abs(mu)) - log_det]
    v = 0.0 + 0.0j
    log_s = 0.0
    for s in _chain_phases(p, target, n_max):
        b = mu / s
        den = s - b.conjugate() * v
        v = (s.conjugate() * v - b) / den
        log_s += log_det - 2.0 * math.log(abs(den))
        d_den = abs(1.0 - v.conjugate() * mu)
        rho = abs(v - mu) / d_den
        log_one_minus_rho_sq = log_s + log_det - 2.0 * math.log(d_den)
        out.append(2.0 * math.log1p(rho) - log_one_minus_rho_sq)
    return tuple(out)


def growth_fit(p: MapParams, target, n_lo: int, n_hi: int) -> GrowthFit:
    """Least-squares slope of d_h(0, mu_{H^n}) against n over [n_lo, n_hi]."""
    n_lo = require_count("growth_fit", "n_lo", n_lo, None)
    n_hi = require_count("growth_fit", "n_hi", n_hi, None, MAX_CHAIN_LEN)
    if n_hi - n_lo < 10:
        raise InvalidParameter(
            f"need n_hi - n_lo >= 10, got n_lo={n_lo}, n_hi={n_hi}")
    lo = max(n_lo, FIT_BURN_IN + 1)
    hi = n_hi
    if hi - lo + 1 < 2:
        raise InvalidParameter(
            f"fit window [n_lo, n_hi] = [{n_lo}, {n_hi}] keeps fewer than 2 "
            f"points after the burn-in of {FIT_BURN_IN} iterates (n >= {lo})")
    dists = dilatation_distance_series(p, target, n_hi)
    ns = np.arange(lo, hi + 1, dtype=float)
    ds = np.array(dists[lo - 1:hi])
    slope, intercept = np.polyfit(ns, ds, 1)
    resid = float(np.max(np.abs(ds - (slope * ns + intercept))))
    return GrowthFit(slope=float(slope), intercept=float(intercept),
                     residual=resid, n_used=(lo, hi))
