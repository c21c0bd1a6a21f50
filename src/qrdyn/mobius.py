"""Disk Mobius maps, the hyperbolic metric, and dilatation growth along orbits.

A disk automorphism is stored as the normalized coefficient pair (a, b) for
w -> (a w + b)/(conj(b) w + conj(a)) with |a|^2 - |b|^2 = 1.  The squared
trace of that matrix is real and decides hyperbolicity (tr^2 > 4); a
hyperbolic map is conjugate to z -> k z on the half plane with k < 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import MapParams, arg_h, circle_dist, normalize_angle
from .circle import circle_map, orbit as circle_orbit, require_fixed_angle
from .errors import InvalidParameter

FIT_BURN_IN = 5  # iterates dropped before fitting (the O(1) transient)


@dataclass(frozen=True)
class DiskMobius:
    a: complex
    b: complex

    @staticmethod
    def from_coeffs(a: complex, b: complex) -> "DiskMobius":
        d = abs(a) ** 2 - abs(b) ** 2
        if d <= 0.0:
            raise InvalidParameter("need |a| > |b| for a disk automorphism")
        s = math.sqrt(d)
        return DiskMobius(a / s, b / s)


def mobius_apply(m: DiskMobius, w: complex) -> complex:
    return (m.a * w + m.b) / (m.b.conjugate() * w + m.a.conjugate())


def mobius_compose(m1: DiskMobius, m2: DiskMobius) -> DiskMobius:
    """m1 after m2 (matrix product)."""
    a = m1.a * m2.a + m1.b * m2.b.conjugate()
    b = m1.a * m2.b + m1.b * m2.a.conjugate()
    return DiskMobius(a, b)


def mobius_inverse(m: DiskMobius) -> DiskMobius:
    return DiskMobius(m.a.conjugate(), -m.b)


def trace_sq(m: DiskMobius) -> float:
    t = 2.0 * m.a.real
    return t * t


def is_hyperbolic(m: DiskMobius) -> bool:
    return trace_sq(m) > 4.0


def contraction_k(T: float) -> float:
    """Half-plane contraction factor of a hyperbolic map with tr^2 = T."""
    if T <= 4.0:
        raise InvalidParameter(f"need tr^2 > 4 for a hyperbolic map, got {T}")
    return (T - 2.0 - math.sqrt(T * T - 4.0 * T)) / 2.0


def hyperbolic_dist(w1: complex, w2: complex) -> float:
    """Poincare distance on the unit disk."""
    if abs(w1) >= 1.0 or abs(w2) >= 1.0:
        raise InvalidParameter("hyperbolic_dist needs points inside the disk")
    den = abs(1.0 - w1.conjugate() * w2)
    rho = abs(w1 - w2) / den
    # 1 - rho^2 = (1-|w1|^2)(1-|w2|^2)/den^2, stable near the boundary
    log_one_minus_rho_sq = (math.log1p(-abs(w1) ** 2)
                            + math.log1p(-abs(w2) ** 2)
                            - 2.0 * math.log(den))
    return 2.0 * math.log1p(rho) - log_one_minus_rho_sq


def fixed_ray_mobius(p: MapParams, phi: float) -> DiskMobius:
    """The Mobius map pushing the dilatation forward along the fixed ray phi."""
    require_fixed_angle(p, phi)
    half = cmath.exp(-0.5j * phi)
    return DiskMobius.from_coeffs(half, p.mu / half)


def _ray_phase_mobius(p: MapParams, phi_prev: float) -> DiskMobius:
    """Chain factor built from r = exp(-2 i arg[h(...)]) at an orbit point."""
    r = cmath.exp(-2j * arg_h(p, phi_prev))
    s = cmath.sqrt(r)
    return DiskMobius.from_coeffs(s, p.mu / s)


def dilatation_on_ray(p: MapParams, phi: float, n: int) -> complex:
    """Complex dilatation of H^n on the fixed ray phi: A^{n-1}(mu)."""
    if n < 1:
        raise InvalidParameter("need n >= 1")
    A = fixed_ray_mobius(p, phi)
    w = p.mu
    for _ in range(n - 1):
        w = mobius_apply(A, w)
    return w


def _chain_angles(p: MapParams, z: complex, n: int) -> list[float]:
    if z == 0:
        raise InvalidParameter("the chain is undefined at z = 0")
    phi0 = normalize_angle(cmath.phase(z))
    # a numerically fixed starting angle stays put: forward iteration off a
    # repelling fixed angle would amplify the rounding of the input instead
    # of following the intended constant orbit
    if circle_dist(circle_map(p, phi0), phi0) < 1e-13:
        return [phi0] * n
    return circle_orbit(p, phi0, n - 1)


def dilatation_chain(p: MapParams, z: complex, n: int) -> complex:
    """Complex dilatation of H^n at z via the non-autonomous Mobius chain.

    Only the arguments of the orbit points enter, so the orbit of |z| never
    overflows.
    """
    if n < 1:
        raise InvalidParameter("need n >= 1")
    angles = _chain_angles(p, z, n)  # phi_0 .. phi_{n-1}
    mu = p.mu
    w = mu
    # A_i is _ray_phase_mobius at angles[i] with coefficients (s, mu/s),
    # s = exp(-i arg_h): the sign of s and the normalization of (a, b)
    # cancel in the ratio, so neither is computed
    for i in range(n - 2, -1, -1):  # apply A_{n-1} first, A_1 last
        s = cmath.exp(-1j * arg_h(p, angles[i]))
        b = mu / s
        w = (s * w + b) / (b.conjugate() * w + s.conjugate())
    return w


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    residual: float
    n_used: tuple[int, int]  # actual fit window after burn-in / underflow cap


def _chain_distances(maps: list[DiskMobius], w0: complex, n_max: int) -> list[float]:
    """d_h(0, A_1 o ... o A_{n-1}(w0)) for n = 1..n_max.

    Uses d_h(0, t_n(w0)) = d_h(t_n^{-1}(0), w0) and tracks log(1-|v|^2) of
    the inverse orbit v so the distance stays accurate when v pins to the
    boundary numerically.
    """
    log_w0 = math.log1p(-abs(w0) ** 2)
    v = 0.0 + 0.0j
    log_s = 0.0
    out = [hyperbolic_dist(0.0j, w0)]  # n = 1, empty chain
    for k in range(1, n_max):
        inv = mobius_inverse(maps[k - 1])
        den = inv.b.conjugate() * v + inv.a.conjugate()
        v = (inv.a * v + inv.b) / den
        log_s -= 2.0 * math.log(abs(den))
        d_num = abs(v - w0)
        d_den = abs(1.0 - v.conjugate() * w0)
        rho = d_num / d_den
        log_one_minus_rho_sq = log_s + log_w0 - 2.0 * math.log(d_den)
        out.append(2.0 * math.log1p(rho) - log_one_minus_rho_sq)
    return out


def dilatation_distance_series(p: MapParams, target, n_max: int) -> list[float]:
    """d_h(0, mu_{H^n}) for n = 1..n_max; target is a fixed angle (real) or
    an orbit start point (complex)."""
    if n_max < 1:
        raise InvalidParameter(f"need n_max >= 1, got n_max={n_max}")
    if isinstance(target, complex):
        angles = _chain_angles(p, target, n_max)
        maps = [_ray_phase_mobius(p, a) for a in angles[:n_max - 1]]
    else:
        A = fixed_ray_mobius(p, float(target))
        maps = [A] * (n_max - 1)
    return _chain_distances(maps, p.mu, n_max)


def growth_fit(p: MapParams, target, n_lo: int, n_hi: int) -> GrowthFit:
    """Least-squares slope of d_h(0, mu_{H^n}) against n over [n_lo, n_hi]."""
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
