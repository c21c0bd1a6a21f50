"""The kernels against the plain loops they replaced.

Each `ref_*` function is the earlier implementation, kept here verbatim (its
helpers inlined) as the reference.  Kernels whose float operations are
unchanged must agree bit for bit; the others within bounds fixed from the
arithmetic that changed:

- converged_fraction iterates unit complex numbers instead of angles: the
  same fraction on the benchmark's survey grids, within 1e-3 on
  criterion 7b's grids;
- backward_tree keeps every preimage that is distinct as a float, so its
  size hangs on the last bit of each one, and np.arctan2 differs from
  math.atan2 by an ulp on some inputs: the reference takes each preimage
  with backward_tree's numpy functions, and the trees agree bit for bit;
- dilatation_chain drops the normalization and the square root of each
  factor: within 1e-12 for n <= 100 of the DiskMobius chain, and bit for
  bit equal to the matrix-free loop that first dropped them, which walks
  the orbit through circle.orbit and takes arg h of every angle again;
- classify_limit gives an iterate far from every fixed angle only the map
  step, skipping an arrival test that could not hit: bit for bit the same
  report as testing every iterate;
- dilatation_on_ray folds the same unnormalized factors instead of
  iterating a normalized DiskMobius: within 1e-12 for n <= 100;
- dilatation_distance_series walks the inverse factors (conj s, -b) and
  adds their determinant as log(1 - |mu|^2) per step instead of composing
  normalized inverses: within 1e-12 max(1, d) for n <= 200;
- classify_point is a one-element _classify_block: the same (label, n) as
  the scalar loop;
- a fixed ray's trace_sq is 4 + (K-1)^2 cos^2(2 theta - 3 phi/2)/K, which
  has no subtraction, where the reference's (K+1)^2 (1 + cos phi)/(2K)
  cancels near 4: at a float angle the two differ by
  (K+1)^2/K f (f - 2 sin(phi/2)), f = sin(phi/2) + |mu| sin(2 theta -
  3 phi/2) the residual of the fixed-ray equation, and by their rounding;
- fixed_rays returns the report cached for its map: the same bits as the
  uncached body computing it afresh;
- fixed_rays decides the regime from the exact sign of the quartic F and
  bisects each root of the cubic between its critical points, where the
  reference merged the roots of np.roots and accepted an angle within a
  flat 1e-8: wherever the reference returns a report, the same regime and
  stabilities, angles within 1e-12, and neutral angles, now the critical
  point instead of a mean of nearby roots, within 1e-6;
- contraction_k is (2/(s + sqrt T))^2 with s = sqrt(T - 4), not
  (T - 2 - sqrt(T^2 - 4T))/2: the two differ by no more than the rounding
  error of the latter, which grows as eps T^2/(4 sqrt(T (T - 4))), and a
  fixed ray, whose s is taken before T rounds, by eps T/sqrt(T (T - 4))
  more;
- write_ppm colours and writes one block of rows at a time instead of the
  whole image at once: the same bytes;
- render_grid steps eval_H's operations, in eval_H's operand order, on
  buffers allocated once per render instead of on fresh temporaries, and
  writes labels and counts straight into the grid: the same labels and
  counts, bit for bit;
- render_grid skips the radius test at the leading steps that
  plane._quiet_steps certifies for a disk holding the batch: the same
  labels and counts, bit for bit, and no certified step at or past the
  first decision in the reference of a pixel the block iterates;
- render_grid first decides whole cells by plane._tile_pass when no step
  of the window's disk is quiet, stepping a disk holding each cell by the
  recurrence of plane._quiet_steps, and iterates only the pixels of the
  cells that fail, each written at the position _classify_block is given:
  the same labels and counts, bit for bit, also with the tile pass forced
  on every window and with cells of 8, 4, 2 and one pixel a side;
- render_grid sets each pixel's parts to xs[j] and ys[i] instead of adding
  xs[j] and 1j ys[i], which differ at most in the sign of a zero part: the
  same labels and counts, bit for bit.
"""

import cmath
import dataclasses
import functools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from qrdyn.blaschke import julia_sample
from qrdyn import circle, plane
from qrdyn.circle import (LIMIT_TOL, LimitOutcome, LimitReport,
                          _distinct_angles, backward_tree, circle_map,
                          circle_map_deriv, classify_limit,
                          converged_fraction, orbit)
from qrdyn.core import (arg_h, circle_dist, eval_H, make_params,
                        radial_stretch,
                        normalize_angle)
from qrdyn.errors import InvalidParameter, NumericalFailure
from qrdyn.mobius import (dilatation_chain, dilatation_distance_series,
                          dilatation_on_ray)
from qrdyn.plane import (BLOCK_PIXELS, MAX_RESOLUTION, PlaneGrid, PointClass, PointResult,
                         R_ESCAPE, Window, _palette, classify_point, r_attract,
                         render_grid, write_ppm)
from qrdyn.rays import (FixedRay, Regime, RegimeReport, Stability,
                        _fixed_rays, cubic_coeffs, fixed_rays, k_theta,
                        theta_of_K)
from circle_inverse import circle_preimages
from disk_mobius import (DiskMobius, fixed_ray_mobius, hyperbolic_dist,
                         mobius_apply)
from quartic_oracle import exact_regime

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


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
        if a > level[-1]:
            level.append(a)
    if len(level) > 1 and level[0] + 2.0 * math.pi <= level[-1]:
        level.pop()
    return level


def ref_preimages(p, psi):
    # circle_preimages with numpy's sin, cos and arctan2 on one angle
    u = (psi - 2.0 * p.theta) / 2.0
    phi = normalize_angle(float(p.theta + np.arctan2(p.K * np.sin(u), np.cos(u))))
    return phi, normalize_angle(phi + math.pi)


def ref_backward_tree(p, phi, depth):
    level = [normalize_angle(phi)]
    for _ in range(depth):
        nxt = []
        for a in level:
            nxt.extend(ref_preimages(p, a))
        nxt.sort()
        level = ref_dedup(nxt)
    if len(level) == 1:
        return level, 2.0 * math.pi
    gaps = [b - a for a, b in zip(level, level[1:])]
    gaps.append(level[0] + 2.0 * math.pi - level[-1])
    return level, max(gaps)


def ref_chain_angles(p, z, n):
    if z == 0:
        raise InvalidParameter("the chain is undefined at z = 0")
    if not cmath.isfinite(z):
        raise InvalidParameter(f"the chain needs a finite start z, got z={z!r}")
    phi0 = normalize_angle(cmath.phase(z))
    # a numerically fixed starting angle stays put: forward iteration off a
    # repelling fixed angle would amplify the rounding of the input instead
    # of following the intended constant orbit
    if circle_dist(circle_map(p, phi0), phi0) < 1e-13:
        return [phi0] * n
    return orbit(p, phi0, n - 1)


def ref_dilatation_chain(p, z, n):
    angles = ref_chain_angles(p, z, n)
    w = p.mu
    for i in range(n - 2, -1, -1):
        r = cmath.exp(-2j * arg_h(p, angles[i]))
        s = cmath.sqrt(r)
        w = mobius_apply(DiskMobius.from_coeffs(s, p.mu / s), w)
    return w


def ref_dilatation_chain_matrix_free(p, z, n):
    angles = ref_chain_angles(p, z, n)  # phi_0 .. phi_{n-1}
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
        angles = ref_chain_angles(p, target, n_max)
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


def ref_classify_block(p, z, max_iter):
    ra = r_attract(p)
    labels = np.zeros(z.size, dtype=np.uint8)
    counts = np.full(z.size, max_iter, dtype=np.int32)
    w = z.astype(complex).ravel()
    idx = np.arange(z.size)
    for n in range(max_iter + 1):
        m = np.abs(w)
        esc = m > R_ESCAPE
        att = m < ra
        done = esc | att
        if done.any():
            labels[idx[esc]] = 1
            labels[idx[att]] = 2
            counts[idx[done]] = n
            active = ~done
            w, idx = w[active], idx[active]
            if not idx.size:
                break
        if n == max_iter:
            break
        w = eval_H(p, w)
    return labels.reshape(z.shape), counts.reshape(z.shape)


# Pixels of ref_render_labels_counts' blocks.  Its eval_H makes temporaries,
# and numpy 2.4 reuses a temporary of 16384 or more complex128 elements in
# place, where it rounds mu * conj(w) differently; the kernel makes none,
# so its blocks may be larger.
REF_BLOCK_PIXELS = 8192


def ref_render_labels_counts(p, window, resolution, max_iter):
    """render_grid's labels and counts from ref_classify_block, on blocks
    of whole rows of at most REF_BLOCK_PIXELS pixels."""
    nx, ny = resolution
    xs = window.center.real + window.width * ((np.arange(nx) + 0.5) / nx - 0.5)
    ys = window.center.imag + window.height * ((np.arange(ny) + 0.5) / ny - 0.5)
    ys = ys[::-1]
    labels = np.empty((ny, nx), dtype=np.uint8)
    counts = np.empty((ny, nx), dtype=np.int32)
    step = max(1, REF_BLOCK_PIXELS // nx)
    for i in range(0, ny, step):
        rows = slice(i, i + step)
        z = xs[None, :] + 1j * ys[rows, None]
        labels[rows], counts[rows] = ref_classify_block(p, z, max_iter)
    return labels, counts


def ref_first_decisions(labels, counts, max_iter):
    """The flat array of the first step at which each pixel passes a
    certifying radius, max_iter + 1 for an undecided one."""
    return np.where(labels != 0, counts, max_iter + 1).ravel()


def ref_grid_to_rgb(grid):
    c = int(grid.counts.max())
    rows = grid.labels.astype(np.intp) * (c + 1) + grid.counts
    return np.take(_palette(grid.max_iter, c), rows, axis=0)


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


def ref_contraction_k(T):
    return (T - 2.0 - math.sqrt(T * T - 4.0 * T)) / 2.0


def ref_contraction_error(T):
    """Bound on |ref_contraction_k(T) - k| for the contraction_k k of a
    fixed ray with trace_sq T: the former's rounding, eps T^2 in T*T - 4T
    taken through the square root s and eps (T + s) / 2 from the rest, the
    latter's of a few eps, and the rounding of T = 4 + sqrt(T - 4)^2, up to
    eps T, which k does not see: through |dk/dT| = k/s <= 1/s, eps T/s."""
    eps = np.finfo(float).eps
    s = math.sqrt(T * T - 4.0 * T)
    return eps * (T * T / (4.0 * s) + T / s + T + 2.0)


NEUTRAL_BAND = 1e-9      # |H~' - 1| below this is neutral
ROOT_MERGE = 1e-7        # cubic roots closer than this coincide


def ref_poly(coeffs, t):
    a, b, c, d = coeffs
    return ((a * t + b) * t + c) * t + d


def ref_dpoly(coeffs, t):
    a, b, c, _ = coeffs
    return (3.0 * a * t + 2.0 * b) * t + c


def ref_solve_cubic(coeffs):
    a = coeffs[0]
    if a == 0.0:
        raise InvalidParameter("leading coefficient must be nonzero")
    rts = np.roots(list(coeffs))
    real = [(r.real, abs(r.imag)) for r in rts
            if abs(r.imag) <= 1e-5 * (1.0 + abs(r))]
    if not real:  # cannot happen for a real cubic, but stay safe
        r = min(rts, key=lambda r: abs(r.imag))
        real = [(r.real, abs(r.imag))]

    polished = []
    for t, im in real:
        for _ in range(2):
            d = ref_dpoly(coeffs, t)
            if abs(d) < 1e-12:
                break
            step = ref_poly(coeffs, t) / d
            if abs(step) > 1.0:
                break
            t -= step
        polished.append((t, im))
    polished.sort()

    merged = []
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
        resid = abs(ref_poly(coeffs, t))
        if m == 1 and resid > 1e-10 * scale * (1.0 + abs(t)) ** 3:
            raise NumericalFailure(f"cubic root residual {resid} at t={t}")
    return merged


def ref_make_ray(p, phi, mult):
    m = circle_map_deriv(p, phi)
    if mult >= 2 or abs(m - 1.0) < NEUTRAL_BAND:
        stab = Stability.NEUTRAL
    elif m < 1.0:
        stab = Stability.ATTRACTING
    else:
        stab = Stability.REPELLING
    T = ref_trace_sq_of_angle(p.K, phi)
    k = ref_contraction_k(T) if T > 4.0 else 1.0
    return FixedRay(angle=phi, multiplier=m, stability=stab,
                    trace_sq=T, contraction_k=k)


def ref_fixed_rays(p):
    roots = ref_solve_cubic(cubic_coeffs(p))
    rays = []
    for t, mult in roots:
        phi = normalize_angle(p.theta + 2.0 * math.atan(t))
        image = circle_map(p, phi)
        if circle_dist(image, phi) > 1e-8:
            # pi-periodicity of H~ can hand us the antipodal branch
            alt = normalize_angle(phi + math.pi)
            if circle_dist(circle_map(p, alt), alt) <= 1e-8:
                phi = alt
            else:
                raise NumericalFailure(
                    f"root t={t} gives non-fixed angle {phi} "
                    f"(residual {circle_dist(image, phi):.3e})")
        rays.append(ref_make_ray(p, phi, mult))
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


def block_edge_grids():
    """Synthetic grids at the edges of write_ppm's blocks, by name."""
    rng = np.random.default_rng(48)

    def grid(shape, top, max_iter=200):
        return PlaneGrid(window=Window(0j, 1.0, 1.0),
                         resolution=(shape[1], shape[0]),
                         labels=rng.integers(0, 3, shape, dtype=np.uint8),
                         counts=rng.integers(0, top + 1, shape, dtype=np.int32),
                         max_iter=max_iter)

    wide = grid((3, BLOCK_PIXELS + 808), 150)
    # two blocks of 100-pixel rows, the last of 2 rows
    ragged = grid((BLOCK_PIXELS // 100 + 2, 100), 150)
    last = grid((BLOCK_PIXELS // 100 + 2, 100), 20)
    last.labels[-1, -1], last.counts[-1, -1] = 1, 180
    return {
        "one-row-blocks": wide,           # nx > BLOCK_PIXELS: one row a block
        "ragged-last-block": ragged,      # 163 + 2 rows
        "largest-count-last": last,       # the palette is sized by the last block
        "all-zero-counts": grid((200, 64), 0),
        "one-pixel": grid((1, 1), 5, max_iter=7),
    }


BLOCK_EDGE_GRIDS = block_edge_grids()


def repelling_point(p, rng):
    """The float nearest a radial fixed point on a repelling fixed ray."""
    rays = [r for r in fixed_rays(p).rays if r.stability is Stability.REPELLING]
    phi = rng.choice(rays).angle
    return cmath.rect(1.0 / radial_stretch(p, phi), phi)


def benchmark_like_params(rng):
    """A map like the benchmark's zooms: K in [1.3, 12], |theta| <= 1.3."""
    return make_params(math.exp(rng.uniform(math.log(1.3), math.log(12.0))),
                       rng.uniform(-1.3, 1.3))


def kernel_renders():
    """Seeded render_grid calls, by name, as (p, window, resolution,
    max_iter): zooms into the boundary at repelling radial fixed points,
    windows holding the whole set, K from 1 + 1e-6 to 1e6, the extreme
    budgets, one-row and one-column grids and grids decided at n = 0."""
    rng = random.Random(90)
    out = {}
    ks = [1.0 + 1e-6, 1e6] + [1.0 + 10 ** rng.uniform(-6.0, 6.0) for _ in range(6)]
    for i, K in enumerate(ks):
        p = make_params(K, rng.uniform(-math.pi / 2, math.pi / 2))
        z0 = repelling_point(p, rng)
        hw = 10 ** rng.uniform(-14.0, -6.0)
        # escaping from the fixed point takes about log2(r/hw) doublings
        depth = int(math.log2(abs(z0) / hw)) + 8
        for budget in (1, depth, 3000):
            out[f"zoom-{i}-iter{budget}"] = (
                p, Window(z0, 2.0 * hw, 1.4 * hw), (23, 17), budget)
        hw = rng.uniform(1.05, 1.6)
        out[f"whole-{i}"] = (p, Window(complex(rng.uniform(-0.05, 0.05),
                                               rng.uniform(-0.05, 0.05)),
                                       2.0 * hw, 2.0 * hw), (40, 31), 200)
    # pixels a few ulps apart, whose orbits follow the rounding of each step
    for i in range(8):
        p = benchmark_like_params(rng)
        out[f"ulp-zoom-{i}"] = (p, Window(repelling_point(p, rng), 2e-14, 2e-14),
                                (23, 17), 200)
    p = make_params(3.0, 0.4)
    zoom = Window(repelling_point(p, rng), 1e-9, 1e-9)
    out["one-row"] = (p, zoom, (MAX_RESOLUTION, 1), 60)
    out["one-column"] = (p, zoom, (1, MAX_RESOLUTION), 60)
    # 137 + 136 cells, the last row and column of them clipped, and
    # 81 + 81 + 3 rows in ref_render_labels_counts
    out["ragged-blocks"] = (p, zoom, (100, BLOCK_PIXELS // 100 + 2), 60)
    # the centre pixel sits on the radial fixed point 1/4 of (2, 0) and never
    # decides; the others leave it from 1e-300 away
    out["fixed-point-iter3000"] = (make_params(2.0, 0.0),
                                   Window(0.25 + 0j, 1e-300, 1e-300), (3, 3), 3000)
    out["escaped-at-0"] = (p, Window(5.0 + 5.0j, 1.0, 1.0), (130, 70), 3000)
    out["attracted-at-0"] = (p, Window(0j, 1e-3, 1e-3), (130, 70), 3000)
    return out


KERNEL_RENDERS = kernel_renders()


def radius_windows():
    """render_grid calls, as (p, window, resolution, max_iter), that press
    on _quiet_steps' margins, on one pixel, one row and one column:

    - windows of half-width 1e-15 to 1e-3 centred within 1e-12 to 1e-6
      relative of |z| = 2 or |z| = r_attract, at K from 1 + 1e-6 to 1e15
      and theta near 0 and +-pi/2;
    - at theta = 0, where H(x) = K^2 x^2 on the positive real axis and the
      bound on |H(w) - H(z)| is attained by real w and z, windows of
      half-width 1e-15 to 1e-3 relative, centred on the radial fixed point
      1/K^2 or with an edge within 1e-12 to 1e-6 relative of a preimage of
      depth 1 to 4 of either radius."""
    rng = random.Random(93)
    out = []
    shapes = ((1, 1), (1, 257), (257, 1))
    for K in (1.0 + 1e-6, 2.0, 30.0, 1e3, 1e6, 1e15):
        for theta in (0.0, 1e-9, -1e-9, math.pi / 2, 1e-9 - math.pi / 2):
            p = make_params(K, theta)
            for radius in (R_ESCAPE, r_attract(p)):
                for resolution in shapes:
                    for _ in range(3):
                        r = radius * (1.0 + rng.choice((-1.0, 1.0))
                                      * 10 ** rng.uniform(-12.0, -6.0))
                        phi = rng.choice((0.0, math.pi / 2, theta,
                                          rng.uniform(-math.pi, math.pi)))
                        hw = 10 ** rng.uniform(-15.0, -3.0)
                        out.append((p, Window(cmath.rect(r, phi), 2.0 * hw, 2.0 * hw),
                                    resolution, 30))
        p = make_params(K, 0.0)
        fixed = 1.0 / (K * K)
        for resolution in shapes:
            for _ in range(3):
                hw = fixed * 10 ** rng.uniform(-15.0, -3.0)
                out.append((p, Window(complex(fixed, 0.0), 2.0 * hw, 2.0 * hw),
                            resolution, 80))
        for x in (R_ESCAPE, r_attract(p)):
            for _ in range(4):
                x = math.sqrt(x) / K  # H(x) = K^2 x^2
                for resolution in shapes:
                    for _ in range(3):
                        hw = x * 10 ** rng.uniform(-15.0, -3.0)
                        edge = x * (1.0 + rng.choice((-1.0, 1.0))
                                    * 10 ** rng.uniform(-12.0, -6.0))
                        c = edge + rng.choice((-1.0, 1.0)) * hw
                        out.append((p, Window(complex(c, 0.0), 2.0 * hw, 2.0 * hw),
                                    resolution, 80))
    return out


RADIUS_WINDOWS = radius_windows()


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


def test_distinct_angles_drops_exact_duplicates_only():
    # equal floats are kept once, and -0.0 and 0.0 are one angle
    a = np.array([0.5, -0.0, 0.5, 0.0, -1.0, 0.5])
    assert _distinct_angles(a).tolist() == ref_dedup(sorted(a.tolist())) \
        == [-1.0, 0.0, 0.5]
    # a run of consecutive floats is kept whole
    run = [1.0]
    for _ in range(7):
        run.append(float(np.nextafter(run[-1], 2.0)))
    a = np.array(run[::-1] + run[:3])
    assert _distinct_angles(a).tolist() == ref_dedup(sorted(a.tolist())) == run
    rng = np.random.default_rng(72)
    for _ in range(300):
        steps = rng.choice([0.0, 1.0, 2.0, 1e6], size=rng.integers(1, 40))
        a = rng.permutation(np.cumsum(steps) * 2.0 ** -52 - 1.0)
        assert _distinct_angles(a).tolist() == ref_dedup(sorted(a.tolist()))
    # the bytes of np.unique, signs of zero included, on angles in (-pi, pi]
    for _ in range(300):
        a = rng.choice([0.0, -0.0, math.pi, np.nextafter(-math.pi, 0.0), 0.5,
                        -0.5, 2.0], size=rng.integers(1, 40))
        a[rng.random(a.size) < 0.3] = rng.uniform(-math.pi, math.pi)
        assert _distinct_angles(a).tobytes() == np.unique(a).tobytes(), a


def test_backward_tree_levels_lie_in_the_normalized_range():
    # every level is reduced to (-pi, pi], so its first angle plus 2 pi is
    # past its last and no angle is the wraparound duplicate of another
    for p in regime_params(74):
        for phi in (math.pi, -math.pi, 0.0, -0.0, 1e300):
            for depth in range(9):
                angles = backward_tree(p, phi, depth).angles
                assert all(-math.pi < a <= math.pi for a in angles), (p, phi, depth)


def test_backward_tree_near_reference():
    rng = random.Random(73)
    cases = [(p, rng.uniform(-math.pi, math.pi), rng.choice((1, 6, 10, 12)))
             for p in regime_params(73)]
    # large K clusters preimages at the repelling angles, where neighbours
    # round to one float; fixed roots are their own preimages
    cases += [(make_params(K, th), phi, 10) for K in (60.0, 400.0)
              for th in (0.0, 0.7) for phi in (0.0, 1.0)]
    cases += [(make_params(1.5, 0.0), 0.0, 14), (make_params(4.0, 0.0), 0.0, 8)]
    for p, phi, depth in cases:
        tree = backward_tree(p, phi, depth)
        ref, ref_gap = ref_backward_tree(p, phi, depth)
        assert tree.angles == ref
        assert tree.max_gap == ref_gap
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
    params = regime_params(75)
    assert {fixed_rays(p).regime for p in params} == set(Regime)
    for p in params:
        for _ in range(3):
            phi = rng.uniform(-math.pi, math.pi)
            assert classify_limit(p, phi, max_iter=1500) \
                == ref_classify_limit(p, phi, max_iter=1500)
        # starts on and around each fixed angle, inside, on and past the
        # gate's 2 LIMIT_TOL edge, also one turn up; max_iter around
        # LIMIT_CONFIRM
        for ray in fixed_rays(p).rays:
            for k in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
                for phi in {ray.angle + k * LIMIT_TOL, ray.angle - k * LIMIT_TOL}:
                    for start in (phi, phi + 2.0 * math.pi):
                        for max_iter in (0, 1, 4, 5, 6, 50):
                            assert classify_limit(p, start, max_iter) \
                                == ref_classify_limit(p, start, max_iter)


@pytest.mark.parametrize("tol", [1e-3, 0.05, 0.3])
def test_classify_limit_gate_bit_identical_at_wide_tolerances(monkeypatch, tol):
    # at a wide LIMIT_TOL orbits pass in and out of the gate again and
    # again, so streaks start, break at a gated iterate and start afresh;
    # the last map has a fixed angle 0.0058 below pi, so arrivals from
    # just above -pi have |cur - a| near TAU
    monkeypatch.setattr(circle, "LIMIT_TOL", tol)
    rng = random.Random(76)
    near_pi = make_params(691300.08, 1.5656310254926167)
    assert abs(fixed_rays(near_pi).rays[-1].angle - 3.1358) < 1e-4
    for p in regime_params(76, n=3) + [near_pi]:
        for _ in range(20):
            phi = rng.uniform(-math.pi, math.pi)
            assert classify_limit(p, phi, max_iter=300) \
                == ref_classify_limit(p, phi, max_iter=300, tol=tol)


@pytest.mark.parametrize("confirm", [1, 2, 3])
def test_classify_limit_streak_bit_identical_at_every_confirm(monkeypatch, confirm):
    # a streak of one iterate reports at once; longer ones break and start
    # afresh at starts on and beside each fixed angle
    monkeypatch.setattr(circle, "LIMIT_CONFIRM", confirm)
    rng = random.Random(77)
    for p in regime_params(77):
        for _ in range(3):
            phi = rng.uniform(-math.pi, math.pi)
            assert classify_limit(p, phi, max_iter=1500) \
                == ref_classify_limit(p, phi, max_iter=1500, confirm=confirm)
        for ray in fixed_rays(p).rays:
            for k in (0.0, 1.0, 2.0):
                for phi in {ray.angle + k * LIMIT_TOL, ray.angle - k * LIMIT_TOL}:
                    for max_iter in (0, 1, 4, 5, 6, 50):
                        assert classify_limit(p, phi, max_iter) \
                            == ref_classify_limit(p, phi, max_iter, confirm=confirm)


def test_julia_sample_bit_identical_to_reference():
    for i, p in enumerate(regime_params(76)):
        assert julia_sample(p, 500, seed=i) == ref_julia_sample(p, 500, seed=i)


def test_trace_sq_of_angle_bit_identical_to_reference():
    # at a float angle the closed form and the reference differ by
    # w f (f - 2 sin(phi/2)), w = (K+1)^2/K; f in floats is within
    # 5 eps + a of f, a = eps (|2 theta| + |1.5 phi|) being the rounding of
    # 2 theta - 1.5 phi.  The reference rounds to 3 eps T plus eps w/2 from
    # cos phi, and trace_sq to eps T plus (8 eps + 4 a) w, as s = sqrt(T - 4)
    # <= (K-1)/sqrt K is within (4 eps + 2 a) of it (test_rays)
    eps = sys.float_info.epsilon
    rays = 0
    for p in regime_params(80, n=200):
        m = (p.K - 1.0) / (p.K + 1.0)
        w = (p.K + 1.0) ** 2 / p.K
        for r in fixed_rays(p).rays:
            a = eps * (abs(2.0 * p.theta) + abs(1.5 * r.angle))
            f = abs(math.sin(0.5 * r.angle)
                    + m * math.sin(2.0 * p.theta - 1.5 * r.angle)) + 5.0 * eps + a
            bound = 4.0 * eps * r.trace_sq + w * (9.0 * eps + 5.0 * a + f * (f + 2.0))
            assert abs(r.trace_sq - ref_trace_sq_of_angle(p.K, r.angle)) <= bound, p
            rays += 1
    assert rays > 1000


def test_cached_fixed_rays_bit_identical_to_fresh():
    theta = 0.4
    for p in regime_params(81) + [make_params(k_theta(theta), theta)]:
        fixed_rays(p)  # the second call below is answered from the cache
        got, want = fixed_rays(p), _fixed_rays.__wrapped__(p)
        assert got.regime is want.regime
        assert repr(got.k_theta) == repr(want.k_theta)
        assert len(got.rays) == len(want.rays)
        for a, b in zip(got.rays, want.rays):
            for f in dataclasses.fields(a):
                assert repr(getattr(a, f.name)) == repr(getattr(b, f.name))


def test_fixed_rays_bit_identical_to_flat_bound_reference():
    rng = random.Random(82)
    maps = regime_params(82)
    for _ in range(2000):
        theta = rng.choice((rng.uniform(-math.pi / 2, math.pi / 2),
                            rng.uniform(-1e-3, 1e-3), 0.0))
        maps.append(make_params(1.0 + 10 ** rng.uniform(-12.0, 15.0), theta))
    returned = 0
    for p in maps:
        try:
            want = ref_fixed_rays(p)
        except NumericalFailure:  # the flat bound failed most maps at large K
            continue
        got = _fixed_rays.__wrapped__(p)
        # none of these maps is one where the reference's regime disagrees
        # with the exact sign of F; test_rays pins the maps near K_theta
        # where it does
        assert got.regime is want.regime
        assert got.regime.value == exact_regime(p.K, p.theta)
        assert repr(got.k_theta) == repr(want.k_theta)
        assert [r.stability for r in got.rays] == [r.stability for r in want.rays]
        for a, b in zip(got.rays, want.rays):
            tol = 1e-6 if b.stability is Stability.NEUTRAL else 1e-12
            assert circle_dist(a.angle, b.angle) <= tol, p
            if a.trace_sq > 4.0:
                assert abs(a.contraction_k - ref_contraction_k(a.trace_sq)) \
                    <= ref_contraction_error(a.trace_sq)
        returned += 1
    assert returned >= 1000


@pytest.mark.parametrize("name", sorted(BLOCK_EDGE_GRIDS))
def test_write_ppm_bytes_equal_whole_image_reference(tmp_path, name):
    g = BLOCK_EDGE_GRIDS[name]
    ny, nx = g.labels.shape
    out = tmp_path / "out.ppm"
    write_ppm(g, str(out))
    assert out.read_bytes() == (f"P6\n{nx} {ny}\n255\n".encode("ascii")
                                + ref_grid_to_rgb(g).tobytes())


@dataclasses.dataclass
class Certified:
    """A render checked by certified_render."""

    grid: PlaneGrid
    gate: int      # _quiet_steps of the window's disk, through step 0
    calls: list    # (pixels iterated, horizon) of each _classify_block call
    tiles: int     # cells stepped by _tile_steps


def certified_render(p, window, resolution, max_iter):
    """render_grid's grid and what its certificates did, after asserting
    that the grid equals the reference bit for bit, that each
    _classify_block call's pixels lie in the disk whose horizon it takes,
    and that no horizon passes the reference's first decision of a pixel
    it covers: one of the call's pixels, or any pixel for the window's
    disk, which decides whether the tile pass runs."""
    horizons, calls, tiles = [], [], []
    quiet_steps, classify_block = plane._quiet_steps, plane._classify_block
    tile_steps = plane._tile_steps

    def record(*args):
        horizons.append(quiet_steps(*args))
        return horizons[-1]

    def kernel(p, w, idx, *args):
        z, rho = args[-2:]
        calls.append((idx.copy(), w.copy(), z, rho))
        return classify_block(p, w, idx, *args)

    def tile(p, z, rho, max_iter):
        tiles.append(z.size)
        return tile_steps(p, z, rho, max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plane, "_quiet_steps", record)
        mp.setattr(plane, "_classify_block", kernel)
        mp.setattr(plane, "_tile_steps", tile)
        g = render_grid(p, window, resolution, max_iter)
    labels, counts = ref_render_labels_counts(p, window, resolution, max_iter)
    assert np.array_equal(g.labels, labels)
    assert np.array_equal(g.counts, counts)
    first = ref_first_decisions(labels, counts, max_iter)
    gate, *horizons = horizons
    assert gate <= first.min()
    assert (gate == 0) == bool(tiles), (gate, tiles)
    assert len(horizons) == len(calls)
    for (idx, w, z, rho), q in zip(calls, horizons):
        assert np.all(np.abs(w - z) <= rho)
        assert q <= first[idx].min(), (q, first[idx].min())
    return Certified(g, gate, [(idx.size, q) for (idx, *_), q in zip(calls, horizons)],
                     sum(tiles))


def certified_steps(c):
    """(radius tests the uncertified kernel makes, those the horizons skip):
    a pixel of count n is tested at steps 0 .. n."""
    tests = int(c.grid.counts.sum(dtype=np.int64)) + c.grid.counts.size
    return tests, sum(q * size for size, q in c.calls)


@pytest.mark.parametrize("name", sorted(KERNEL_RENDERS))
def test_render_grid_bit_identical_to_reference(name):
    p, window, resolution, max_iter = KERNEL_RENDERS[name]
    certified_render(p, window, resolution, max_iter)


def test_render_grid_bit_identical_on_one_pixel_at_fixed_points():
    # a lone pixel on a float fixed point leaves it by the rounding of each
    # step, so its count shows any change to one active pixel's arithmetic
    rng = random.Random(92)
    for _ in range(100):
        p = benchmark_like_params(rng)
        certified_render(p, Window(repelling_point(p, rng), 1.0, 1.0), (1, 1), 200)


def test_certificate_sound_on_radius_windows():
    certified = 0
    for p, window, resolution, max_iter in RADIUS_WINDOWS:
        certified += certified_steps(certified_render(p, window, resolution,
                                                      max_iter))[1] > 0
    assert certified >= len(RADIUS_WINDOWS) // 4


@pytest.mark.parametrize("resolution", [(32, 32), (48, 17), (16, 16)])
def test_render_grid_bit_identical_on_radius_windows_at_tile_shapes(resolution):
    # windows across a certifying radius are quiet at no step, so the tile
    # pass runs on grids of whole and clipped tiles
    tiled = sum(certified_render(p, window, resolution, max_iter).tiles > 0
                for p, window, _, max_iter in RADIUS_WINDOWS)
    assert tiled >= len(RADIUS_WINDOWS) // 3


RAGGED = [(37, 23), (100, 165), (1, 300), (300, 1), (MAX_RESOLUTION, 1),
          (1, MAX_RESOLUTION), (17, 9), (3, 2)]


@pytest.mark.parametrize("resolution", RAGGED)
def test_render_grid_bit_identical_on_ragged_whole_set_grids(resolution):
    # sides that are no multiple of a tile side, one row and one column
    for name in ("whole-1", "whole-4", "whole-6"):
        p, window, _, max_iter = KERNEL_RENDERS[name]
        assert certified_render(p, window, resolution, max_iter).tiles > 0, name


def forced_tile_renders(cell):
    """The windows of KERNEL_RENDERS and RADIUS_WINDOWS on 32 x 32 and
    48 x 17 grids, rendered with no step quiet, so that every one goes
    through the tile pass, on cells of the given side: the names of those
    that differ from the reference."""
    cases = dict(KERNEL_RENDERS)
    for i, (p, window, _, max_iter) in enumerate(RADIUS_WINDOWS):
        cases[f"radius-{i}-32x32"] = (p, window, (32, 32), max_iter)
        cases[f"radius-{i}-48x17"] = (p, window, (48, 17), max_iter)
    differ = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plane, "_quiet_steps", lambda *args: 0)
        mp.setattr(plane, "CELL", cell)
        for name, (p, window, resolution, max_iter) in cases.items():
            g = render_grid(p, window, resolution, max_iter)
            labels, counts = ref_render_labels_counts(p, window, resolution, max_iter)
            if not (np.array_equal(g.labels, labels) and np.array_equal(g.counts, counts)):
                differ.append(name)
    return differ


@pytest.mark.parametrize("cell", [8, 4, 2, 1])
def test_tile_pass_bit_identical_on_every_window_when_forced(cell):
    # on a window centred on a radial fixed point a cell stays quiet for
    # tens of steps, over which the rounding of the float orbits grows past
    # the radii's margins: without the rounding terms of _disk_step and
    # _rect_disk, 2, 4 and 11 of these renders differ on cells of 8, 4 and 2
    # pixels (with either kept, none; on one-pixel cells none, as each disk
    # is then a pixel stepped exactly as the kernel steps it)
    assert forced_tile_renders(cell) == []


def test_tile_steps_fail_overflowing_tiles_silently():
    # a NaN centre, an infinite radius, and at K = 1e15 a radius whose sum
    # with |z| passes the float range; warnings are errors in this suite
    p = make_params(1e15, 0.3)
    z = np.array([complex(math.nan, 0.0), 0.5 + 0j, -1.7e308 + 0j])
    rho = np.array([1e-3, math.inf, 1.7e308])
    labels, counts, decided = plane._tile_steps(p, z, rho, 50)
    assert not decided.any()


def test_rect_disk_stays_finite_near_the_float_limit():
    # the corners' sum passes the float range, their halves' sum does not;
    # a one-element array gives the bits of the float call
    z, rho = plane._rect_disk(1.5e308, 1.6e308, 0.0, 1.0)
    assert z == 1.55e308 + 0.5j and math.isfinite(rho)
    for x in (1.5e308, 1.6e308):
        for y in (0.0, 1.0):
            assert abs(complex(x, y) - z) <= rho
    za, rhoa = plane._rect_disk(*(np.array([v]) for v in (1.5e308, 1.6e308, 0.0, 1.0)))
    assert za.tobytes() == np.complex128(z).tobytes()
    assert rhoa.tobytes() == np.float64(rho).tobytes()


def ref_decision(p, z, max_iter):
    """The first step at which z's orbit passes a certifying radius,
    max_iter + 1 if it passes none."""
    r = ref_classify_point(p, z, max_iter)
    return max_iter + 1 if r.label is PointClass.UNDECIDED else r.n


def tile_holds(p, z, rho, points, max_iter):
    """Whether the disk |w - z| <= rho, stepped as a one-element
    _tile_steps call, is decided, after asserting that a decided tile
    carries the reference label and count of each of the points, which lie
    in the disk."""
    labels, counts, decided = plane._tile_steps(
        p, np.array([complex(z)]), np.array([rho]), max_iter)
    if decided[0]:
        for w in points:
            r = ref_classify_point(p, w, max_iter)
            assert (plane._POINT_CLASSES[labels[0]], counts[0]) == (r.label, r.n), \
                (p, z, rho, w)
    return bool(decided[0])


def test_quiet_steps_hold_points_a_rounding_from_a_decision():
    # on the fixed ray of theta = 0 the float step is increasing, so the
    # first decision step of x is monotone on each side of the fixed point
    # 1/K^2; bisect for the float w nearest the fixed point that decides by
    # step d, whose orbit crosses a radius at step d by about a rounding,
    # and centre a disk of exact radius on a float 1 to 4 ulps nearer; the
    # same disk as a tile must carry the decisions of both points
    rng = random.Random(94)
    tiles = 0
    for _ in range(150):
        K = rng.choice((1.0 + 1e-6, 10 ** rng.uniform(0.0, 3.0)))
        p = make_params(K, 0.0)
        max_iter = 200
        near = 1.0 / (K * K)
        far = near * (1.0 + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-14.0, -8.0))
        d = ref_decision(p, far, max_iter)
        while (mid := (near + far) / 2.0) not in (near, far):
            if ref_decision(p, mid, max_iter) <= d:
                far = mid
            else:
                near = mid
        z = far
        for _ in range(rng.randint(1, 4)):
            z = math.nextafter(z, near)
        q = plane._quiet_steps(p, complex(z), abs(far - z), max_iter)
        d = ref_decision(p, far, max_iter)
        assert q <= d, (p, far, z)
        # no tile decides by max_iter here, but most are quiet through d - 1
        for n in (max_iter, d - 1):
            tiles += tile_holds(p, z, abs(far - z), (far, z), n)
    assert tiles >= 100


def test_quiet_steps_hold_points_far_from_the_centre():
    # on the fixed ray of theta = 0, where the bound on |H(w) - H(z)| is
    # attained, a float w within 1e-6 relative of a preimage of either
    # radius and a centre z up to 1e-2 relative away, at the exact radius;
    # the same disk as a tile must carry the decisions of both points
    rng = random.Random(95)
    tiles = 0
    for _ in range(3000):
        K = rng.choice((1.0 + 1e-6, 10 ** rng.uniform(0.0, 3.0)))
        p = make_params(K, 0.0)
        x = rng.choice((R_ESCAPE, r_attract(p)))
        for _ in range(rng.randint(1, 3)):
            x = math.sqrt(x) / K  # H(x) = K^2 x^2
        w = x * (1.0 + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12.0, -6.0))
        z = w + rng.choice((-1.0, 1.0)) * x * 10 ** rng.uniform(-15.0, -2.0)
        q = plane._quiet_steps(p, complex(z), abs(w - z), 80)  # exact radius
        assert q <= min(ref_decision(p, w, 80), ref_decision(p, z, 80)), (p, w, z)
        tiles += tile_holds(p, z, abs(w - z), (w, z), 80)
    assert tiles >= 1000


@functools.lru_cache(maxsize=1)
def zoom_catalogue_steps():
    """(radius tests, certified tests, tiles stepped) summed over the
    render-zoom catalogue, each entry checked by certified_render."""
    tests = certified = tiles = 0
    for job in workloads.zoom_catalogue():
        c = certified_render(
            make_params(job["K"], job["theta"]), Window.from_bounds(*job["window"]),
            (job["res"], job["res"]), job["max_iter"])
        t, s = certified_steps(c)
        tests, certified, tiles = tests + t, certified + s, tiles + c.tiles
    return tests, certified, tiles


def test_certificate_sound_on_the_zoom_catalogue():
    assert zoom_catalogue_steps()[0] > 0


def test_certificate_covers_most_zoom_steps():
    # 75.0% (31.32M of 41.77M tests), where testing only from each block's
    # first decision would skip 89.1%
    tests, certified, _ = zoom_catalogue_steps()
    assert certified >= 0.70 * tests


def test_tile_pass_idle_on_zoom_windows():
    # a zoom window is quiet at step 0, so it skips the tile pass and none
    # of its cells is stepped as a tile
    assert zoom_catalogue_steps()[2] == 0
    for name, case in KERNEL_RENDERS.items():
        if name.startswith(("zoom-", "ulp-zoom-")):
            assert certified_render(*case).tiles == 0, name


def test_certificate_idle_on_whole_set_windows():
    # a window holding the whole set reaches both radii at step 0, so it
    # goes through the tile pass, and its kernel calls certify no step
    names = [name for name in KERNEL_RENDERS if name.startswith("whole-")]
    assert names
    for name in names:
        c = certified_render(*KERNEL_RENDERS[name])
        assert c.gate == 0 and c.tiles > 0, name
        assert {q for _, q in c.calls} <= {0}, name


def test_tiles_decide_most_of_the_wide_catalogue():
    # 81.6% of the 4,947,968 pixels of the render-wide catalogue; the bits
    # of every render are checked against bench/digests.json elsewhere
    iterated = []
    classify_block = plane._classify_block

    def kernel(p, w, *args):
        iterated.append(w.size)
        return classify_block(p, w, *args)

    pixels = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plane, "_classify_block", kernel)
        for job in workloads.wide_catalogue():
            g = render_grid(make_params(job["K"], job["theta"]),
                            Window.from_bounds(*job["window"]), job["res"],
                            job["max_iter"])
            pixels += g.labels.size
    assert sum(iterated) <= 0.20 * pixels
