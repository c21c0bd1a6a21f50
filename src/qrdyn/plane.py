"""Partition of the plane into escaping set, basin of the origin, and the
undecided points near their common boundary; grid rendering to PPM."""

from __future__ import annotations

import cmath
import contextlib
import enum
import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .core import MapParams, eval_H, radial_stretch, require_count
from .circle import require_fixed_angle
from .errors import InvalidParameter

R_ESCAPE = 2.0           # |z| > 2 forces |H(z)| >= |z|^2 > 2|z|
MAX_RESOLUTION = 8192    # per grid side
MAX_ITER = np.iinfo(np.int32).max  # the most the int32 counts hold
# Pixels of the largest row block.  The kernel's step makes no temporaries,
# so a pixel's arithmetic does not depend on its block, and the block size
# sets only how often numpy's fixed per-call cost is paid.  At about 68 B a
# pixel (w, t, u, m, idx and the masks) a block's working set of about
# 1.1 MB fits a 2 MiB L2 cache, and its buffers add under 0.5 MB to peak RSS
# over 8192-pixel blocks.  32768-pixel blocks were no faster on boundary
# zooms, and their buffers page-fault in afresh on every render.
BLOCK_PIXELS = 16384
# Sides of the tiles of a whole-set render's tile pass, largest first, each
# a multiple of the next: the image is covered with tiles of the first side,
# and a tile that fails is split into tiles of the next.  On the
# render-wide catalogue's jobs a 4-pixel level behind cost more tile steps
# than the pixel steps it saved (6-12% slower), and 8 or 16 alone, (32, 8)
# and (32, 16, 8) were within 5% of these sides either way.
TILE_SIDES = (16, 8)
# Pixels of the failed tiles classified together, at most.  They lie near
# the boundary and most stay active for the first steps, so the kernel's
# compaction holds more of them than of a row block; at 7/8 of a block, a
# 1024^2 whole-set render peaks at no more memory than the row blocks do,
# and the render-wide catalogue renders as fast as with whole blocks.
BATCH_PIXELS = 14336


def r_attract(p: MapParams) -> float:
    """|z| below this forces |H(z)| <= K^2 |z|^2 < |z|/2."""
    return 1.0 / (2.0 * p.K * p.K)


class PointClass(enum.Enum):
    ESCAPED = "escaped"
    ATTRACTED = "attracted"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class PointResult:
    label: PointClass
    n: int  # first iterate past the certifying radius (0 for the seed itself)


# PointClass of each label of _classify_block
_POINT_CLASSES = (PointClass.UNDECIDED, PointClass.ESCAPED, PointClass.ATTRACTED)


def classify_point(p: MapParams, z: complex, max_iter: int) -> PointResult:
    """Escaping / attracted-to-0 / undecided, via certified absorbing radii."""
    max_iter = require_count("classify_point", "max_iter", max_iter, 1, MAX_ITER)
    if not cmath.isfinite(z):
        raise InvalidParameter(f"classify_point needs a finite z, got z={z!r}")
    labels, counts = np.zeros(1, np.uint8), np.full(1, max_iter, np.int32)
    w = np.array([z], dtype=complex)
    _classify_block(p, w, np.zeros(1, np.intp), max_iter, labels, counts,
                    _scratch(1), complex(w[0]), 0.0)
    return PointResult(_POINT_CLASSES[labels[0]], int(counts[0]))


def radial_fixed_point(p: MapParams, phi: float) -> float:
    """The radius r = 1/alpha at which the fixed ray phi carries a fixed point."""
    require_fixed_angle(p, phi)
    r = 1.0 / radial_stretch(p, phi)
    z = r * cmath.exp(1j * phi)
    if abs(eval_H(p, z) - z) >= 1e-12:
        raise InvalidParameter(f"fixed-point residual too large at phi={phi}")
    return r


@dataclass(frozen=True)
class Window:
    """The rectangle of the given width and height centred on center, both
    sides positive and every number finite (InvalidParameter otherwise)."""

    center: complex
    width: float
    height: float

    def __post_init__(self):
        # not (x > 0) also holds for a nan
        if not (cmath.isfinite(self.center) and math.isfinite(self.width)
                and math.isfinite(self.height)
                and self.width > 0.0 and self.height > 0.0):
            raise InvalidParameter(
                "Window needs a finite center and a positive finite width and "
                f"height, got center={self.center!r}, width={self.width!r}, "
                f"height={self.height!r}")

    @staticmethod
    def from_bounds(xmin: float, xmax: float, ymin: float, ymax: float) -> "Window":
        bounds = f"xmin={xmin!r}, xmax={xmax!r}, ymin={ymin!r}, ymax={ymax!r}"
        if not (xmax > xmin and ymax > ymin):
            raise InvalidParameter(
                f"window bounds must satisfy xmin < xmax, ymin < ymax, got {bounds}")
        center = complex((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
        width, height = xmax - xmin, ymax - ymin
        # the centre and size overflow for finite bounds near the float limit
        if not all(map(math.isfinite, (xmin, xmax, ymin, ymax, center.real,
                                       center.imag, width, height))):
            raise InvalidParameter(
                f"window bounds, centre and size must be finite, got {bounds}")
        return Window(center, width, height)


@dataclass(frozen=True)
class PlaneGrid:
    window: Window
    resolution: tuple[int, int]  # (width px, height px)
    labels: np.ndarray           # uint8, 0 undecided / 1 escaped / 2 attracted
    counts: np.ndarray           # int32, certifying iterate per pixel
    max_iter: int

    def stats(self) -> dict:
        total = self.labels.size
        # the counts are exact, so each fraction is rounded once; two passes,
        # as the decided labels are the nonzero ones (np.bincount would
        # first copy the uint8 labels to intp)
        decided = int(np.count_nonzero(self.labels))
        attracted = int(np.count_nonzero(self.labels == 2))
        return {
            "escaped_fraction": (decided - attracted) / total,
            "attracted_fraction": attracted / total,
            "undecided_fraction": (total - decided) / total,
            "pixels": int(total),
            "max_iter": self.max_iter,
        }


def _scratch(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch arrays of _classify_block for blocks of up to size pixels."""
    return np.empty(size, complex), np.empty(size, complex), np.empty(size)


def _quiet_steps(p: MapParams, z: complex, rho: float, max_iter: int) -> int:
    """The number q <= max_iter + 1 of leading steps n = 0 .. q-1 at which
    no point of the disk |w - z| <= rho can reach either certifying radius
    in floats, so that _classify_block may skip its radius test there.

    z_n is the float orbit of z and rho_n a radius with |w_n - z_n| <= rho_n
    for the float orbit w_n of every point of the disk.  Step n is quiet
    when |z_n| - rho_n > r_attract (1 + 1e-9) and |z_n| + rho_n <
    2 (1 - 1e-9); the margins cover the rounding of |.| and of the sums.
    A NaN or inf in z_n or rho_n fails the test, so such a step is never
    certified.  The radius grows as

        rho_{n+1} = (L rho_n + eps (2 |z_{n+1}| + L rho_n)) (1 + 2^-40),
        L = K (2 |h(z_n)| (1 + eps) + K rho_n),  eps = 8 (K + 4) 2^-53:

    - h is R-linear with norm K, so |h(a) - h(b)| <= K |a - b|;
    - H(a) - H(b) = (h(a) - h(b)) (h(a) + h(b)), so
      |H(w_n) - H(z_n)| <= K rho_n (2 |h(z_n)| + K rho_n) = L rho_n, with
      |h(z_n)| known in floats to within a factor 1 + eps;
    - a float step is off by less than (2.3 K + 9) 2^-53 relative:
      mu conj(w) and the square are complex products, each within
      sqrt(5) 2^-53 relative, c (.) and the add round within 2^-53 each,
      and the add loses at most a factor (K + 1)/2 of the product's
      rounding, because |w + mu conj(w)| >= (1 - |mu|) |w|; the steps of
      w_n and of z_n together are then off by at most
      eps (|H(z_n)| + |H(w_n)|) <= eps (2 |z_{n+1}| + L rho_n), with eps
      over three times the bound;
    - the factor 1 + 2^-40 covers the second-order terms, the rounding of
      c and mu (h's norm is K to a few ulps) and of this recurrence.
    """
    lo = r_attract(p) * (1.0 + 1e-9)
    hi = R_ESCAPE * (1.0 - 1e-9)
    K, c, mu = p.K, 0.5 * (p.K + 1.0), p.mu
    eps = 8.0 * (K + 4.0) * 2.0 ** -53
    m = abs(z)
    for n in range(max_iter + 1):
        if not (m - rho > lo and m + rho < hi):
            return n
        h = c * (z + mu * z.conjugate())
        z = h * h
        m = abs(z)
        lr = K * (2.0 * abs(h) * (1.0 + eps) + K * rho) * rho
        rho = (lr + eps * (2.0 * m + lr)) * (1.0 + 2.0 ** -40)
    return max_iter + 1


def _classify_block(p: MapParams, w: np.ndarray, idx: np.ndarray, max_iter: int,
                    labels: np.ndarray, counts: np.ndarray, scratch,
                    z: complex, rho: float) -> None:
    """Escaping (label 1) / attracted-to-0 (2) / undecided (0) for each
    point w[i] of the flat complex array w, written at position idx[i] of
    the flat labels and counts, with the first iterate past the certifying
    radius.  Those positions hold 0 and max_iter on entry, and the
    undecided keep them.

    Every point of w lies in the disk |w - z| <= rho, and the radius test
    is skipped at the _quiet_steps leading steps, at which it cannot decide
    any of them.  w is overwritten and scratch is _scratch(n) for some
    n >= w.size.  Only the still-active pixels are iterated: a prefix of w
    holds their orbits and `idx` their positions, both compacted on every
    step that decides one.
    """
    ra = r_attract(p)
    c, mu = 0.5 * (p.K + 1.0), p.mu
    t, u, m = scratch
    quiet = _quiet_steps(p, z, rho, max_iter)
    for n in range(max_iter + 1):
        if n >= quiet:
            mk = np.abs(w, out=m[:w.size])
            esc = mk > R_ESCAPE
            att = mk < ra
            done = esc | att
            if done.any():
                labels[idx[esc]] = 1
                labels[idx[att]] = 2
                counts[idx[done]] = n
                active = ~done
                idx = idx[active]
                if not idx.size:
                    break
                w[:idx.size] = w[active]
                w = w[:idx.size]
        if n == max_iter:
            break
        # w <- (c (w + mu conj(w)))^2 with eval_H's operations in eval_H's
        # operand order.  mu conj(w) goes to a buffer of its own: on one
        # element numpy rounds an in-place complex product differently from
        # one written to other memory.
        tk, uk = t[:w.size], u[:w.size]
        np.conjugate(w, out=tk)
        np.multiply(mu, tk, out=uk)
        np.add(w, uk, out=tk)
        np.multiply(c, tk, out=tk)
        np.multiply(tk, tk, out=w)


def _tile_steps(p: MapParams, z: np.ndarray, a: np.ndarray, max_iter: int):
    """(labels, counts, decided) of tiles of pixels, tile i holding the
    pixels z[i] + d whose offsets d lie in the rectangle |Re d| <= Re a[i],
    |Im d| <= Im a[i].  A decided tile's label and count are those that
    _classify_block gives every pixel in it, bit for bit.

    The float orbit w_n of each pixel w = z + d is bounded around the float
    orbit z_n of the tile's centre by an R-linear image of d and a
    remainder,

        |w_n - z_n - (A_n d + B_n conj(d))| <= E_n,   A_0 = 1, B_0 = E_0 = 0,

    so that |w_n - z_n| <= rho_n, the reach

        rho_n = (max(|A_n a + B_n conj(a)|, |A_n conj(a) + B_n a|)
                 + eps S_n + E_n) (1 + 2^-40),   S_n = (|A_n| + |B_n|) r,

    with r >= |a| >= |d|, and eps and the 1 + 2^-40 as in _quiet_steps.
    Steps at which the tile lies strictly between the certifying radii, by
    _quiet_steps' test on (z_n, rho_n), decide none of its pixels.  At the
    first other step n the tile is decided when it lies wholly past
    R_ESCAPE (1 + 1e-9) (label 1, count n) or wholly inside
    r_attract (1 - 1e-9) (label 2, count n): the margins cover the rounding
    of |w_n|.  A tile quiet at every step through max_iter is decided
    undecided (label 0, count max_iter).  Any other tile fails, with label
    0 and count max_iter.  A NaN or inf in z_n, A_n, B_n or E_n fails every
    test, so an overflowing tile fails, silently.  The bound holds because:

    - h is R-linear, so with delta = w_n - z_n,
      H(w_n) - H(z_n) = 2 h(z_n) h(delta) + h(delta)^2;
    - with delta = A d + B conj(d) + e, |e| <= E_n, the first term is
      A' d + B' conj(d) + 2 h(z_n) h(e) exactly, with A' = f (A + mu conj(B)),
      B' = f (B + mu conj(A)) and f = (K + 1) h(z_n);
      |2 h(z_n) h(e)| <= 2 K |h(z_n)| E_n, and |h(delta)|^2 <= K^2 rho_n^2;
    - the float steps of w_n and z_n are off by at most
      eps (2 |z_{n+1}| + L rho_n), L = K (2 |h(z_n)| + K rho_n), as in
      _quiet_steps, and |h(z_n)| is known to within a factor 1 + eps;
    - the float A_{n+1} and B_{n+1} are off from A' and B' by at most
      eps |f| (|A| + |mu| |B|) and eps |f| (|B| + |mu| |A|): f carries
      h(z_n)'s error and a product's, and mu conj(B), the sum and the
      product by f one rounding each, all relative to those sums, with no
      cancellation.  As |f| (1 + |mu|) = 2 K |h(z_n)|, they move the linear
      part at d by at most 2 eps K |h(z_n)| S_n;
    - so E_{n+1} = (2 K |h| E_n + K^2 rho_n^2 + 2 eps K |h| S_n
      + eps (2 |z_{n+1}| + L rho_n)) (1 + 2^-40), with |h| the float
      |h(z_n)| (1 + eps);
    - |A d + B conj(d)| is convex in d, so on the rectangle it is largest
      at a corner, +-a or +-conj(a); computing it there is off by at most
      4 (2^-53) S_n, which eps S_n covers.
    """
    lo, hi = r_attract(p) * (1.0 + 1e-9), R_ESCAPE * (1.0 - 1e-9)
    inner, outer = r_attract(p) * (1.0 - 1e-9), R_ESCAPE * (1.0 + 1e-9)
    K, c, mu = p.K, 0.5 * (p.K + 1.0), p.mu
    eps = 8.0 * (K + 4.0) * 2.0 ** -53
    grow = 1.0 + 2.0 ** -40
    labels = np.zeros(z.size, np.uint8)
    counts = np.full(z.size, max_iter, np.int32)
    decided = np.zeros(z.size, bool)
    idx = np.arange(z.size)
    A, B, E = np.ones(z.size, complex), np.zeros(z.size, complex), np.zeros(z.size)
    ca = a.conjugate()
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.abs(a) * grow
        for n in range(max_iter + 1):
            s = (np.abs(A) + np.abs(B)) * r
            rho = (np.maximum(np.abs(A * a + B * ca), np.abs(A * ca + B * a))
                   + eps * s + E) * grow
            m = np.abs(z)
            quiet = (m - rho > lo) & (m + rho < hi)
            if n == max_iter:
                decided[idx[quiet]] = True
            if not quiet.all():
                esc, att = m - rho > outer, m + rho < inner
                done = esc | att
                labels[idx[esc]] = 1
                labels[idx[att]] = 2
                counts[idx[done]] = n
                decided[idx[done]] = True
                idx, z, a, ca, r, A, B, E, s, rho = (
                    x[quiet] for x in (idx, z, a, ca, r, A, B, E, s, rho))
            if n == max_iter or not idx.size:
                break
            h = c * (z + mu * z.conjugate())
            habs = np.abs(h) * (1.0 + eps)
            z = h * h
            f = (K + 1.0) * h
            A, B = f * (A + mu * B.conjugate()), f * (B + mu * A.conjugate())
            kr = K * rho
            E = (2.0 * K * habs * E + kr * kr + 2.0 * eps * K * habs * s
                 + eps * (2.0 * np.abs(z) + kr * (2.0 * habs + kr))) * grow
    return labels, counts, decided


def _tile_rects(xs: np.ndarray, ys: np.ndarray, side: int, ti: np.ndarray,
                tj: np.ndarray):
    """(z, a) of _tile_steps for the tiles of side pixels at tile row ti and
    column tj of the grid of pixels xs[j] + 1j ys[i], clipped to the grid.

    The pixels of a tile lie in the rectangle of its corner pixels, as xs
    and ys are monotone.  Each part of its centre z rounds the midpoint of
    the corners by less than 2^-53 of the larger corner, which the
    8 (2^-53) term of each half-side covers, plus 2^-1074 where halving a
    subnormal rounds, which the 2^-1073 term covers.  No sum can
    overflow."""

    def spans(v):
        """Centre and half-side of each tile's span of v."""
        ends = v[np.minimum(np.arange(side, v.size + side, side), v.size) - 1]
        lo, hi = np.minimum(v[::side], ends), np.maximum(v[::side], ends)
        return (lo / 2.0 + hi / 2.0,
                (hi / 2.0 - lo / 2.0) * (1.0 + 1e-12)
                + 8.0 * 2.0 ** -53 * np.maximum(-lo, hi) + 2.0 ** -1073)

    (cx, hx), (cy, hy) = spans(xs), spans(ys)
    return cx[tj] + 1j * cy[ti], hx[tj] + 1j * hy[ti]


def _split(ti: np.ndarray, tj: np.ndarray, k: int):
    """Tile rows and columns of the k x k tiles of a k-th of the side into
    which the tiles (ti, tj) split."""
    d = np.arange(k)
    return (ti[:, None] * k + d.repeat(k)).ravel(), (tj[:, None] * k + np.tile(d, k)).ravel()


def _tile_pass(p: MapParams, xs: np.ndarray, ys: np.ndarray, max_iter: int):
    """(labels, counts, failed) of the cells of TILE_SIDES[-1] pixels a
    side of the grid of pixels xs[j] + 1j ys[i], indexed (row, column) on
    the grid padded to whole tiles of TILE_SIDES[0] pixels.

    Tiles of each side in TILE_SIDES are run through _tile_steps in turn,
    all tiles of a side together: first those covering the grid, then the
    tiles into which each failed tile splits.  Each tile gives its label
    and count to its cells, a failed one label 0 and count max_iter; the
    cells of a tile that fails at the last side are failed, and their
    pixels are left to _classify_block."""
    cell, side = TILE_SIDES[-1], TILE_SIDES[0]
    tiles = (-(-ys.size // side), -(-xs.size // side))
    shape = (tiles[0] * (side // cell), tiles[1] * (side // cell))
    labels = np.empty(shape, np.uint8)
    counts = np.empty(shape, np.int32)
    ti, tj = (t.ravel() for t in np.indices(tiles))
    for prev, side in zip((side,) + TILE_SIDES, TILE_SIDES):
        if prev > side:
            ti, tj = _split(ti, tj, prev // side)
            inside = (ti * side < ys.size) & (tj * side < xs.size)
            ti, tj = ti[inside], tj[inside]
        lab, cnt, ok = _tile_steps(p, *_tile_rects(xs, ys, side, ti, tj), max_iter)
        # the first side's tiles cover every cell
        ci, cj = _split(ti, tj, side // cell)
        labels[ci, cj] = lab.repeat((side // cell) ** 2)
        counts[ci, cj] = cnt.repeat((side // cell) ** 2)
        ti, tj = ti[~ok], tj[~ok]
    failed = np.zeros(shape, bool)
    failed[ti, tj] = True
    return labels, counts, failed


def _failed_pixels(failed: np.ndarray, top: int, bottom: int, nx: int):
    """(i, j), in cell order, of the pixels of the grid's rows top ..
    bottom - 1 that lie in failed cells of _tile_pass; top is the first row
    of a cell."""
    cell = TILE_SIDES[-1]
    ci, cj = np.nonzero(failed[top // cell:(bottom - 1) // cell + 1])
    d = np.arange(cell)
    # each cell's rows, each repeated for the cell's columns, and its columns
    i = ((ci[:, None] + top // cell) * cell + d).repeat(cell, axis=1).ravel()
    j = np.tile(cj[:, None] * cell + d, cell).ravel()
    keep = (i < bottom) & (j < nx)  # all but in the ragged last cells
    if not keep.all():
        i = i[keep]
        j = j[keep]
    return i, j


def _row_blocks(nx: int, ny: int) -> list[slice]:
    """The fewest row slices, in order, of at most BLOCK_PIXELS pixels but
    one row at least.  Each of the n slices has ceil(ny / n) rows but the
    last, which holds the rest, so 192 rows of 192 pixels are 3 x 64 rows,
    not 85 + 85 + 22, and the first slice is a largest one."""
    n = -(-ny // max(1, BLOCK_PIXELS // nx))
    rows = -(-ny // n)
    return [slice(i, i + rows) for i in range(0, ny, rows)]


def _disk(x0, x1, y0, y1) -> tuple[complex, float]:
    """A disk (z, rho) holding every float x + 1j y with x between the
    floats x0 and x1 and y between y0 and y1: the rectangle's
    half-diagonal around its centre z, which rounding moves by less than
    2^-53 |z| in each part."""
    x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    z = complex((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    rho = (math.hypot((x1 - x0) / 2.0, (y1 - y0) / 2.0) * (1.0 + 1e-12)
           + 4.0 * 2.0 ** -53 * abs(z))
    return z, rho


def _classify_rows(p: MapParams, xs: np.ndarray, ys: np.ndarray, max_iter: int):
    """(labels, counts) of the grid of pixels xs[j] + 1j ys[i], each
    _row_blocks block classified by _classify_block in turn, on buffers
    sized for the first."""
    nx, ny = xs.size, ys.size
    labels = np.empty((ny, nx), dtype=np.uint8)
    counts = np.empty((ny, nx), dtype=np.int32)
    blocks = _row_blocks(nx, ny)
    size = nx * blocks[0].stop  # pixels of the largest block
    w, scratch = np.empty(size, complex), _scratch(size)
    flat_labels, flat_counts = labels.reshape(-1), counts.reshape(-1)
    for rows in blocks:
        lab, cnt, yb = labels[rows], counts[rows], ys[rows]
        lab.fill(0)
        cnt.fill(max_iter)
        wb = w[:lab.size]
        np.add(xs[None, :], 1j * yb[:, None], out=wb.reshape(lab.shape))
        # each pixel lies in the rectangle of the block's corners
        start = rows.start * nx
        _classify_block(p, wb, np.arange(start, start + lab.size), max_iter,
                        flat_labels, flat_counts, scratch,
                        *_disk(xs[0], xs[-1], yb[0], yb[-1]))
    return labels, counts


def _classify_tiles(p: MapParams, xs: np.ndarray, ys: np.ndarray, max_iter: int):
    """(labels, counts) of the grid of pixels xs[j] + 1j ys[i] from
    _tile_pass, with only the pixels of its failed cells iterated.

    Each row of the grid takes the labels and counts of its cells.  Then
    the rows of cells are taken in batches, each of the most rows, one at
    least, whose failed cells hold at most BATCH_PIXELS pixels, and the
    failed pixels of a batch are classified by _classify_block together,
    so that numpy's per-call cost is paid once for up to a batch of
    them."""
    nx, ny = xs.size, ys.size
    cell_labels, cell_counts, failed = _tile_pass(p, xs, ys, max_iter)
    labels = np.empty((ny, nx), dtype=np.uint8)
    counts = np.empty((ny, nx), dtype=np.int32)
    cell = TILE_SIDES[-1]
    # the failed pixels of each row of cells of the grid, at most
    held = (np.count_nonzero(failed[:-(-ny // cell)], axis=1) * (cell * cell)).tolist()
    for k in range(len(held)):
        labels[k * cell:k * cell + cell] = cell_labels[k].repeat(cell)[:nx]
        counts[k * cell:k * cell + cell] = cell_counts[k].repeat(cell)[:nx]
    del cell_labels, cell_counts
    size = max(min(BATCH_PIXELS, sum(held)), max(held))
    w, scratch = np.empty(size, complex), _scratch(size)
    flat_labels, flat_counts = labels.reshape(-1), counts.reshape(-1)
    # xs[j] + 1j ys[i] is built as _classify_rows builds it, from complex
    # copies gathered into buffers, so that no float is cast on the way
    xc, iy = xs.astype(complex), 1j * ys
    k = 0
    while k < len(held):
        first, n = k, held[k]
        k += 1
        while k < len(held) and n + held[k] <= size:
            n += held[k]
            k += 1
        top, bottom = first * cell, min(k * cell, ny)
        i, j = _failed_pixels(failed, top, bottom, nx)
        if i.size:
            wb, xb = w[:i.size], scratch[0][:i.size]
            np.take(iy, i, out=wb, mode="clip")  # "raise" would buffer out
            np.take(xc, j, out=xb, mode="clip")
            wb += xb
            idx = i * nx
            idx += j
            del i, j  # a batch holds only w, idx and the scratch
            _classify_block(p, wb, idx, max_iter, flat_labels, flat_counts,
                            scratch, *_disk(xs[0], xs[-1], ys[top], ys[bottom - 1]))
    return labels, counts


def render_grid(p: MapParams, window: Window, resolution, max_iter: int) -> PlaneGrid:
    """Classify every pixel of a grid over the window; resolution is one
    integer side or a pair (nx, ny) of them.

    When the disk holding the window is quiet at step 0 (_quiet_steps), as
    for a zoom into the boundary, the grid's _row_blocks, the fewest blocks
    of whole rows of at most BLOCK_PIXELS pixels, all as tall as the first
    but the last, are classified in turn by _classify_block, on buffers
    sized for the first.  Otherwise that disk reaches a certifying radius
    at once, as for a window holding the whole set: _tile_pass decides
    whole tiles, and _classify_block iterates only the pixels of the tiles
    that fail (_classify_tiles).  The work runs in the calling thread, and
    the result depends only on the arguments, not on the path taken, the
    block or batch layout, the core count or the environment.
    """
    max_iter = require_count("render_grid", "max_iter", max_iter, 1, MAX_ITER)
    if not (isinstance(resolution, (tuple, list)) and len(resolution) == 2):
        resolution = (resolution, resolution)
    nx, ny = (require_count("render_grid", "resolution", side, 1, MAX_RESOLUTION)
              for side in resolution)

    xs = window.center.real + window.width * ((np.arange(nx) + 0.5) / nx - 0.5)
    ys = window.center.imag + window.height * ((np.arange(ny) + 0.5) / ny - 0.5)
    ys = ys[::-1]  # row 0 is the top of the image

    # each pixel is exactly xs[j] + 1j ys[i], inside the rectangle of the
    # window's corner pixels
    if _quiet_steps(p, *_disk(xs[0], xs[-1], ys[0], ys[-1]), 0):
        labels, counts = _classify_rows(p, xs, ys, max_iter)
    else:
        labels, counts = _classify_tiles(p, xs, ys, max_iter)
    return PlaneGrid(window=window, resolution=(nx, ny), labels=labels,
                     counts=counts, max_iter=max_iter)


def _palette(max_iter: int, c: int) -> np.ndarray:
    """RGB of every (label, count) pair with count <= c, at row
    label * (c+1) + count: escaped hued by log2 of the escape time on a
    scale set by max_iter, attracted on a gray ramp, undecided black."""
    n = np.arange(c + 1)
    pal = np.zeros((3, c + 1, 3), dtype=np.uint8)

    hue = np.log2(n + 1.0) / math.log2(max_iter + 2.0)
    h6 = (hue % 1.0) * 6.0
    i = h6.astype(int) % 6
    f = h6 - np.floor(h6)
    v = np.full_like(f, 255.0)
    q = 255.0 * (1.0 - f)
    t = 255.0 * f
    r = np.choose(i, [v, q, 0 * v, 0 * v, t, v])
    g = np.choose(i, [t, v, v, q, 0 * v, 0 * v])
    b = np.choose(i, [0 * v, 0 * v, t, v, v, q])
    pal[1] = np.stack([r, g, b], axis=-1).astype(np.uint8)

    shade = 255.0 - 175.0 * n / max(1, max_iter)
    pal[2] = np.clip(shade, 60.0, 255.0).astype(np.uint8)[:, None]
    return pal.reshape(-1, 3)


@contextlib.contextmanager
def _rewrite(path: str):
    """A binary file writing path from its first byte, without truncating
    it first: an existing file is overwritten in place, and on exit, also
    on an exception, a regular file is cut at the bytes written.

    Truncating a file to zero when it is opened can cost more than the
    writing (a filesystem may push a file truncated to zero and rewritten
    to disk when it is closed).  Like open(path, "wb"), this follows a
    symbolic link, writes through a hard link, and creates a new file with
    mode 0o666 less the umask; a device such as /dev/null is not truncated.
    A write stopped part way leaves the new bytes followed by old ones.
    """
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        try:
            yield f
        finally:
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()


def write_ppm(grid: PlaneGrid, path: str) -> None:
    """Binary P6 image of the grid, coloured and written one block of rows
    at a time, so the image is never held whole.

    Each pixel's colour is looked up by its (label, count) in the palette,
    sized by the largest count in the grid, not by max_iter, which may be
    far larger than any count reached.
    """
    ny, nx = grid.labels.shape
    c = int(grid.counts.max())
    # one 3-byte item per palette row, so a lookup gathers whole pixels
    pal = _palette(grid.max_iter, c).view("V3").reshape(-1)
    with _rewrite(path) as f:
        f.write(f"P6\n{nx} {ny}\n255\n".encode("ascii"))
        for rows in _row_blocks(nx, ny):
            idx = grid.labels[rows].astype(np.intp) * (c + 1) + grid.counts[rows]
            f.write(np.take(pal, idx))


def write_stats(grid: PlaneGrid, p: MapParams, path: str) -> None:
    """Summary statistics JSON, with the certifying radii recorded."""
    payload = grid.stats()
    payload.update({
        "K": p.K,
        "theta": p.theta,
        "escape_radius": R_ESCAPE,
        "attract_radius": r_attract(p),
        "window": {"center": [grid.window.center.real, grid.window.center.imag],
                   "width": grid.window.width, "height": grid.window.height},
        "resolution": list(grid.resolution),
    })
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _rewrite(path) as f:
        f.write(text.encode("ascii"))
