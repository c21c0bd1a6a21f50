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

from .core import (MapParams, circle_dist, eval_h, eval_H, modulus,
                   normalize_angle, radial_stretch, require_count)
from .circle import circle_map, require_fixed_angle
from .errors import InvalidParameter, NumericalFailure

R_ESCAPE = 2.0           # |z| > 2 forces |H(z)| >= |z|^2 > 2|z|
MAX_RESOLUTION = 8192    # per grid side
MAX_ITER = np.iinfo(np.int32).max  # the most the int32 counts hold
# Pixels of the largest batch of cells the kernel classifies together, and
# the unit in which write_ppm colours an image.  The kernel's step makes no
# temporaries, so a pixel's arithmetic does not depend on its batch, and the
# batch size sets only how often numpy's fixed per-call cost is paid.  At
# about 68 B a pixel (w, t, u, m, idx and the masks) a batch's working set of
# about 1.1 MB fits a 2 MiB L2 cache.  32768-pixel batches were no faster on
# boundary zooms, and their buffers page-fault in afresh on every render;
# 14336-pixel ones split a 128^2 zoom in two and were 2-3% slower there.
BLOCK_PIXELS = 16384
# Pixels a side of the cells into which every render cuts its grid.  8 x 8
# cells alone were as fast in the tile pass as 16 x 16 tiles split into
# 8 x 8 ones on failure, and a level of 4 x 4 cells behind them was slower.
CELL = 8


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
    """The radius r = 1/alpha at which the fixed ray phi carries a fixed point;
    NumericalFailure unless |H(z) - z| <= r (d + 5 eps) at z = r e^{i phi}:
    d = circle_dist(H~(phi), phi) as require_fixed_angle certified it, eps =
    _step_eps(K).  With u = 2^-53, that holds where |phi - theta| <= 2 pi,
    as for every phi once normalize_angle reduces one outside (-pi, pi]
    (only such a one: it moves the low bits of a negative angle):
    - radial_stretch and circle_map see psi = theta + fl(phi - theta), and
      w = rho e^{i psi}, rho = 1/alpha(psi), has H(w) = rho e^{i H~(psi)}, so
      |H(w) - w| <= rho (d + 40 u) with |phi - psi| and circle_map's rounding;
    - alpha sums positive terms, so |r/rho - 1| <= 8 u and |z - w| < 18 u rho;
      h has norm K and |h(w)| = sqrt(rho) <= 1, so |H(z) - H(w)| < 37 K u rho;
    - eval_H rounds by at most (2.3 K + 9) u |H(z)| (_quiet_steps);
    in all, rho (d + (39.3 K + 68) u) < r (d + (40 K + 160) u)."""
    require_fixed_angle(p, phi)
    if not -math.pi < phi <= math.pi:
        phi = normalize_angle(phi)
    r = 1.0 / radial_stretch(p, phi)
    z = r * cmath.exp(1j * phi)
    residual = abs(eval_H(p, z) - z)
    bound = r * (circle_dist(circle_map(p, phi), phi) + 5.0 * _step_eps(p.K))
    if not residual <= bound:
        raise NumericalFailure(f"fixed-point residual {residual!r} exceeds its bound "
                               f"{bound!r} at K={p.K!r}, theta={p.theta!r}, phi={phi!r}")
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
        # halved before they are added, as in _rect_disk, so that the centre
        # of finite bounds is finite; the size may still overflow
        center = complex(xmin / 2.0 + xmax / 2.0, ymin / 2.0 + ymax / 2.0)
        width, height = xmax - xmin, ymax - ymin
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


def _step_eps(K: float) -> float:
    """Over three times the relative rounding of an eval_H step (_quiet_steps)."""
    return 8.0 * (K + 4.0) * 2.0 ** -53


def _disk_step(p: MapParams, z, rho):
    """(z_{n+1}, |z_{n+1}|, rho_{n+1}) of _quiet_steps' disk recurrence
    from (z_n, rho_n), for a Python complex z and float rho or for numpy
    arrays of them alike."""
    K = p.K
    eps = _step_eps(K)
    h = eval_h(p, z)
    z = h * h
    m = abs(z)
    lr = K * (2.0 * abs(h) * (1.0 + eps) + K * rho) * rho
    return z, m, (lr + eps * (2.0 * m + lr)) * (1.0 + 2.0 ** -40)


def _quiet_steps(p: MapParams, z: complex, rho: float, max_iter: int) -> int:
    """The number q <= max_iter + 1 of leading steps n = 0 .. q-1 at which
    no point of the disk |w - z| <= rho can reach either certifying radius
    in floats, so that _classify_block may skip its radius test there.

    z_n is the float orbit of z and rho_n a radius with |w_n - z_n| <= rho_n
    for the float orbit w_n of every point of the disk.  Step n is quiet
    when |z_n| - rho_n > r_attract (1 + 1e-9) and |z_n| + rho_n <
    2 (1 - 1e-9); the margins cover the rounding of |.| and of the sums.
    A NaN or inf in z_n, |z_n| or rho_n fails the test, so such a step is
    never certified.  The radius grows, by _disk_step, as

        rho_{n+1} = (L rho_n + eps (2 |z_{n+1}| + L rho_n)) (1 + 2^-40),
        L = K (2 |h(z_n)| (1 + eps) + K rho_n),  eps = 8 (K + 4) 2^-53:

    - h is R-linear with norm K, so |h(a) - h(b)| <= K |a - b|;
    - H(a) - H(b) = (h(a) - h(b)) (h(a) + h(b)), so
      |H(w_n) - H(z_n)| <= K rho_n (2 |h(z_n)| + K rho_n) = L rho_n, with
      |h(z_n)| known in floats to within a factor 1 + eps;
    - a float step is off by less than (2.3 K + 9) 2^-53 relative:
      mu conj(w) and the square are complex products, each within
      sqrt(5) 2^-53 relative, the product by (K + 1)/2 and the add round
      within 2^-53 each, and the add loses at most a factor (K + 1)/2 of
      the product's rounding, because |w + mu conj(w)| >= (1 - |mu|) |w|;
      the steps of w_n and of z_n together are then off by at most
      eps (|H(z_n)| + |H(w_n)|) <= eps (2 |z_{n+1}| + L rho_n), with eps
      over three times the bound;
    - the factor 1 + 2^-40 covers the second-order terms, the rounding of
      (K + 1)/2 and mu (h's norm is K to a few ulps) and of this recurrence.
    """
    lo, hi = r_attract(p) * (1.0 + 1e-9), R_ESCAPE * (1.0 - 1e-9)
    z, rho = complex(z), float(rho)
    m = modulus(z)
    for n in range(max_iter + 1):
        if not (m - rho > lo and m + rho < hi):
            return n
        z, m, rho = _disk_step(p, z, rho)
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


def _tile_steps(p: MapParams, z: np.ndarray, rho: np.ndarray, max_iter: int):
    """(labels, counts, decided) of tiles of pixels, tile i holding pixels
    of the disk |w - z[i]| <= rho[i].  A decided tile's label and count are
    those that _classify_block gives every pixel in it, bit for bit.

    Each tile's disk is stepped by _disk_step and its steps are tested as
    in _quiet_steps, which derives the bound.  At the first step n that is
    not quiet the tile is decided when it lies wholly past
    R_ESCAPE (1 + 1e-9) (label 1, count n) or wholly inside
    r_attract (1 - 1e-9) (label 2, count n): the margins cover the rounding
    of |w_n|.  A tile quiet at every step through max_iter is decided
    undecided (label 0, count max_iter).  Any other tile fails, with label
    0 and count max_iter.  A NaN or inf in z_n or rho_n fails every test,
    so an overflowing tile fails, silently.
    """
    lo, hi = r_attract(p) * (1.0 + 1e-9), R_ESCAPE * (1.0 - 1e-9)
    inner, outer = r_attract(p) * (1.0 - 1e-9), R_ESCAPE * (1.0 + 1e-9)
    labels, counts = np.zeros(z.size, np.uint8), np.full(z.size, max_iter, np.int32)
    decided, idx = np.zeros(z.size, bool), np.arange(z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.abs(z)
        for n in range(max_iter + 1):
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
                idx, z, m, rho = (x[quiet] for x in (idx, z, m, rho))
            if n == max_iter or not idx.size:
                break
            z, m, rho = _disk_step(p, z, rho)
    return labels, counts, decided


def _tile_pass(p: MapParams, xs: np.ndarray, ys: np.ndarray, ex, ey, max_iter: int):
    """(labels, counts, decided) of the grid of pixels xs[j] + 1j ys[i] cut
    into cells at the columns ex and rows ey of render_grid.  All the
    cells are run through _tile_steps together, each in the _rect_disk of
    its corner pixels, which holds its pixels as xs increase and ys
    decrease.  Each pixel takes its cell's label and count, label 0 and
    count max_iter in a failed cell, and decided[a, b] tells whether the
    cell of row a and column b of cells was decided whole."""
    nx, ny = xs.size, ys.size
    disks = _rect_disk(xs[ex[:-1]], xs[ex[1:] - 1], ys[ey[1:, None] - 1], ys[ey[:-1, None]])
    steps = _tile_steps(p, *(d.ravel() for d in disks), max_iter)
    del disks  # before the grid is allocated
    cell_labels, cell_counts, decided = (a.reshape(ey.size - 1, ex.size - 1) for a in steps)
    labels = np.empty((ny, nx), dtype=np.uint8)
    counts = np.empty((ny, nx), dtype=np.int32)
    for a in range(ey.size - 1):
        labels[ey[a]:ey[a + 1]] = cell_labels[a].repeat(CELL)[:nx]
        counts[ey[a]:ey[a + 1]] = cell_counts[a].repeat(CELL)[:nx]
    return labels, counts, decided


def _rect_disk(x0, x1, y0, y1):
    """A disk (z, rho) holding every float x + 1j y with x0 <= x <= x1 and
    y0 <= y <= y1, for floats or broadcasting numpy arrays: the
    rectangle's half-diagonal around its centre z, finite for finite ends,
    as each part of z halves the ends before it adds them.  That sum
    rounds by less than 2^-53 of the larger end, which the 8 (2^-53) term
    of each half-side covers, plus 2^-1074 where halving a subnormal
    rounds, which the 2^-1073 term covers; the factor 1 + 1e-12 covers the
    rounding of the half-sides and of |.|."""
    cx, cy = x0 / 2.0 + x1 / 2.0, y0 / 2.0 + y1 / 2.0
    hx, hy = (hi / 2.0 - lo / 2.0 + 8.0 * 2.0 ** -53 * np.maximum(-lo, hi) + 2.0 ** -1073
              for lo, hi in ((x0, x1), (y0, y1)))
    return cx + 1j * cy, np.hypot(hx, hy) * (1.0 + 1e-12)


def _classify_cells(p: MapParams, xs: np.ndarray, ys: np.ndarray, cells,
                    labels: np.ndarray, counts: np.ndarray, max_iter: int) -> None:
    """Classify the pixels of the failed cells of the grid of pixels
    xs[j] + 1j ys[i] into labels and counts, which hold 0 and max_iter
    there.  cells is (tops, lefts, h, wd): failed cell k holds the rows
    tops[k]:tops[k] + h and the columns lefts[k]:lefts[k] + wd, clipped to
    the grid, and the cells come in row-major order.

    The n cells are taken in order, in the fewest even batches of at most
    m = max(1, BLOCK_PIXELS // (h wd)) cells: nb = ceil(n / m) batches of
    ceil(n / nb) cells, the last holding the rest, so the 576 cells of a
    192^2 zoom are 3 batches of 64 rows, not 256 + 256 + 64 cells.  The
    pixels of a batch are classified by _classify_block together, in the
    disk of the rows of cells it spans: numpy's per-call cost is paid once
    a batch.  Each pixel is complex(xs[j], ys[i]): xs[j] + 1j ys[i] but
    for the sign of a zero part, which no step's |w| sees."""
    tops, lefts, h, wd = cells
    if not tops.size:
        return
    nx, ny = xs.size, ys.size
    nb = -(-tops.size // max(1, BLOCK_PIXELS // (h * wd)))
    batch = -(-tops.size // nb)
    size = batch * h * wd
    w, pos, scratch = np.empty(size, complex), np.empty(size, np.intp), _scratch(size)
    flat_labels, flat_counts = labels.reshape(-1), counts.reshape(-1)
    dy, dx = np.arange(h)[:, None], np.arange(wd)
    for k in range(0, tops.size, batch):
        # pixel (a, q wd + c) is row a and column c of the batch's cell q,
        # past the grid too: a row of cells gives whole rows of pixels, which
        # decide in runs and compact faster than each cell's pixels together
        t, j = tops[k:k + batch], (lefts[k:k + batch, None] + dx).reshape(-1)
        wb, idx = w[:h * j.size], pos[:h * j.size]
        pixels = wb.reshape(h, -1)
        pixels.real = xs.take(j, mode="clip")
        pixels.imag = ys.take(t + dy, mode="clip").repeat(wd, axis=1)
        np.add(t.repeat(wd) * nx + j, dy * nx, out=idx.reshape(h, -1))
        if t[-1] + h > ny or j.max() >= nx:  # some cells are clipped
            keep = ((t + dy < ny).repeat(wd, axis=1) & (j < nx)).reshape(-1)
            wb, idx = wb[keep], idx[keep]
        _classify_block(p, wb, idx, max_iter, flat_labels, flat_counts, scratch,
                        *_rect_disk(xs[0], xs[-1], ys[min(t[-1] + h, ny) - 1], ys[t[0]]))


def render_grid(p: MapParams, window: Window, resolution, max_iter: int) -> PlaneGrid:
    """Classify every pixel of a grid over the window; resolution is one
    integer side or a pair (nx, ny) of them.

    The grid is cut into cells of CELL x CELL pixels, those of the last
    row and column clipped, and the pixels of every cell that is not
    decided whole are classified by _classify_block, a batch of cells at a
    time (_classify_cells).  When the disk holding the window reaches a
    certifying radius at once (_quiet_steps), as for a window holding the
    whole set, _tile_pass decides the cells whole where it can.  When that
    disk is quiet at step 0, as for a zoom into the boundary, the tile
    pass is skipped and every cell goes to the kernel.  The work runs in
    the calling thread, and the result depends only on the arguments, not
    on the cells, the batches, the core count or the environment.
    """
    max_iter = require_count("render_grid", "max_iter", max_iter, 1, MAX_ITER)
    if not (isinstance(resolution, (tuple, list)) and len(resolution) == 2):
        resolution = (resolution, resolution)
    nx, ny = (require_count("render_grid", "resolution", side, 1, MAX_RESOLUTION)
              for side in resolution)

    xs = window.center.real + window.width * ((np.arange(nx) + 0.5) / nx - 0.5)
    ys = window.center.imag + window.height * ((np.arange(ny) + 0.5) / ny - 0.5)
    ys = ys[::-1]  # row 0 is the top of the image

    # the first pixel of each column and row of cells, and the grid's end
    ex, ey = (np.append(np.arange(0, n, CELL), n) for n in (nx, ny))
    # each pixel is xs[j] + 1j ys[i], inside the rectangle of the window's
    # corner pixels
    if _quiet_steps(p, *_rect_disk(xs[0], xs[-1], ys[-1], ys[0]), 0):
        labels = np.zeros((ny, nx), dtype=np.uint8)
        counts = np.full((ny, nx), max_iter, dtype=np.int32)
        decided = np.zeros((ey.size - 1, ex.size - 1), bool)
    else:
        labels, counts, decided = _tile_pass(p, xs, ys, ex, ey, max_iter)
    ci, cj = np.nonzero(~decided)
    cells = ey[ci], ex[cj], int(ey[1]), int(ex[1])
    del decided, ci, cj  # before the batches are allocated
    _classify_cells(p, xs, ys, cells, labels, counts, max_iter)
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
    """Binary P6 image of the grid, coloured and written max(1,
    BLOCK_PIXELS // nx) rows at a time, so the image is never held whole.

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
        step = max(1, BLOCK_PIXELS // nx)
        for i in range(0, ny, step):
            rows = slice(i, i + step)
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
