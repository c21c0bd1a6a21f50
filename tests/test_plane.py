import cmath
import hashlib
import json
import math
import os
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qrdyn import plane
from qrdyn.core import (MapParams, arg_h, circle_dist, eval_H, make_params,
                        radial_stretch)
from qrdyn.errors import InvalidParameter, ResourceLimit
from qrdyn.plane import (MAX_RESOLUTION, PlaneGrid, PointClass, R_ESCAPE, Window,
                         _classify_block, _palette, _rewrite, _scratch,
                         classify_point, r_attract, radial_fixed_point,
                         render_grid, write_ppm, write_stats)
from qrdyn.rays import fixed_rays, k_theta

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


def test_thresholds_are_absorbing():
    # one H step from the threshold stays past it, by the distortion bounds
    rng = random.Random(41)
    for _ in range(200):
        p = make_params(1.0 + 10 ** rng.uniform(-2, 1),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        phi = rng.uniform(-math.pi, math.pi)
        z = (R_ESCAPE + 1e-9) * cmath.exp(1j * phi)
        assert abs(eval_H(p, z)) > R_ESCAPE
        w = (r_attract(p) * 0.999999) * cmath.exp(1j * phi)
        assert abs(eval_H(p, w)) < r_attract(p)


def test_classify_point_examples():
    p = make_params(2.0, 0.0)
    assert classify_point(p, 3.0 + 0j, 10).label is PointClass.ESCAPED
    assert classify_point(p, 0.0 + 0j, 10).label is PointClass.ATTRACTED
    # radial fixed point at 1/4 on the ray 0 never resolves
    assert classify_point(p, 0.25 + 0j, 5000).label is PointClass.UNDECIDED
    with pytest.raises(InvalidParameter):
        classify_point(p, 1.0 + 0j, 0)
    # the counts are int32
    with pytest.raises(ResourceLimit,
                       match="max_iter 2147483648 exceeds limit 2147483647"):
        classify_point(p, 1.0 + 0j, 2 ** 31)
    # a start that is not finite has no orbit to classify
    for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
              complex(0.5, -math.inf), math.nan, math.inf):
        with pytest.raises(InvalidParameter, match=re.escape(f"z={z!r}")):
            classify_point(p, z, 10)


def test_classify_point_label_stable_under_more_iterations():
    p = make_params(3.0, 0.7)
    rng = random.Random(42)
    for _ in range(50):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        a = classify_point(p, z, 50)
        b = classify_point(p, z, 500)
        if a.label is not PointClass.UNDECIDED:
            assert b.label is a.label
            assert b.n == a.n


def test_radial_fixed_point():
    p = make_params(2.0, 0.0)
    r = radial_fixed_point(p, 0.0)
    assert r == pytest.approx(0.25)
    pv = make_params(3.0, math.pi / 2)
    assert radial_fixed_point(pv, 0.0) == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        radial_fixed_point(p, 0.9)  # not a fixed angle
    for phi in (math.nan, math.inf):
        with pytest.raises(InvalidParameter, match=f"phi={phi}"):
            radial_fixed_point(p, phi)


def test_radial_fixed_point_residual_all_rays():
    rng = random.Random(43)
    for _ in range(50):
        p = make_params(1.0 + 10 ** rng.uniform(-2, 1),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        for ray in fixed_rays(p).rays:
            r = radial_fixed_point(p, ray.angle)
            z = r * cmath.exp(1j * ray.angle)
            assert abs(eval_H(p, z) - z) < 1e-12


def test_labels_flip_at_radial_fixed_point():
    p = make_params(4.0, 0.0)
    for ray in fixed_rays(p).rays:
        r = radial_fixed_point(p, ray.angle)
        below = (1 - 1e-6) * r * cmath.exp(1j * ray.angle)
        above = (1 + 1e-6) * r * cmath.exp(1j * ray.angle)
        assert classify_point(p, below, 2000).label is PointClass.ATTRACTED
        assert classify_point(p, above, 2000).label is PointClass.ESCAPED


def test_invariance_under_polar_preimage():
    # a preimage of z on the same ray branch: r' = sqrt(r/alpha) at a
    # preimage angle; its label matches z's
    p = make_params(2.5, 0.3)
    rng = random.Random(44)
    for _ in range(50):
        r = 10 ** rng.uniform(-1.5, 0.5)
        psi = rng.uniform(-math.pi, math.pi)
        z = r * cmath.exp(1j * psi)
        lab = classify_point(p, z, 400).label
        if lab is PointClass.UNDECIDED:
            continue
        # invert the polar form: find phi with circle_map(phi) = psi
        from circle_inverse import circle_preimages
        phi = circle_preimages(p, psi)[0]
        rp = math.sqrt(r / radial_stretch(p, phi))
        w = rp * cmath.exp(1j * phi)
        assert abs(eval_H(p, w) - z) < 1e-9 * max(1.0, r)
        assert classify_point(p, w, 401).label is lab


def test_render_extreme_windows(tmp_path):
    p = make_params(2.0, 0.0)
    far = render_grid(p, Window(10 + 10j, 1.0, 1.0), 32, 50)
    assert far.stats()["escaped_fraction"] == 1.0
    tiny = render_grid(p, Window(0j, 0.01, 0.01), 32, 50)
    assert tiny.stats()["attracted_fraction"] == 1.0


def test_render_unit_window_statistics():
    p = make_params(4.0, 0.0)
    g = render_grid(p, Window(0j, 2.0, 2.0), 128, 100)
    s = g.stats()
    assert 0 < s["escaped_fraction"] < 1
    assert 0 < s["attracted_fraction"] < 1
    assert s["undecided_fraction"] < 0.05


def test_render_undecided_monotone_in_budget():
    p = make_params(4.0, 0.0)
    w = Window(0j, 2.0, 2.0)
    lo = render_grid(p, w, 64, 10).stats()["undecided_fraction"]
    hi = render_grid(p, w, 64, 200).stats()["undecided_fraction"]
    assert hi <= lo


def test_render_matches_scalar_classification():
    p = make_params(3.0, -0.4)
    w = Window(0.2 + 0.1j, 1.5, 1.0)
    g = render_grid(p, w, (16, 8), 60)
    xs = w.center.real + w.width * ((np.arange(16) + 0.5) / 16 - 0.5)
    ys = w.center.imag + w.height * ((np.arange(8) + 0.5) / 8 - 0.5)
    for i in range(8):
        for j in range(16):
            z = complex(xs[j], ys[::-1][i])
            res = classify_point(p, z, 60)
            want = {PointClass.UNDECIDED: 0, PointClass.ESCAPED: 1,
                    PointClass.ATTRACTED: 2}[res.label]
            assert g.labels[i, j] == want
            if want:
                assert g.counts[i, j] == res.n


def test_render_resolution_limit():
    p = make_params(2.0, 0.0)
    with pytest.raises(ResourceLimit):
        render_grid(p, Window(0j, 1.0, 1.0), 9000, 10)
    with pytest.raises(ResourceLimit,
                       match="max_iter 2147483648 exceeds limit 2147483647"):
        render_grid(p, Window(0j, 1.0, 1.0), 4, 2 ** 31)


@pytest.mark.parametrize("resolution", [2.5, (4.0, 4), (4, 3.5), "4", (4,),
                                        (4, 4, 4), None])
def test_render_rejects_a_resolution_that_is_not_integers(resolution):
    with pytest.raises(InvalidParameter,
                       match="render_grid needs an integer resolution"):
        render_grid(make_params(2.0, 0.3), Window(0j, 1.0, 1.0), resolution, 10)


@pytest.mark.parametrize("resolution", [np.int64(4), (np.int32(4), 3),
                                        [4, np.uint8(3)]])
def test_render_takes_numpy_integer_sides(tmp_path, resolution):
    p = make_params(2.0, 0.3)
    g = render_grid(p, Window(0j, 1.0, 1.0), resolution, 10)
    assert all(type(side) is int for side in g.resolution)
    write_stats(g, p, str(tmp_path / "stats.json"))
    want = (4, 4) if np.ndim(resolution) == 0 else (4, 3)
    assert json.loads((tmp_path / "stats.json").read_text())["resolution"] \
        == list(want)


def test_ppm_and_stats_output(tmp_path):
    p = make_params(4.0, 0.0)
    g = render_grid(p, Window(0j, 2.0, 2.0), (20, 10), 50)
    ppm = tmp_path / "out.ppm"
    write_ppm(g, str(ppm))
    data = ppm.read_bytes()
    assert data.startswith(b"P6\n20 10\n255\n")
    assert len(data) == len(b"P6\n20 10\n255\n") + 20 * 10 * 3
    stats = tmp_path / "out.json"
    write_stats(g, p, str(stats))
    payload = json.loads(stats.read_text())
    assert payload["escape_radius"] == 2.0
    assert payload["attract_radius"] == pytest.approx(1.0 / 32.0)
    assert payload["pixels"] == 200


def test_window_validation():
    # a window built directly is checked as from_bounds checks its bounds
    nan, inf = math.nan, math.inf
    for center, width, height in [(complex(nan, 0.0), 1.0, 1.0),
                                  (complex(0.0, inf), 1.0, 1.0),
                                  (0j, -1.0, inf), (0j, 0.0, 1.0), (0j, 1.0, -0.0),
                                  (0j, nan, 1.0), (0j, 1.0, inf)]:
        named = re.escape(f"center={center!r}, width={width!r}, height={height!r}")
        with pytest.raises(InvalidParameter, match=named):
            Window(center, width, height)
    assert Window(1e300 + 0j, 5e-324, 1e300).width == 5e-324


def test_window_from_bounds_validation():
    # empty, non-finite, and finite bounds whose size or centre overflows
    for bounds in [(1.0, -1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0),
                   (0.0, 1.0, 1.0, 1.0), (-math.inf, math.inf, -1.0, 1.0),
                   (0.0, 1.0, -1.0, math.inf), (math.nan, 1.0, 0.0, 1.0),
                   (-1.7e308, 1.7e308, 0.0, 1.0), (0.0, 1.0, 1e308, 1.7e308)]:
        named = re.escape(f"xmin={bounds[0]!r}, xmax={bounds[1]!r}")
        with pytest.raises(InvalidParameter, match=named):
            Window.from_bounds(*bounds)


# A 128x128 deep-zoom window (half-width 1.2e-14) straddling the escape/basin
# boundary at a repelling radial fixed point, where pixels a few ulps apart
# follow the rounding of each step, so a change to one pixel's arithmetic
# changes labels.  eval_H on 16384 or more complex128 elements rounds the last
# bit of `mu * conj(w)` differently (numpy 2.4 reuses its temporaries in
# place); the kernel makes no temporaries, so no block layout changes a pixel
# (test_render_is_independent_of_the_block_layout).
ZOOM = (2.8100058980732268, 0.4202149038131058,
        (0.40743453970116605, 0.4074345397011908,
         -0.4570356957848027, -0.45703569578477793), (128, 128), 77)

# sha256 of the write_ppm and write_stats output.  The digests hold for the
# numpy they were recorded with (2.4 on x86-64); another numpy build may round
# the last bit differently and change them.
GOLDEN = [
    ((4.0, 0.3, (-1.0, 1.0, -1.0, 1.0), (64, 64), 60),
     "fbe58c9df7bfbfcf6cf3b254f8bdc10453e4b3ec004f4052310d4042eaffc9e7",
     "c93bf932887a1c20a1c7ac13d00b061d94711f03f33e6c496d2ff08acf990e60"),
    ((3.0, -0.4, (-0.55, 0.95, -0.4, 0.6), (96, 64), 80),
     "7d59e9b6fbf1721b8e7cf23c3f37b97094d3d567ce832e220179ded491c25f0b",
     "3d1e2c02c83eeaa9e4a2bb41df58e9e6ffc54ed0ad48a5fa95f34aeaa952141b"),
    (ZOOM,
     "ebdc8f4afd8cfdeb79f213dcfbe314d5e153092c861a971eacf81a9083d03d37",
     "9768da7d82dbdc2c2d6e20348580e4cbc394773819205902945c8450994cff85"),
    # rows of the widest side: blocks of 2 + 1 rows
    ((4.0, 0.3, (-1.5, 1.5, -0.01, 0.01), (8192, 3), 10),
     "ccabc2b40e367b7e1d7dca8c1f52d401f49b42c1280daa785363aef3de0e8f78",
     "ee9d9dbdfca002d82235b10258eb8b1f7a9498c54c336e359e71bb601573c1d9"),
]


@pytest.mark.parametrize("case,ppm_sha,stats_sha", GOLDEN,
                         ids=["unit-disk", "off-centre", "deep-zoom", "wide"])
def test_render_golden_digests(tmp_path, case, ppm_sha, stats_sha):
    _, _, ppm, stats = render_outputs(case, tmp_path)
    assert hashlib.sha256(ppm).hexdigest() == ppm_sha
    assert hashlib.sha256(stats).hexdigest() == stats_sha


def render_outputs(case, path):
    """(labels, counts, PPM bytes, stats bytes) of a (K, theta, bounds,
    resolution, max_iter) case."""
    K, theta, bounds, res, max_iter = case
    p = make_params(K, theta)
    g = render_grid(p, Window.from_bounds(*bounds), res, max_iter)
    ppm, stats = path / "out.ppm", path / "out.json"
    write_ppm(g, str(ppm))
    write_stats(g, p, str(stats))
    return (g.labels.tobytes(), g.counts.tobytes(), ppm.read_bytes(),
            stats.read_bytes())


def classify_block(p, z, max_iter):
    """_classify_block on fresh arrays of z's shape: (labels, counts).  Its
    disk, of infinite radius, holds every point and certifies no step."""
    labels = np.zeros(z.shape, dtype=np.uint8)
    counts = np.full(z.shape, max_iter, dtype=np.int32)
    w = np.array(z, dtype=complex).ravel()
    _classify_block(p, w, np.arange(w.size), max_iter, labels.reshape(-1),
                    counts.reshape(-1), _scratch(w.size), 0j, math.inf)
    return labels, counts


def test_render_grid_matches_row_by_row_kernel():
    # the block layout must not change a pixel: each row on its own stays
    # far below the size where numpy's rounding changes
    K, theta, bounds, (nx, ny), max_iter = ZOOM
    p = make_params(K, theta)
    w = Window.from_bounds(*bounds)
    g = render_grid(p, w, (nx, ny), max_iter)
    xs = w.center.real + w.width * ((np.arange(nx) + 0.5) / nx - 0.5)
    ys = w.center.imag + w.height * ((np.arange(ny) + 0.5) / ny - 0.5)
    for i, y in enumerate(ys[::-1]):
        labels, counts = classify_block(p, xs + 1j * y, max_iter)
        assert np.array_equal(g.labels[i], labels), f"row {i}"
        assert np.array_equal(g.counts[i], counts), f"row {i}"


BLOCK_LAYOUT_CASES = {
    "deep-zoom": ZOOM,
    "off-centre": GOLDEN[1][0],
    "whole-set": GOLDEN[0][0],
    "one-column": ZOOM[:3] + ((1, 2000), ZOOM[4]),
    "one-row": ZOOM[:3] + ((MAX_RESOLUTION, 1), ZOOM[4]),
}


@pytest.mark.parametrize("name", sorted(BLOCK_LAYOUT_CASES))
def test_render_is_independent_of_the_block_layout(tmp_path, monkeypatch, name):
    # one row a block, the earlier and the current block size, and the whole
    # grid as one block give the same labels, counts and output bytes; so
    # do batches of failed tiles of these sizes on the whole-set window
    case = BLOCK_LAYOUT_CASES[name]
    nx, ny = case[3]
    outputs = {}
    for block_pixels in (nx, 8192, 16384, nx * ny):
        monkeypatch.setattr(plane, "BLOCK_PIXELS", block_pixels)
        monkeypatch.setattr(plane, "BATCH_PIXELS", block_pixels)
        outputs[block_pixels] = render_outputs(case, tmp_path)
    first = outputs[nx]
    assert all(out == first for out in outputs.values()), \
        [b for b, out in outputs.items() if out != first]


@pytest.mark.parametrize("block_pixels", [1, 7, 96, 8192, 16384, 16385, 1 << 26])
def test_row_blocks_are_the_fewest_even_blocks(monkeypatch, block_pixels):
    monkeypatch.setattr(plane, "BLOCK_PIXELS", block_pixels)
    rng = random.Random(96)
    shapes = [(1, 1), (1, MAX_RESOLUTION), (MAX_RESOLUTION, 1), (96, 96),
              (128, 128), (160, 160), (192, 192), (100, 165), (384, 384),
              (1024, 1024), (8192, 3), (3, 17)]
    shapes += [(rng.randint(1, 3000), rng.randint(1, 3000)) for _ in range(40)]
    for nx, ny in shapes:
        rows = [range(ny)[s] for s in plane._row_blocks(nx, ny)]
        assert [i for r in rows for i in r] == list(range(ny)), (nx, ny)
        assert len(rows) == -(-ny // max(1, block_pixels // nx)), (nx, ny)
        assert all(nx * len(r) <= max(block_pixels, nx) for r in rows), (nx, ny)
        height = -(-ny // len(rows))
        assert all(len(r) == height for r in rows[:-1]), (nx, ny)
        assert 0 < len(rows[-1]) <= height, (nx, ny)


def mirror(p):
    """H_{K,-theta}, whose value at conj z is conj H_{K,theta}(z) in floats
    too.  Built directly, as make_params(K, -theta) may change the low bits
    of a negative theta."""
    return MapParams(K=p.K, theta=-p.theta, mu=p.mu.conjugate())


@pytest.mark.parametrize("catalogue", ["wide", "zoom"])
def test_mirrored_render_is_the_row_flipped_render(catalogue):
    # conjugation and negation are exact, so the mirrored window under the
    # mirrored map gives the row-flipped labels and counts; a row flip moves
    # pixels across block edges, so this also pins block independence
    jobs = getattr(workloads, f"{catalogue}_catalogue")()
    assert jobs
    for job in jobs:
        p = make_params(job["K"], job["theta"])
        xmin, xmax, ymin, ymax = job["window"]
        res, max_iter = job["res"], job["max_iter"]
        g = render_grid(p, Window.from_bounds(xmin, xmax, ymin, ymax), res, max_iter)
        m = render_grid(mirror(p), Window.from_bounds(xmin, xmax, -ymax, -ymin),
                        res, max_iter)
        key = workloads.render_key(job)
        assert np.array_equal(m.labels, g.labels[::-1]), key
        assert np.array_equal(m.counts, g.counts[::-1]), key


def seeded_maps(rng, n):
    """Maps in all four regimes: fixed ones and n seeded ones."""
    maps = [make_params(1.5, 0.3), make_params(2.0, 0.0),
            make_params(k_theta(0.5), 0.5), make_params(4.0, 0.1)]
    maps += [make_params(1.0 + 10 ** rng.uniform(-1.5, 1.5),
                         rng.uniform(-math.pi / 2, math.pi / 2))
             for _ in range(n)]
    assert len({fixed_rays(p).regime for p in maps}) == 4
    return maps


def boundary_points(p, rng):
    """Seeded points, some within 1e-12 of the radial fixed points and of
    both certifying radii."""
    points = [10 ** rng.uniform(-3, 0.5)
              * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
              for _ in range(60)]
    for ray in fixed_rays(p).rays:
        r = radial_fixed_point(p, ray.angle)
        points += [(r + rng.uniform(-1e-12, 1e-12)) * cmath.exp(1j * ray.angle)
                   for _ in range(10)]
    for rad in (R_ESCAPE, r_attract(p)):
        points += [rad * (1.0 + rng.uniform(-1e-12, 1e-12))
                   * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                   for _ in range(10)]
    return points


def test_classify_point_is_exactly_mirrored():
    rng = random.Random(97)
    for p in seeded_maps(rng, 8):
        q = mirror(p)
        for z in boundary_points(p, rng):
            assert classify_point(q, z.conjugate(), 300) == \
                classify_point(p, z, 300), (p, z)


def test_fixed_rays_mirror():
    # the same regime, with every angle negated to within 1e-15
    rng = random.Random(98)
    maps = seeded_maps(rng, 600)
    # near the bifurcation, on both sides of K_theta = K_{-theta}
    for _ in range(100):
        t = rng.uniform(0.0, 1.5)
        maps.append(make_params(k_theta(t) * (1.0 + rng.uniform(-1e-9, 1e-9)),
                                rng.choice((-t, t))))
    for p in maps:
        a, b = fixed_rays(p), fixed_rays(mirror(p))
        assert b.regime is a.regime, p
        assert len(b.rays) == len(a.rays), p
        for ray in a.rays:
            assert min(circle_dist(r.angle, -ray.angle) for r in b.rays) <= 1e-15, p


def test_classify_block_keeps_shape():
    p = make_params(4.0, 0.3)
    rng = np.random.default_rng(45)
    for shape in [(7,), (3, 5), (1,), (1, 1)]:
        z = rng.uniform(-1.5, 1.5, shape) + 1j * rng.uniform(-1.5, 1.5, shape)
        labels, counts = classify_block(p, z, 60)
        assert labels.shape == counts.shape == shape
        assert labels.dtype == np.uint8 and counts.dtype == np.int32
        for zi, lab, cnt in zip(z.ravel(), labels.ravel(), counts.ravel()):
            res = classify_point(p, complex(zi), 60)
            assert lab == {PointClass.UNDECIDED: 0, PointClass.ESCAPED: 1,
                           PointClass.ATTRACTED: 2}[res.label]
            assert cnt == res.n


def masked_hsv_rgb(grid):
    """The image's colours as they were before the palette: each computed
    per pixel under a label mask.  The reference for the palette lookup."""
    ny, nx = grid.labels.shape
    rgb = np.zeros((ny, nx, 3), dtype=np.uint8)

    esc = grid.labels == 1
    if esc.any():
        hue = np.log2(grid.counts[esc] + 1.0) / math.log2(grid.max_iter + 2.0)
        h6 = (hue % 1.0) * 6.0
        i = h6.astype(int) % 6
        f = h6 - np.floor(h6)
        v = np.full_like(f, 255.0)
        q = 255.0 * (1.0 - f)
        t = 255.0 * f
        r = np.choose(i, [v, q, 0 * v, 0 * v, t, v])
        g = np.choose(i, [t, v, v, q, 0 * v, 0 * v])
        b = np.choose(i, [0 * v, 0 * v, t, v, v, q])
        rgb[esc] = np.stack([r, g, b], axis=-1).astype(np.uint8)

    att = grid.labels == 2
    if att.any():
        shade = 255.0 - 175.0 * grid.counts[att] / max(1, grid.max_iter)
        s = np.clip(shade, 60.0, 255.0).astype(np.uint8)
        rgb[att] = np.stack([s, s, s], axis=-1)
    return rgb


def _synthetic_grid(labels, counts, max_iter):
    ny, nx = labels.shape
    return PlaneGrid(window=Window(0j, 1.0, 1.0), resolution=(nx, ny),
                     labels=labels.astype(np.uint8),
                     counts=counts.astype(np.int32), max_iter=max_iter)


def ppm_pixels(grid, path):
    """The pixels write_ppm writes for the grid, as an (ny, nx, 3) array."""
    write_ppm(grid, str(path))
    ny, nx = grid.labels.shape
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    data = path.read_bytes()
    assert data.startswith(header)
    return np.frombuffer(data[len(header):], dtype=np.uint8).reshape(ny, nx, 3)


PALETTE_MAX_ITERS = [1, 2, 7, 22, 50, 77, 100, 200, 999, 3000]


@pytest.mark.parametrize("max_iter", PALETTE_MAX_ITERS)
def test_palette_equals_masked_hsv_colouring_for_every_size(max_iter):
    # the palette's rows, for each largest count c, are the colours the
    # masked per-pixel colouring gives the counts 0 .. c of each label,
    # bit for bit: numpy may round an array of one length differently
    for c in range(min(max_iter, 300) + 1):
        labels, counts = np.meshgrid(np.arange(3), np.arange(c + 1), indexing="ij")
        want = masked_hsv_rgb(_synthetic_grid(labels, counts, max_iter))
        assert np.array_equal(_palette(max_iter, c), want.reshape(-1, 3)), c


@pytest.mark.parametrize("max_iter", PALETTE_MAX_ITERS)
def test_palette_matches_masked_hsv_colouring(tmp_path, max_iter):
    out = tmp_path / "out.ppm"
    # every (label, count) pair, in order and shuffled
    labels, counts = np.meshgrid(np.arange(3), np.arange(max_iter + 1),
                                 indexing="ij")
    g = _synthetic_grid(labels, counts, max_iter)
    assert np.array_equal(ppm_pixels(g, out), masked_hsv_rgb(g))
    rng = np.random.default_rng(max_iter)
    perm = rng.permutation(labels.size)
    g = _synthetic_grid(labels.ravel()[perm].reshape(-1, 3),
                        counts.ravel()[perm].reshape(-1, 3), max_iter)
    assert np.array_equal(ppm_pixels(g, out), masked_hsv_rgb(g))
    # counts that stop short of max_iter size a smaller palette
    cap = int(rng.integers(0, max_iter + 1))
    shape = (5, 9)
    g = _synthetic_grid(rng.integers(0, 3, shape),
                        rng.integers(0, cap + 1, shape), max_iter)
    assert np.array_equal(ppm_pixels(g, out), masked_hsv_rgb(g))


def test_write_ppm_holds_one_block(tmp_path):
    # the image is coloured and written one block of rows at a time; held
    # whole, a 1024^2 image took 11 MiB: an intp row index per pixel and
    # its RGB.  numpy reports its buffers to tracemalloc.
    rng = np.random.default_rng(47)
    shape = (1024, 1024)
    g = _synthetic_grid(rng.integers(0, 3, shape), rng.integers(0, 201, shape), 200)
    tracemalloc.start()
    try:
        write_ppm(g, str(tmp_path / "out.ppm"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_render_grid_holds_one_block():
    # a whole-set window goes through the tile pass, and the pixels of the
    # failed tiles are gathered and classified one batch at a time, beside
    # the 5 MiB grid (1 M uint8 labels and int32 counts): a whole-image mask
    # would add 1 MiB, an intp position or code array 8 MiB.  This peaks at
    # 6.31 MiB, and the row blocks, on this window, at 6.34 MiB.
    p = make_params(3.0, 0.4)
    window = Window(0j, 3.0, 3.0)
    render_grid(p, window, 64, 200)
    tracemalloc.start()
    try:
        g = render_grid(p, window, 1024, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.labels.nbytes + g.counts.nbytes == 5 << 20
    assert peak <= (5 << 20) + (3 << 19)


def test_rewrite_leaves_exactly_the_new_bytes(tmp_path):
    out = tmp_path / "out"
    out.write_bytes(b"x" * 1000)
    with _rewrite(str(out)) as f:
        f.write(b"short")
    assert out.read_bytes() == b"short"
    with _rewrite(str(out)) as f:  # a longer output grows the file
        f.write(b"y" * 1500)
    assert out.read_bytes() == b"y" * 1500


def test_rewrite_writes_through_links_as_open_wb_does(tmp_path):
    target = tmp_path / "target"
    target.write_bytes(b"old old old")
    sym, hard = tmp_path / "sym", tmp_path / "hard"
    sym.symlink_to(target)
    os.link(target, hard)
    with _rewrite(str(sym)) as f:
        f.write(b"new")
    assert sym.is_symlink() and target.read_bytes() == b"new"
    with _rewrite(str(hard)) as f:
        f.write(b"newer")
    assert hard.read_bytes() == target.read_bytes() == b"newer"
    assert os.path.samefile(hard, target)


def test_rewrite_leaves_a_device_untruncated():
    # ftruncate fails on a character device, so this only passes if
    # _rewrite skips it there
    with _rewrite(os.devnull) as f:
        f.write(b"discarded")
    assert not os.path.isfile(os.devnull)


def test_rewrite_cuts_at_the_bytes_written_on_an_exception(tmp_path):
    out = tmp_path / "out"
    out.write_bytes(b"o" * 100)
    with pytest.raises(RuntimeError, match="stopped"):
        with _rewrite(str(out)) as f:
            f.write(b"new")
            raise RuntimeError("stopped")
    assert out.read_bytes() == b"new"


def test_rewrite_creates_files_with_the_umask_applied(tmp_path):
    out = tmp_path / "new"
    old = os.umask(0o027)
    try:
        with _rewrite(str(out)) as f:
            f.write(b"made")
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~0o027
    assert out.read_bytes() == b"made"


def test_render_outputs_over_longer_files(tmp_path):
    # a shorter render over a longer one leaves only the new bytes
    K, theta, bounds, res, max_iter = GOLDEN[0][0]
    p = make_params(K, theta)
    g = render_grid(p, Window.from_bounds(*bounds), res, max_iter)
    ppm, stats = tmp_path / "out.ppm", tmp_path / "out.json"
    ppm.write_bytes(b"\xff" * 100_000)
    stats.write_bytes(b"{" * 10_000)
    write_ppm(g, str(ppm))
    write_stats(g, p, str(stats))
    assert hashlib.sha256(ppm.read_bytes()).hexdigest() == GOLDEN[0][1]
    assert hashlib.sha256(stats.read_bytes()).hexdigest() == GOLDEN[0][2]


def test_classify_point_is_exactly_even():
    # H(-z) = H(z) in floating point: negation is exact, h(-z) = -h(z) op
    # for op, and a square forgets the sign.  So z and -z share the label
    # and the count, near the repelling radial fixed points and both
    # certifying radii too, where a rounding difference would show
    rng = random.Random(83)
    for p in seeded_maps(rng, 8):
        for z in boundary_points(p, rng):
            assert classify_point(p, -z, 300) == classify_point(p, z, 300), z
