"""Benchmark worker: one process runs one workload as a closed loop.

Started by run.py as `python3 bench/worker.py <workload> <workdir>`.  The
worker imports qrdyn from the checkout's `src/`, warms up, prints `ready`,
then reads one JSON line of configuration (jobs, seconds, trace flag) from
stdin.  An empty stdin means the spawn only measured set-up time.  It
answers with one JSON line of results on stdout; render outputs go to
`<workdir>`.

Each job's latency covers only the qrdyn calls.  The speed calibration
runs between jobs and the output check right after each job, both outside
the timed region.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import qrdyn  # noqa: E402
# calls go through the module attributes, where the tracer wraps them
from qrdyn import blaschke, circle, cli, mobius, obstruct, plane, rays  # noqa: E402
from qrdyn.core import make_params  # noqa: E402
from qrdyn.errors import NoBasin  # noqa: E402

import speed  # noqa: E402
import workloads as W  # noqa: E402

# survey call sizes, chosen so that no single function takes more than about
# a third of the traced self time
LIMIT_ITER = 1500
CF_ANGLES = 1000
CF_STEPS = 60
CF_TOL = 1e-6
TREE_DEPTH = 10
SAMPLE_COUNT = 2000
CHAIN_N = 32
SERIES_N = 60

ONE_RAY = ("one_repelling", "one_parabolic")


class CheckFailed(Exception):
    """An output disagreed with the benchmark's oracle."""


def need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------- render

def render_argv(job: dict, out: str) -> list[str]:
    return ["render", f"--K={job['K']!r}", f"--theta={job['theta']!r}",
            "--window=" + ",".join(repr(x) for x in job["window"]),
            "--res", str(job["res"]), "--max-iter", str(job["max_iter"]),
            "--out", out]


class Render:
    def __init__(self, workdir: str):
        self.out = os.path.join(workdir, "render.ppm")

    def run(self, job):
        return cli.main(render_argv(job, self.out))

    def check(self, job, code, tally):
        need(code == 0, f"exit code {code}")
        need(job.get("ppm") is not None, "no recorded digest for this job")
        need(sha256(self.out) == job["ppm"], "PPM digest mismatch")
        need(sha256(self.out + ".json") == job["json"], "stats digest mismatch")


# ----------------------------------------------------------------- survey

def check_report(p, rep, expected, where):
    """Regime against the sign of K - K_theta, rays against the map."""
    if expected is not None:
        need(rep.regime.value == expected,
             f"{where}: regime {rep.regime.value}, expected {expected}")
    need(len(rep.rays) == W.RAY_COUNT[rep.regime.value],
         f"{where}: {len(rep.rays)} rays for {rep.regime.value}")
    for r in rep.rays:
        resid = abs(W.wrap(W.circle_map(p.K, p.theta, r.angle) - r.angle))
        need(resid <= 1e-8, f"{where}: fixed-ray residual {resid:.2e}")
        d = W.circle_deriv(p.K, p.theta, r.angle)
        need(abs(r.multiplier - d) <= 1e-9 * d, f"{where}: multiplier")
        if d > 1.0 + 1e-6:
            need(r.stability.value == "repelling", f"{where}: stability")
        elif d < 1.0 - 1e-6:
            need(r.stability.value == "attracting", f"{where}: stability")


def unit_iterate(K, theta, phis, steps):
    """Circle map on unit complex numbers, z -> (w/|w|)^2, w = z + mu conj z:
    a second algorithm for converged_fraction's arctan2 iteration."""
    mu = cmath.exp(2j * theta) * (K - 1.0) / (K + 1.0)
    z = np.exp(1j * np.asarray(phis))
    for _ in range(steps):
        w = z + mu * np.conj(z)
        w /= np.abs(w)
        z = w * w
    return np.angle(z)


class Survey:
    def run(self, job):
        p = make_params(job["K"], job["theta"])
        out = {"p": p, "rep": rays.fixed_rays(p)}
        found = out["rep"].rays
        if abs(p.theta) < W.HALF_PI:
            out["kt"] = rays.k_theta(abs(p.theta))
        out["J"] = rays.interval_J(p)
        out["limits"] = [circle.classify_limit(p, phi, max_iter=LIMIT_ITER)
                         for phi in job["phis"]]
        keep = [r for r in found if r.stability.value != "repelling"] or list(found)
        out["target"] = keep[0].angle
        out["phis"] = np.linspace(-math.pi, math.pi, CF_ANGLES, endpoint=False) \
            + job["phis"][0] / CF_ANGLES
        out["frac"] = circle.converged_fraction(p, out["phis"], out["target"],
                                         CF_STEPS, CF_TOL)
        out["tree"] = circle.backward_tree(p, job["phis"][1], TREE_DEPTH)
        out["jc"] = blaschke.julia_classification(p)
        try:
            out["basin"] = blaschke.immediate_basin(p)
        except NoBasin:
            out["basin"] = None
        out["sample"] = blaschke.julia_sample(p, SAMPLE_COUNT, job["seed"])
        z = complex(*job["z"])
        out["chain"] = [mobius.dilatation_chain(p, z, n) for n in range(1, CHAIN_N + 1)]
        ray = max(found, key=lambda r: W.trace_sq(p.K, r.angle))
        out["ray"] = ray
        out["series"] = mobius.dilatation_distance_series(p, ray.angle, SERIES_N)
        out["fit"] = mobius.growth_fit(p, ray.angle, 10, SERIES_N)
        out["p2"] = make_params(job["K2"], job["theta2"])
        out["verdict"] = obstruct.obstruction_report(p, out["p2"])
        return out

    def check(self, job, out, tally):
        p, rep = out["p"], out["rep"]
        K, th = p.K, p.theta
        kt_ref = W.k_theta(th)
        regime = W.expected_regime(K, th, kt_ref)
        if regime is None:
            tally["rays.ambiguous_inputs"] += 1
        try:
            check_report(p, rep, regime, "fixed_rays")
        except CheckFailed as e:
            if "regime" in str(e):
                tally["rays.wrong_regime"] += 1
            raise
        if "kt" in out:
            need(abs(out["kt"] - kt_ref) <= 1e-9 * kt_ref, "k_theta")
        J = out["J"]
        if K < 2.0:
            need(J is None, "interval_J should be None")
        else:
            eta = math.acos(math.sqrt((2.0 * K - 1.0) / (K * K - 1.0)))
            need(abs(J[0] - (th - eta)) <= 1e-12 and abs(J[1] - (th + eta)) <= 1e-12,
                 "interval_J")
        for lim in out["limits"]:
            kind = lim.outcome.value
            if kind == "undecided":
                need(lim.iterations == LIMIT_ITER, "classify_limit iterations")
                continue
            resid = abs(W.wrap(W.circle_map(K, th, lim.target) - lim.target))
            need(resid <= 1e-8, "classify_limit target is not fixed")
            need(abs(W.wrap(lim.final_angle - lim.target)) < 1e-9,
                 "classify_limit final angle")
            d = W.circle_deriv(K, th, lim.target)
            need((d > 1.0) == (kind == "landed_on_repeller") or abs(d - 1.0) < 1e-6,
                 "classify_limit outcome vs multiplier")
        ref = unit_iterate(K, th, out["phis"], CF_STEPS)
        dist = np.abs(np.mod(ref - out["target"] + np.pi, 2.0 * np.pi) - np.pi)
        need(abs(out["frac"] - float(np.mean(dist < CF_TOL))) <= 0.02,
             "converged_fraction vs unit-circle iteration")
        self.check_tree(K, th, job["phis"][1], out["tree"])
        one_ray = rep.regime.value in ONE_RAY
        need((out["jc"].kind.value == "full_circle") == one_ray, "julia_classification")
        basin = out["basin"]
        need((basin is None) == one_ray, "immediate_basin raised iff one ray")
        if basin is not None:
            need(basin.lo < basin.hi, "basin order")
            for a in (basin.lo, basin.hi):
                need(abs(W.wrap(W.circle_map(K, th, a) - a)) <= 1e-8,
                     "basin endpoint is not fixed")
        sample = out["sample"]
        need(len(sample) == SAMPLE_COUNT, "julia_sample count")
        for i in range(0, SAMPLE_COUNT - 1, 97):
            step = abs(W.wrap(W.circle_map(K, th, sample[i + 1]) - sample[i]))
            need(step <= 1e-9, "julia_sample is not a backward orbit")
        if basin is not None:
            need(not any(basin.contains(a) for a in sample), "julia_sample in basin")
        self.check_chain(p, out["chain"])
        series = out["series"]
        logk = math.log(K)
        need(abs(series[0] - logk) <= 1e-9 * max(1.0, logk), "series start")
        need(all(d <= (n + 1) * logk * (1 + 1e-9) + 1e-9 for n, d in enumerate(series)),
             "series exceeds n log K")
        T = W.trace_sq(K, out["ray"].angle)
        if T >= 4.5:
            want = math.log(1.0 / W.contraction(T))
            need(abs(out["fit"].slope - want) <= 0.01 * want,
                 f"growth slope {out['fit'].slope:.6g} vs log(1/k) {want:.6g}")
        # a different ray count, or the same direction in [0, pi/2) with a
        # different K, is an obstruction
        p2, v = out["p2"], out["verdict"].verdict.value
        same_dir = th == p2.theta and 0.0 <= th < W.HALF_PI
        r2 = job["regime2"]
        if regime is not None and r2 is not None:
            if same_dir or W.RAY_COUNT[regime] != W.RAY_COUNT[r2]:
                need(v == "obstructed", f"obstruction verdict {v}, expected obstructed")

    @staticmethod
    def check_tree(K, th, root, tree):
        angles = tree.angles
        need(1 <= len(angles) <= 2 ** TREE_DEPTH, "backward_tree size")
        need(all(a < b for a, b in zip(angles, angles[1:])), "backward_tree order")
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + 2.0 * math.pi - angles[-1])
        need(tree.max_gap == max(gaps), "backward_tree max_gap")
        # preimages come in antipodal pairs
        arr = np.asarray(angles)
        anti = np.mod(arr + 2.0 * np.pi, 2.0 * np.pi) - np.pi
        pos = np.clip(np.searchsorted(arr, anti), 1, len(arr) - 1)
        near = np.minimum(np.abs(arr[pos] - anti), np.abs(arr[pos - 1] - anti))
        need(float(np.max(near)) <= 1e-9 or len(arr) == 1, "backward_tree antipodes")
        # forward iteration returns to the root within the rounding that the
        # expanding map amplifies
        for a in angles[::max(1, len(angles) // 7)]:
            x, amp = a, 1.0
            for _ in range(TREE_DEPTH):
                amp *= max(1.0, W.circle_deriv(K, th, x))
                x = W.circle_map(K, th, x)
            tol = 64.0 * TREE_DEPTH * W.EPS * amp + 1e-12
            if tol <= 1e-3:
                need(abs(W.wrap(x - root)) <= tol, "backward_tree leaf image")

    @staticmethod
    def check_chain(p, chain):
        mu = cmath.exp(2j * p.theta) * (p.K - 1.0) / (p.K + 1.0)
        need(abs(chain[0] - mu) <= 1e-15, "dilatation_chain n=1 is mu")
        logk = math.log(p.K)
        for n, w in enumerate(chain, start=1):
            m = abs(w)
            # once the chain pins to the unit circle, rounding alone moves it
            # by a few ulps either way
            need(m <= 1.0 + 1e-12, "dilatation_chain left the disk")
            if 1.0 - m > 1e-12:
                # each chain map is an isometry moving 0 by d_h(0, mu) = log K
                need(2.0 * math.atanh(m) <= n * logk * (1 + 1e-9) + 1e-9,
                     "dilatation_chain grows faster than n log K")


# ------------------------------------------------------------------- loop

WORKLOADS = {"render-wide": Render, "render-zoom": Render, "survey": Survey}
# the speed.KERNELS entry each workload's timings are scaled by
CALIBRATION = {"render-wide": "arrays", "render-zoom": "scalar", "survey": "scalar"}


def run_jobs(wl, jobs, stop, tally, latencies, cals, kernel):
    """Closed loop: one job at a time; stop(i, elapsed) ends the loop at a
    round boundary.  The speed kernel runs between jobs and is recorded in
    `cals` as (index of the next job, seconds).  Returns jobs attempted and
    the loop's wall time."""
    clock = time.perf_counter
    t_start = clock()
    t_cal = -math.inf
    i = 0
    while not stop(i, clock() - t_start):
        if clock() - t_cal >= kernel.interval_s:
            cals.append((i, kernel.run()))
            t_cal = clock()
        job = jobs[i % len(jobs)]
        i += 1
        t0 = clock()
        try:
            out = wl.run(job)
        except Exception as exc:  # a raising job is a failed job, not a crash
            latencies.append(clock() - t0)
            tally["failed"] += 1
            tally["raised." + type(exc).__name__] += 1
            continue
        latencies.append(clock() - t0)
        try:
            wl.check(job, out, tally)
        except CheckFailed as exc:
            tally["failed"] += 1
            tally["check." + str(exc).split(":")[0][:40]] += 1
    return i, clock() - t_start


def trace_metrics(name, wl, jobs, nproc, kernel):
    """Untraced, traced and again untraced passes over the same jobs;
    per-layer metrics from the traced one."""
    import tracer as T

    n = len(jobs)

    def one_pass(tally):
        lat, cals = [], []
        wall = run_jobs(wl, jobs, lambda i, t: i >= n, tally, lat, cals, kernel)[1]
        return lat, cals, wall

    # untraced passes before and after the traced one, so that drift in
    # machine speed does not show up as tracer overhead
    first = one_pass(Counter())
    tr = T.Tracer()
    tr.hooks.update(HOOKS)
    tr.install()
    tally = Counter()
    try:
        traced = one_pass(tally)
    finally:
        tr.uninstall()
    second = one_pass(Counter())
    scaled = [sum(t / s for t, s in zip(
        p[0], speed.job_slowdowns(p[1], n, kernel.reference_s)))
              for p in (first, traced, second)]
    wall_t = traced[2]
    agg = T.summarize(tr.spans)
    c = tr.counters

    m = {}
    layer_self = 0.0
    for layer in T.LAYERS:
        rows = [a for k, a in agg.items() if k.split(".")[0] == layer]
        m[f"{layer}.calls"] = sum(a["calls"] for a in rows)
        m[f"{layer}.self_s"] = sum(a["self_s"] for a in rows)
        m[f"{layer}.failed"] = sum(a["failed"] for a in rows)
        layer_self += m[f"{layer}.self_s"]

    def self_s(fn):
        return agg.get(fn, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    for fn in ("plane.render_grid", "plane.grid_to_rgb", "plane.write_ppm",
               "plane.write_stats", "circle.converged_fraction",
               "circle.backward_tree", "circle.classify_limit",
               "mobius.dilatation_chain", "mobius.dilatation_distance_series",
               "mobius.growth_fit", "blaschke.julia_sample",
               "blaschke.immediate_basin", "rays.fixed_rays", "rays.k_theta",
               "obstruct.obstruction_report", "cli.main"):
        m[fn + ".self_s"] = self_s(fn)
    m["plane.pixel_iters"] = c.get("pixel_iters", 0)
    m["plane.ns_per_pixel_iter"] = 1e9 * ratio(self_s("plane.render_grid"),
                                              c.get("pixel_iters", 0))
    m["plane.decided_ratio"] = ratio(c.get("decided", 0), c.get("pixels", 0))
    m["plane.bytes_written"] = c.get("bytes_written", 0)
    m["plane.grid_bytes"] = c.get("grid_bytes", 0)
    m["plane.thread_speedup"] = (thread_speedup(jobs, nproc)
                                 if name == "render-zoom" else 0.0)
    m["circle.angle_steps"] = c.get("angle_steps", 0)
    m["circle.ns_per_angle_step"] = 1e9 * ratio(self_s("circle.converged_fraction"),
                                               c.get("angle_steps", 0))
    m["circle.tree_kept_ratio"] = ratio(c.get("tree_kept", 0), c.get("tree_slots", 0))
    m["circle.classify_limit.iters"] = c.get("limit_iters", 0)
    m["mobius.chain_len_total"] = c.get("chain_len", 0)
    m["blaschke.samples"] = c.get("samples", 0)
    m["rays.fixed_rays.failed"] = agg.get("rays.fixed_rays", {}).get("failed", 0)
    m["rays.wrong_regime"] = tally["rays.wrong_regime"]
    m["rays.ambiguous_inputs"] = tally["rays.ambiguous_inputs"]
    m["obstruct.inconclusive_ratio"] = ratio(c.get("inconclusive", 0),
                                             c.get("reports", 0))
    m["trace_overhead"] = 2.0 * scaled[1] / (scaled[0] + scaled[2]) - 1.0
    m["trace.wall_s"] = wall_t
    m["trace.layers_self_s"] = layer_self
    # tracer bookkeeping plus the harness's own loop and checks
    m["trace.bench_overhead_s"] = wall_t - layer_self
    m["trace.spans"] = len(tr.spans)
    return m, tally


def thread_speedup(jobs, nproc, reps=2):
    """render_grid time at QRDYN_THREADS=1 over its time at nproc threads."""
    seen, times = set(), {1: 0.0, nproc: 0.0}
    saved = os.environ.get("QRDYN_THREADS")
    try:
        for job in jobs:
            key = W.render_key(job)
            if key in seen or len(seen) >= 6:
                continue
            seen.add(key)
            p = make_params(job["K"], job["theta"])
            win = plane.Window.from_bounds(*job["window"])
            for _ in range(reps):
                for k in times:
                    os.environ["QRDYN_THREADS"] = str(k)
                    t0 = time.perf_counter()
                    plane.render_grid(p, win, job["res"], job["max_iter"])
                    times[k] += time.perf_counter() - t0
    finally:
        if saved is None:
            os.environ.pop("QRDYN_THREADS", None)
        else:
            os.environ["QRDYN_THREADS"] = saved
    return times[1] / times[nproc] if nproc != 1 else 1.0


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _hook_render_grid(tr, args, kwargs, grid):
    tr.count("pixel_iters", int(grid.counts.sum(dtype=np.int64)))
    tr.count("decided", int(np.count_nonzero(grid.labels)))
    tr.count("pixels", grid.labels.size)
    # complex grid plus uint8 labels plus int32 counts
    tr.counters["grid_bytes"] = max(tr.counters.get("grid_bytes", 0),
                                    grid.labels.size * (16 + 1 + 4))


def _hook_written(i, name):
    def hook(tr, args, kwargs, out):
        tr.count("bytes_written", os.path.getsize(_arg(args, kwargs, i, name)))
    return hook


def _hook_converged_fraction(tr, args, kwargs, out):
    tr.count("angle_steps", len(_arg(args, kwargs, 1, "phis"))
             * _arg(args, kwargs, 3, "n_iter"))


def _hook_backward_tree(tr, args, kwargs, tree):
    tr.count("tree_kept", len(tree.angles))
    tr.count("tree_slots", 2 ** _arg(args, kwargs, 2, "depth"))


def _hook_obstruction(tr, args, kwargs, v):
    tr.count("reports", 1)
    tr.count("inconclusive", int(v.verdict.value == "inconclusive"))


HOOKS = {
    "plane.render_grid": _hook_render_grid,
    "plane.write_ppm": _hook_written(1, "path"),
    "plane.write_stats": _hook_written(2, "path"),
    "circle.converged_fraction": _hook_converged_fraction,
    "circle.backward_tree": _hook_backward_tree,
    "circle.classify_limit": lambda tr, a, k, out: tr.count("limit_iters", out.iterations),
    "mobius.dilatation_chain": lambda tr, a, k, out: tr.count("chain_len", _arg(a, k, 2, "n")),
    "blaschke.julia_sample": lambda tr, a, k, out: tr.count("samples", len(out)),
    "obstruct.obstruction_report": _hook_obstruction,
}

WARMUP = {
    "render-wide": {"K": 3.0, "theta": 0.4, "window": [-1.5, 1.5, -1.5, 1.5],
                    "res": 16, "max_iter": 20},
    "survey": {"kind": "three", "K": 4.0, "theta": 0.0, "phis": [0.5, 1.0, 2.0],
               "z": [0.3, 0.4], "seed": 1, "K2": 2.5, "theta2": 0.0,
               "regime2": "three"},
}
WARMUP["render-zoom"] = WARMUP["render-wide"]


def main() -> int:
    name = sys.argv[1]
    if Path(qrdyn.__file__).resolve().parent != (ROOT / "src" / "qrdyn").resolve():
        print(f"qrdyn imported from {qrdyn.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    workdir = sys.argv[2]
    wl = WORKLOADS[name](workdir) if name.startswith("render") else WORKLOADS[name]()
    wl.run(WARMUP[name])
    print("ready", flush=True)

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    cfg = json.loads(line)
    jobs = cfg["jobs"]
    nproc = os.cpu_count() or 1
    kernel = speed.KERNELS[CALIBRATION[name]]
    result = {"env": {"python": sys.version.split()[0], "numpy": np.__version__,
                      "qrdyn_threads": os.environ.get("QRDYN_THREADS"),
                      "calibration": CALIBRATION[name]}}
    if cfg["trace"]:
        metrics, tally = trace_metrics(name, wl, jobs, nproc, kernel)
        result["metrics"] = metrics
        latencies = []
        attempted = len(jobs)
    else:
        seconds, min_jobs, round_len = cfg["seconds"], cfg["min_jobs"], cfg["round_len"]
        tally, latencies, cals = Counter(), [], []

        def stop(i, elapsed):
            return i % round_len == 0 and i >= min_jobs and elapsed >= seconds

        attempted, _ = run_jobs(wl, jobs, stop, tally, latencies, cals, kernel)
        result["cals"] = cals
    result.update({"attempted": attempted, "latencies": latencies,
                   "tally": dict(tally)})
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
