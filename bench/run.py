"""qrdyn benchmark: three seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: render-wide, render-zoom, survey (see workloads.py for why each
exists).  Run from the root of a checkout: the worker imports
qrdyn from `src/` there.

Each run generates its inputs from the seed, then spawns the worker
process SETUP_SPAWNS times and times each spawn until the worker is ready
(interpreter start, `import qrdyn`, one warm-up job); the last spawn runs
the workload as one client in a closed loop, sending the next job only
after the previous one completes, for whole rounds until `--seconds` have
passed and at least MIN_JOBS jobs are done.  Every output is checked; a
job that raises or fails its check counts as failed.  Timings are scaled
to a reference machine speed (see speed.py); the unscaled figures are
printed too.

`--trace 0` prints the end-to-end metrics.  `correct_frac` is 1 minus the
failed fraction of jobs; the failed fraction itself and its breakdown are
printed on the line before the JSON.  `--trace 1` runs a fixed number of
jobs untraced, under the span tracer and untraced again, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; `correct` is false when any
job failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_SPAWNS = 15
MIN_JOBS = 100
RUN_TIMEOUT_S = 160.0
# pool sizes (in rounds): a run cycles through its pool
POOL_ROUNDS = {"render-wide": 12, "render-zoom": 30, "survey": 30}
# jobs in a traced run; fixed, so that its counts repeat exactly per seed
TRACE_JOBS = {"render-wide": 25, "render-zoom": 100, "survey": 200}

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"),
              ("correct_frac", "ratio"))

PER_LAYER = tuple(
    [(f"{layer}.{m}", u) for layer in LAYERS
     for m, u in (("calls", "count"), ("self_s", "s"), ("failed", "count"))]
    + [("plane.render_grid.self_s", "s"), ("plane.pixel_iters", "count"),
       ("plane.ns_per_pixel_iter", "ns"), ("plane.decided_ratio", "ratio"),
       ("plane.thread_speedup", "ratio"), ("plane.grid_to_rgb.self_s", "s"),
       ("plane.write_ppm.self_s", "s"), ("plane.write_stats.self_s", "s"),
       ("plane.bytes_written", "B"), ("plane.grid_bytes", "B"),
       ("circle.converged_fraction.self_s", "s"), ("circle.angle_steps", "count"),
       ("circle.ns_per_angle_step", "ns"), ("circle.backward_tree.self_s", "s"),
       ("circle.tree_kept_ratio", "ratio"), ("circle.classify_limit.self_s", "s"),
       ("circle.classify_limit.iters", "count"),
       ("mobius.dilatation_chain.self_s", "s"), ("mobius.chain_len_total", "count"),
       ("mobius.dilatation_distance_series.self_s", "s"),
       ("mobius.growth_fit.self_s", "s"), ("blaschke.julia_sample.self_s", "s"),
       ("blaschke.samples", "count"), ("blaschke.immediate_basin.self_s", "s"),
       ("rays.fixed_rays.self_s", "s"), ("rays.k_theta.self_s", "s"),
       ("rays.fixed_rays.failed", "count"), ("rays.wrong_regime", "count"),
       ("rays.ambiguous_inputs", "count"),
       ("obstruct.obstruction_report.self_s", "s"),
       ("obstruct.inconclusive_ratio", "ratio"), ("cli.main.self_s", "s"),
       ("trace_overhead", "ratio"), ("trace.wall_s", "s"),
       ("trace.layers_self_s", "s"), ("trace.bench_overhead_s", "s"),
       ("trace.spans", "count")])


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q < 1) of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def make_jobs(name: str, seed: int, digests: dict) -> tuple[list[dict], int]:
    """The seeded job pool of a workload and its round length."""
    rounds = POOL_ROUNDS[name]
    if name == "survey":
        return W.survey_jobs(seed, rounds), sum(n for _, n in W.SURVEY_ROUND)
    if name == "render-wide":
        cat, spec = W.wide_catalogue(), W.WIDE_ROUND
    else:
        cat, spec = W.zoom_catalogue(), W.ZOOM_ROUND
    table = digests.get(name, {})
    jobs = []
    for job in W.render_jobs(cat, spec, seed, rounds):
        ppm, js = table.get(W.render_key(job), (None, None))
        jobs.append(dict(job, ppm=ppm, json=js))
    return jobs, sum(n for _, n in spec)


def cache_sizes() -> dict:
    """Cache sizes of cpu0 by level, as sysfs reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for d in sorted(base.glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def spawn(name: str, workdir: Path, env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it is ready; returns it and the set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), name, str(workdir)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker for {name} did not start (exit {proc.returncode})")
    return proc, setup


def run_worker(name: str, cfg: dict, spawns: int, workdir: Path) -> tuple[dict, list[float]]:
    nproc = os.cpu_count() or 1
    env = dict(os.environ, QRDYN_THREADS=str(nproc), PYTHONHASHSEED="0")
    setups, cals = [], []
    for _ in range(spawns - 1):
        cals.append(speed.scalar())
        proc, t = spawn(name, workdir, env)
        setups.append(t)
        proc.communicate("", timeout=30)
    cals.append(speed.scalar())
    proc, t = spawn(name, workdir, env)
    setups.append(t)
    try:
        out, _ = proc.communicate(json.dumps(cfg) + "\n", timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), [
        t / f for t, f in zip(setups, speed.slowdowns(
            cals, speed.KERNELS["scalar"].reference_s))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOL_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qrdyn" / "__init__.py").is_file():
        print(f"no qrdyn sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    digests = json.loads((HERE / "digests.json").read_text())
    jobs, round_len = make_jobs(args.workload, args.seed, digests)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            cfg = {"jobs": jobs[:TRACE_JOBS[args.workload]], "trace": True}
            res, setups = run_worker(args.workload, cfg, 1, workdir)
        else:
            cfg = {"jobs": jobs, "trace": False, "seconds": args.seconds,
                   "min_jobs": MIN_JOBS, "round_len": round_len}
            res, setups = run_worker(args.workload, cfg, SETUP_SPAWNS, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    tally = res["tally"]
    attempted = res["attempted"]
    failed = tally.get("failed", 0)
    env = dict(res["env"], nproc=os.cpu_count(), caches=cache_sizes())
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "tally": tally}, sort_keys=True))

    if args.trace:
        metrics = {n: {"value": res["metrics"][n], "unit": u} for n, u in PER_LAYER}
    else:
        raw = res["latencies"]
        ref = speed.KERNELS[res["env"]["calibration"]].reference_s
        lat = [t / f for t, f in zip(
            raw, speed.job_slowdowns(res["cals"], len(raw), ref))]
        ms = [1e3 * x for x in lat]
        values = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": attempted / sum(lat),
            "job_p50_ms": percentile(ms, 0.5),
            "job_p90_ms": percentile(ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "correct_frac": 1.0 - failed / attempted,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        print(f"{args.workload}: unscaled jobs_per_s {attempted / sum(raw):.6g}, "
              f"job_p50_ms {1e3 * percentile(raw, 0.5):.6g}, "
              f"job_p90_ms {1e3 * percentile(raw, 0.9):.6g}; "
              f"mean slowdown {sum(raw) / sum(lat):.3f}")
        print(f"{args.workload}: {attempted} jobs, {beyond(attempted, 0.9)} beyond p90, "
              f"failed_frac {failed / attempted:.4f} "
              f"(rays.wrong_regime {tally.get('rays.wrong_regime', 0)}; "
              f"rays.ambiguous_inputs {tally.get('rays.ambiguous_inputs', 0)})")
    for n, m in metrics.items():
        print(f"  {n:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
