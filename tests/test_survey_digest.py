"""The survey workload's outputs, pinned bit for bit in the regular suite.

For the first 100 jobs of `bench/workloads.survey_jobs(1, 30)` this re-runs
the survey's calls, in the survey's order and at its call sizes, and hashes
the reprs of their outputs: one sha256 per job.  A float's repr round-trips,
so a change that moves one bit of a report, a chain value or a distance
fails here.  `converged_fraction` is left out: its last bits are not pinned,
and tests/test_kernel_references.py checks it against a reference.

Regenerate `tests/survey_digests.json` only from a commit whose outputs are
known to be right:

    PYTHONPATH=src python tests/test_survey_digest.py --record
"""

import hashlib
import json
import math
import sys
from pathlib import Path

from qrdyn import blaschke, circle, mobius, obstruct, rays
from qrdyn.core import make_params

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "survey_digests.json"
JOBS = 100
# the survey's call sizes (bench/worker.py)
LIMIT_ITER = 1500
TREE_DEPTH = 10
SAMPLE_COUNT = 2000
CHAIN_N = 32
SERIES_N = 60


def job_digest(job: dict) -> str:
    p = make_params(job["K"], job["theta"])
    rep = rays.fixed_rays(p)
    kt = rays.k_theta(abs(p.theta)) if abs(p.theta) < math.pi / 2 else None
    limits = [circle.classify_limit(p, phi, max_iter=LIMIT_ITER)
              for phi in job["phis"]]
    tree = circle.backward_tree(p, job["phis"][1], TREE_DEPTH)
    sample = blaschke.julia_sample(p, SAMPLE_COUNT, job["seed"])
    z = complex(*job["z"])
    chain = [mobius.dilatation_chain(p, z, n) for n in range(1, CHAIN_N + 1)]
    ray = max(rep.rays, key=lambda r: W.trace_sq(p.K, r.angle))
    series = mobius.dilatation_distance_series(p, ray.angle, SERIES_N)
    fit = mobius.growth_fit(p, ray.angle, 10, SERIES_N)
    verdict = obstruct.obstruction_report(p, make_params(job["K2"], job["theta2"]))
    outputs = (rep, kt, limits, tree, sample, chain, series, fit, verdict)
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def survey_digests() -> list[str]:
    return [job_digest(job) for job in W.survey_jobs(1, 30)[:JOBS]]


def test_survey_outputs_match_the_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = survey_digests()
    assert len(want) == JOBS
    differ = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not differ, f"{len(differ)} of {JOBS} survey jobs differ: {differ[:10]}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    DIGESTS.write_text(json.dumps(survey_digests(), indent=0) + "\n")
