"""The benchmark's recorded render bytes, re-rendered in the regular suite.

`bench/digests.json` holds the sha256 of the PPM and stats JSON of every
render catalogue entry of `bench/workloads.py`; the benchmark counts a job
whose output differs from its digest as failed.  Re-rendering all 121
entries here (under a second) makes a change that moves one bit of a render
fail the tests, not only the benchmark; the render-wide entries of side
384 to 1024 are the ones of many row blocks (64 blocks of 16 rows at
1024^2).  Neither file is written.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from qrdyn import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402

MAX_SIDE = 1024
DIGESTS = json.loads((BENCH / "digests.json").read_text())
CATALOGUES = {"render-wide": W.wide_catalogue(), "render-zoom": W.zoom_catalogue()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(CATALOGUES))
def test_renders_match_the_benchmark_digests(tmp_path, workload):
    jobs = [job for job in CATALOGUES[workload] if job["res"] <= MAX_SIDE]
    assert jobs
    out = tmp_path / "render.ppm"
    stats = tmp_path / "render.ppm.json"
    mismatched = []
    for job in jobs:
        key = W.render_key(job)
        argv = ["render", f"--K={job['K']!r}", f"--theta={job['theta']!r}",
                "--window=" + ",".join(repr(x) for x in job["window"]),
                "--res", str(job["res"]), "--max-iter", str(job["max_iter"]),
                "--out", str(out)]
        assert cli.main(argv) == 0, key
        if [sha256(out), sha256(stats)] != DIGESTS[workload][key]:
            mismatched.append(key)
    assert not mismatched, f"{len(mismatched)} of {len(jobs)} renders differ"
