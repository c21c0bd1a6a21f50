"""Machine-speed calibration for timings taken on a shared host.

On a shared host the CPU runs in phases: neighbours on the same cores
slow every instruction by up to about 2x, for seconds to minutes, and
CPU time slows with wall time, so the slowdown is not steal time.  A run
that falls in a slow phase would read as a regression.  The benchmark
therefore times a fixed kernel, which does not touch qrdyn, between
measurements (at most every `interval_s` in a job loop, so that short jobs
are not crowded out), and divides each measurement by the kernel's
slowdown against its `reference_s` at that time.  A change to qrdyn cannot
change the kernel, so it still shows in full.

Neighbours slow different work differently, so each workload is scaled by
the kernel whose work resembles its own:

- `scalar`: scalar math and small numpy calls, which live in the core's
  own caches (survey, render-zoom and the set-up time);
- `arrays`: the scalar mix plus passes over freshly allocated
  multi-megabyte arrays, which also feel contention for the shared cache
  and memory bandwidth (render-wide, whose grids are megabytes).  On the
  host the benchmark was defined on, episodes slowed render-wide's
  renders by 1.7x while the scalar kernel was unchanged, and they came
  and went within a second, so this kernel runs before every job.
  Render latencies moved by about 0.9x this kernel's slowdown and by
  about 0.5x the scalar kernel's.  render-zoom keeps the scalar kernel
  all the same: its grids are small, and this kernel's 4 MB arrays would
  set its peak RSS.  Its scaled figures therefore read up to about 10%
  slower when the host is in a fast phase than when it is in a slow one.

Interference that a workload's kernel does not feel is not removed.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Callable, NamedTuple

import numpy as np

WINDOW = 4  # calibrations on either side of a measurement in its estimate


def scalar() -> float:
    """Seconds taken by a fixed mix of scalar math and small numpy calls."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1500):
        s += math.atan2(math.sin(i), 1.5 * math.cos(i))
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(30):
        a = np.arctan2(np.sin(a), 1.5 * np.cos(a))
    return time.perf_counter() - t0


def arrays() -> float:
    """Seconds taken by scalar() plus render-like passes over freshly
    allocated 4 MB complex arrays (a 512^2 grid): arithmetic, modulus,
    threshold, byte export."""
    t = scalar()
    t0 = time.perf_counter()
    z = np.full(1 << 18, 0.3 + 0.4j)
    w = z * z + z
    b = (np.abs(w) < 2.0).astype(np.uint8)
    b.tobytes()
    return t + time.perf_counter() - t0


class Kernel(NamedTuple):
    run: Callable[[], float]
    # the kernel's time in the fast phase of the 2-core x86 host the
    # benchmark was defined on; timings are reported as if taken at that
    # speed
    reference_s: float
    interval_s: float  # least time between calibrations in a job loop


KERNELS = {"scalar": Kernel(scalar, 1.15e-3, 0.05),
           "arrays": Kernel(arrays, 3.05e-3, 0.0)}


def slowdowns(cals: list[float], reference_s: float) -> list[float]:
    """Per measurement, the machine's slowdown against the reference speed:
    the rolling median of the calibrations around it (which drops one-off
    spikes) over reference_s."""
    return [statistics.median(cals[max(0, i - WINDOW):i + WINDOW + 1]) / reference_s
            for i in range(len(cals))]


def job_slowdowns(cals: list[tuple[int, float]], n: int,
                  reference_s: float) -> list[float]:
    """Slowdown of each of n jobs from (index of the next job, seconds)
    calibration pairs: that of the last calibration before the job."""
    at = [i for i, _ in cals]
    f = slowdowns([c for _, c in cals], reference_s)
    return [f[bisect.bisect_right(at, i) - 1] for i in range(n)]
