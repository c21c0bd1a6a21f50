"""Obstructions to quasiconformal equivalence near infinity.

Two maps can only be conjugate near infinity if they have the same number
of fixed rays and matching Mobius trace invariants on them; for a common
direction theta, different stretches are never equivalent.  The converse
is not decided here: absent an obstruction the verdict is Inconclusive,
never "equivalent".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import MapParams
from .errors import InvalidParameter
from .rays import Regime, fixed_rays, quartic_diagnostic

TRACE_TOL = 1e-8          # relative tolerance for trace comparison


class Verdict(enum.Enum):
    OBSTRUCTED = "obstructed"
    INCONCLUSIVE = "inconclusive"


class Reason(enum.Enum):
    RAY_COUNT_MISMATCH = "ray_count_mismatch"
    TRACE_MISMATCH = "trace_mismatch"
    COROLLARY_FIXED_THETA = "corollary_fixed_theta"


@dataclass(frozen=True)
class ObstructionVerdict:
    verdict: Verdict
    reason: Reason | None
    traces_1: tuple[float, ...]  # sorted descending
    traces_2: tuple[float, ...]
    k_theta_1: float | None
    k_theta_2: float | None
    diagnostic: str

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "reason": self.reason.value if self.reason else None,
            "traces_1": list(self.traces_1),
            "traces_2": list(self.traces_2),
            "k_theta_1": self.k_theta_1,
            "k_theta_2": self.k_theta_2,
            "diagnostic": self.diagnostic,
        }


def obstruction_report(p1: MapParams, p2: MapParams,
                       tol: float = TRACE_TOL) -> ObstructionVerdict:
    """Compare two parameter pairs for a provable non-equivalence."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParameter(f"need a finite tol >= 0, got tol={tol!r}")
    rep1 = fixed_rays(p1)
    rep2 = fixed_rays(p2)
    t1 = tuple(sorted((r.trace_sq for r in rep1.rays), reverse=True))
    t2 = tuple(sorted((r.trace_sq for r in rep2.rays), reverse=True))
    kt1, kt2 = rep1.k_theta, rep2.k_theta

    def result(verdict, reason, diag):
        return ObstructionVerdict(verdict=verdict, reason=reason,
                                  traces_1=t1, traces_2=t2,
                                  k_theta_1=kt1, k_theta_2=kt2,
                                  diagnostic=diag)

    # distinct stretches in a common direction are never equivalent,
    # whatever the ray counts, so at the bifurcation too
    corollary = None
    if p1.theta == p2.theta and 0.0 <= p1.theta < math.pi / 2 and p1.K != p2.K:
        corollary = result(Verdict.OBSTRUCTED, Reason.COROLLARY_FIXED_THETA,
                           f"same direction theta={p1.theta}, K {p1.K} vs {p2.K}")

    for p, rep in ((p1, rep1), (p2, rep2)):
        if rep.regime is Regime.TWO_WITH_NEUTRAL:
            return corollary or result(
                Verdict.INCONCLUSIVE, None,
                f"{quartic_diagnostic(p)} is at the bifurcation K_theta; "
                "ray count numerically ambiguous")

    if len(rep1.rays) != len(rep2.rays):
        return result(Verdict.OBSTRUCTED, Reason.RAY_COUNT_MISMATCH,
                      f"{len(rep1.rays)} fixed rays vs {len(rep2.rays)}")

    # trace invariants must match as a multiset (descending lists)
    for a, b in zip(t1, t2):
        if abs(a - b) > tol * max(abs(a), abs(b)):
            return result(Verdict.OBSTRUCTED, Reason.TRACE_MISMATCH,
                          f"trace^2 {a:.12g} vs {b:.12g}")

    return corollary or result(Verdict.INCONCLUSIVE, None, "no obstruction found")
