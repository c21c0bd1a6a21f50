import math
import random

import pytest

from qrdyn.core import make_params
from qrdyn.errors import InvalidParameter
from qrdyn.obstruct import (Reason, Verdict, obstruction_report)
from qrdyn.rays import k_theta, quartic_diagnostic


def test_ray_count_mismatch():
    v = obstruction_report(make_params(1.5, 0.0), make_params(4.0, 0.0))
    assert v.verdict is Verdict.OBSTRUCTED
    assert v.reason is Reason.RAY_COUNT_MISMATCH
    assert len(v.traces_1) == 1 and len(v.traces_2) == 3


def test_trace_mismatch_same_count():
    v = obstruction_report(make_params(2.5, 0.0), make_params(3.0, 0.0))
    assert v.verdict is Verdict.OBSTRUCTED
    assert v.reason is Reason.TRACE_MISMATCH
    # (K+1)^2/K at the attracting ray phi = 0
    assert max(v.traces_1) == pytest.approx(4.9)
    assert max(v.traces_2) == pytest.approx(16.0 / 3.0)


def test_self_comparison_inconclusive():
    rng = random.Random(51)
    for _ in range(20):
        p = make_params(1.0 + 10 ** rng.uniform(-2, 1),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        v = obstruction_report(p, p)
        assert v.verdict is Verdict.INCONCLUSIVE
        assert v.reason is None


def test_mirror_parameters_inconclusive():
    # (K, theta) and (K, -theta) are genuinely conjugate by reflection
    rng = random.Random(52)
    for _ in range(20):
        K = 1.0 + 10 ** rng.uniform(-1, 1)
        theta = rng.uniform(1e-3, math.pi / 2 - 1e-3)
        v = obstruction_report(make_params(K, theta), make_params(K, -theta))
        assert v.verdict is Verdict.INCONCLUSIVE
        # descending trace lists agree as multisets
        for a, b in zip(v.traces_1, v.traces_2):
            assert a == pytest.approx(b, rel=1e-8)


def test_symmetry_of_verdict():
    pairs = [(make_params(1.5, 0.0), make_params(4.0, 0.0)),
             (make_params(2.5, 0.0), make_params(3.0, 0.0)),
             (make_params(3.0, 0.2), make_params(3.0, -0.2))]
    for p1, p2 in pairs:
        v12 = obstruction_report(p1, p2)
        v21 = obstruction_report(p2, p1)
        assert v12.verdict is v21.verdict
        assert v12.reason is v21.reason


def test_fixed_theta_corollary_reachable():
    # equal ray counts with traces forced equal by tol: the fixed-direction
    # rule still obstructs distinct stretches in a common direction
    v = obstruction_report(make_params(1.5, 0.0), make_params(1.5 + 1e-12, 0.0),
                           tol=1e-6)
    assert v.verdict is Verdict.OBSTRUCTED
    assert v.reason is Reason.COROLLARY_FIXED_THETA


def test_near_bifurcation_downgrades():
    theta = 0.4
    Kc = k_theta(theta)
    p = make_params(Kc * (1 + 1e-12), theta)
    v = obstruction_report(p, make_params(4.0, 0.0))
    assert v.verdict is Verdict.INCONCLUSIVE
    assert "bifurcation" in v.diagnostic
    assert f"K={p.K!r}, theta={p.theta!r}, |F|/terms=" in v.diagnostic
    assert quartic_diagnostic(p) in v.diagnostic


def test_corollary_holds_at_the_bifurcation():
    # a common direction with distinct stretches is an obstruction whatever
    # the ray counts, so a map at K_theta does not make the verdict
    # inconclusive
    p, q = make_params(k_theta(0.3), 0.3), make_params(5.0, 0.3)
    for p1, p2 in ((p, q), (q, p)):
        v = obstruction_report(p1, p2)
        assert v.verdict is Verdict.OBSTRUCTED
        assert v.reason is Reason.COROLLARY_FIXED_THETA
    v = obstruction_report(p, make_params(5.0, -0.3))
    assert v.verdict is Verdict.INCONCLUSIVE
    assert "bifurcation" in v.diagnostic


def test_tol_must_be_finite_and_nonnegative():
    p1, p2 = make_params(1.5, 0.0), make_params(4.0, 0.0)
    for tol in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(InvalidParameter, match=f"tol={tol!r}"):
            obstruction_report(p1, p2, tol=tol)
    # tol = 0 is exact comparison, still in the domain
    assert obstruction_report(p1, p2, tol=0.0).verdict is Verdict.OBSTRUCTED


def test_to_dict_shape():
    v = obstruction_report(make_params(1.5, 0.0), make_params(4.0, 0.0))
    d = v.to_dict()
    assert d["verdict"] == "obstructed"
    assert d["reason"] == "ray_count_mismatch"
    assert d["k_theta_1"] == pytest.approx(2.0)
