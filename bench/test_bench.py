"""Tests of the benchmark's own arithmetic, generators and oracles."""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as R  # noqa: E402
import speed as S  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def test_percentiles_and_ten_beyond_rule():
    vals = list(range(100, 0, -1))
    assert R.percentile(vals, 0.5) == 50
    assert R.percentile(vals, 0.9) == 90
    assert R.percentile([7.0], 0.9) == 7.0
    # p90 has ten samples beyond it from 100 samples on, not before
    assert R.beyond(100, 0.9) == 10
    assert R.beyond(99, 0.9) == 9
    assert R.MIN_JOBS == 100


def test_slowdowns_drop_spikes_and_scale_to_the_reference():
    ref = S.KERNELS["arrays"].reference_s
    cals = [ref] * 20 + [2.0 * ref] * 20
    cals[5] = 9.0 * ref  # a one-off preemption inside the fast phase
    f = S.slowdowns(cals, ref)
    assert f[0] == f[5] == f[15] == 1.0
    assert f[-1] == 2.0
    # jobs take the slowdown of the last calibration before them
    cals = [(2 * k, ref if k < 5 else 3.0 * ref) for k in range(10)]
    jobs = S.job_slowdowns(cals, 20, ref)
    assert jobs[0] == jobs[1] == 1.0 and jobs[18] == jobs[19] == 3.0


def _span(name, parent, g0, t0, t1, g1, failed=False):
    return [name, parent, g0, t0, t1, g1, failed]


def test_self_time_on_synthetic_span_tree():
    # a: [0, 10] with children b: [2, 5] (gross [1.5, 5.5]) and
    # c: [6, 9] (gross [6, 9.5]); b has child d: [3, 4] (gross [3, 4])
    spans = [_span("x.a", -1, 0.0, 0.0, 10.0, 10.5),
             _span("y.b", 0, 1.5, 2.0, 5.0, 5.5),
             _span("y.d", 1, 3.0, 3.0, 4.0, 4.0, True),
             _span("x.c", 0, 6.0, 6.0, 9.0, 9.5)]
    assert T.self_times(spans) == [10.0 - 4.0 - 3.5, 3.0 - 1.0, 1.0, 3.0]
    agg = T.summarize(spans)
    assert agg["x.a"]["self_s"] + agg["x.c"]["self_s"] == pytest.approx(5.5)
    assert agg["y.d"]["failed"] == 1
    # self times plus wrapper overhead add up to the top-level gross time
    overhead = sum((s[5] - s[2]) - (s[4] - s[3]) for s in spans)
    assert sum(T.self_times(spans)) + overhead == pytest.approx(10.5)


def test_tracer_catches_nested_calls_and_uninstalls():
    from qrdyn import make_params, obstruct, rays

    original = rays.fixed_rays
    tr = T.Tracer()
    tr.install()
    try:
        assert obstruct.fixed_rays is not original
        obstruct.obstruction_report(make_params(1.5, 0.0), make_params(4.0, 0.0))
    finally:
        tr.uninstall()
    assert rays.fixed_rays is original and obstruct.fixed_rays is original
    names = [s[0] for s in tr.spans]
    assert names[0] == "obstruct.obstruction_report"
    assert names.count("rays.fixed_rays") == 2
    assert all(s[1] == 0 for s in tr.spans if s[0] == "rays.fixed_rays")


def test_k_theta_oracle():
    assert W.k_theta(0.0) == 2.0
    assert W.theta_of_K(2.0) == 0.0
    for K in (2.5, 7.0, 300.0):
        assert W.k_theta(W.theta_of_K(K)) == pytest.approx(K, rel=1e-12)
    assert W.k_theta(-W.theta_of_K(5.0)) == pytest.approx(5.0, rel=1e-12)
    assert W.k_theta(math.pi / 2) == math.inf


def test_fixed_angles_K4_theta0():
    # fixed angles 0 and +-2 atan(sqrt(1 - 2/K)) = +-1.2310; the contraction
    # interval J has half-width acos(sqrt((2K-1)/(K^2-1))) = 0.8188
    angles = sorted(W.fixed_angles(4.0, 0.0))
    closed = 2.0 * math.atan(math.sqrt(0.5))
    assert angles == pytest.approx([-closed, 0.0, closed], abs=1e-12)
    assert closed == pytest.approx(1.2309594, abs=1e-7)
    assert [W.circle_deriv(4.0, 0.0, a) for a in angles] == pytest.approx([3.0, 0.5, 3.0])
    assert math.acos(math.sqrt(7.0 / 15.0)) == pytest.approx(0.8188, abs=1e-4)
    assert W.fixed_angles(1.5, 0.0) == pytest.approx([0.0], abs=1e-12)


def test_expected_regime_and_band():
    assert W.expected_regime(1.5, 0.0) == "one_repelling"
    assert W.expected_regime(2.0, 0.0) == "one_parabolic"
    assert W.expected_regime(4.0, 0.0) == "three"
    assert W.expected_regime(1e9, math.pi / 2) == "one_repelling"
    Kc = 5.0
    theta = W.theta_of_K(Kc)
    band = W.ambiguity_band(theta)
    assert 0.0 < band < 1e-9
    assert W.expected_regime(Kc * (1 + 0.5 * band), theta) is None
    assert W.expected_regime(Kc * (1 + 1e-6), theta) == "three"
    assert W.expected_regime(Kc * (1 - 1e-6), -theta) == "one_repelling"


def test_generators_are_seeded():
    assert W.survey_jobs(3, 2) == W.survey_jobs(3, 2)
    assert W.survey_jobs(3, 2) != W.survey_jobs(4, 2)
    jobs = W.survey_jobs(1, 3)
    round_len = sum(n for _, n in W.SURVEY_ROUND)
    for kind, n in W.SURVEY_ROUND:
        assert sum(j["kind"] == kind for j in jobs[:round_len]) == n
    # obstruction partners: some share the direction, none share the map
    assert any(j["theta2"] == j["theta"] for j in jobs)
    assert any(j["theta2"] != j["theta"] for j in jobs)
    assert all(j["K2"] != j["K"] for j in jobs)


def test_every_render_job_has_a_recorded_digest():
    digests = json.loads((HERE / "digests.json").read_text())
    for name in ("render-wide", "render-zoom"):
        jobs, round_len = R.make_jobs(name, 9, digests)
        assert all(j["ppm"] and j["json"] for j in jobs)
        assert len(jobs) % round_len == 0
    wide, _ = R.make_jobs("render-wide", 9, digests)
    assert wide != R.make_jobs("render-wide", 10, digests)[0]
    per_round = sum(j["res"] == 1024 for j in wide[:25])
    assert per_round == 1


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(R.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(R.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(R.POOL_ROUNDS)
