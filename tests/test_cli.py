import argparse
import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qrdyn

from qrdyn import cli
from qrdyn.cli import main
from qrdyn.obstruct import TRACE_TOL
from qrdyn.rays import fixed_rays
from qrdyn.core import make_params


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fixed_rays_json(capsys):
    code, out = run(capsys, "fixed-rays", "--K", "4", "--theta", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "three"
    angles = sorted(r["angle"] for r in payload["rays"])
    assert angles[0] == pytest.approx(-1.2309594, abs=1e-6)
    assert angles[1] == pytest.approx(0.0, abs=1e-12)
    assert payload["config"]["K"] == 4.0


def test_fixed_rays_csv_round_trip(tmp_path):
    out = tmp_path / "rays.csv"
    code = main(["fixed-rays", "--K", "4", "--theta", "0",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    lib = fixed_rays(make_params(4.0, 0.0))
    assert len(rows) == 3
    for row, ray in zip(rows, lib.rays):
        # repr-precision floats survive the round trip exactly
        assert float(row["angle"]) == ray.angle
        assert float(row["multiplier"]) == ray.multiplier
        assert float(row["trace_sq"]) == ray.trace_sq


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_over_a_longer_file_leaves_only_the_new_output(tmp_path, fmt):
    argv = ["fixed-rays", "--K", "4", "--theta", "0", "--format", fmt]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.write_bytes(b"z" * 50_000)
    assert main(argv + ["--out", str(fresh)]) == 0
    assert main(argv + ["--out", str(reused)]) == 0
    assert reused.read_bytes().replace(b"reused", b"fresh") == fresh.read_bytes()


def test_mu_flag_equivalent_to_K_theta(capsys):
    code1, out1 = run(capsys, "fixed-rays", "--K", "2", "--theta", "0",
                      "--format", "csv")
    # mu = 1/3 for (K, theta) = (2, 0); the decimal flag value only matches
    # to the last ulp, so compare parsed numbers rather than bytes
    code2, out2 = run(capsys, "fixed-rays", "--mu",
                      "0.3333333333333333,0", "--format", "csv")
    assert code1 == code2 == 0
    rows1 = list(csv.DictReader(out1.splitlines()))
    rows2 = list(csv.DictReader(out2.splitlines()))
    assert len(rows1) == len(rows2) == 1
    for key in ("angle", "multiplier", "trace_sq"):
        assert float(rows1[0][key]) == pytest.approx(float(rows2[0][key]),
                                                     rel=1e-12, abs=1e-12)


def test_mu_and_K_mutually_exclusive(capsys):
    code, _ = run(capsys, "fixed-rays", "--K", "2", "--theta", "0",
                  "--mu", "0.3,0")
    assert code == 2
    # the second map of obstruct obeys the same rule
    code, _ = run(capsys, "obstruct", "--K", "2", "--theta", "0",
                  "--mu2", "0.1,0", "--K2", "3", "--theta2", "0")
    assert code == 2


def test_degrees_flag(capsys):
    code1, out1 = run(capsys, "ktheta", "--theta", "30", "--degrees")
    code2, out2 = run(capsys, "ktheta", "--theta", str(math.pi / 6))
    assert code1 == code2 == 0
    assert json.loads(out1)["K_theta"] == pytest.approx(
        json.loads(out2)["K_theta"], rel=1e-9)


def test_ktheta_degrees_writes_radians_in_both_formats(capsys):
    code1, out1 = run(capsys, "ktheta", "--theta", "30", "--degrees",
                      "--format", "csv")
    code2, out2 = run(capsys, "ktheta", "--theta", "30", "--degrees")
    assert code1 == code2 == 0
    rows = list(csv.DictReader(out1.splitlines()))
    payload = json.loads(out2)
    assert rows == [{"theta": repr(payload["theta"]),
                     "K_theta": repr(payload["K_theta"])}]
    assert payload["theta"] == math.radians(30.0)


def test_ktheta_known_value(capsys):
    code, out = run(capsys, "ktheta", "--theta", "0.5235988")
    assert code == 0
    assert json.loads(out)["K_theta"] == pytest.approx(6.41, abs=0.01)


def test_orbit_csv(capsys):
    code, out = run(capsys, "orbit", "--K", "4", "--theta", "0",
                    "--phi", "0.5", "--n", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,angle"
    assert len(lines) == 12


def test_growth_fit_json(capsys):
    code, out = run(capsys, "growth", "--K", "2", "--theta", "0",
                    "--phi", "0")
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["slope"] == pytest.approx(math.log(2.0), rel=0.01)


def test_julia_deterministic(capsys):
    a = run(capsys, "julia", "--K", "4", "--theta", "0", "--count", "50",
            "--seed", "3")
    b = run(capsys, "julia", "--K", "4", "--theta", "0", "--count", "50",
            "--seed", "3")
    assert a == b
    assert json.loads(a[1])["kind"] == "cantor_on_circle"


def test_basin_json(capsys):
    code, out = run(capsys, "basin", "--K", "4", "--theta", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["lo"] == pytest.approx(-1.2309594, abs=1e-6)
    assert payload["hi"] == pytest.approx(1.2309594, abs=1e-6)


def test_basin_absent_is_parameter_error(capsys):
    code, _ = run(capsys, "basin", "--K", "1.5", "--theta", "0")
    assert code == 2


def test_basin_absent_names_the_map(capsys):
    assert main(["basin", "--K", "1.5", "--theta", "0"]) == 2
    err = capsys.readouterr().err
    assert "K=1.5" in err and "theta=0.0" in err and "one_repelling" in err


def test_obstruct_json(capsys):
    code, out = run(capsys, "obstruct", "--K", "1.5", "--theta", "0",
                    "--K2", "4", "--theta2", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "obstructed"
    assert payload["reason"] == "ray_count_mismatch"
    assert payload["config"]["tol"] == TRACE_TOL


def test_render_outputs(tmp_path):
    out = tmp_path / "plane.ppm"
    code = main(["render", "--K", "2", "--theta", "0",
                 "--window=-2,2,-2,2", "--res", "64",
                 "--max-iter", "60", "--out", str(out)])
    assert code == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n64 64\n255\n")
    stats = json.loads((tmp_path / "plane.ppm.json").read_text())
    assert stats["resolution"] == [64, 64]
    assert 0.0 <= stats["undecided_fraction"] <= 1.0


def test_render_byte_identical_reruns(tmp_path):
    args = ["render", "--K", "4", "--theta", "0.3", "--window=-1,1,-1,1",
            "--res", "48", "--max-iter", "40"]
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.ppm.json").read_text().replace("a.ppm", "x") \
        == (tmp_path / "b.ppm.json").read_text().replace("b.ppm", "x")


@pytest.mark.parametrize("argv,named", [
    (["render", "--K", "2", "--theta", "0", "--window=-1,1,-1,1", "--res", "4",
      "--max-iter", "-3"], "render_grid needs max_iter >= 1, got max_iter=-3"),
    (["render", "--K", "2", "--theta", "0", "--window=-1,1,-1,1", "--res", "4",
      "--max-iter", "0"], "render_grid needs max_iter >= 1, got max_iter=0"),
    (["growth", "--K", "2", "--theta", "0", "--z", "0,0"], "z = 0"),
    (["orbit", "--K", "2", "--theta", "0", "--phi", "nan"], "phi=nan"),
    (["orbit", "--K", "2", "--theta", "0", "--phi", "0.5", "--n", "-4"], "n=-4"),
    (["obstruct", "--K", "1.5", "--theta", "0", "--K2", "4", "--theta2", "0",
      "--tol", "-1"], "tol=-1.0"),
    (["obstruct", "--K", "1.5", "--theta", "0", "--K2", "4", "--theta2", "0",
      "--tol", "nan"], "tol=nan"),
    (["render", "--K", "2", "--theta", "0", "--window=-inf,inf,-1,1", "--res", "4"],
     "xmin=-inf, xmax=inf"),
    (["growth", "--K", "2", "--theta", "0", "--phi", "0", "--n-lo", "-20",
      "--n-hi", "0"], "[n_lo, n_hi] = [-20, 0]"),
    (["growth", "--K", "2", "--theta", "0", "--z", "0.3,0.4", "--n-lo", "-20",
      "--n-hi", "3"], "burn-in of 5"),
    (["growth", "--K", "2", "--theta", "0", "--phi", "nan"], "phi=nan"),
    (["growth", "--K", "2", "--theta", "0", "--phi", "inf"], "phi=inf"),
    (["growth", "--K", "2", "--theta", "0", "--phi=-inf"], "phi=-inf"),
    (["growth", "--K", "2", "--theta", "0", "--z", "nan,0"], "z=(nan+0j)"),
    (["growth", "--K", "2", "--theta", "0", "--z", "inf,1"], "z=(inf+1j)"),
], ids=["max-iter-negative", "max-iter-zero", "growth-origin", "orbit-phi-nan",
        "orbit-n-negative", "obstruct-tol-negative", "obstruct-tol-nan",
        "render-window-infinite", "growth-window-below-burn-in",
        "growth-z-window-below-burn-in", "growth-phi-nan", "growth-phi-inf",
        "growth-phi-minus-inf", "growth-z-nan", "growth-z-inf"])
def test_out_of_domain_inputs_exit_2(tmp_path, capsys, argv, named):
    if argv[0] == "render":
        argv = argv + ["--out", str(tmp_path / "x.ppm")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "x.ppm").exists()


@pytest.mark.parametrize("argv", [
    ["render", "--K", "2", "--theta", "0", "--window=-1,1,-1,1", "--res", "4"],
    ["orbit", "--K", "2", "--theta", "0", "--phi", "0.5", "--n", "3"],
    ["orbit", "--K", "2", "--theta", "0", "--phi", "0.5", "--n", "3", "--format", "csv"],
], ids=["render", "orbit-json", "orbit-csv"])
def test_unwritable_out_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.out"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and str(out) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,named", [
    (["julia", "--K", "2", "--theta", "0", "--count", "1000000000"],
     "julia_sample count 1000000000 exceeds limit 1000000"),
    (["growth", "--K", "2", "--theta", "0", "--phi", "0", "--n-hi", "1000000000"],
     "growth_fit n_hi 1000000000 exceeds limit 1000000"),
    (["growth", "--K", "2", "--theta", "0", "--z", "0.3,0.4", "--n-hi",
      "100000000000000000000"],
     "growth_fit n_hi 100000000000000000000 exceeds limit 1000000"),
    (["orbit", "--K", "2", "--theta", "0", "--phi", "0.5", "--n", "1000000000"],
     "orbit n 1000000000 exceeds limit 1000000"),
    (["render", "--K", "2", "--theta", "0", "--window=-1,1,-1,1", "--res", "4",
      "--max-iter", "3000000000"],
     "render_grid max_iter 3000000000 exceeds limit 2147483647"),
], ids=["julia-count", "growth-n-hi", "growth-z-n-hi-overflow", "orbit-n",
        "render-max-iter"])
def test_size_limits_exit_3(tmp_path, capsys, argv, named):
    # refused before anything is allocated: a list of 10**9 floats would not
    # fit, one of 10**20 overflows its length, and the int32 render counts
    # cannot hold a max_iter above 2**31 - 1
    if argv[0] == "render":
        argv = argv + ["--out", str(tmp_path / "x.ppm")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.ppm").exists()


def test_render_max_iter_at_the_int32_limit(tmp_path):
    # every pixel of this window escapes at once, so the largest max_iter
    # the counts hold renders as fast as a small one
    out = tmp_path / "far.ppm"
    assert main(["render", "--K", "2", "--theta", "0", "--window=5,6,5,6",
                 "--res", "4", "--max-iter", "2147483647", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "far.ppm.json").read_text())["max_iter"] \
        == 2147483647


def test_render_palette_sized_by_counts_not_max_iter(tmp_path):
    # every pixel of this window escapes at once, so the palette has one
    # count per label; one sized by max_iter would need about 18 GB and
    # fails under the 2 GiB address-space cap instead of exhausting memory
    resource = pytest.importorskip("resource")
    cap = 2 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    out = tmp_path / "far.ppm"
    env = dict(os.environ, PYTHONPATH=str(Path(qrdyn.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qrdyn.cli", "render", "--K", "2", "--theta", "0",
         "--window=5,6,5,6", "--res", "4", "--max-iter", "2000000000",
         "--out", str(out)],
        env=env, preexec_fn=limit_memory, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "952278788e98320d6e6d1805d766cede184bf20c0bf53fee241778b48d4d17ff"


def test_invalid_K_exit_code(capsys):
    code, _ = run(capsys, "fixed-rays", "--K", "0.5", "--theta", "0")
    assert code == 2


def test_oversize_render_exit_code(tmp_path, capsys):
    code = main(["render", "--K", "2", "--theta", "0", "--window=-1,1,-1,1",
                 "--res", "9000", "--out", str(tmp_path / "x.ppm")])
    assert code == 3


def test_unknown_subcommand_exits_64():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 64


def test_unknown_flag_exits_64():
    with pytest.raises(SystemExit) as e:
        main(["ktheta", "--theta", "0.3", "--bogus"])
    assert e.value.code == 64


def call(capsys, argv):
    """main(argv) as (exit code, stdout, stderr); argparse's exits count."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def subcommands(ap):
    return next(a for a in ap._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_shared_parser_carries_no_state_between_calls(capsys, monkeypatch):
    # a usage error and a parameter error part-way through obstruct's flags,
    # then a full obstruct call, then one without --K2 that must not see the
    # --K2 of the call before it
    argvs = [
        ["obstruct", "--K", "2", "--theta", "0", "--K2", "x"],
        ["obstruct", "--K", "0.5", "--theta", "0", "--K2", "4", "--theta2", "0"],
        ["obstruct", "--K", "2", "--theta", "0", "--K2", "4", "--theta2", "0"],
        ["obstruct", "--K", "2", "--theta", "0"],
        ["fixed-rays", "--K", "4", "--theta", "0"],
    ]
    shared = [call(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in shared] == [64, 2, 0, 2, 0]
    assert "need --K2" in shared[3][2]
    # main builds a new parser on every call, as before the parser was shared
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [call(capsys, argv) for argv in argvs] == shared


@pytest.mark.parametrize("columns", ["80", "52"])
def test_shared_parser_help_and_usage_unchanged(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    fresh = cli.build_parser.__wrapped__()
    cases = [([], fresh)] + [([name], sp) for name, sp in subcommands(fresh).items()]
    assert len(cases) == 9
    for prefix, parser in cases:
        assert call(capsys, prefix + ["--help"]) == (0, parser.format_help(), "")
        # a usage error of this parser: every subcommand has --K
        code, _, err = call(capsys, prefix + ["--K", "x"] if prefix else [])
        assert code == 64 and err.startswith(parser.format_usage())
        # and the next call after those exits still works
        code, out, _ = call(capsys, ["ktheta", "--theta", "0.5"])
        assert code == 0 and json.loads(out)["K_theta"] > 2.0


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    argvs = [
        ["fixed-rays", "--K", "4", "--theta", "0"],
        ["ktheta", "--theta", "0.5"],
        ["orbit", "--K", "4", "--theta", "0", "--phi", "0.5", "--n", "10"],
        ["growth", "--K", "2", "--theta", "0", "--phi", "0"],
        ["julia", "--K", "4", "--theta", "0", "--count", "20"],
        ["basin", "--K", "4", "--theta", "0"],
        ["render", "--K", "2", "--theta", "0", "--window=-2,2,-2,2", "--res", "8",
         "--max-iter", "20", "--out", str(tmp_path / "x.ppm")],
        ["obstruct", "--K", "1.5", "--theta", "0", "--K2", "4", "--theta2", "0"],
        ["ktheta", "--theta", "0.5", "--bogus"],
        ["fixed-rays", "--K", "0.5", "--theta", "0"],
    ]
    codes = [call(capsys, argvs[i % len(argvs)])[0] for i in range(50)]
    assert codes[:10] == [0] * 8 + [64, 2]
    assert len(built) <= 9
    built.clear()
    cli.build_parser.__wrapped__()
    assert len(built) == 9  # the top-level parser and 8 subcommands


FUZZ_K = ["1.5", "2", "4", "1.0000001", "40", "1e6"]
FUZZ_THETA = ["0", "0.3", "-1.2", "1.5707963267948966", "30"]
FUZZ_MU = ["0.3,0.4", "0.99,0.1", "-0.2,0"]
# values inside each flag's domain; sizes finish fast, or are refused
FUZZ_GOOD = {
    "--K": FUZZ_K, "--K2": FUZZ_K, "--theta": FUZZ_THETA, "--theta2": FUZZ_THETA,
    "--mu": FUZZ_MU, "--mu2": FUZZ_MU, "--tol": ["1e-8", "0", "0.1"],
    "--phi": ["0", "0.5", "-1.2309594173407747", "3"],
    "--z": ["0.3,0.4", "1,0", "-2,1e-9"],
    "--window": ["-1,1,-1,1", "-2,2,-2,2", "0.1,0.2,-0.05,0.05"],
    "--n": ["0", "3", "40", "1000000001"], "--n-lo": ["0", "10", "30"],
    "--n-hi": ["25", "60", "200", "1000000001", "100000000000000000000"],
    "--count": ["1", "50", "1000000001"], "--seed": ["0", "-7", "3"],
    "--res": ["1", "16", "9000"], "--max-iter": ["1", "50"],
}
FUZZ_BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "-0", "1e308", "-1e308",
                    "1e-300", "x", ""]
FUZZ_BAD_PAIRS = ["0,0", "nan,0", "inf,1", "1e308,1e308", "0.5", "1,2,3", ",",
                  "a,b", ""]
FUZZ_BAD = {
    "--mu": FUZZ_BAD_PAIRS, "--mu2": FUZZ_BAD_PAIRS, "--z": FUZZ_BAD_PAIRS,
    "--window": ["1,-1,0,1", "0,0,0,0", "nan,1,0,1", "-inf,inf,-1,1",
                 "-1e308,1e308,-1e308,1e308", "-1,1", "a,b,c,d"],
    "--n": ["-4", "1e3", "x"], "--n-lo": ["-20", "1000000000", "x"],
    "--n-hi": ["0", "6", "-5", "x"], "--count": ["-1", "0", "2.5"],
    "--seed": ["1.5", "x"], "--res": ["-1", "0", "x"],
    "--max-iter": ["-3", "0", "2.5"],
}
FUZZ_FLAGS = {
    "fixed-rays": [],
    "ktheta": [],
    "orbit": ["--phi", "--n"],
    "growth": ["--phi", "--z", "--n-lo", "--n-hi"],
    "julia": ["--count", "--seed"],
    "basin": [],
    "render": ["--window", "--res", "--max-iter"],
    "obstruct": ["--K2", "--theta2", "--mu2", "--tol"],
}


def fuzz_argv(rng, out):
    cmd = rng.choice(sorted(FUZZ_FLAGS))
    argv = [cmd]
    # mostly one of the two ways to give the map, sometimes both
    params = rng.choice([["--K", "--theta"]] * 3 + [["--mu"], ["--K", "--theta", "--mu"]])
    for flag in params + FUZZ_FLAGS[cmd]:
        r = rng.random()
        if r < 0.08:
            continue  # a missing flag
        bad = FUZZ_BAD.get(flag, FUZZ_BAD_NUMBERS)
        value = rng.choice(bad if r < 0.25 else FUZZ_GOOD[flag])
        argv.append(f"{flag}={value}")
    if rng.random() < 0.2:
        argv.append("--degrees")
    if cmd != "render" and rng.random() < 0.3:
        argv.append("--format=" + rng.choice(["csv", "json", "xml"]))
    if cmd == "render" or rng.random() < 0.2:
        argv.append(f"--out={out}")
    return argv


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    """Seeded argvs over every subcommand, with non-finite, zero, negative,
    huge and malformed values and missing flags: each ends in a documented
    exit code, and an error exit names its cause on stderr."""
    rng = random.Random(2012)
    seen = set()
    for i in range(400):
        argv = fuzz_argv(rng, tmp_path / f"out{i % 4}.ppm")
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 64), (argv, code, err)
        assert "Traceback" not in err, argv
        if code in (2, 3):
            assert err.startswith("error: "), (argv, err)
        seen.add((argv[0], code))
    # every subcommand is run, and some argvs of each reach an answer
    assert {cmd for cmd, _ in seen} == set(FUZZ_FLAGS)
    assert {code for _, code in seen} == {0, 2, 3, 64}
