"""End-to-end command line behaviour: exit codes, artifacts, reproducibility."""

import json
import os

import numpy as np
import pytest

from roughmkv.cli import main

FAST_LIFT = """
[scenario]
name = fast_lift
experiment = lift_checks
[grid]
cells = 16
[driver]
refinement = 8
"""

FAST_DIAG = """
[scenario]
name = fast_diag
experiment = diagnostics
[grid]
cells = 8
[driver]
refinement = 4
[coefficients]
drift = linear -0.4
sigma = constant 0.3
rough = linear_state 0.5
[particles]
count = 24
"""


def run_cli(tmp_path, text, sub, *extra):
    scen = tmp_path / f"{sub}.ini"
    scen.write_text(text)
    out = tmp_path / sub
    code = main(["--scenario", str(scen), "--out", str(out), *extra])
    return code, out


def read_summary(out_dir):
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def dir_bytes(out_dir):
    return {
        name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))
    }


# ---------------------------------------------------------------------------
# exit codes


def test_successful_run_exits_zero_and_lists_artifacts(tmp_path):
    code, out = run_cli(tmp_path, FAST_LIFT, "ok")
    assert code == 0
    summary = read_summary(out)
    assert summary["passed"] is True
    assert summary["scenario_checksum"]
    assert summary["driver_checksum"]
    for name in summary["artifacts"]:
        assert (out / name).exists()
    assert all(inv["passed"] for inv in summary["invariants"].values())


def test_parse_failures_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_LIFT.replace("refinement = 8", "refinment = 8"))
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o1")]) == 1
    err = capsys.readouterr().err
    assert "refinment" in err and "refinement" in err
    assert main(["--scenario", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o2")]) == 1
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o3"), "--threads", "0"]) == 1


def test_failed_invariant_exits_two(tmp_path):
    # a non geometric driver honestly fails the symmetry check
    code, out = run_cli(
        tmp_path, FAST_LIFT + "convention = ito\n", "ito"
    )
    assert code == 2
    summary = read_summary(out)
    assert summary["passed"] is False
    assert not summary["invariants"]["sym_defect"]["passed"]
    assert summary["invariants"]["chen_max_residual"]["passed"]


def test_numerical_abort_exits_three(tmp_path):
    explosive = FAST_DIAG.replace("drift = linear -0.4", "drift = linear 1e40")
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, explosive, "boom")
    assert code == 3
    summary = read_summary(out)
    assert summary["passed"] is False
    assert 0.0 < summary["aborted_at"] <= 1.0


def test_backward_blowup_exits_three(tmp_path):
    # the forward cloud stays finite, but the backward lattice spans that
    # whole cloud and its top node overflows on the seventh of eight cells
    explosive = """
[scenario]
name = backward_boom
experiment = duality
[grid]
cells = 8
[driver]
refinement = 4
[coefficients]
drift = linear 8e25
sigma = none
rough = none
[particles]
count = 8
initial = point 1e-60
[backward]
samples = 4
x_points = 5
time_points = 2
"""
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, explosive, "backward_boom")
    assert code == 3
    summary = read_summary(out)
    assert summary["passed"] is False
    assert summary["aborted_at"] == 0.875


# ---------------------------------------------------------------------------
# reproducibility


def test_replay_is_byte_identical_without_timestamps(tmp_path):
    _, a = run_cli(tmp_path, FAST_DIAG, "a", "--no-timestamp")
    _, b = run_cli(tmp_path, FAST_DIAG, "b", "--no-timestamp")
    assert dir_bytes(a) == dir_bytes(b)


def test_timestamp_header_toggle(tmp_path):
    _, stamped = run_cli(tmp_path, FAST_LIFT, "t1")
    _, bare = run_cli(tmp_path, FAST_LIFT, "t2", "--no-timestamp")
    csvs = [n for n in os.listdir(stamped) if n.endswith(".csv")]
    assert csvs
    for name in csvs:
        assert "# generated " in (stamped / name).read_text()
        assert "# generated " not in (bare / name).read_text()
    assert "generated" in read_summary(stamped)
    assert "generated" not in read_summary(bare)


def test_seed_override_changes_the_run(tmp_path):
    _, a = run_cli(tmp_path, FAST_DIAG, "s1", "--no-timestamp")
    _, b = run_cli(tmp_path, FAST_DIAG, "s2", "--no-timestamp", "--seed-override", "77")
    sa, sb = read_summary(a), read_summary(b)
    assert sa["seed"] != sb["seed"]
    assert sa["driver_checksum"] != sb["driver_checksum"]
    assert sa["scenario_checksum"] == sb["scenario_checksum"]


def test_thread_count_does_not_change_results(tmp_path):
    chaos = """
[scenario]
name = fast_chaos
experiment = chaos_scan
[grid]
cells = 8
[driver]
refinement = 4
[coefficients]
sigma = constant 0.5
rough = moment_sin 0.5 0.4
[particles]
count_list = 16 32 64
"""
    _, one = run_cli(tmp_path, chaos, "one", "--no-timestamp")
    _, four = run_cli(tmp_path, chaos, "four", "--no-timestamp", "--threads", "4")
    assert dir_bytes(one) == dir_bytes(four)


def test_log_env_var_is_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("ROUGHMKV_LOG", "DEBUG")
    code, _ = run_cli(tmp_path, FAST_LIFT, "logged")
    assert code == 0
    monkeypatch.setenv("ROUGHMKV_LOG", "not_a_level")
    code, _ = run_cli(tmp_path, FAST_LIFT, "logged2")
    assert code == 0
