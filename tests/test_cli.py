"""End-to-end command line behaviour: exit codes, artifacts, reproducibility."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from roughmkv.cli import main
from roughmkv.simulate import NumericalBlowup

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


def test_non_finite_horizon_exits_one(tmp_path, capsys):
    code, out = run_cli(tmp_path, FAST_LIFT.replace("[grid]\n", "[grid]\nhorizon = inf\n"), "inf")
    assert code == 1
    assert "[grid] horizon: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "latin1.ini"
    bad.write_bytes(FAST_LIFT.replace("fast_lift", "caf\u00e9").encode("latin-1"))
    out = tmp_path / "latin1"
    assert main(["--scenario", str(bad), "--out", str(out)]) == 1
    assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_ito_residual_scan_exits_one(tmp_path, capsys):
    scan = "[scenario]\nname = s\nexperiment = residual_scan\n[driver]\nconvention = ito\n"
    code, out = run_cli(tmp_path, scan, "ito_scan")
    assert code == 1
    assert "error: [driver] convention: the scan needs a geometric" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_override_exits_one_before_any_output(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text(FAST_LIFT)
    out = tmp_path / "neg"
    assert main(["--scenario", str(good), "--out", str(out), "--seed-override", "-1"]) == 1
    assert "--seed-override must be >= 0" in capsys.readouterr().err
    assert not out.exists()


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
    # the drift does not enter the signal, so the calm run has the same driver
    _, calm = run_cli(tmp_path, FAST_DIAG, "calm")
    assert summary["driver_checksum"] == read_summary(calm)["driver_checksum"]


@pytest.mark.parametrize("rough", ["moment_sin 0.5 0.4", "constant 0.3"])
def test_non_finite_initial_cloud_exits_three_at_the_first_node(tmp_path, rough):
    # a std of 1e308 overflows some initial draws to inf; a measure-dependent
    # step raised ValueError on such a cloud, a measure-free one reported t_1
    text = FAST_DIAG.replace("linear_state 0.5", rough) + "initial = gaussian 0 1e308\n"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, text, "inf_start")
    assert code == 3
    summary = read_summary(out)
    assert summary["passed"] is False
    assert summary["aborted_at"] == 0.0
    assert summary["artifacts"] == []


BACKWARD_BOOM = """
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


def test_backward_blowup_exits_three(tmp_path):
    # the forward cloud stays finite, but the backward lattice spans that
    # whole cloud and its top node overflows on the seventh of eight cells
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, BACKWARD_BOOM, "backward_boom")
    assert code == 3
    summary = read_summary(out)
    assert summary["passed"] is False
    assert summary["aborted_at"] == 0.875
    _, calm = run_cli(tmp_path, BACKWARD_BOOM.replace("8e25", "-0.4"), "backward_calm")
    assert summary["driver_checksum"] == read_summary(calm)["driver_checksum"]


def test_odd_backward_samples_exit_one(tmp_path, capsys):
    code, out = run_cli(tmp_path, BACKWARD_BOOM.replace("samples = 4", "samples = 4097"), "odd")
    assert code == 1
    want = "error: [backward] samples: must be even (the sampler draws antithetic pairs)"
    assert want in capsys.readouterr().err
    assert not out.exists()


def test_residual_scan_blowup_exits_three_without_driver(tmp_path):
    # the scan's driver is the finest level of its coupled runs, which never
    # finished, so the summary names none
    explosive = """
[scenario]
name = residual_boom
experiment = residual_scan
[grid]
cells = 4
levels = 2
[driver]
refinement = 4
[coefficients]
drift = linear 1e40
sigma = none
rough = none
[particles]
count = 8
"""
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, explosive, "residual_boom")
    assert code == 3
    summary = read_summary(out)
    assert summary["passed"] is False
    assert 0.0 < summary["aborted_at"] <= 1.0
    assert summary["driver_checksum"] is None
    assert summary["artifacts"] == []


def test_residual_scan_reads_its_noise_from_the_diffusion(tmp_path):
    # sigma = constant 0.0 builds a diffusion that moves no particle: the
    # scan runs once, as for sigma = none, and keeps its slope gates
    bundled = (ROOT / "scenarios" / "residual_scan.ini").read_text(encoding="utf-8")
    runs = {}
    for sigma in ("none", "constant 0.0", "constant 0.3"):
        text = bundled.replace("[coefficients]\n", f"[coefficients]\nsigma = {sigma}\n")
        code, out = run_cli(tmp_path, text, sigma.replace(" ", "_"), "--no-timestamp",
                            "--seed-override", "21")
        runs[sigma] = code, (out / "residuals.csv").read_bytes(), read_summary(out)
    none, zero, noisy = runs.values()
    assert zero[:2] == none[:2] and none[0] == 0
    assert zero[2]["invariants"] == none[2]["invariants"]
    assert len([k for k in none[2]["invariants"] if k.startswith("slope[")]) == 5
    # a noisy scan adds two replicate seeds: a noise floor, and no slope gate
    assert list(noisy[2]["invariants"]) == ["slopes_reported"]
    floors = [row.split(",")[-1] for row in noisy[1].decode().splitlines()[1:]]
    assert any(float(f) > 0 for f in floors)


# ---------------------------------------------------------------------------
# artifacts

FAST_DUALITY = """
[scenario]
name = fast_duality
experiment = duality
[grid]
cells = 8
[driver]
refinement = 4
[coefficients]
drift = linear -0.4
sigma = constant 0.3
rough = linear_state 0.25
[particles]
count = 16
[backward]
samples = 8
terminal = square
x_points = 5
time_points = 3
"""

def table_rows(path):
    """Header and rows of a CSV artifact, past its ``#`` lines."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.mark.parametrize("text", [FAST_DUALITY, FAST_DIAG], ids=["duality", "diagnostics"])
def test_every_csv_column_loads_as_numbers(tmp_path, text):
    _, stamped = run_cli(tmp_path, text, "stamped")
    _, bare = run_cli(tmp_path, text, "bare", "--no-timestamp")
    names = sorted(n for n in os.listdir(bare) if n.endswith(".csv"))
    assert names and names == sorted(n for n in os.listdir(stamped) if n.endswith(".csv"))
    stamps = {read_summary(stamped)["generated"]}
    for name in names:
        header, rows = table_rows(bare / name)
        assert rows and all(len(row) == len(header) for row in rows), name
        for j, column in enumerate(header):
            if column != "diagnostic":    # the one column of names
                for row in rows:
                    float(row[j])
        # the stamp is one extra line; everything else is the same text
        lines = (stamped / name).read_text(encoding="utf-8").splitlines(keepends=True)
        unstamped = "".join(ln for ln in lines if not ln.startswith("# generated "))
        assert unstamped == (bare / name).read_text(encoding="utf-8")
        stamps.update(ln.split()[2] for ln in lines if ln.startswith("# generated "))
    # one clock reading stamps the whole run
    assert len(stamps) == 1


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


FAST_CHAOS = """
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


def test_thread_count_does_not_change_results(tmp_path):
    _, one = run_cli(tmp_path, FAST_CHAOS, "one", "--no-timestamp")
    _, four = run_cli(tmp_path, FAST_CHAOS, "four", "--no-timestamp", "--threads", "4")
    assert dir_bytes(one) == dir_bytes(four)


def test_first_failing_chaos_job_in_job_order_sets_the_abort_time(tmp_path, monkeypatch):
    # the first job fails last in wall time; its abort time wins anyway
    def failing_simulate(config, coeffs, rp, **kwargs):
        if config.particle_count == 16:
            time.sleep(0.2)
            raise NumericalBlowup(0.5)
        raise NumericalBlowup(0.25)

    monkeypatch.setattr("roughmkv.experiments.simulate", failing_simulate)
    for threads in ("1", "4"):
        code, out = run_cli(tmp_path, FAST_CHAOS, f"fail{threads}", "--threads", threads)
        assert code == 3
        assert read_summary(out)["aborted_at"] == 0.5


def test_log_env_var_is_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("ROUGHMKV_LOG", "DEBUG")
    code, _ = run_cli(tmp_path, FAST_LIFT, "logged")
    assert code == 0
    monkeypatch.setenv("ROUGHMKV_LOG", "not_a_level")
    code, _ = run_cli(tmp_path, FAST_LIFT, "logged2")
    assert code == 0


# ---------------------------------------------------------------------------
# cold start

ROOT = Path(__file__).resolve().parent.parent

COLD_START = """
import sys
from pathlib import Path

import roughmkv
import roughmkv.cli

scenarios, out = Path(sys.argv[1]), Path(sys.argv[2])
for name in ("lift_checks", "residual_scan", "chaos_scan", "diagnostics", "duality"):
    code = roughmkv.cli.main([
        "--scenario", str(scenarios / f"{name}.ini"),
        "--out", str(out / name), "--no-timestamp",
    ])
    assert code == 0, (name, code)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_without_scipy_load_no_scipy(tmp_path):
    # only exact W2 for dim > 1 and brute-force W2 call scipy; every bundled
    # run must start and finish without it
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(ROOT / "scenarios"), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_run_experiments_script_runs_from_a_plain_checkout(tmp_path):
    # no PYTHONPATH and no installed package: the script finds src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
         "--only", "lift_checks", "--no-timestamp", "--out", str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "lift_checks" / "summary.json").is_file()


def test_run_experiments_lists_the_digest_of_every_file_it_wrote(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "lift.ini").write_text((ROOT / "scenarios" / "lift_checks.ini").read_text())
    listings = []
    for out in ("a", "b"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
             "--scenarios", str(scenarios), "--no-timestamp", "--digests",
             "--out", str(tmp_path / out)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        listings.append(done.stdout)
    root = tmp_path / "a"
    written = sorted(f for f in root.rglob("*") if f.is_file())
    assert len(written) >= 2
    want = "".join(
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.relative_to(root).as_posix()}\n"
        for f in written
    )
    assert listings == [want, want]


def test_run_experiments_refuses_a_directory_without_scenarios(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
         "--scenarios", str(tmp_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "no *.ini files" in done.stderr


def test_run_experiments_reports_a_non_utf8_scenario_and_runs_the_rest(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "a_latin1.ini").write_bytes(
        FAST_LIFT.replace("fast_lift", "caf\u00e9").encode("latin-1")
    )
    (scenarios / "b_valid.ini").write_text(FAST_LIFT)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
         "--scenarios", str(scenarios), "--no-timestamp", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert f"error: {scenarios / 'a_latin1.ini'}: not UTF-8 text" in done.stderr
    assert "a_latin1: exit 1" in done.stdout and "b_valid: exit 0" in done.stdout
    assert (tmp_path / "out" / "b_valid" / "summary.json").is_file()


def test_bench_compare_calls_a_change_only_when_the_quartile_ranges_are_apart():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def case(*samples):
        return {"unit": "ns", "work": 1, "best": min(samples),
                "median": float(np.median(samples)), "spread": None, "samples": list(samples)}

    tight = case(98.0, 99.0, 100.0, 101.0, 102.0)               # quartiles 99 and 101
    old = {"cases": {"wide": tight, "b": tight, "c": tight, "edge": tight,
                     "gone": case(1.0)}}
    new = {"cases": {"wide": case(80.0, 90.0, 95.0, 100.0, 110.0),
                     "b": case(70.0, 75.0, 80.0, 85.0, 90.0),
                     "c": case(120.0, 122.0, 125.0, 128.0, 130.0),
                     "edge": case(90.0, 95.0, 97.0, 99.0, 100.0),
                     "added": case(1.0)}}
    _, *rows = bench.compare(old, new)
    # only cases in both files; "wide" has its median 5 below the old one,
    # past the old quartile distance of 2, but its q75 of 100 is not below 99
    assert [row.split()[0] for row in rows] == ["wide", "b", "c", "edge"]
    assert [row.split("  ")[-1] for row in rows] == [
        "within spread", "faster", "slower", "within spread"]
    assert rows[1].split()[2:8] == ["100", "80", "0.800", "0.714", "0.020", "0.125"]