import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from greencell import cli, mc

SRC = str(Path(__file__).resolve().parents[1] / "src")

FAST_CFG = """\
lambda_b=1e-4
delta_m=200
sigma_s=0
window_m=2000
guard_m=600
realizations=40
seed=7
"""

GOLDEN_ANALYTIC = (
    "strategy,engine,param,value,lambda_star_density,lambda_star_fit,k_ue,ee,ce,ci_ee,ci_ce,seed\n"
    "matern,analytic,none,0.0,7.957719403206055e-06,1.404342809413739e-05,"
    "62.83207218874253,31.562689607932665,0.5099283249518497,0.0,0.0,7\n"
)


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CFG)
    return str(path)


# The header, the text fields and the number format are pinned exactly; the
# numbers are pinned to relative 1e-12.  ce is the fixed-rule nearest-law CDF
# at the distance the secant inversion stops at: it matches a 40-digit CDF at
# that distance to the last digit, so its last bits are set by where the
# inversion stops within its 1e-13 tolerance, which moves ce by up to ~1e-13,
# and by where the regula falsi fit of lambda_star_fit stops.  1e-12 is far
# below the code's tightest stated error budget (the 1e-6 agreement of the
# two coverage routes), so any change to the model or the numerics still fails.
GOLDEN_RTOL = 1e-12
TEXT_FIELDS = ("strategy", "engine", "param", "seed")


def test_analytic_golden_csv(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["analytic", "--config", cfg_file, "--out", str(out)]) == 0
    got = (out / "results.csv").read_text().split("\n")
    want = GOLDEN_ANALYTIC.split("\n")
    assert len(got) == len(want) and got[0] == want[0] and got[-1] == ""
    for name, g, w in zip(want[0].split(","), got[1].split(","), want[1].split(","), strict=True):
        if name in TEXT_FIELDS:
            assert g == w, name
        else:
            assert g == repr(float(g)), f"{name}: {g!r} is not the shortest repr"
            assert float(g) == pytest.approx(float(w), rel=GOLDEN_RTOL, abs=0.0), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["delta_m"] == 200.0
    assert summary["rows"] == 1
    assert len(summary["content_hash"]) == 40


def test_simulate_runs_and_reports_ci(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_file, "--out", str(out)]) == 0
    row = (out / "results.csv").read_text().splitlines()[1].split(",")
    assert row[1] == "montecarlo"
    assert float(row[9]) > 0  # ci_ee
    assert 0.0 <= float(row[8]) <= 1.0  # ce
    (diag,) = json.loads((out / "summary.json").read_text())["diagnostics"]
    assert diag["engine"] == "montecarlo"
    assert diag["ce"] == {"realizations_requested": 40, "realizations_used": 40}
    assert diag["ee"]["realizations_requested"] == 40
    assert 2 <= diag["ee"]["realizations_used"] <= 40


def test_sweep_computes_each_distinct_scenario_once(cfg_file, tmp_path, monkeypatch):
    """ppp rows do not depend on delta: a delta sweep computes them once and
    writes the row at every value."""
    calls = []
    run_estimators = mc.run_estimators

    def counted(scenario, *args, **kwargs):
        calls.append(scenario.strategy)
        return run_estimators(scenario, *args, **kwargs)

    monkeypatch.setattr(mc, "run_estimators", counted)
    out = tmp_path / "out"
    argv = ["sweep", "--config", cfg_file, "--param", "delta", "--values", "100,200"]
    code = cli.main(argv + ["--strategies", "ppp,matern", "--engine", "mc", "--out", str(out)])
    assert code == 0
    assert sorted(calls) == ["matern", "matern", "ppp"]
    lines = (out / "results.csv").read_text().splitlines()
    value = lines[0].split(",").index("value")
    ppp = [line.split(",") for line in lines[1:] if line.startswith("ppp,")]
    assert [row.pop(value) for row in ppp] == ["100.0", "200.0"]
    assert ppp[0] == ppp[1]


def test_sweep_trend_assertions_recorded(cfg_file, tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "sweep",
            "--config",
            cfg_file,
            "--param",
            "delta",
            "--values",
            "100,200,300",
            "--engine",
            "analytic",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    names = {a["name"]: a["passed"] for a in summary["assertions"]}
    assert names["ee-increasing-in-delta"] is True
    assert names["ee-strategy-ordering"] is True


def test_sweep_antenna_assertions(cfg_file, tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "sweep",
            "--config",
            cfg_file,
            "--param",
            "antennas_m",
            "--values",
            "64,128,256",
            "--strategies",
            "matern",
            "--engine",
            "analytic",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    names = {a["name"]: a["passed"] for a in summary["assertions"]}
    assert names["ee-decreasing-in-antennas"] is True
    assert names["ce-flat-in-antennas"] is True


def test_summary_records_toolchain(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["analytic", "--config", cfg_file, "--out", str(out)]) == 0
    toolchain = json.loads((out / "summary.json").read_text())["toolchain"]
    assert set(toolchain) == {"python", "numpy", "cpu_count"}
    assert toolchain["numpy"] == np.__version__
    assert (out / "results.csv").read_text().splitlines()[0] == cli.CSV_HEADER


def test_cli_import_loads_only_what_a_run_needs():
    # every CLI call pays for the import: after numpy's, it builds no Gauss rule
    # (decimal), reads no package metadata (importlib.metadata, email) and
    # loads neither numpy.ma nor scipy.  Modules loaded before the import, by
    # numpy or by the interpreter's site, do not count.
    script = (
        "import sys\n"
        "import numpy, numpy.random\n"
        "before = set(sys.modules)\n"
        "import greencell.cli\n"
        "banned = ('decimal', 'numpy.ma', 'importlib.metadata', 'email', 'scipy')\n"
        "new = sorted(m for m in set(sys.modules) - before if any(m == b or m.startswith(b + '.') for b in banned))\n"
        "assert not new, f'greencell.cli loaded {new}'\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_config_key_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus=1\n")
    assert cli.main(["analytic", "--config", str(bad)]) == 1


def test_usage_error_exit_code(cfg_file):
    assert cli.main(["sweep", "--config", cfg_file, "--values", "1,2"]) == 1
    assert cli.main(["sweep", "--config", cfg_file, "--param", "delta", "--values", "2,1"]) == 1
    assert cli.main(["sweep", "--config", cfg_file, "--param", "delta", "--values", "1,2", "--strategies", "hex"]) == 1


def test_missing_config_file_exit_code():
    assert cli.main(["analytic", "--config", "/nonexistent/path.cfg"]) == 1


def test_validate_asymptotics_exit_codes(cfg_file):
    assert cli.main(["validate-asymptotics", "--config", cfg_file, "--antennas", "16,64", "--trials", "30"]) == 0
    # reversed antenna order makes the decreasing-error check fail
    assert cli.main(["validate-asymptotics", "--config", cfg_file, "--antennas", "64,16", "--trials", "30"]) == 2


def test_compare_writes_report(cfg_file, tmp_path):
    out = tmp_path / "out"
    # exit 2: coverage disagrees here, through the closed-form serving-distance
    # law that criterion 4 finds off
    assert cli.main(["compare", "--config", cfg_file, "--out", str(out), "--r-int", "100"]) == 2
    report = json.loads((out / "compare.json").read_text())
    quantities = {item["quantity"] for item in report}
    assert "interference@100m" in quantities
    assert "energy-efficiency" in quantities
    jensen = [i for i in report if i["quantity"] == "energy-efficiency"][0]
    assert jensen["jensen_direction"] is True
    assert jensen["jensen_ratio"] == jensen["mc_mean"] / jensen["analytic"]
    coverage = [i for i in report if i["quantity"] == "coverage-efficiency"][0]
    assert coverage["verdict"].startswith("disagree")
    # the MC coverage counts the users inside the radius the analytic CDF is read at
    assert 0.0 < coverage["coverage_radius_m"] < 6000.0
    assert coverage["radius_clipped"] is False
    # station power has a z verdict on the realizations EE keeps
    power = [i for i in report if i["quantity"] == "transmit-power"][0]
    assert power["verdict"] == "agree"
    assert power["realizations_used"] == jensen["realizations_used"]
    # interference and coverage score every realization; EE may skip some
    assert [item["realizations_requested"] for item in report] == [40, 40, 40, 40]
    assert report[0]["realizations_used"] == report[2]["realizations_used"] == 40
    assert 2 <= report[1]["realizations_used"] <= 40


def test_gnuplot_script_emitted(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert (
        cli.main(
            [
                "sweep",
                "--config",
                cfg_file,
                "--param",
                "delta",
                "--values",
                "100,200",
                "--strategies",
                "matern",
                "--engine",
                "analytic",
                "--out",
                str(out),
                "--gnuplot",
            ]
        )
        == 0
    )
    assert "results.csv" in (out / "plot.gp").read_text()


def test_row_failure_keeps_sweep_running(tmp_path):
    # alpha=2 makes the analytic transmit power diverge; the sweep must
    # emit a failed row and continue
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG + "alpha=2\n")
    out = tmp_path / "out"
    code = cli.main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--param",
            "delta",
            "--values",
            "100,200",
            "--strategies",
            "matern",
            "--engine",
            "analytic",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["failures"]) == 2
    assert "Divergence" in summary["failures"][0]["reason"]
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "nan" in lines[1]


def _analytic_run(out, argv):
    assert cli.main(["analytic", "--out", str(out)] + argv) == 0
    summary = json.loads((out / "summary.json").read_text())
    return (out / "results.csv").read_text(), summary


def test_shadowing_convention_is_recorded(tmp_path):
    csv_default, default = _analytic_run(tmp_path / "a", [])
    csv_flag, flag = _analytic_run(tmp_path / "b", ["--shadowing-convention", "db-std"])
    assert csv_default != csv_flag
    assert default["content_hash"] != flag["content_hash"]
    assert (default["config"]["shadowing_convention"], flag["config"]["shadowing_convention"]) == (
        "paper-moments",
        "db-std",
    )
    cfg = tmp_path / "db.cfg"
    cfg.write_text("shadowing_convention=db-std\n")
    csv_file, from_file = _analytic_run(tmp_path / "c", ["--config", str(cfg)])
    assert csv_file == csv_flag
    assert from_file["content_hash"] == flag["content_hash"]


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("random_mode=remove\nshadowing_convention=db-std\nseed=3\n")
    parser = cli.build_parser()
    loaded = cli._load_config(parser.parse_args(["analytic", "--config", str(cfg)]))
    assert (loaded.random_mode, loaded.shadowing_convention, loaded.seed) == ("remove", "db-std", 3)
    argv = ["analytic", "--config", str(cfg), "--random-mode", "retain", "--shadowing-convention", "paper-moments"]
    loaded = cli._load_config(parser.parse_args(argv))
    assert (loaded.random_mode, loaded.shadowing_convention, loaded.seed) == ("retain", "paper-moments", 3)


def test_bad_antenna_list_is_an_input_error(cfg_file, capsys):
    assert cli.main(["validate-asymptotics", "--config", cfg_file, "--antennas", "16,x"]) == 1
    assert capsys.readouterr().err.startswith("error: bad --antennas")


def test_antenna_sweep_rejects_fractional_counts(cfg_file, tmp_path, capsys):
    argv = ["sweep", "--config", cfg_file, "--param", "antennas_m", "--values", "16.2,16.7"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: antennas_m values must be integers")
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_non_finite_values(cfg_file, tmp_path, capsys):
    argv = ["sweep", "--config", cfg_file, "--param", "delta", "--values", "100,inf"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: --values must be non-empty and finite")
    assert not (tmp_path / "out").exists()


def test_non_finite_config_value_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CFG + "delta_m=inf\n")
    assert cli.main(["analytic", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: line 8: delta_m must be finite")


def test_validate_rejects_zero_trials(cfg_file, capsys):
    assert cli.main(["validate-asymptotics", "--config", cfg_file, "--trials", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: --trials must be >= 1")


def test_analytic_demand_beyond_float_range_exits_zero(tmp_path, capsys):
    # the at-mean demand 1200 bits would overflow 2**rho; it is clipped coverage
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CFG + "rho_min=400\n")
    assert cli.main(["analytic", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    row = capsys.readouterr().out.strip().split(",")
    assert 0.0 < float(row[8]) < 1e-4


@pytest.mark.parametrize("r_int", ["inf", "nan"])
def test_compare_rejects_non_finite_probe_distance(cfg_file, tmp_path, capsys, r_int):
    argv = ["compare", "--config", cfg_file, "--out", str(tmp_path / "out"), "--r-int", r_int]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --r-int must be > 0 and finite")
    assert not (tmp_path / "out").exists()


def test_compare_reports_analytic_divergence_as_error(tmp_path, capsys):
    # the transmit-power integral (the kernel at p = alpha) diverges at alpha = 2:
    # an error line, not a traceback
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CFG.replace("realizations=40", "realizations=4") + "alpha=2\n")
    assert cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: InterferenceDivergenceError: plane integral of distance^-p diverges for p = 2 <= 2 (transmit power"
    )
    assert "Traceback" not in err


def test_compare_without_users(tmp_path):
    # no users: EE and station power are exactly 0 in both engines, with no spread
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CFG.replace("realizations=40", "realizations=4") + "ues_per_cell_l=0\n")
    cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
    report = {item["quantity"]: item for item in json.loads((tmp_path / "out" / "compare.json").read_text())}
    assert report["energy-efficiency"]["jensen_ratio"] is None
    power = report["transmit-power"]
    assert power["analytic"] == power["mc_mean"] == power["mc_se"] == 0.0
    assert power["verdict"] == "agree"


def test_validate_rejects_empty_antenna_list(cfg_file, capsys):
    assert cli.main(["validate-asymptotics", "--config", cfg_file, "--antennas", ""]) == 1
    assert capsys.readouterr().err.startswith("error: --antennas must be non-empty")


def test_simulate_with_no_usable_realizations_is_one_error_line(tmp_path):
    """A 40 m window at lambda_b = 1e-5 holds no station in any of its 3
    realizations: the row fails on the realization count, before any
    estimate reduces an empty sample (which would warn from numpy)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window_m=40\nguard_m=0\nlambda_b=1e-5\nrealizations=3\n")
    argv = [sys.executable, "-m", "greencell.cli", "simulate", "--seed", "1", "--config", str(cfg)]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(argv + ["--out", str(tmp_path / "out")], env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: ParameterError: 0 of 3 realizations usable; need at least 2"]
    assert "RuntimeWarning" not in proc.stderr
