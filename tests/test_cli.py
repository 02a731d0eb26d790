import json

import pytest

from greencell import cli

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
# and by lambda_star_fit, which scipy's brentq still solves for.  1e-12 is
# far below the code's tightest stated error budget (the 1e-6 coverage
# cross-check), so any change to the model or the numerics still fails.
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


def test_sweep_deterministic_across_threads(cfg_file, tmp_path, monkeypatch):
    outputs = []
    for threads, name in (("1", "a"), ("3", "b")):
        monkeypatch.setenv("NETSIM_THREADS", threads)
        out = tmp_path / name
        code = cli.main(
            [
                "sweep",
                "--config",
                cfg_file,
                "--param",
                "delta",
                "--values",
                "100,200",
                "--engine",
                "both",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


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
    assert cli.main(["compare", "--config", cfg_file, "--out", str(out), "--r-int", "100"]) == 0
    report = json.loads((out / "compare.json").read_text())
    quantities = {item["quantity"] for item in report}
    assert "interference@100m" in quantities
    assert "energy-efficiency" in quantities
    jensen = [i for i in report if i["quantity"] == "energy-efficiency"][0]
    assert jensen["jensen_direction"] is True


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
