"""Command-line front end: single-point evaluation, parameter sweeps,
cross-engine comparison and the finite-antenna validation table.

Exit codes: 0 success, 1 usage or configuration error, 2 built-in trend
assertion failure or a ``compare`` verdict where the engines disagree.
Output rows are computed independently per distinct sweep scenario
(possibly in parallel, capped by NETSIM_THREADS) and written in declaration
order, so the CSV is byte-identical regardless of scheduling.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy

from . import config as cfgmod
from . import mc
from .analytics import RANDOM_MODES, STRATEGIES, AnalyticEngine, Scenario
from .channel import CONVENTIONS
from .errors import ParameterError
from .geometry import Window

CSV_HEADER = "strategy,engine,param,value,lambda_star_density,lambda_star_fit,k_ue,ee,ce,ci_ee,ci_ce,seed"
_CSV_FIELDS = CSV_HEADER.split(",")

_PARAM_TO_KEY = {"lambda_b": "lambda_b", "delta": "delta_m", "antennas_m": "antennas_m"}
_ENGINE_NAMES = {"analytic": ("analytic",), "mc": ("montecarlo",), "both": ("analytic", "montecarlo")}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exceptions (exit code 1)."""

    def error(self, message):
        raise ParameterError(message)


@dataclass
class ResultRow:
    strategy: str
    engine: str
    param: str
    value: float
    lambda_star_density: float
    lambda_star_fit: float
    k_ue: float
    ee: float
    ce: float
    ci_ee: float
    ci_ce: float
    seed: int
    failure: str | None = None

    def to_csv(self) -> str:
        values = (getattr(self, name) for name in _CSV_FIELDS)
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _thread_count() -> int:
    env = os.environ.get("NETSIM_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ParameterError(f"NETSIM_THREADS must be an integer, got {env!r}") from exc
        if n < 1:
            raise ParameterError("NETSIM_THREADS must be >= 1")
        return n
    return min(4, os.cpu_count() or 1)


def _content_hash(text: str) -> str:
    """Hash of the run inputs, git blob style."""
    blob = f"blob {len(text.encode())}\0".encode() + text.encode()
    return hashlib.sha1(blob).hexdigest()


def _analytic_row(scenario: Scenario, cfg, param: str, value: float) -> ResultRow:
    engine = AnalyticEngine(scenario)
    mode = "marginalized" if cfg.traffic_mode == "sampled" else cfg.traffic_mode
    ee = engine.energy_efficiency()
    ce = engine.coverage_efficiency_traffic(mode)
    return ResultRow(
        strategy=scenario.strategy,
        engine="analytic",
        param=param,
        value=value,
        lambda_star_density=engine.active_density,
        lambda_star_fit=engine.lambda_star_fit,
        k_ue=engine.k_ue,
        ee=ee,
        ce=ce,
        ci_ee=0.0,
        ci_ce=0.0,
        seed=cfg.seed,
    )


def _mc_row(scenario: Scenario, window: Window, cfg, param: str, value: float) -> ResultRow:
    engine = AnalyticEngine(scenario)
    mode = "sampled" if cfg.traffic_mode in ("sampled", "marginalized") else "at-mean"
    ee = mc.estimate_ee(scenario, window, cfg.realizations, cfg.seed, engine=engine)
    ce = mc.estimate_ce(
        scenario, window, cfg.realizations, cfg.seed, traffic_mode=mode, engine=engine
    )
    return ResultRow(
        strategy=scenario.strategy,
        engine="montecarlo",
        param=param,
        value=value,
        lambda_star_density=engine.active_density,
        lambda_star_fit=engine.lambda_star_fit,
        k_ue=engine.k_ue,
        ee=ee.mean,
        ce=ce.mean,
        ci_ee=1.96 * ee.std_error,
        ci_ce=1.96 * ce.std_error,
        seed=cfg.seed,
    )


def _compute_row(point, scenario: Scenario, engine_name, param, value) -> ResultRow:
    try:
        if engine_name == "analytic":
            return _analytic_row(scenario, point, param, float(value))
        return _mc_row(scenario, cfgmod.to_window(point), point, param, float(value))
    except Exception as exc:  # row-level failure: emit NaNs, keep sweeping
        fields = dict.fromkeys(_CSV_FIELDS, math.nan)
        fields.update(strategy=point.strategy, engine=engine_name, param=param, value=float(value), seed=point.seed)
        return ResultRow(**fields, failure=f"{type(exc).__name__}: {exc}")


def _trend_assertions(rows: list[ResultRow], param: str) -> list[dict]:
    """Built-in monotonicity/ordering checks on the analytic sweep output."""
    out = []

    def series(strategy):
        sel = [r for r in rows if r.engine == "analytic" and r.strategy == strategy and r.failure is None]
        return sorted(sel, key=lambda r: r.value)

    hc = series("matern")
    if param in ("lambda_b", "delta") and len(hc) >= 2:
        ee = [r.ee for r in hc]
        out.append(
            {
                "name": f"ee-increasing-in-{param}",
                "passed": all(b > a for a, b in zip(ee, ee[1:])),
                "detail": ee,
            }
        )
    if param == "antennas_m" and len(hc) >= 2:
        ee = [r.ee for r in hc]
        ce = [r.ce for r in hc]
        out.append(
            {
                "name": "ee-decreasing-in-antennas",
                "passed": all(b < a for a, b in zip(ee, ee[1:])),
                "detail": ee,
            }
        )
        spread = (max(ce) - min(ce)) / max(ce) if max(ce) > 0 else 0.0
        out.append({"name": "ce-flat-in-antennas", "passed": spread < 0.01, "detail": spread})
    # strategy ordering at each sweep value, when all three are present
    values = sorted({r.value for r in rows if r.engine == "analytic"})
    by = {
        (r.strategy, r.value): r.ee
        for r in rows
        if r.engine == "analytic" and r.failure is None
    }
    ordered = []
    for v in values:
        trio = [by.get((s, v)) for s in ("matern", "random", "ppp")]
        if all(x is not None for x in trio):
            ordered.append(trio[0] > trio[1] > trio[2])
    if ordered:
        out.append({"name": "ee-strategy-ordering", "passed": all(ordered), "detail": None})
    return out


def _write_outputs(out_dir, rows, cfg, assertions, wall_clock, gnuplot=False):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    lines = [CSV_HEADER] + [r.to_csv() for r in rows]
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg_text = cfgmod.serialize_config(cfg)
    summary = {
        "config": asdict(cfg),
        "content_hash": _content_hash(cfg_text),
        "wall_clock_s": wall_clock,
        "rows": len(rows),
        "failures": [
            {"strategy": r.strategy, "engine": r.engine, "value": r.value, "reason": r.failure}
            for r in rows
            if r.failure
        ],
        "assertions": assertions,
        "toolchain": {"python": platform.python_version(), "numpy": np.__version__,
                      "scipy": scipy.__version__, "cpu_count": os.cpu_count()},
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if gnuplot:
        script = (
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set logscale y\n"
            f"plot 'results.csv' using 4:8 with linespoints title 'ee'\n"
        )
        with open(os.path.join(out_dir, "plot.gp"), "w", encoding="utf-8") as fh:
            fh.write(script)
    return csv_path


def _load_config(args) -> cfgmod.RunConfig:
    """The config file (or the defaults), with every flag given overriding it."""
    cfg = cfgmod.parse_config(args.config) if args.config else cfgmod.RunConfig()
    keys = ("seed", "strategy", "shadowing_convention", "random_mode")
    return replace(cfg, **{k: getattr(args, k) for k in keys if getattr(args, k) is not None})


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--shadowing-convention", choices=CONVENTIONS, default=None)
    p.add_argument("--random-mode", choices=RANDOM_MODES, default=None)
    p.add_argument("--gnuplot", action="store_true", help="emit a plot script")


def build_parser() -> _Parser:
    parser = _Parser(prog="greencell")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("analytic", "simulate"):
        p = sub.add_parser(name)
        _add_common(p)

    p = sub.add_parser("sweep")
    _add_common(p)
    p.add_argument("--param", choices=tuple(_PARAM_TO_KEY), required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument(
        "--strategies", default="matern,random,ppp", help="comma-separated strategy list"
    )
    p.add_argument("--engine", choices=("analytic", "mc", "both"), default="analytic")

    p = sub.add_parser("compare")
    _add_common(p)
    p.add_argument("--r-int", type=float, default=100.0, help="probe serving distance, m")

    p = sub.add_parser("validate-asymptotics")
    _add_common(p)
    p.add_argument("--antennas", default="16,64,256", help="comma-separated antenna counts")
    p.add_argument("--trials", type=int, default=200)
    return parser


def _cmd_point(args, engine_name: str) -> int:
    cfg = _load_config(args)
    t0 = time.time()
    scenario = cfgmod.to_scenario(cfg)
    row = _compute_row(cfg, scenario, engine_name, "none", 0.0)
    if row.failure:
        print(f"error: {row.failure}", file=sys.stderr)
        return 1
    _write_outputs(args.out, [row], cfg, [], time.time() - t0, gnuplot=args.gnuplot)
    print(row.to_csv())
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --values: {args.values!r}") from exc
    if not values:
        raise ParameterError("--values must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterError("--values must be strictly increasing")
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s not in STRATEGIES:
            raise ParameterError(f"unknown strategy {s!r}")
    if args.param == "antennas_m" and not all(v.is_integer() for v in values):
        raise ParameterError(f"antennas_m values must be integers: {args.values!r}")
    engines = _ENGINE_NAMES[args.engine]

    t0 = time.time()
    tasks, unique = [], {}
    for strategy in strategies:
        for engine in engines:
            for value in values:
                updates = {_PARAM_TO_KEY[args.param]: int(value) if args.param == "antennas_m" else value}
                point = replace(cfg, strategy=strategy, **updates)
                scenario = cfgmod.to_scenario(point)
                # equal keys are one computation (every ppp row of a delta sweep),
                # merged before the pool so that no two threads compute one row
                key = (engine, scenario, cfgmod.to_window(point))
                unique.setdefault(key, (point, scenario, engine, args.param, value))
                tasks.append((key, value))
    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        done = dict(zip(unique, pool.map(lambda t: _compute_row(*t), unique.values())))
    rows = [replace(done[key], value=float(value)) for key, value in tasks]
    assertions = _trend_assertions(rows, args.param)
    _write_outputs(args.out, rows, cfg, assertions, time.time() - t0, gnuplot=args.gnuplot)
    failed = [a for a in assertions if not a["passed"]]
    for a in assertions:
        status = "ok" if a["passed"] else "FAILED"
        print(f"assertion {a['name']}: {status}")
    return 2 if failed else 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    scenario = cfgmod.to_scenario(cfg)
    window = cfgmod.to_window(cfg)
    engine = AnalyticEngine(scenario)
    n = cfg.realizations
    report = []

    i_ana = engine.avg_interference(args.r_int)
    i_mc = mc.estimate_interference(scenario, window, args.r_int, n, cfg.seed, engine=engine)
    z = (i_mc.mean - i_ana) / i_mc.std_error if i_mc.std_error > 0 else math.inf
    report.append(
        {
            "quantity": f"interference@{args.r_int:g}m",
            "analytic": i_ana,
            "mc_mean": i_mc.mean,
            "mc_se": i_mc.std_error,
            "verdict": "agree" if abs(z) <= 3.0 else f"disagree (z={z:.1f})",
        }
    )

    ee_ana = engine.energy_efficiency()
    ee_mc = mc.estimate_ee(scenario, window, n, cfg.seed, engine=engine)
    jensen_ok = ee_ana <= ee_mc.mean + 3.0 * ee_mc.std_error
    report.append(
        {
            "quantity": "energy-efficiency",
            "analytic": ee_ana,
            "mc_mean": ee_mc.mean,
            "mc_se": ee_mc.std_error,
            "jensen_direction": jensen_ok,
            "verdict": "lower-bound holds" if jensen_ok else "lower-bound violated",
        }
    )

    ce_ana = engine.coverage_efficiency_traffic("at-mean")
    ce_mc = mc.estimate_ce(
        scenario, window, n, cfg.seed, sinr_mode="mean-interference", engine=engine
    )
    zc = (ce_mc.mean - ce_ana) / ce_mc.std_error if ce_mc.std_error > 0 else math.inf
    report.append(
        {
            "quantity": "coverage-efficiency",
            "analytic": ce_ana,
            "mc_mean": ce_mc.mean,
            "mc_se": ce_mc.std_error,
            "verdict": "agree" if abs(zc) <= 3.0 else f"disagree (z={zc:.1f})",
        }
    )

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "compare.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for item in report:
        print(
            f"{item['quantity']}: analytic={item['analytic']:.6g} "
            f"mc={item['mc_mean']:.6g}+-{item['mc_se']:.2g}  {item['verdict']}"
        )
    agreed = all(item["verdict"] in ("agree", "lower-bound holds") for item in report)
    return 0 if agreed else 2


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    scenario = cfgmod.to_scenario(cfg)
    try:
        m_list = [int(v) for v in args.antennas.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --antennas: {args.antennas!r}") from exc
    cells = [(-3.0 * cfg.delta_m, 0.0), (3.0 * cfg.delta_m, 0.0), (0.0, 4.0 * cfg.delta_m)]
    rows = mc.finite_m_validation(
        m_list,
        max(int(round(cfg.ues_per_cell_l)), 1),
        cells,
        scenario.radio,
        seed=cfg.seed,
        n_trials=args.trials,
    )
    for r in rows:
        print(
            f"M={r.antennas_m:5d}  median_rel_error={r.median_rel_error:.5f}  "
            f"mean_rel_error={r.mean_rel_error:.5f}  diag_deviation={r.diag_deviation:.3e}"
        )
    errs = [r.median_rel_error for r in rows]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    print(f"median error decreasing in antenna count: {'ok' if monotone else 'FAILED'}")
    return 0 if monotone else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analytic":
            return _cmd_point(args, "analytic")
        if args.command == "simulate":
            return _cmd_point(args, "montecarlo")
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_validate(args)
    except (ParameterError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
