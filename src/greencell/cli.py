"""Command-line front end: single-point evaluation, parameter sweeps,
cross-engine comparison and the finite-antenna validation table.

Exit codes: 0 success, 1 usage or configuration error, 2 built-in trend
assertion failure or a ``compare`` verdict where the engines disagree.
A sweep computes each distinct scenario once, in order, and writes its rows
in declaration order.
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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import config as cfgmod
from . import mc
from .analytics import STRATEGIES, AnalyticEngine, Scenario
from .channel import CONVENTIONS
from .errors import InterferenceDivergenceError, MonotonicityError, NormalizationFitError
from .errors import ParameterError

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
    diagnostics: dict | None = None  # JSON only; the CSV header is frozen

    def to_csv(self) -> str:
        values = (getattr(self, name) for name in _CSV_FIELDS)
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _content_hash(text: str) -> str:
    """Hash of the run inputs, git blob style."""
    blob = f"blob {len(text.encode())}\0".encode() + text.encode()
    return hashlib.sha1(blob).hexdigest()


def _compute_row(point, scenario: Scenario, engine_name, param, value) -> ResultRow:
    try:
        engine = AnalyticEngine(scenario)
        diagnostics = None
        marginalized = point.traffic_mode != "at-mean"  # "marginalized" and "sampled": the whole demand law
        if engine_name == "analytic":
            ee, ce = engine.energy_efficiency(), engine.coverage_efficiency_traffic(marginalized)
            ci_ee = ci_ce = 0.0
        else:
            window = cfgmod.to_window(point)
            [((ee_mc, _), ce_mc)] = mc.run_estimators(scenario, window, point.realizations, point.seed, [
                mc.ee_ce_estimator(engine, window, marginalized)])
            ee, ce, ci_ee, ci_ce = ee_mc.mean, ce_mc.mean, 1.96 * ee_mc.std_error, 1.96 * ce_mc.std_error
            diagnostics = {name: {"realizations_requested": point.realizations,
                                  "realizations_used": est.realization_count}
                           for name, est in (("ee", ee_mc), ("ce", ce_mc))}
            diagnostics.update(mc.user_counts(engine))
        return ResultRow(scenario.strategy, engine_name, param, float(value), engine.active_density,
                         engine.lambda_star_fit, engine.k_ue, ee, ce, ci_ee, ci_ce, point.seed, diagnostics=diagnostics)
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
    ee, ce = [r.ee for r in hc], [r.ce for r in hc]
    if param in ("lambda_b", "delta") and len(hc) >= 2:
        passed = all(b > a for a, b in zip(ee, ee[1:]))
        out.append({"name": f"ee-increasing-in-{param}", "passed": passed, "detail": ee})
    if param == "antennas_m" and len(hc) >= 2:
        passed = all(b < a for a, b in zip(ee, ee[1:]))
        out.append({"name": "ee-decreasing-in-antennas", "passed": passed, "detail": ee})
        spread = (max(ce) - min(ce)) / max(ce) if max(ce) > 0 else 0.0
        out.append({"name": "ce-flat-in-antennas", "passed": spread < 0.01, "detail": spread})
    # strategy ordering at each sweep value, when all three are present; where they share one
    # active density no station is switched off, all three are one Poisson process and tie
    values = sorted({r.value for r in rows if r.engine == "analytic"})
    by = {(r.strategy, r.value): r for r in rows if r.engine == "analytic" and r.failure is None}
    ordered = []
    for v in values:
        trio = [by.get((s, v)) for s in ("matern", "random", "ppp")]
        if all(x is not None for x in trio):
            m, r, p = (x.ee for x in trio)
            poisson = len({x.lambda_star_density for x in trio}) == 1
            ordered.append(m == r == p if poisson else m > r > p)
    if ordered:
        out.append({"name": "ee-strategy-ordering", "passed": all(ordered), "detail": None})
    return out


def _write_outputs(out_dir, rows, cfg, assertions, wall_clock):
    os.makedirs(out_dir, exist_ok=True)
    lines = [CSV_HEADER] + [r.to_csv() for r in rows]
    with open(os.path.join(out_dir, "results.csv"), "w", encoding="utf-8", newline="\n") as fh:
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
        "diagnostics": [{"strategy": r.strategy, "engine": r.engine, "value": r.value, **r.diagnostics}
                        for r in rows if r.diagnostics],
        "toolchain": {"python": platform.python_version(), "numpy": np.__version__, "cpu_count": os.cpu_count(),
                      "numpy_simd": np.show_config(mode="dicts")["SIMD Extensions"]},
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(args) -> cfgmod.RunConfig:
    """The config file (or the defaults), with every flag given overriding it;
    a flag the command does not take reads as absent."""
    cfg = cfgmod.parse_config(args.config) if args.config else cfgmod.RunConfig()
    flags = {k: getattr(args, k, None) for k in ("seed", "strategy", "shadowing_convention")}
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def build_parser() -> _Parser:
    """One subparser per command, each taking only the flags the command reads, spelled in full."""
    parser = _Parser(prog="greencell", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {name: sub.add_parser(name, allow_abbrev=False)
            for name in ("analytic", "simulate", "sweep", "compare", "validate-asymptotics")}
    for p in cmds.values():
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
    for name in ("analytic", "simulate", "sweep", "compare"):
        cmds[name].add_argument("--out", default=".", help="output directory")
        cmds[name].add_argument("--shadowing-convention", choices=CONVENTIONS, default=None)
    for name in ("analytic", "simulate", "compare"):
        cmds[name].add_argument("--strategy", choices=STRATEGIES, default=None)

    p = cmds["sweep"]
    p.add_argument("--param", choices=tuple(_PARAM_TO_KEY), required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument(
        "--strategies", default="matern,random,ppp", help="comma-separated strategy list"
    )
    p.add_argument("--engine", choices=("analytic", "mc", "both"), default="analytic")

    cmds["compare"].add_argument("--r-int", type=float, default=100.0, help="probe serving distance, m")

    p = cmds["validate-asymptotics"]
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
    _write_outputs(args.out, [row], cfg, [], time.time() - t0)
    print(row.to_csv())
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --values: {args.values!r}") from exc
    if not values or not all(map(math.isfinite, values)):
        raise ParameterError(f"--values must be non-empty and finite: {args.values!r}")
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
    rows, done = [], {}
    for strategy in strategies:
        for engine in engines:
            for value in values:
                updates = {_PARAM_TO_KEY[args.param]: int(value) if args.param == "antennas_m" else value}
                point = replace(cfg, strategy=strategy, **updates)
                scenario = cfgmod.to_scenario(point)
                # equal keys are one computation (every ppp row of a delta sweep)
                key = (engine, scenario, cfgmod.to_window(point))
                if key not in done:
                    done[key] = _compute_row(point, scenario, engine, args.param, value)
                rows.append(replace(done[key], value=float(value)))
    assertions = _trend_assertions(rows, args.param)
    _write_outputs(args.out, rows, cfg, assertions, time.time() - t0)
    failed = [a for a in assertions if not a["passed"]]
    for a in assertions:
        status = "ok" if a["passed"] else "FAILED"
        print(f"assertion {a['name']}: {status}")
    return 2 if failed else 0


def _agreement(quantity: str, analytic: float, est: mc.McEstimate) -> dict:
    """Report item whose verdict is agreement within 3 standard errors."""
    z = (est.mean - analytic) / est.std_error if est.std_error > 0 else (0.0 if est.mean == analytic else math.inf)
    verdict = "agree" if abs(z) <= 3.0 else f"disagree (z={z:.1f})"
    return {"quantity": quantity, "analytic": analytic, "mc_mean": est.mean, "mc_se": est.std_error, "verdict": verdict}


def _cmd_compare(args) -> int:
    if not 0 < args.r_int < math.inf:
        raise ParameterError(f"--r-int must be > 0 and finite, got {args.r_int}")
    cfg = _load_config(args)
    scenario = cfgmod.to_scenario(cfg)
    window = cfgmod.to_window(cfg)
    engine = AnalyticEngine(scenario)
    n = cfg.realizations
    i_ana = engine.avg_interference(args.r_int)
    p_ana = engine.avg_tx_power()
    ee_ana = engine.energy_efficiency()
    ce_ana = engine.coverage_efficiency_traffic(False)
    radius = engine.coverage_radius(scenario.traffic.mean())
    i_mc, ((ee_mc, p_mc), _), ce_mc = mc.run_estimators(scenario, window, n, cfg.seed, [
        mc.interference_estimator(engine, window, args.r_int),
        mc.ee_ce_estimator(engine, window, False),
        mc.serving_cdf_estimator(window, radius.r),
    ])
    jensen_ok = ee_ana <= ee_mc.mean + 3.0 * ee_mc.std_error
    report = [
        _agreement(f"interference@{args.r_int:g}m", i_ana, i_mc),
        {
            "quantity": "energy-efficiency",
            "analytic": ee_ana,
            "mc_mean": ee_mc.mean,
            "mc_se": ee_mc.std_error,
            "jensen_direction": jensen_ok,
            "jensen_ratio": ee_mc.mean / ee_ana if ee_ana else None,  # no users: 0 / 0
            "verdict": "lower-bound holds" if jensen_ok else "lower-bound violated",
        },
        {**_agreement("coverage-efficiency", ce_ana, ce_mc),
         "coverage_radius_m": radius.r, "radius_clipped": radius.clipped},
        _agreement("transmit-power", p_ana, p_mc),
    ]
    for item, est in zip(report, (i_mc, ee_mc, ce_mc, p_mc)):
        item.update(realizations_requested=n, realizations_used=est.realization_count)

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
    if not m_list:
        raise ParameterError(f"--antennas must be non-empty: {args.antennas!r}")
    if args.trials < 1:
        raise ParameterError(f"--trials must be >= 1, got {args.trials}")
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
    except (InterferenceDivergenceError, MonotonicityError, NormalizationFitError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
