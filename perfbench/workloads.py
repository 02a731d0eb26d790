"""Benchmark workloads and the correctness gate every pass goes through.

Why these three:

* ``analytic-sweep`` -- ``sweep --engine analytic`` at the paper's delta
  for every strategy, with the coverage marginalized over the traffic law.
  Nearly all time is the scalar nearest-law quadrature (``hcpp``) and the
  interference kernel behind the SINR inversion (``analytics``); the Monte
  Carlo layers do nothing, so an MC change must read unchanged here.  One
  delta only: a marginalized ``matern`` row alone takes about 10 s, and a
  run must fit several passes.
* ``mc-sweep`` -- ``sweep --engine mc`` over two deltas with sampled traffic
  and dB shadowing, the regime where the MC moments converge.  Time goes to
  realizations, Matern thinning and shadowing draws; ``ppp`` rows carry
  about 12x the stations of ``matern`` rows, and are identical at every
  delta, so the workload also shows whether a change exploits work that
  inputs share.
* ``compare`` -- the cross-engine report, single-threaded by construction:
  the plain serial baseline, and the only workload where the MC engine
  calls the analytic interference kernel with vectors of distances.

Realization counts are cut from the default 200 so that a run holds several
passes: ``mc-sweep`` runs 80 (a pass takes about 11 s; six rows of 200 would
take about 30 s) and ``compare`` 60 (about 4 s; on a 2-vCPU VM, 200 gave
three 10 s passes per run and medians spread 15% between runs, 60 gave
9-12%).  The MC gate scales with the standard errors these counts give.

Gate: analytic ``ee``/``ce`` must match the committed reference to a
relative ``REL_TOL``; MC values must lie within ``Z_BOUND`` combined
standard errors of the reference, whatever the seed; sweeps must exit 0 with
their trend assertions passing and the CSV header unchanged.  ``compare``
verdicts are recorded, not gated.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

CSV_HEADER = "strategy,engine,param,value,lambda_star_density,lambda_star_fit,k_ue,ee,ce,ci_ee,ci_ce,seed"
REL_TOL = 1e-6  # the analytic engine's own coverage cross-check budget
Z_BOUND = 5.0
STRATEGIES = ("matern", "random", "ppp")
COMPARE_QUANTITIES = ("interference@100m", "energy-efficiency", "coverage-efficiency")
# compare may exit 2 to flag a disagreeing verdict; verdicts are not gated
COMPARE_EXIT_CODES = (0, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # subcommand first; --config/--out/--seed are added
    config: str  # key=value lines
    realizations: int | None = None
    deltas: tuple[float, ...] = ()  # sweep values; empty for compare
    output: str = "results.csv"

    def argv(self, cfg_path: str, out_dir: str, seed: int) -> list[str]:
        argv = [self.args[0], "--config", cfg_path, "--out", out_dir, "--seed", str(seed)]
        if self.deltas:
            argv += ["--param", "delta", "--values", ",".join(f"{d:g}" for d in self.deltas),
                     "--strategies", ",".join(STRATEGIES)]
        return argv + list(self.args[1:])

    def config_text(self, realizations: int | None = None) -> str:
        n = realizations or self.realizations
        return self.config + (f"realizations={n}\n" if n else "")

    @property
    def exit_codes(self) -> tuple[int, ...]:
        return COMPARE_EXIT_CODES if self.output == "compare.json" else (0,)

    def row_keys(self) -> list[str]:
        if self.output == "compare.json":
            return list(COMPARE_QUANTITIES)
        return [f"{s}@{d:g}" for s in STRATEGIES for d in self.deltas]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic-sweep",
            ("sweep", "--engine", "analytic"),
            "traffic_mode=marginalized\n",
            deltas=(200.0,),
        ),
        Workload(
            "mc-sweep",
            ("sweep", "--engine", "mc", "--shadowing-convention", "db-std"),
            "traffic_mode=sampled\n",
            realizations=80,
            deltas=(150.0, 250.0),
        ),
        Workload(
            "compare",
            ("compare", "--strategy", "matern", "--shadowing-convention", "db-std"),
            "",
            realizations=60,
            output="compare.json",
        ),
    )
}


@dataclass
class Verdict:
    rows: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def read_rows(wl: Workload, out_dir: str) -> dict[str, dict]:
    """Output rows keyed as in ``Workload.row_keys``, values as floats."""
    path = os.path.join(out_dir, wl.output)
    if wl.output == "compare.json":
        with open(path, encoding="utf-8") as fh:
            return {item["quantity"]: item for item in json.load(fh)}
    with open(path, encoding="utf-8", newline="") as fh:
        return {
            f"{r['strategy']}@{float(r['value']):g}": {
                **r,
                **{k: float(r[k]) for k in ("ee", "ce", "ci_ee", "ci_ce")},
            }
            for r in csv.DictReader(fh)
        }


def _rel_error(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref else abs(x)


def _z(x: float, se: float, ref: float, se_ref: float) -> float:
    spread = math.hypot(se, se_ref)
    return abs(x - ref) / spread if spread > 0 else (0.0 if x == ref else math.inf)


def _check_row(wl: Workload, key: str, row: dict, ref: dict, seed: int) -> list[str]:
    if wl.output == "compare.json":
        out = []
        if not _rel_error(row["analytic"], ref["analytic"]) <= REL_TOL:
            out.append(f"{key}: analytic {row['analytic']!r} != reference {ref['analytic']!r}")
        z = _z(row["mc_mean"], row["mc_se"], ref["mc_mean"], ref["mc_se"])
        if not z <= Z_BOUND:
            out.append(f"{key}: mc {row['mc_mean']!r} is {z:.1f} SE from reference {ref['mc_mean']!r}")
        return out
    out = []
    if row["seed"] != str(seed):
        out.append(f"{key}: seed column {row['seed']} != {seed}")
    for metric in ("ee", "ce"):
        x = row[metric]
        if "se_" + metric in ref:
            z = _z(x, row["ci_" + metric] / 1.96, ref[metric], ref["se_" + metric])
            if not z <= Z_BOUND:
                out.append(f"{key}: {metric} {x!r} is {z:.1f} SE from reference {ref[metric]!r}")
        elif not _rel_error(x, ref[metric]) <= REL_TOL:
            out.append(f"{key}: {metric} {x!r} != reference {ref[metric]!r}")
    return out


def check(wl: Workload, out_dir: str, exit_code: int | None, seed: int, reference: dict) -> Verdict:
    """Gate one pass.  A pass-level problem fails every row of the pass."""
    keys = wl.row_keys()
    v = Verdict(rows=len(keys))
    if exit_code not in wl.exit_codes:
        v.problems.append(f"exit code {exit_code}")
    try:
        rows = read_rows(wl, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        v.problems.append(f"unreadable {wl.output}: {exc!r}")
        rows = {}
    if wl.output == "results.csv":
        v.problems += _check_sweep_files(wl, out_dir)
    else:
        v.notes = [f"{k}: {rows[k]['verdict']}" for k in keys if k in rows]
    if v.problems:
        v.failed = v.rows
        return v
    for key in keys:
        row_problems = (
            _check_row(wl, key, rows[key], reference["rows"][key], seed)
            if key in rows
            else [f"{key}: missing row"]
        )
        if row_problems:
            v.failed += 1
            v.problems += row_problems
    return v


def _check_sweep_files(wl: Workload, out_dir: str) -> list[str]:
    out = []
    try:
        with open(os.path.join(out_dir, "results.csv"), encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable sweep output: {exc!r}"]
    if header != CSV_HEADER:
        out.append(f"CSV header changed: {header!r}")
    assertions = summary.get("assertions", [])
    if "analytic" in wl.args and not assertions:
        out.append("no trend assertions recorded")
    out += [f"trend assertion {a['name']} failed" for a in assertions if not a["passed"]]
    return out


def cli_rows(wl: Workload, out_dir: str) -> tuple[int, int]:
    """Rows the CLI wrote, and how many of them it marked as failed."""
    if wl.output == "compare.json":
        return len(read_rows(wl, out_dir)), 0
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return summary["rows"], len(summary["failures"])
