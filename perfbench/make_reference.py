"""Regenerate ``reference.json``, the values the correctness gate compares to.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Analytic values do not depend on the seed and are taken as computed.  MC
values come from one pass with ``REF_FACTOR`` times the workload's
realizations at ``REF_SEED``; the gate then allows ``Z_BOUND`` combined
standard errors, so runs at any other seed are judged fairly.  Regenerating
the reference is a change of test data: say why in the change log.
"""
from __future__ import annotations

import json
import os
import sys

import run
import workloads

REF_SEED = 1_000_003
REF_FACTOR = 8


def reference_for(wl: workloads.Workload) -> dict:
    pass_dir = os.path.join(run.OUT, f"reference-{wl.name}")
    os.makedirs(pass_dir, exist_ok=True)
    cfg = os.path.join(pass_dir, "run.cfg")
    n = wl.realizations * REF_FACTOR if wl.realizations else None
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text(n))
    out_dir = os.path.join(pass_dir, "out")
    rec = run.launch(pass_dir, wl.argv(cfg, out_dir, REF_SEED), run.THREADS, False, "reference")
    if rec["exit_code"] not in wl.exit_codes:
        raise SystemExit(f"{wl.name}: reference pass exited {rec['exit_code']}")
    rows = workloads.read_rows(wl, out_dir)
    if wl.output == "compare.json":
        values = {k: {f: rows[k][f] for f in ("analytic", "mc_mean", "mc_se")} for k in wl.row_keys()}
    elif n is None:
        values = {k: {f: rows[k][f] for f in ("ee", "ce")} for k in wl.row_keys()}
    else:
        values = {
            k: {
                "ee": rows[k]["ee"],
                "se_ee": rows[k]["ci_ee"] / 1.96,
                "ce": rows[k]["ce"],
                "se_ce": rows[k]["ci_ce"] / 1.96,
            }
            for k in wl.row_keys()
        }
    return {"seed": REF_SEED, "realizations": n, "versions": rec["versions"], "rows": values}


def main(names) -> None:
    path = os.path.join(run.HERE, "reference.json")
    ref = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
    for name in names or sorted(workloads.WORKLOADS):
        ref[name] = reference_for(workloads.WORKLOADS[name])
        print(f"{name}: done", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
