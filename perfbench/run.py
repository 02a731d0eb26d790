"""greencell benchmark: end-to-end timings of CLI workloads, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass is a fresh interpreter (``child.py``) that imports
``greencell.cli`` and calls ``greencell.cli.main(argv)``, because users pay
the import and the per-scenario tables on every CLI call.  The workload seed
is passed to the program as ``--seed``.  Every pass goes through the
correctness gate in ``workloads.py``.

``--trace 0`` runs passes while the next one still fits in ``--seconds``,
then fills the time left with interpreters that only import (set-up
samples), and reports medians of ``wall_s`` (``cli.main``), ``cpu_s`` (process CPU of
the pass), ``setup_s`` (launch until ``greencell.cli`` is imported) and
``peak_rss_mb``.

``--trace 1`` runs one untraced pass, one traced pass and a traced pass with
two sweep threads.  It reports the per-layer metrics of the traced pass and
the tracing overhead, and self-checks that output bytes do not depend on the
thread count and that every per-layer count repeats exactly.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (output rows gated, over all passes) and ``metrics``.  The full
record, with provenance, is written to ``perfbench/out/<run>/result.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
# Sweeps are measured with one row thread.  On a 2-vCPU VM, two sweep threads
# made mc-sweep passes take 4.8 to 8.3 s of wall time for an unchanged 7.3 s
# of CPU time; one thread is steady.  The traced self-check runs a second
# pass with SELF_CHECK_THREADS.
THREADS = 1
SELF_CHECK_THREADS = 2
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 150
COUNT_SUFFIXES = (".calls", ".points", ".draws", ".stations", ".offered", ".retained",
                  ".realizations_requested", ".realizations_used")
# Layers with a module self time.  cli is left out: in a sweep, cli.main
# waits on its own thread while rows run in worker threads.
MODULES = ("config", "hcpp", "analytics", "mc", "geometry", "channel")
ENGINES = {"analytic": ("hcpp", "analytics"), "montecarlo": ("mc", "geometry", "channel")}


class BenchError(Exception):
    """A pass could not be run or measured; no result is printed."""


def _env(threads: int) -> dict:
    return dict(os.environ, PYTHONPATH=SRC, NETSIM_THREADS=str(threads), **BLAS_ENV)


def launch(pass_dir: str, argv, threads: int, trace: bool, run_id: str) -> dict:
    """Run one child interpreter and return its record, plus ``elapsed_s``."""
    os.makedirs(pass_dir, exist_ok=True)
    record = os.path.join(pass_dir, "record.json")
    spec = {
        "argv": argv,
        "record": record,
        "trace": trace,
        "run_id": run_id,
        "spans": os.path.join(pass_dir, "spans.npz"),
    }
    with open(os.path.join(pass_dir, "console.txt"), "w", encoding="utf-8") as log:
        spec["launch"] = t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, json.dumps(spec)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=_env(threads),
                cwd=pass_dir,
                timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{pass_dir}: pass exceeded {PASS_TIMEOUT_S} s") from exc
        elapsed = time.monotonic() - t0
    if proc.returncode != 0 or not os.path.exists(record):
        raise BenchError(f"{pass_dir}: pass crashed (exit {proc.returncode}); see console.txt")
    with open(record, encoding="utf-8") as fh:
        rec = json.load(fh)
    if not rec["module_file"].startswith(SRC + os.sep):
        raise BenchError(f"imported {rec['module_file']}, not the package under {SRC}")
    rec["elapsed_s"] = elapsed
    return rec


class Run:
    """One benchmark run: passes of one workload at one seed."""

    def __init__(self, wl: workloads.Workload, seed: int, trace: bool):
        self.wl, self.seed = wl, seed
        self.dir = os.path.join(OUT, f"{wl.name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.cfg = os.path.join(self.dir, "run.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(wl.config_text())
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)[wl.name]
        self.passes: list[dict] = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def setup_probe(self, tag: str) -> dict:
        return launch(os.path.join(self.dir, tag), None, THREADS, False, tag)

    def gated_pass(self, tag: str, threads: int = THREADS, trace: bool = False) -> dict:
        pass_dir = os.path.join(self.dir, tag)
        out_dir = os.path.join(pass_dir, "out")
        argv = self.wl.argv(self.cfg, out_dir, self.seed)
        rec = launch(pass_dir, argv, threads, trace, f"{self.wl.name}/{self.seed}/{tag}")
        verdict = workloads.check(self.wl, out_dir, rec["exit_code"], self.seed, self.reference)
        rec.update(tag=tag, out_dir=out_dir, threads=threads, rows=verdict.rows,
                   rows_failed=verdict.failed, problems=verdict.problems, notes=verdict.notes)
        self.attempted += verdict.rows
        self.failed += verdict.failed
        self.problems += [f"{tag}: {p}" for p in verdict.problems]
        self.passes.append(rec)
        return rec

    def output_bytes(self, rec: dict) -> bytes:
        with open(os.path.join(rec["out_dir"], self.wl.output), "rb") as fh:
            return fh.read()


def timed(run: Run, seconds: float) -> dict:
    """Passes while the next still fits in ``seconds`` (at least one), then
    set-up probes in the time left (at least ``SETUP_SAMPLES`` samples)."""
    start = time.monotonic()
    while True:
        run.gated_pass(f"pass{len(run.passes)}")
        longest = max(p["elapsed_s"] for p in run.passes)
        if time.monotonic() - start + longest > seconds:
            break
    setups = [p["setup_s"] for p in run.passes]
    longest = 0.0
    while len(setups) < SETUP_SAMPLES or time.monotonic() - start + longest <= seconds:
        probe = run.setup_probe(f"setup{len(setups)}")
        setups.append(probe["setup_s"])
        longest = max(longest, probe["elapsed_s"])
    med = lambda key: statistics.median(p[key] for p in run.passes)  # noqa: E731
    return {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def traced(run: Run) -> dict:
    plain = run.gated_pass("untraced")
    spans = run.gated_pass("traced", trace=True)
    threaded = run.gated_pass(f"traced-{SELF_CHECK_THREADS}threads", SELF_CHECK_THREADS, trace=True)
    if not run.output_bytes(plain) == run.output_bytes(spans) == run.output_bytes(threaded):
        run.problems.append(f"self-check: {run.wl.output} bytes differ between passes")
    counts = [
        {k: v for k, v in p["trace"].items() if k.endswith(COUNT_SUFFIXES) or k == "spans"}
        for p in (spans, threaded)
    ]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        run.problems.append(f"self-check: counts differ between traced passes: {diff}")
    t = spans["trace"]
    m = dict(t)
    m["cli.rows"], m["cli.rows_failed"] = workloads.cli_rows(run.wl, spans["out_dir"])
    used = sum(v for k, v in t.items() if k.endswith(".realizations_used"))
    asked = sum(v for k, v in t.items() if k.endswith(".realizations_requested"))
    m["mc.realizations_used_ratio"] = used / asked if asked else 0.0
    offered = t.get("geometry.matern_ii_thin.offered", 0)
    m["geometry.matern_ii_thin.retained_ratio"] = (
        t["geometry.matern_ii_thin.retained"] / offered if offered else 0.0
    )
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            v for k, v in t.items() if k.startswith(module + ".") and k.endswith(".self_s")
        )
    m["trace.overhead_s"] = spans["wall_s"] - plain["wall_s"]
    return m


def lookup(values: dict, name: str):
    """A listed metric's value; a counter of a span that never counted is 0."""
    if name in values:
        return values[name]
    if name.endswith(COUNT_SUFFIXES) and name.rsplit(".", 1)[0] + ".calls" in values:
        return 0
    raise KeyError(f"metric {name} is not measured")


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def src_sha1() -> str:
    """Hash of the package sources, for checkouts without git metadata."""
    h = hashlib.sha1()
    pkg = os.path.join(SRC, "greencell")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(run: Run) -> dict:
    versions = run.passes[0]["versions"]
    return {
        **versions,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "NETSIM_THREADS": THREADS,
        "blas_threads": BLAS_ENV,
        "git_commit": git_commit(),
        "src_sha1": src_sha1(),
        "workload": run.wl.name,
        "seed": run.seed,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "greencell", "cli.py")):
        print(f"error: no greencell sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    run = Run(workloads.WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        values = traced(run) if args.trace else timed(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": lookup(values, m["name"]), "unit": m["unit"]} for m in listed}
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(os.path.join(run.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance(run), "result": result,
                   "fail_ratio": run.failed / run.attempted, "passes": run.passes,
                   "problems": run.problems}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"passes {len(run.passes)}  fail_ratio {run.failed / run.attempted:.6g}"
          f" ({run.failed}/{run.attempted} rows)")
    for note in dict.fromkeys(n for p in run.passes for n in p["notes"]):
        print(f"verdict {note}")
    if args.trace:
        total = sum(values[f"{m}.self_s"] for m in MODULES)
        shares = {e: sum(values[f"{m}.self_s"] for m in ms) / total if total else 0.0
                  for e, ms in ENGINES.items()}
        print("traced self-time share: "
              + ", ".join(f"{e} engine {share:.0%}" for e, share in shares.items()))
    for problem in run.problems:
        print(f"problem {problem}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
