"""One benchmark pass: a fresh interpreter that imports ``greencell.cli`` and
calls ``greencell.cli.main(argv)`` in-process, as a user's CLI call does.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``launch`` (the parent's ``time.monotonic()`` just before it
started this interpreter; Linux's monotonic clock is system-wide), ``argv``
(``None`` for a set-up probe that only imports), ``record`` (where this pass
writes its JSON record), ``trace``, and ``run_id`` and ``spans`` (the id and
file of a traced pass's spans).  The record holds set-up, wall and CPU seconds, peak RSS, the
exit code, library versions and, when traced, the per-layer summary.
"""
import importlib
import json
import resource
import sys
import time

# greencell imports numpy itself, so importing it here first leaves the
# launch-to-import interval unchanged.
import numpy as np


def _size(pos):
    return lambda args, kwargs, result: {"points": int(np.size(args[pos]))}


def _len_result(key):
    return lambda args, kwargs, result: {key: int(len(result))}


def _size_result(key):
    return lambda args, kwargs, result: {key: int(np.size(result))}


def _thin(args, kwargs, result):
    return {"offered": len(args[0]), "retained": len(result)}


def _estimate(n_pos):
    def count(args, kwargs, result):
        n = args[n_pos] if len(args) > n_pos else kwargs["n"]
        return {"realizations_requested": int(n), "realizations_used": result.realization_count}

    return count


# (module, attribute path, span name, counter).  Engine methods are named
# by their module, the layer they belong to.  Module functions are wrapped
# in the module's namespace, which is where their callers, inside the
# module too, look them up.
LAYERS = (
    ("cli", "main", "cli.main", None),
    ("config", "to_scenario", "config.to_scenario", None),
    ("hcpp", "fit_nearest_model", "hcpp.fit_nearest_model", None),
    ("hcpp", "fit_lambda_star", "hcpp.fit_lambda_star", None),
    ("hcpp", "NearestPdfModel.pdf", "hcpp.NearestPdfModel.pdf", _size(1)),
    ("hcpp", "NearestPdfModel.cdf", "hcpp.NearestPdfModel.cdf", None),
    ("hcpp", "zeta2", "hcpp.zeta2", _size(0)),
    ("analytics", "AnalyticEngine.interference_base", "analytics.interference_base", _size(1)),
    ("analytics", "AnalyticEngine.invert_sinr", "analytics.invert_sinr", None),
    ("analytics", "AnalyticEngine.coverage_efficiency", "analytics.coverage_efficiency", None),
    (
        "analytics",
        "AnalyticEngine.coverage_efficiency_traffic",
        "analytics.coverage_efficiency_traffic",
        None,
    ),
    ("analytics", "AnalyticEngine.sinr_of_distance", "analytics.sinr_of_distance", _size(1)),
    ("analytics", "AnalyticEngine.energy_efficiency", "analytics.energy_efficiency", None),
    ("mc", "run_realization", "mc.run_realization", None),
    ("mc", "sample_active", "mc.sample_active", _len_result("stations")),
    ("mc", "estimate_ee", "mc.estimate_ee", _estimate(2)),
    ("mc", "estimate_ce", "mc.estimate_ce", _estimate(2)),
    ("mc", "estimate_interference", "mc.estimate_interference", _estimate(3)),
    ("geometry", "matern_ii_thin", "geometry.matern_ii_thin", _thin),
    ("channel", "ShadowingModel.sample_with", "channel.ShadowingModel.sample_with", _size_result("draws")),
    ("channel", "TrafficModel.sample_with", "channel.TrafficModel.sample_with", _size_result("draws")),
)


def install_tracer(run_id):
    import tracer

    t = tracer.Tracer(run_id)
    for module, path, span, count in LAYERS:
        owner = importlib.import_module(f"greencell.{module}")
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        t.wrap(owner, attr, span, count)
    return t


def main():
    spec = json.loads(sys.argv[1])
    cli = importlib.import_module("greencell.cli")
    setup_s = time.monotonic() - spec["launch"]
    import scipy

    record = {
        "setup_s": setup_s,
        "module_file": cli.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if spec["argv"] is not None:
        t = install_tracer(spec["run_id"]) if spec["trace"] else None
        w0, c0 = time.perf_counter(), time.process_time()
        code = cli.main(spec["argv"])
        record["wall_s"] = time.perf_counter() - w0
        record["cpu_s"] = time.process_time() - c0
        record["exit_code"] = code
        if t is not None:
            record["trace"] = t.summary()
            t.write_spans(spec["spans"])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
