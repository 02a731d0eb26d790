"""Acceptance gate: thirteen checks covering exact process identities,
analytic/Monte-Carlo cross-validation and the qualitative trends the
pipeline must reproduce, plus a Poisson control for criterion 4.  Each test
prints a single pass/fail line."""
import time

import numpy as np
import oracles
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from greencell import cli, geometry, hcpp, mc
from greencell.analytics import AnalyticEngine, Scenario
from greencell.channel import RadioParams, ShadowingModel
from greencell.errors import InterferenceDivergenceError
from greencell.geometry import Window
from greencell.hcpp import HcppParams

PARAMS = HcppParams(1e-4, 200.0)
BIG_WINDOW = Window(2500.0, 500.0)
MC_WINDOW = Window(1500.0, 600.0)
ZETA1_REF = 7.957719403206055e-06


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_engine():
    return AnalyticEngine(Scenario(PARAMS))


def _matern_realization(seed):
    sc = Scenario(PARAMS)
    return mc.sample_active(sc, BIG_WINDOW, mc.child_rng(1234, seed))


def test_criterion_01_hard_core_exactness():
    t0 = time.time()
    min_seen = np.inf
    for k in range(1000):
        active = _matern_realization(k)
        d = oracles.min_pairwise_distance(active)
        min_seen = min(min_seen, d)
        assert d >= PARAMS.delta
    elapsed = time.time() - t0
    report(
        1,
        "hard-core exactness over 1000 realizations",
        min_seen >= PARAMS.delta and elapsed < 60.0,
        f"min pairwise {min_seen:.2f} m, {elapsed:.1f} s",
    )


def test_criterion_02_intensity_identity():
    dens = []
    for k in range(200):
        active = _matern_realization(k)
        dens.append(geometry.in_measurement_region(active, BIG_WINDOW).sum() / (2 * BIG_WINDOW.half_width) ** 2)
    dens = np.asarray(dens)
    se = dens.std(ddof=1) / np.sqrt(len(dens))
    z = (dens.mean() - ZETA1_REF) / se
    report(
        2,
        "empirical retained density vs closed form",
        abs(z) <= 3.0,
        f"mean {dens.mean():.4e}, target {ZETA1_REF:.4e}, z={z:+.2f}",
    )


def test_criterion_03_moment_identity():
    z1sq = hcpp.zeta1(PARAMS) ** 2
    radii = np.linspace(2.0 * PARAMS.delta, 12.0 * PARAMS.delta, 50)
    rel = np.abs(hcpp.zeta2(radii, PARAMS) / z1sq - 1.0)
    inside = hcpp.zeta2(np.linspace(0.0, PARAMS.delta, 25), PARAMS)
    ok = rel.max() <= 1e-10 and np.all(inside == 0.0)
    report(
        3,
        "second-moment identities",
        ok,
        f"max far-field rel dev {rel.max():.2e}, hard-core values all zero: {np.all(inside == 0.0)}",
    )


# Criterion 4 and its Poisson control share one procedure and one bound.
# Each of the 9 decile bins holds p = 0.1 of the model mass, so with
# N ~ 10,000 contact distances its empirical share has a binomial standard
# error sqrt(p(1-p)/N), about 3% of p: a bare 5% bound fails an exact model
# at about half of all seeds.  A bin passes when its share is within
# MODEL_TOL * p + Z_BIN * sqrt(p(1-p)/N) of p; Z_BIN = 4 puts the chance of
# a false failure over the 9 bins at 9 * P(|Z| > 4) = 5.7e-4 (<= 1e-3).
MODEL_TOL = 0.05
Z_BIN = 4.0


def _contact_histogram(scenario, model, master_seed=4001, n=10_000):
    """Per-bin relative deviation |share / p - 1| of the contact distances
    from the origin in ``n`` realizations of ``scenario``, binned at the
    ``model`` deciles spanning its central 90% of mass, and the per-bin
    relative allowance of the shared bound."""
    win = Window(700.0, 300.0)
    d = np.empty(n)
    for k in range(n):
        active = mc.sample_active(scenario, win, mc.child_rng(master_seed, k))
        d[k] = oracles.nearest_distance((0.0, 0.0), active) if len(active) else np.nan
    d = d[np.isfinite(d)]
    qs = np.linspace(0.05, 0.95, 10)
    edges = [brentq(lambda r, q=q: model.cdf(r) - q, 1.0, 3000.0) for q in qs]
    counts, _ = np.histogram(d, bins=edges)
    p = np.diff(qs)
    rel = np.abs(counts / len(d) / p - 1.0)
    allowance = MODEL_TOL + Z_BIN * np.sqrt((1.0 - p) / (p * len(d)))
    return rel, allowance


def _percents(values):
    return "[" + ", ".join(f"{v:.1%}" for v in values) + "]"


def test_criterion_04_nearest_distance_pdf():
    t0 = time.time()
    model = hcpp.fit_nearest_model(PARAMS)
    mass, _ = quad(model.pdf, 0.0, 5000.0, limit=300)
    norm_ok = abs(mass - 1.0) <= 1e-6
    rel, allowance = _contact_histogram(Scenario(PARAMS), model)
    hist_ok = bool(np.all(rel <= allowance))
    elapsed = time.time() - t0
    report(
        4,
        "nearest-distance model: normalization and histogram",
        norm_ok and hist_ok and elapsed < 300.0,
        f"|mass-1|={abs(mass - 1.0):.1e}; per-bin rel dev {_percents(rel)} against "
        f"allowance {_percents(allowance)} ({MODEL_TOL:.0%} model tolerance plus "
        f"{Z_BIN:g} binomial standard errors); {elapsed:.0f} s; the histogram "
        "check fails: the closed-form serving-distance law is a cited "
        "approximation whose error at these parameters far exceeds the "
        "allowance, while the simulated process itself is verified unbiased "
        "(criteria 1-2, and test_criterion_04_poisson_control, which passes "
        "the same procedure and bound against the exact Rayleigh law)",
    )


def test_criterion_04_poisson_control():
    """Criterion 4's procedure and bound on the Poisson strategy, whose
    contact law is exactly Rayleigh: the sampler, the binning and the bound
    pass an exact model, so a criterion 4 failure lies in the model."""
    model = hcpp.RayleighNearestModel(PARAMS.lambda_b)
    rel, allowance = _contact_histogram(Scenario(PARAMS, strategy="ppp"), model)
    report(
        4,
        "Poisson control: Rayleigh contact law under the same histogram bound",
        bool(np.all(rel <= allowance)),
        f"per-bin rel dev {_percents(rel)} against allowance {_percents(allowance)}",
    )


def test_criterion_05_interference_oracle():
    worst = 0.0
    for sig in (0.0, 1.0):
        sc = Scenario(PARAMS, shadowing=ShadowingModel(sig))
        eng = AnalyticEngine(sc)
        for r in (50.0, 100.0, 150.0):
            est = mc.estimate_interference(eng, MC_WINDOW, r, 200, 17)
            z = (est.mean - eng.avg_interference(r)) / est.std_error
            worst = max(worst, abs(z))
    diverges = False
    try:  # transmit power runs the kernel at p = alpha: no row exists at alpha <= 2
        AnalyticEngine(Scenario(PARAMS, radio=RadioParams(alpha=2.0))).avg_tx_power()
    except InterferenceDivergenceError:
        diverges = True
    report(
        5,
        "interference analytic vs MC and divergence guard",
        worst <= 3.0 and diverges,
        f"max |z| {worst:.2f} over sigma_s in {{0,1}}, r in {{50,100,150}} m; "
        f"transmit-power integral at alpha = 2 raises: {diverges}",
    )


def test_criterion_06_jensen_direction(default_engine):
    sc = default_engine.scenario  # sigma_s = 6
    radii = np.geomspace(40.0, 600.0, 20)
    ok = True
    min_gap = np.inf
    for r in radii:
        est = oracles.estimate_rate_at_distance(sc, MC_WINDOW, float(r), 100, 31)
        bound = default_engine.rate_lower_bound(float(r))
        ok &= bound <= est.mean + 3.0 * est.std_error
        min_gap = min(min_gap, est.mean - bound)
    report(
        6,
        "rate lower bound below MC rate at 20 distances",
        ok and min_gap > 0.0,
        f"min gap {min_gap:.3f} bits/s/Hz",
    )


def test_criterion_07_strategy_ordering_both_engines():
    ok_analytic = True
    detail = []
    for delta in (100.0, 200.0, 300.0):
        ee = {}
        for strat in ("matern", "random", "ppp"):
            eng = AnalyticEngine(Scenario(HcppParams(1e-4, delta), strategy=strat))
            ee[strat] = eng.energy_efficiency()
        ok_analytic &= ee["matern"] > ee["random"] > ee["ppp"]
        detail.append(f"analytic d={delta:.0f}: {ee['matern']:.2e}>{ee['random']:.2e}>{ee['ppp']:.2e}")
    ok_mc = True
    for delta in (100.0, 200.0, 300.0):
        ee = {}
        for strat in ("matern", "random", "ppp"):
            sc = Scenario(HcppParams(1e-4, delta), strategy=strat, shadowing=ShadowingModel(1.0))
            eng = AnalyticEngine(sc)
            ee[strat] = mc.estimate_ee(eng, MC_WINDOW, 60, 42).mean
        ok_mc &= ee["matern"] > ee["random"] > ee["ppp"]
    report(
        7,
        "energy-efficiency strategy ordering, both engines",
        ok_analytic and ok_mc,
        f"analytic at defaults, MC at sigma_s=1; {'; '.join(detail[:1])}",
    )


def test_criterion_08_ee_trends():
    ee_lam = [
        AnalyticEngine(Scenario(HcppParams(lam, 200.0))).energy_efficiency()
        for lam in (2e-5, 5e-5, 1e-4, 2e-4)
    ]
    ee_delta = [
        AnalyticEngine(Scenario(HcppParams(1e-4, d))).energy_efficiency()
        for d in (100.0, 150.0, 200.0, 250.0, 300.0)
    ]
    ee_m = [
        AnalyticEngine(
            Scenario(PARAMS, radio=RadioParams(antennas_m=m))
        ).energy_efficiency()
        for m in (64, 128, 192, 256)
    ]
    up = lambda v: all(b > a for a, b in zip(v, v[1:]))
    down = lambda v: all(b < a for a, b in zip(v, v[1:]))
    ok = up(ee_lam) and up(ee_delta) and down(ee_m)
    report(
        8,
        "analytic EE monotone in density, hard-core distance, antennas",
        ok,
        f"increasing in lambda_b: {up(ee_lam)}, in delta: {up(ee_delta)}, "
        f"decreasing in antennas: {down(ee_m)}",
    )


def test_criterion_09_coverage_saturation():
    ce = {}
    for lam in (2e-6, 5e-6, 1e-5, 2.5e-5, 1e-3):
        eng = AnalyticEngine(Scenario(HcppParams(lam, 250.0)))
        ce[lam] = eng.coverage_efficiency_traffic("at-mean")
    sat = abs(ce[2.5e-5] / ce[1e-3] - 1.0)
    below = [ce[k] for k in (2e-6, 5e-6, 1e-5, 2.5e-5)]
    increasing = all(b > a for a, b in zip(below, below[1:]))
    report(
        9,
        "coverage saturation in station density",
        sat <= 0.02 and increasing,
        f"CE(2.5e-5)={ce[2.5e-5]:.4f} vs CE(1e-3)={ce[1e-3]:.4f}, rel {sat:.2%}; "
        f"increasing below saturation: {increasing}",
    )


def test_criterion_10_coverage_antenna_invariance():
    exact = []
    for m in (64, 128, 256):
        radio = RadioParams(antennas_m=m, noise_power=0.0)
        eng = AnalyticEngine(Scenario(PARAMS, radio=radio))
        exact.append(eng.coverage_efficiency_traffic("at-mean"))
    bit_identical = exact[0] == exact[1] == exact[2]
    noisy = []
    for m in (64, 128, 256):
        eng = AnalyticEngine(Scenario(PARAMS, radio=RadioParams(antennas_m=m)))
        noisy.append(eng.coverage_efficiency_traffic("at-mean"))
    spread = (max(noisy) - min(noisy)) / max(noisy)
    report(
        10,
        "coverage invariant in antenna count",
        bit_identical and spread < 0.01,
        f"noise-free bit-identical: {bit_identical}; thermal-noise spread {spread:.2e}",
    )


def test_criterion_11_coverage_path_equivalence(default_engine):
    worst = 0.0
    for rho in np.geomspace(0.3, 8.0, 20):
        a = default_engine.coverage_efficiency(float(rho))
        b = oracles.coverage_change_of_variables(default_engine, float(rho))
        worst = max(worst, abs(a - b))
    report(
        11,
        "coverage integral forms agree at 20 thresholds",
        worst <= 1e-6,
        f"max |difference| {worst:.2e}",
    )


def test_criterion_12_asymptotic_validation():
    t0 = time.time()
    cells = [(-600.0, 0.0), (600.0, 0.0), (0.0, 800.0)]
    rows = mc.finite_m_validation([16, 64, 256], 5, cells, RadioParams(), seed=7, n_trials=200)
    errs = [r.median_rel_error for r in rows]
    elapsed = time.time() - t0
    ok = errs[0] > errs[1] > errs[2] and elapsed < 120.0
    report(
        12,
        "finite-array error shrinks toward the asymptote",
        ok,
        "median rel errors " + " > ".join(f"{e:.3f}" for e in errs) + f", {elapsed:.0f} s",
    )


def test_criterion_13_reproducibility(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "lambda_b=1e-4\ndelta_m=200\nsigma_s=0\nwindow_m=2000\nguard_m=600\n"
        "realizations=30\nseed=7\n"
    )
    blobs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        code = cli.main(
            [
                "sweep",
                "--config",
                str(cfg),
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
        blobs.append((out / "results.csv").read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    report(
        13,
        "byte-identical CSV across runs",
        identical,
        f"{len(blobs[0])} bytes compared",
    )
