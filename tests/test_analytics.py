import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracles
import pytest

from greencell import analytics, hcpp
from greencell.analytics import AnalyticEngine, Scenario
from greencell.channel import RadioParams, ShadowingModel, TrafficModel
from greencell.errors import InterferenceDivergenceError, MonotonicityError, ParameterError
from greencell.hcpp import HcppParams, zeta1, zeta2
from greencell.quadrature import _GH_NODES, _GH_WEIGHTS, _GL16_NODES, _GL16_WEIGHTS, _GL32_NODES, _GL32_WEIGHTS

PARAMS = HcppParams(1e-4, 200.0)
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def matern_engine():
    return AnalyticEngine(Scenario(PARAMS, shadowing=ShadowingModel(0.0)))


@pytest.fixture(scope="module")
def ppp_engine():
    return AnalyticEngine(Scenario(PARAMS, strategy="ppp", shadowing=ShadowingModel(0.0)))


def brute_exclusion_integral(r, p_exp, kernel, s_max=40_000.0, n_s=4000, n_th=800):
    """Midpoint Riemann reference for the exclusion-ball plane integral,
    centered on the user (integrand smooth except at the kernel's hard-core
    edge, which midpoint sampling handles without special casing)."""
    edges = np.geomspace(r, s_max, n_s + 1)
    s = np.sqrt(edges[:-1] * edges[1:])
    ds = np.diff(edges)
    th = (np.arange(n_th) + 0.5) * (2.0 * np.pi / n_th)
    dth = 2.0 * np.pi / n_th
    total = 0.0
    for i in range(0, n_s, 500):
        ss = s[i : i + 500][:, None]
        u = np.sqrt(ss**2 + r**2 - 2.0 * ss * r * np.cos(th)[None, :])
        total += float(
            (ss ** (1.0 - p_exp) * kernel(u) * ds[i : i + 500][:, None] * dth).sum()
        )
    return total


def test_scenario_validation():
    with pytest.raises(ParameterError):
        Scenario(PARAMS, strategy="hexgrid")
    with pytest.raises(ParameterError):
        Scenario(PARAMS, ues_per_cell=-1)


def test_retain_probability_modes():
    s = Scenario(PARAMS)
    assert s.retain_probability == pytest.approx(zeta1(PARAMS) / PARAMS.lambda_b, rel=1e-12)


def test_active_density_by_strategy(matern_engine, ppp_engine):
    assert ppp_engine.active_density == PARAMS.lambda_b
    assert matern_engine.active_density == pytest.approx(zeta1(PARAMS), rel=1e-12)
    rnd = AnalyticEngine(Scenario(PARAMS, strategy="random"))
    assert rnd.active_density == pytest.approx(zeta1(PARAMS), rel=1e-12)


def test_constant_kernel_closed_form(ppp_engine):
    # with a flat second moment the exclusion-ball integral has an exact value,
    # which the kernel returns; test_flat_kernel_vs_brute_oracle checks it
    lam = PARAMS.lambda_b
    for p in (4.0, 8.0):
        for r in (10.0, 30.0, 100.0, 500.0, 1000.0):
            exact = lam**2 * 2.0 * np.pi * r ** (2.0 - p) / (p - 2.0)
            got = float(ppp_engine._radial_integral(r, p)[0])
            assert abs(got / exact - 1.0) <= 1e-13


def test_matern_kernel_vs_brute_oracle(matern_engine):
    p = 8.0
    for r in (50.0, 150.0, 400.0):
        ref = brute_exclusion_integral(r, p, lambda u: zeta2(u, PARAMS))
        got = float(matern_engine._radial_integral(r, p)[0])
        assert abs(got / ref - 1.0) < 2e-3


@pytest.mark.parametrize("strategy", ["ppp", "random"])
def test_flat_kernel_vs_brute_oracle(strategy):
    eng = AnalyticEngine(Scenario(PARAMS, strategy=strategy, shadowing=ShadowingModel(0.0)))
    lam_sq = eng.active_density**2
    for p in (4.0, 8.0):
        for r in (50.0, 150.0, 400.0):
            ref = brute_exclusion_integral(r, p, lambda u: np.full_like(u, lam_sq))
            got = float(eng._radial_integral(r, p)[0])
            assert abs(got / ref - 1.0) < 2e-3


def flat_stretch(eng, r, c, p_exp, n_psi=128):
    """Full-circle integral over u in (c, 40c) of the flat second moment, on
    eight geometric 32-node Gauss-Legendre panels in u, with the circle average
    by the trapezoid rule in angle (exponentially accurate for u >= 2r)."""
    x, w = _GL32_NODES, _GL32_WEIGHTS
    edges = np.geomspace(c, 40.0 * c, 9)
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (hi + lo) + 0.5 * (hi - lo) * x).ravel()
    wu = (0.5 * (hi - lo) * w).ravel()
    psi = 2.0 * np.pi * np.arange(n_psi) / n_psi
    dist_sq = u[:, None] ** 2 + r**2 - 2.0 * u[:, None] * r * np.cos(psi)
    circle = 2.0 * np.pi * (dist_sq ** (-p_exp / 2.0)).mean(axis=1)
    return zeta2(c, eng.scenario.hcpp) * float((wu * u * circle).sum())


@pytest.mark.parametrize("delta", [100.0, 200.0])
@pytest.mark.parametrize("p", [4.0, 8.0])
def test_matern_far_field_vs_panel_oracle(delta, p):
    # the series from c = max(2 delta, 2r), where x = (r/c)^2 <= 1/4, against the
    # same integral with (c, 40c) on panels and only u > 40c by the series;
    # radii straddle delta/2, delta and 2 delta
    eng = AnalyticEngine(Scenario(HcppParams(1e-4, delta), shadowing=ShadowingModel(0.0)))
    for r in delta * np.array([0.01, 0.4, 0.5, 0.6, 0.9, 1.0, 1.1, 1.9, 2.0, 2.1, 30.0]):
        c = max(2.0 * delta, 2.0 * r)
        got = float(eng._radial_integral(r, p)[0])
        far = flat_stretch(eng, r, c, p) + eng._flat_tail(r, 40.0 * c, p)
        assert abs((got - eng._flat_tail(r, c, p) + far) / got - 1.0) <= 1e-13


def test_kernel_quadrature_cost(monkeypatch):
    # matern: at most four 32-node panels per radius and one flat value per
    # engine; ppp and random: the closed form, with no panel and no
    # second-moment call
    points = []

    def counted(u, p):
        points.append(np.size(u))
        return zeta2(u, p)

    monkeypatch.setattr(hcpp, "zeta2", counted)
    eng = _engine("matern")
    eng._flat_moment
    assert points == [1]
    for r in (0.5, 10.0, 99.0, 101.0, 149.0, 151.0, 199.0, 201.0, 399.0, 401.0, 6000.0):
        points.clear()
        eng._radial_integral(r, 8.0)
        assert 32 <= sum(points) <= 4 * 32
    # a vector call: one second-moment call per chunk of radii
    r = np.geomspace(0.5, 6000.0, 75)
    points.clear()
    eng._radial_integral(r, (8.0, 4.0))
    chunks = [r[i : i + eng.KERNEL_CHUNK].size for i in range(0, r.size, eng.KERNEL_CHUNK)]
    assert len(points) == len(chunks) == 3
    assert all(32 * n <= got <= 4 * 32 * n for got, n in zip(points, chunks))

    # each u-node's angular sum has 32 nodes, in region A's sectors and on region B's
    # circle: every 2-D array built from the traced u nodes is (nodes x 1) or (nodes x 32)
    widths, sectors = set(), []
    angular = AnalyticEngine._angular

    class Traced(np.ndarray):
        def __array_finalize__(self, obj):
            if self.ndim == 2:
                widths.add(self.shape[1])

    def traced(u, r, psi_min, ps):
        sectors.append(psi_min is not None)
        return angular(u.view(Traced), r, psi_min, ps)

    monkeypatch.setattr(AnalyticEngine, "_angular", staticmethod(traced))
    eng._radial_integral(r, (8.0, 4.0))
    assert widths == {1, 32} and set(sectors) == {True, False}

    def no_panels(*args):
        raise AssertionError("_panelize reached")

    monkeypatch.setattr(analytics, "_panelize", no_panels)
    points.clear()
    r = np.geomspace(0.5, 6000.0, 40)
    for strategy in ("ppp", "random"):
        eng = _engine(strategy)
        assert np.all(eng.interference_base(r) > 0)
        assert np.all(eng._radial_integral(r, 4.0) > 0)
    assert not points


def test_interference_antenna_scaling(matern_engine):
    base = matern_engine.interference_base(120.0)
    assert matern_engine.avg_interference(120.0) == pytest.approx(128.0**2 * base, rel=1e-12)
    # the base itself must not depend on the antenna count
    other = AnalyticEngine(
        Scenario(PARAMS, radio=RadioParams(antennas_m=64), shadowing=ShadowingModel(0.0))
    )
    assert other.interference_base(120.0) == base


def test_interference_decreasing_beyond_hard_core(matern_engine):
    # below delta the exclusion ball is inactive while the nearest interferer
    # creeps closer, so mean interference can grow with the serving distance;
    # beyond delta it must decay
    v = [matern_engine.avg_interference(r) for r in (200.0, 300.0, 450.0, 700.0)]
    assert all(b < a for a, b in zip(v, v[1:]))
    assert matern_engine.avg_interference(150.0) > matern_engine.avg_interference(50.0)


def _engine(strategy):
    return AnalyticEngine(Scenario(PARAMS, strategy=strategy, shadowing=ShadowingModel(0.0)))


def test_kernel_runs_without_adaptive_quad():
    # that the package loads no adaptive integrator is test_analytic_metrics_run_without_adaptive_quad
    eng = _engine("matern")
    assert eng.avg_interference(150.0) > 0
    assert eng.avg_tx_power() > 0
    assert _engine("ppp").avg_tx_power() > 0


def test_rate_zero_shadowing_closed_form(matern_engine):
    r = 150.0
    s = matern_engine.scenario
    m2 = float(s.radio.antennas_m) ** 2
    num = m2 * s.radio.p_f * s.radio.p_p * r ** (-2.0 * s.radio.alpha)
    den = m2 * matern_engine.interference_base(r) + s.radio.noise_power
    expect = np.log2(1.0 + num / den)
    assert matern_engine.rate_lower_bound(r) == pytest.approx(expect, rel=1e-12)


def test_rate_decreasing_in_distance(matern_engine):
    rates = [matern_engine.rate_lower_bound(r) for r in (50.0, 100.0, 200.0, 400.0)]
    assert all(b < a for a, b in zip(rates, rates[1:]))


# avg_cell_rate at each setting, to the bit: it sums the public per-distance rate
@pytest.mark.parametrize(
    "strategy, sigma, cell_rate",
    [
        ("matern", 0.0, 329.6407918835542),
        ("matern", 6.0, 0.0007015029856710573),
        ("ppp", 0.0, 13.979111634686173),
        ("ppp", 6.0, 6.616551291815207e-08),
    ],
)
def test_vector_rate_and_sinr_match_scalar_calls(strategy, sigma, cell_rate):
    """Array in, array out, with the scalar call's value at each radius, bit
    for bit: at sigma_s > 0 each radius's Gauss-Hermite sum is reduced on
    its own, so its rounding does not depend on its place in the array."""
    eng = AnalyticEngine(Scenario(PARAMS, strategy=strategy, shadowing=ShadowingModel(sigma)))
    r = np.array([0.5, 37.0, 99.9, 100.0, 150.0, 199.0, 250.0, 400.0, 2500.0])
    sinr, rate = eng.sinr_of_distance(r), eng.rate_lower_bound(r)
    assert isinstance(eng.rate_lower_bound(150.0), float) and isinstance(eng.sinr_of_distance(150.0), float)
    assert np.array_equal(sinr, [eng.sinr_of_distance(float(x)) for x in r])
    assert np.array_equal(rate, [eng.rate_lower_bound(float(x)) for x in r])
    assert eng.avg_cell_rate() == cell_rate


def test_k_ue_conserves_users(matern_engine, ppp_engine):
    assert ppp_engine.k_ue == pytest.approx(5.0, rel=1e-12)
    expect = 5.0 * PARAMS.lambda_b / zeta1(PARAMS)
    assert matern_engine.k_ue == pytest.approx(expect, rel=1e-12)


def test_bs_power_formula(matern_engine):
    s = matern_engine.scenario
    assert matern_engine.bs_power(p_tx=1.9) == pytest.approx(
        1.9 / s.radio.eta + s.radio.antennas_m * s.radio.p_rf_chain + s.radio.p_sta, rel=1e-12
    )
    with pytest.raises(ParameterError):
        matern_engine.bs_power(p_tx=-0.1)


def test_energy_efficiency_decomposes(matern_engine):
    assert matern_engine.energy_efficiency() == pytest.approx(
        matern_engine.avg_cell_rate() / matern_engine.bs_power(matern_engine.avg_tx_power()), rel=1e-12
    )
    assert matern_engine.avg_cell_rate() > 0
    assert matern_engine.avg_tx_power() > 0


def test_no_hard_core_is_one_poisson_process():
    # at delta = 0 no station is switched off: every strategy reads the Rayleigh law
    engines = [AnalyticEngine(Scenario(HcppParams(1e-4, 0.0), strategy=s)) for s in ("matern", "random", "ppp")]
    values = [
        (e.energy_efficiency(), e.coverage_efficiency_traffic("at-mean"), e.coverage_efficiency_traffic("marginalized"),
         e.lambda_star_fit, e.avg_tx_power())
        for e in engines
    ]
    assert values[0] == values[1] == values[2]
    assert all(isinstance(e.nearest_model, hcpp.RayleighNearestModel) for e in engines)


@pytest.mark.parametrize("strategy, watts", [("ppp", 7554.709197430469), ("random", 601.1825596597128)])
def test_tx_power_pinned(strategy, watts):
    # at alpha = 4 the serving-distance average of the kernel diverges like
    # log r at r -> 0, so the value rests on an implicit cutoff, the first
    # serving node (README, Numerical notes); the kernel must not move it
    eng = AnalyticEngine(Scenario(PARAMS, strategy=strategy))
    assert abs(eng.avg_tx_power() / watts - 1.0) <= 1e-12


def _pair_kernel_cases():
    r_sup = {s: AnalyticEngine(Scenario(PARAMS, strategy=s)).nearest_model.support_radius() for s in ("ppp", "matern")}
    # ppp: the u^(2 - alpha) branch below the first node (1e-4 r_sup = 2.6 cm) and the table above it
    cases = [("ppp", u) for u in (1e-3, 1e-2, 0.1, 1.0)]
    cases += [("matern", PARAMS.delta), ("matern", 1.01 * PARAMS.delta), ("matern", 2.0 * PARAMS.delta)]
    for strategy in ("ppp", "matern"):  # where the user offsets run out, and the u^-alpha branch
        cases += [(strategy, r_sup[strategy]), (strategy, 300.0 * r_sup[strategy])]
    return cases


@pytest.mark.parametrize("strategy, u", _pair_kernel_cases())
def test_pair_kernel_matches_quadrature_oracle(strategy, u):
    # the station-pair power kernel's table, interpolation and asymptotes
    # within 1e-4 of nested adaptive quad (README, Numerical notes)
    eng = AnalyticEngine(Scenario(PARAMS, strategy=strategy))
    h = float(eng.pair_kernel(np.array([u * u]))[0])
    assert abs(h * u**eng.scenario.radio.alpha / oracles.scaled_pair_kernel(eng, u) - 1.0) <= 1e-4


def _pair_table_laws():
    laws = [pytest.param(hcpp.RayleighNearestModel(1.0), 0.0, id="rayleigh-unit")]
    for lam in (2e-5, 1e-4, 4e-4):
        for delta in (50.0, 150.0, 200.0, 333.3):
            laws.append(pytest.param(HcppParams(lam, delta), delta, id=f"matern-{lam:g}-{delta:g}"))
    return laws


@pytest.mark.parametrize("law, hard_core", _pair_table_laws())
def test_pair_table_matches_32_node_build(law, hard_core):
    # the 16-node chunked build against the per-node 32-node one it replaced: same
    # grid, and ln h within 1e-5 over the whole table (README, Numerical notes)
    model = hcpp.fit_nearest_model(law) if isinstance(law, HcppParams) else law
    for alpha in (3.5, 4.0, 4.7):
        x0, step, ln_h, _ = analytics._pair_table.__wrapped__(model, alpha, hard_core)
        x0_ref, step_ref, ln_h_ref, _ = oracles.pair_table_32(model, alpha, hard_core)
        assert (x0, step) == (x0_ref, step_ref)
        assert np.abs(ln_h - ln_h_ref).max() <= 1e-5


class _CountedLaw:
    """A nearest-distance law whose ``pdf`` calls are recorded; its support radius is the law's."""

    def __init__(self, model):
        self.model, self.shapes = model, []

    def support_radius(self):
        return self.model.support_radius()

    def pdf(self, r):
        self.shapes.append(np.shape(r))
        return self.model.pdf(r)


@pytest.mark.parametrize("strategy", ["matern", "ppp"])
def test_pair_table_build_cost(strategy):
    # a few passes of at most PAIR_CHUNK nodes each, every node once, and node arrays
    # (r nodes x 16 angles) within 256 kB; the per-node build made PAIR_NODES calls
    eng = AnalyticEngine(Scenario(PARAMS, strategy=strategy))
    model = hcpp.RayleighNearestModel(1.0) if strategy == "ppp" else eng.nearest_model
    law = _CountedLaw(model)
    analytics._pair_table.__wrapped__(law, eng.scenario.radio.alpha, eng._hard_core)
    assert len(law.shapes) <= 10
    assert all(len(s) == 2 and s[0] <= analytics.PAIR_CHUNK for s in law.shapes)
    assert sum(s[0] for s in law.shapes) == analytics.PAIR_NODES
    assert max(s[0] * s[1] for s in law.shapes) * 16 * 8 <= 256 * 1024


@pytest.mark.parametrize(
    "convention, watts, ee",
    [("paper-moments", 48.710214410214085, 5.060298533740186e-06), ("db-std", 1.926569513891786e-06, 15.645307189495375)],
)
def test_matern_tx_power_and_ee_pinned(convention, watts, ee):
    # to the bit at defaults: the benchmark gates ee only to 1e-6
    eng = AnalyticEngine(Scenario(PARAMS, shadowing=ShadowingModel(6.0, convention)))
    assert eng.avg_tx_power() == watts
    assert eng.energy_efficiency() == ee


@pytest.mark.parametrize(
    "strategy, radii",
    [  # ids kept stable across the removal of the none rows
        pytest.param(
            "matern",
            [0.5, 99.0, 100.0, 101.0, 199.0, 200.0, 201.0, 399.0, 400.0, 401.0, 500.0, 510.0],
            id="matern-exclusion-ball-radii0",
        ),
        pytest.param("ppp", [0.5, 50.0, 400.0, 6000.0], id="ppp-exclusion-ball-radii2"),
        pytest.param("random", [0.5, 50.0, 400.0, 6000.0], id="random-exclusion-ball-radii3"),
    ],
)
def test_exponent_tuple_matches_single_exponent_calls(strategy, radii):
    # one row per exponent, each the single-exponent call's array bit for bit;
    # matern's radii straddle delta/2, delta, 2 delta and r_sup / 2 (506 m)
    eng = _engine(strategy)
    r = np.array(radii)
    rows = eng._radial_integral(r, (8.0, 4.0, 3.0))
    assert rows.shape == (3, r.size)
    for row, p in zip(rows, (8.0, 4.0, 3.0)):
        assert np.array_equal(row, eng._radial_integral(r, p))


def test_energy_efficiency_runs_the_kernel_once_per_serving_node(monkeypatch):
    # rate (2 alpha) and transmit power (alpha) share one kernel call over all nodes
    calls = []
    kernel = AnalyticEngine._radial_integral

    def counted(self, r, p_exp):
        calls.append((np.size(r), p_exp))
        return kernel(self, r, p_exp)

    monkeypatch.setattr(AnalyticEngine, "_radial_integral", counted)
    eng = AnalyticEngine(Scenario(PARAMS))
    assert eng.energy_efficiency() > 0
    assert calls == [(eng._serving_grid[0].size, (8.0, 4.0))]
    assert eng._serving_grid[0].size == 160


def test_flat_tail_matches_per_radius_series(matern_engine):
    # each radius's series stops at its own term, also past the first 64 (p = 60 needs up to 94)
    r = np.geomspace(1.0, 400.0, 50)
    c = np.full_like(r, 800.0)
    for p in (3.0, 8.0, 60.0):
        ref = [oracles.flat_tail_single(matern_engine, ri, ci, p) for ri, ci in zip(r.tolist(), c.tolist())]
        assert np.array_equal(matern_engine._flat_tail(r, c, p), ref)


@pytest.mark.parametrize("lam", [2e-5, 1e-4, 4e-4])
@pytest.mark.parametrize("alpha", [2.5, 3.5, 4.0, 4.7])
@pytest.mark.parametrize("delta", [50.0, 200.0, 333.3])
def test_kernel_matches_per_radius_oracle(lam, alpha, delta):
    # bit for bit against the kernel run one radius at a time; radii from 0.3 m to 8 km
    # and at delta * {1/4, ..., 3}, shuffled so that each chunk mixes panel counts
    eng = AnalyticEngine(Scenario(HcppParams(lam, delta), radio=RadioParams(alpha=alpha)))
    near = delta * np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
    r = np.random.default_rng(22).permutation(np.concatenate([np.geomspace(0.3, 8000.0, 350), near]))
    ps = (2.0 * alpha, alpha, 3.0)
    ref = np.array([oracles.exclusion_single(eng, ri, ps) for ri in r.tolist()]).T
    assert np.array_equal(eng._radial_integral(r, ps), ref)
    for n in (0, 1, 33, 300):
        assert np.array_equal(eng._radial_integral(r[:n], ps[:2]), ref[:2, :n])
        assert np.array_equal(eng._radial_integral(r[:n], ps[2:]), ref[2:, :n])


@pytest.mark.parametrize("lam", [2e-5, 1e-4, 4e-4])
@pytest.mark.parametrize("delta", [50.0, 200.0, 333.3])
def test_angular_rule_error_budget(monkeypatch, lam, delta):
    # the kernel's 32-node angular sums against the same kernel on the 64-node rule, within
    # 1e-13 at exponents (2 alpha, alpha, 3) for alpha up to 8, radii from 0.3 m to 8 km
    # and at delta * {1/4, ..., 3}; the kernel needs only hcpp, so one engine serves every alpha
    eng = AnalyticEngine(Scenario(HcppParams(lam, delta)))
    r = np.concatenate([np.geomspace(0.3, 8000.0, 350), delta * np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])])
    ps = tuple(sorted({p for alpha in (2.5, 3.5, 4.0, 4.7, 6.0, 8.0) for p in (2.0 * alpha, alpha, 3.0)}))
    got = eng._radial_integral(r, ps)
    monkeypatch.setattr(AnalyticEngine, "_angular", staticmethod(oracles.angular_64))
    ref = eng._radial_integral(r, ps)
    assert np.abs(got / ref - 1.0).max() <= 1e-13


@pytest.mark.parametrize("strategy", ["matern", "ppp"])
@pytest.mark.parametrize("p_exp", [1.5, 2.0, (8.0, 2.0)])
def test_kernel_refuses_exponents_at_or_below_two(strategy, p_exp):
    eng = _engine(strategy)
    with pytest.raises(InterferenceDivergenceError):
        eng._radial_integral(100.0, p_exp)


def test_tx_power_divergence_at_low_alpha():
    eng = AnalyticEngine(
        Scenario(PARAMS, radio=RadioParams(alpha=2.0), shadowing=ShadowingModel(0.0))
    )
    with pytest.raises(InterferenceDivergenceError):
        eng.avg_tx_power()


def test_sinr_inversion_round_trip(matern_engine, monkeypatch):
    # every iterate is one exact kernel call; the root is the last iterate
    calls = []
    kernel = AnalyticEngine.interference_base

    def counted(self, r):
        calls.append(r)
        return kernel(self, r)

    r_grid, g_grid = matern_engine._sinr_grid
    monkeypatch.setattr(AnalyticEngine, "interference_base", counted)
    for r in np.geomspace(1.0, 3000.0, 20):
        gamma = matern_engine.sinr_of_distance(r)
        calls.clear()
        res = matern_engine.invert_sinr(gamma)
        assert not res.clipped
        assert res.r == pytest.approx(r, rel=1e-12)
        assert 1 <= len(calls) <= 6
    # the ends clip to the grid and flag it, without a kernel call
    calls.clear()
    assert matern_engine.invert_sinr(1e30) == (r_grid[0], True)
    assert matern_engine.invert_sinr(1e-30) == (r_grid[-1], True)
    assert matern_engine.invert_sinr(g_grid[0]) == (r_grid[0], False)
    assert matern_engine.invert_sinr(g_grid[-1]) == (r_grid[-1], False)
    assert not calls


def test_non_monotone_sinr_raises_on_grid(monkeypatch):
    # the 40-point grid still sees an SINR that turns upward between its ends
    def wavy(self, r):
        r = np.asarray(r, float)
        return 1e30 * r ** (-2.0 * self.scenario.radio.alpha) * (2.0 + np.sin(np.log(r)))

    monkeypatch.setattr(AnalyticEngine, "interference_base", wavy)
    eng = AnalyticEngine(Scenario(PARAMS))
    assert eng.R_GRID_N == 40
    with pytest.raises(MonotonicityError):
        eng.coverage_efficiency(1.0)


def test_coverage_paths_agree(matern_engine):
    for rho in (0.5, 1.5, 3.0, 6.0):
        a = matern_engine.coverage_efficiency(rho)
        b = oracles.coverage_change_of_variables(matern_engine, rho)
        assert abs(a - b) <= 1e-6
        assert 0.0 <= a <= 1.0


def test_coverage_monotone_in_threshold(matern_engine):
    vals = [matern_engine.coverage_efficiency(rho) for rho in (0.5, 1.5, 3.0, 6.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert matern_engine.coverage_efficiency(0.0) > 0.999
    with pytest.raises(ParameterError):
        matern_engine.coverage_efficiency(-1.0)


def test_coverage_antenna_invariance_bit_exact():
    vals = []
    for m in (64, 128, 256):
        radio = RadioParams(antennas_m=m, noise_power=0.0)
        eng = AnalyticEngine(Scenario(PARAMS, radio=radio, shadowing=ShadowingModel(0.0)))
        vals.append(eng.coverage_efficiency(3.0))
    assert vals[0] == vals[1] == vals[2]


def test_coverage_traffic_modes(matern_engine):
    at_mean = matern_engine.coverage_efficiency_traffic("at-mean")
    marg = matern_engine.coverage_efficiency_traffic("marginalized")
    assert 0.0 <= at_mean <= 1.0
    assert 0.0 <= marg <= 1.0
    with pytest.raises(ParameterError):
        matern_engine.coverage_efficiency_traffic("sampled")


def test_coverage_beyond_float_range_is_clipped(matern_engine):
    # 2**rho overflows a double from rho = 1024 on; the threshold is then
    # above every grid SINR, which clips to the grid's near end
    want = matern_engine.nearest_model.cdf(AnalyticEngine.R_GRID_LO)
    assert matern_engine.coverage_efficiency(2000.0) == want
    assert oracles.coverage_change_of_variables(matern_engine, 2000.0) == want


@pytest.mark.parametrize("rho", [0.5, 1.5, 3.0, 8.0])
def test_coverage_radius_inverts_the_threshold(matern_engine, ppp_engine, rho):
    for eng in (matern_engine, ppp_engine):
        radius = eng.coverage_radius(rho)
        assert not radius.clipped
        assert eng.sinr_of_distance(radius.r) == pytest.approx(2.0**rho - 1.0, rel=1e-9, abs=0.0)
        assert eng.coverage_efficiency(rho) == min(float(eng.nearest_model.cdf(radius.r)), 1.0)


def test_coverage_radius_clips_at_both_grid_ends(matern_engine):
    # demand 0 is met at every distance (far end); 2000 overflows to an infinite threshold (near end)
    assert matern_engine.coverage_radius(0.0) == (AnalyticEngine.R_GRID_HI, True)
    assert matern_engine.coverage_radius(2000.0) == (AnalyticEngine.R_GRID_LO, True)
    with pytest.raises(ParameterError):
        matern_engine.coverage_radius(-0.1)


def marginalized_oracle(eng):
    """Adaptive quad (relative 1e-12) of the coverage over v = ccdf(rho) in
    (0, 1], broken where the coverage has kinks: at the rates of the grid ends
    and, for a hard core delta, of the distances delta/2, 3 delta/4 and delta."""
    from scipy.integrate import quad

    t = eng.scenario.traffic
    _, g_grid = eng._sinr_grid
    radii = eng._hard_core * np.array([0.5, 0.75, 1.0]) if eng._hard_core else []
    gamma = [g_grid[0], g_grid[-1], *(eng.sinr_of_distance(r) for r in radii)]
    pts = sorted(t.ccdf(x) for x in np.log2(1.0 + np.array(gamma)) if x > t.rho_min)

    def cov(v):
        return eng.coverage_efficiency(t.rho_min * v ** (-1.0 / t.theta))

    val, _ = quad(cov, 0.0, 1.0, points=pts or None, limit=400, epsabs=0.0, epsrel=1e-12)
    return val


@pytest.mark.parametrize(
    "strategy, delta, convention, theta, rho_min",
    [
        ("ppp", 200.0, "paper-moments", 1.5, 1.0),
        ("random", 200.0, "paper-moments", 1.5, 1.0),
        ("random", 100.0, "db-std", 2.0, 0.05),
        ("matern", 200.0, "paper-moments", 1.5, 1.0),
        ("matern", 100.0, "db-std", 3.0, 0.5),
        ("matern", 300.0, "paper-moments", 1.01, 0.3),
    ],
)
def test_marginalized_coverage_matches_adaptive_oracle(strategy, delta, convention, theta, rho_min):
    eng = AnalyticEngine(
        Scenario(
            HcppParams(1e-4, delta),
            strategy=strategy,
            shadowing=ShadowingModel(6.0, convention),
            traffic=TrafficModel(theta, rho_min),
        )
    )
    got = eng.coverage_efficiency_traffic("marginalized")
    assert abs(got / marginalized_oracle(eng) - 1.0) <= 1e-10


def test_analytic_metrics_run_without_adaptive_quad(tmp_path):
    # no run of either engine loads scipy, and none imports a numpy module
    # inside cli.main, where its load time would count as run time
    script = (
        "import sys\n"
        "from greencell import cli\n"
        "cfg, small, out = sys.argv[1:]\n"
        "runs = [['analytic'], ['analytic', '--config', cfg], ['simulate', '--config', small],\n"
        "        ['compare', '--config', small],\n"
        "        ['sweep', '--config', small, '--engine', 'mc', '--param', 'delta', '--values', '150,250']]\n"
        "for k, argv in enumerate(runs):\n"
        "    loaded = set(sys.modules)\n"
        "    assert cli.main(argv + ['--out', f'{out}/{k}']) in (0, 2), argv\n"
        "    late = sorted(m for m in set(sys.modules) - loaded if m.split('.')[0] == 'numpy')\n"
        "    assert not late, f'{argv[0]} imported {late}'\n"
        "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not scipy, f'scipy loaded: {scipy[:5]}'\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("traffic_mode=marginalized\n")
    small = tmp_path / "small.cfg"
    small.write_text("window_m=1000\nguard_m=400\nrealizations=4\ntraffic_mode=sampled\n")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", script, str(cfg), str(small), str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("strategy, bound", [("matern", 1250), ("ppp", 200)])
def test_change_of_variables_cost(monkeypatch, strategy, bound):
    # one call at the default mean demand took 621 (matern) and 97 (ppp)
    # kernel points: one inversion per node plus one vector slope call
    eng = AnalyticEngine(Scenario(PARAMS, strategy=strategy))
    eng._sinr_grid, eng.nearest_model  # tables outside the count
    points, kernel = [], AnalyticEngine.interference_base

    def counted_kernel(self, r):
        points.append(np.size(r))
        return kernel(self, r)

    monkeypatch.setattr(AnalyticEngine, "interference_base", counted_kernel)
    rho = eng.scenario.traffic.mean()
    assert 0.0 < oracles.coverage_change_of_variables(eng, rho) < 1.0
    assert sum(points) <= bound


def test_marginalized_coverage_inverts_sinr_once(monkeypatch):
    # Fubini: one inversion for the clipped near end, one at rho_min, and a
    # single vector kernel call on the nearest law's rule
    eng = AnalyticEngine(Scenario(PARAMS))
    eng._sinr_grid, eng.nearest_model  # tables outside the count
    inversions, points = [], []
    invert, kernel = AnalyticEngine.invert_sinr, AnalyticEngine.interference_base

    def counted_invert(self, gamma):
        inversions.append(gamma)
        return invert(self, gamma)

    def counted_kernel(self, r):
        points.append(np.size(r))
        return kernel(self, r)

    monkeypatch.setattr(AnalyticEngine, "invert_sinr", counted_invert)
    monkeypatch.setattr(AnalyticEngine, "interference_base", counted_kernel)
    assert 0.0 < eng.coverage_efficiency_traffic("marginalized") < 1.0
    assert len(inversions) <= 2
    assert sum(points) <= 300


@pytest.mark.parametrize("strategy", ["matern", "ppp"])
def test_marginalized_coverage_above_grid_rate_is_near_end_cdf(strategy):
    # every demand is above the rate at R_GRID_LO: all see the clipped coverage
    eng = AnalyticEngine(Scenario(PARAMS, strategy=strategy, traffic=TrafficModel(1.5, 2000.0)))
    want = eng.nearest_model.cdf(AnalyticEngine.R_GRID_LO)
    assert eng.coverage_efficiency_traffic("marginalized") == want


@pytest.mark.parametrize("strategy", ["matern", "ppp"])
def test_sinr_slope_within_budget(strategy):
    # the 1e-5 r central difference against a Richardson-extrapolated one
    # (steps 1e-3 r, /2, /4), at radii away from delta/2, 3 delta/4, delta, 2 delta
    eng = AnalyticEngine(Scenario(PARAMS, strategy=strategy))

    def central(r, h):
        return (eng.sinr_of_distance(r + h) - eng.sinr_of_distance(r - h)) / (2.0 * h)

    for r in (3.0, 30.0, 70.0, 125.0, 175.0, 300.0, 600.0, 1500.0, 4000.0):
        d1, d2, d4 = (central(r, 1e-3 * r / k) for k in (1, 2, 4))
        r1, r2 = (4.0 * d2 - d1) / 3.0, (4.0 * d4 - d2) / 3.0
        assert abs(oracles.sinr_slope(eng, r) / ((16.0 * r2 - r1) / 15.0) - 1.0) <= 1e-8


def test_shadowing_expectation_matches_quadrature_oracle():
    # the Gauss-Hermite shadowing average must agree with a direct adaptive
    # integral of log2(1 + omega^2 c) against the lognormal density
    from scipy.integrate import quad

    eng = AnalyticEngine(Scenario(PARAMS, shadowing=ShadowingModel(1.0)))
    r = 150.0
    s = eng.scenario
    m2 = float(s.radio.antennas_m) ** 2
    c = (
        m2
        * s.radio.p_f
        * s.radio.p_p
        * r ** (-2.0 * s.radio.alpha)
        / (m2 * eng.interference_base(r) + s.radio.noise_power)
    )

    def integrand(x):  # x = ln(omega), standard normal with std 1
        return np.log2(1.0 + np.exp(2.0 * x) * c) * np.exp(-(x**2) / 2.0) / np.sqrt(2.0 * np.pi)

    ref, _ = quad(integrand, -10.0, 10.0, limit=200)
    assert eng.rate_lower_bound(r) == pytest.approx(ref, rel=1e-9)


def _oracle_rule(family, nodes):
    """50-digit Gauss nodes and weights, Newton-polished from ``nodes``."""
    mp = pytest.importorskip("mpmath")
    n = len(nodes)
    xs, ws = [], []
    with mp.workdps(50):
        for x0 in nodes:
            r = mp.mpf(float(x0))
            if family == "legendre":
                for _ in range(5):
                    dp = n * (r * mp.legendre(n, r) - mp.legendre(n - 1, r)) / (r * r - 1)
                    r -= mp.legendre(n, r) / dp
                w = 2 / ((1 - r * r) * dp * dp)
            else:
                for _ in range(5):
                    r -= mp.hermite(n, r) / (2 * n * mp.hermite(n - 1, r))
                w = 2 ** (n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / (n * n * mp.hermite(n - 1, r) ** 2)
            xs.append(r)
            ws.append(w)
    return xs, ws


def _max_ulps(values, exact):
    return max(float(abs(float(v) - e)) / np.spacing(abs(float(e))) for v, e in zip(values, exact))


@pytest.mark.parametrize(
    "family, n, x, w",
    [
        ("legendre", 16, _GL16_NODES, _GL16_WEIGHTS),
        ("legendre", 32, _GL32_NODES, _GL32_WEIGHTS),
        ("legendre", 64, oracles.GL64_NODES, oracles.GL64_WEIGHTS),
        ("hermite", 96, _GH_NODES, _GH_WEIGHTS),
    ],
    ids=["legendre-16", "legendre-32", "legendre-64", "hermite-96"],
)
def test_gauss_rules_match_50_digit_oracle(family, n, x, w):
    # the analytic engine's shipped rules: nodes and weights correctly rounded
    # (<= 0.5 ulp); LAPACK-based rules miss by up to 1e4 ulp
    assert len(x) == n and np.all(np.diff(x) > 0) and np.all(x == -x[::-1])
    assert np.all(w == w[::-1])
    xs, ws = _oracle_rule(family, x)
    assert _max_ulps(x, xs) <= 0.5
    assert _max_ulps(w, ws) <= 0.5
