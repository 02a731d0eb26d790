import copy
import dataclasses
import math

import numpy as np
import oracles
import pytest

from greencell import config as cfgmod
from greencell import geometry, mc
from greencell.analytics import AnalyticEngine, Scenario
from greencell.channel import RadioParams, ShadowingModel
from greencell.errors import ParameterError
from greencell.geometry import Window
from greencell.hcpp import HcppParams

PARAMS = HcppParams(1e-4, 200.0)
WINDOW = Window(1500.0, 600.0)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(PARAMS, shadowing=ShadowingModel(0.0))


@pytest.fixture(scope="module")
def engine(scenario):
    return AnalyticEngine(scenario)


def test_child_rng_deterministic():
    a = mc.child_rng(5, 3).uniform(size=4)
    b = mc.child_rng(5, 3).uniform(size=4)
    c = mc.child_rng(5, 4).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_active_strategies(scenario):
    rng = mc.child_rng(1, 0)
    active = mc.sample_active(scenario, WINDOW, rng)
    assert oracles.min_pairwise_distance(active) >= PARAMS.delta
    ppp = mc.sample_active(dataclasses.replace(scenario, strategy="ppp"), WINDOW, mc.child_rng(1, 0))
    assert len(ppp) > len(active)


def _realization(scenario, engine, master_seed, index):
    rng = mc.child_rng(master_seed, index)
    active = mc.sample_active(scenario, WINDOW, rng)
    return mc.run_realization(engine, WINDOW, active, rng)


def test_mc_estimate_needs_two_values():
    with pytest.raises(ParameterError):
        mc.McEstimate(1.0, 0.0, 1)


def test_run_realization_invariants(scenario, engine):
    # one set of typical users serves both estimators: EE reads round(k), CE reads CE_USERS
    rate, power = _realization(scenario, engine, 2, 0)
    assert len(rate) == max(int(round(engine.k_ue)), mc.CE_USERS)
    assert mc.user_counts(engine) == {"typical_users": len(rate), "ee_users": int(round(engine.k_ue)),
                                      "ce_users": mc.CE_USERS}
    assert np.all(rate > 0)
    assert len(power) == mc.POWER_STATIONS
    assert np.all(power > 0)


def test_run_realization_deterministic(scenario, engine):
    a = _realization(scenario, engine, 3, 1)
    b = _realization(scenario, engine, 3, 1)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_run_realization_interference_next_to_server(scenario):
    """A user 1 m from its server, every other station >= 300 m away: the
    summed gain of the other stations is their direct sum (omega == 1 at
    sigma_s = 0), not the total minus the dominant own term, which cancels."""
    others = np.array([[300.0, 0.0], [0.0, -400.0], [-500.0, 350.0], [420.0, 610.0]])
    ue = np.array([[-730.0, 215.0]])
    stations = np.vstack([ue + [1.0, 0.0], ue + others])
    own, other = mc._received_power(stations, ue, None, mc.child_rng(4, 0), scenario)
    d = np.sqrt(((stations - ue) ** 2).sum(axis=1))
    assert own[0] == pytest.approx(1.0, rel=1e-9)  # the server, 1 m away
    expected = (d[1:] ** (-2.0 * scenario.radio.alpha)).sum()
    assert other[0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_station_power_matches_direct_sum():
    """The per-user reference for station power against m * P_p * E[omega] *
    sum(d^-alpha), summed one (station, cell, user) term at a time from a
    replay of its stream: cells other than the station's own, users no
    closer to the station than to their own server.  The sum is linear in
    omega, so its expectation over shadowing takes E[omega] = moment(1)."""
    scenario = Scenario(PARAMS, shadowing=ShadowingModel(6.0, "db-std"))
    engine = AnalyticEngine(scenario)
    layout = np.array([[0.0, 0.0], [260.0, 40.0], [-180.0, 230.0], [90.0, -310.0], [-400.0, -150.0]])
    rng = mc.child_rng(6, 0)
    replay = copy.deepcopy(rng)
    power = oracles.per_user_station_power(engine, WINDOW, layout, rng)

    n, k = len(layout), max(int(round(engine.k_ue)), 1)
    radii = oracles._sample_offsets(engine.nearest_model, replay, size=(n, k))
    angles = replay.uniform(0.0, 2.0 * np.pi, size=(n, k))
    omega_mean = scenario.shadowing.moment(1)
    radio = scenario.radio
    expected, excluded = [], 0
    for i, (sx, sy) in enumerate(layout):
        total = 0.0
        for c, (cx, cy) in enumerate(layout):
            if c == i:
                continue
            for u in range(k):
                x = cx + radii[c, u] * math.cos(angles[c, u])
                y = cy + radii[c, u] * math.sin(angles[c, u])
                d = math.hypot(x - sx, y - sy)
                if d >= radii[c, u]:
                    total += d ** (-radio.alpha)
                else:
                    excluded += 1
        expected.append(radio.antennas_m * radio.p_p * omega_mean * total)
    assert excluded > 0  # the layout exercises the association rule
    assert power == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("convention, seed", [("db-std", 721), ("paper-moments", 722)])
def test_kernel_power_matches_per_user_sum(convention, seed):
    """``station_power`` is the expectation of the per-user sum given the
    stations: paired on the same stations (matern at the config defaults,
    400 realizations), their per-realization means differ by noise alone,
    |z| <= 3.  The reference sums round(k) users per cell and the kernel k,
    so the kernel side is scaled by round(k) / k; E[omega] scales both
    sides alike, so the two conventions differ only by their seeds."""
    cfg = cfgmod.RunConfig(shadowing_convention=convention)
    scenario, window = cfgmod.to_scenario(cfg), cfgmod.to_window(cfg)
    engine = AnalyticEngine(scenario)
    users = max(int(round(engine.k_ue)), 1) / engine.k_ue
    diffs = []
    for k in range(400):
        rng = mc.child_rng(seed, k)
        active = mc.sample_active(scenario, window, rng)
        kernel = mc.station_power(engine, window, active)
        if len(kernel):
            diffs.append(oracles.per_user_station_power(engine, window, active, rng).mean() - users * kernel.mean())
    est = mc._mc_estimate(diffs)
    assert abs(est.mean / est.std_error) <= 3.0


def test_run_realization_draws_only_typical_users(scenario):
    # station power draws nothing: the stream ends where the max(round(k), CE_USERS) typical users leave it
    for strategy in ("matern", "ppp"):
        sc = dataclasses.replace(scenario, strategy=strategy)
        engine = AnalyticEngine(sc)
        n_ue = mc.user_counts(engine)["typical_users"]
        assert n_ue == max(int(round(engine.k_ue)), mc.CE_USERS)
        active = mc.sample_active(sc, WINDOW, mc.child_rng(8, 0))
        rng, replay = mc.child_rng(8, 1), mc.child_rng(8, 1)
        rate, power = mc.run_realization(engine, WINDOW, active, rng)
        assert len(power) == mc.POWER_STATIONS
        assert np.array_equal(rate, oracles.typical_user_rates(engine, WINDOW, active, replay, n_ue))
        assert rng.bit_generator.state == replay.bit_generator.state


def test_interference_matches_analytic(scenario, engine):
    est = mc.estimate_interference(engine, WINDOW, 100.0, 150, 11)
    ana = engine.avg_interference(100.0)
    assert abs(est.mean - ana) <= 3.0 * est.std_error
    with pytest.raises(ParameterError):
        mc.estimate_interference(engine, WINDOW, 0.0, 10, 1)


def test_interference_skips_realizations_without_a_host(scenario, engine):
    # no station in a 100 m measurement region: no probe, so no value; a lone host scores 0
    window = Window(100.0, 600.0)
    hosted = [geometry.in_measurement_region(mc.sample_active(scenario, window, mc.child_rng(17, k)), window).any()
              for k in range(400)]
    assert 0 < sum(hosted) < 400
    assert mc.estimate_interference(engine, window, 100.0, 400, 17).realization_count == sum(hosted)
    measure, _ = mc.interference_estimator(engine, WINDOW, 100.0)
    assert measure(np.array([[0.0, 0.0]]), mc.child_rng(1, 0)) == 0.0
    assert measure(np.array([[2000.0, 0.0]]), mc.child_rng(1, 0)) is None


def test_interference_converges_at_paper_moments():
    """At paper-moments sigma_s = 6, E[omega^2] = e^72: 150 lognormal draws
    per gain cannot estimate it, so the estimate takes the moment itself and
    converges to the analytic mean like the unshadowed one."""
    sc = Scenario(PARAMS, shadowing=ShadowingModel(6.0))
    eng = AnalyticEngine(sc)
    est = mc.estimate_interference(eng, WINDOW, 100.0, 150, 11)
    assert abs(est.mean - eng.avg_interference(100.0)) <= 3.0 * est.std_error


def test_shared_realizations_match_single_estimators(monkeypatch):
    """One pass draws each realization's stations once, and every estimator
    in it reads exactly the values it reads alone, on its own stream: EE and
    CE, one estimator, equal the one-quantity passes."""
    sc = Scenario(PARAMS, shadowing=ShadowingModel(6.0, "db-std"))
    eng = AnalyticEngine(sc)
    sample_active, draws = mc.sample_active, []

    def counted(*args):
        draws.append(1)
        return sample_active(*args)

    monkeypatch.setattr(mc, "sample_active", counted)
    estimators = [
        mc.ee_ce_estimator(eng, WINDOW, True),
        mc.interference_estimator(eng, WINDOW, 100.0),
    ]
    ((ee, _), ce), interference = mc.run_estimators(sc, WINDOW, 12, 5, estimators)
    assert len(draws) == 12
    assert ee == mc.estimate_ee(eng, WINDOW, 12, 5)
    assert ce == mc.estimate_ce(eng, WINDOW, 12, 5, sampled=True)
    assert interference == mc.estimate_interference(eng, WINDOW, 100.0, 12, 5)


def _defaults(strategy):
    cfg = cfgmod.RunConfig(strategy=strategy, shadowing_convention="db-std")
    scenario = cfgmod.to_scenario(cfg)
    return scenario, cfgmod.to_window(cfg), AnalyticEngine(scenario)


def test_shared_pass_ee_is_the_ee_only_pass():
    """Where round(k) >= CE_USERS (matern at the defaults), the shared pass
    draws exactly the EE-only pass's users: EE and station power are bit for
    bit those of the former estimator."""
    scenario, window, eng = _defaults("matern")
    assert mc.user_counts(eng)["ee_users"] >= mc.CE_USERS
    estimators = [mc.ee_ce_estimator(eng, window, True), oracles.ee_only_estimator(eng, window)]
    for seed in (3, 4):
        ((ee, power), _), (ee_old, power_old) = mc.run_estimators(scenario, window, 30, seed, estimators)
        assert ee == ee_old
        assert power == power_old


@pytest.mark.parametrize("sampled", [False, True])
def test_shared_pass_ce_is_the_ce_only_pass(sampled):
    """Where round(k) <= CE_USERS (ppp), the shared pass draws exactly the
    CE-only pass's users, and the sampled demands after them: CE is bit for
    bit that of the former estimator."""
    scenario, window, eng = _defaults("ppp")
    assert mc.user_counts(eng)["typical_users"] == mc.CE_USERS
    estimators = [mc.ee_ce_estimator(eng, window, sampled), oracles.ce_only_estimator(eng, window, sampled)]
    for seed in (3, 4):
        (_, ce), ce_old = mc.run_estimators(scenario, window, 30, seed, estimators)
        assert ce == ce_old


def _agree(new, old):
    return abs(new.mean - old.mean) <= 3.0 * math.hypot(new.std_error, old.std_error)


def test_shared_pass_keeps_each_estimator_in_law():
    """Where the shared pass reads other users than the former estimator
    (CE of a matern row, EE of ppp), the estimate keeps its law: the two
    agree within 3 combined standard errors over 400 realizations.  They
    share the stations, which correlates them, so the bound is conservative."""
    scenario, window, eng = _defaults("matern")
    estimators = [mc.ee_ce_estimator(eng, window, True), oracles.ce_only_estimator(eng, window, True)]
    (_, ce), ce_old = mc.run_estimators(scenario, window, 400, 31, estimators)
    assert ce != ce_old
    assert _agree(ce, ce_old)
    scenario, window, eng = _defaults("ppp")
    estimators = [mc.ee_ce_estimator(eng, window, False), oracles.ee_only_estimator(eng, window)]
    ((ee, _), _), (ee_old, _) = mc.run_estimators(scenario, window, 400, 32, estimators)
    assert ee != ee_old
    assert _agree(ee, ee_old)


def test_tx_power_matches_analytic(scenario, engine):
    powers = []
    for k in range(150):
        _, power = _realization(scenario, engine, 3, k)
        if len(power):
            powers.append(power.mean())
    powers = np.asarray(powers)
    se = powers.std(ddof=1) / np.sqrt(len(powers))
    # the analytic value models per-cell user offsets through an approximate
    # serving-distance law, so allow a slightly wider band than pure MC noise
    assert abs(powers.mean() - engine.avg_tx_power()) <= 4.0 * se


def test_rate_jensen_direction(scenario, engine):
    r = 150.0
    est = oracles.estimate_rate_at_distance(scenario, WINDOW, r, 100, 21)
    assert engine.rate_lower_bound(r, engine.interference_base(r)) <= est.mean + 3.0 * est.std_error


def test_estimate_ee_positive(scenario, engine):
    est = mc.estimate_ee(engine, WINDOW, 40, 9)
    assert est.mean > 0
    assert est.std_error > 0
    assert est.realization_count <= 40


def _serving_cdf(engine, window, n, master_seed):
    radius = engine.coverage_radius(engine.scenario.traffic.mean()).r
    return mc.run_estimators(engine.scenario, window, n, master_seed, [mc.serving_cdf_estimator(window, radius)])[0]


def test_estimate_ce_modes(scenario, engine):
    inst = mc.estimate_ce(engine, WINDOW, 60, 5)
    mean_i = _serving_cdf(engine, WINDOW, 60, 5)
    assert 0.0 <= inst.mean <= 1.0
    assert 0.0 <= mean_i.mean <= 1.0
    sampled = mc.estimate_ce(engine, WINDOW, 30, 5, sampled=True)
    assert 0.0 <= sampled.mean <= 1.0


def test_mean_interference_coverage_draws_no_shadowing(monkeypatch, engine):
    # it reads only the serving distances; the instantaneous mode draws once per realization
    sample_with, calls = ShadowingModel.sample_with, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return sample_with(self, *args, **kwargs)

    monkeypatch.setattr(ShadowingModel, "sample_with", counted)
    _serving_cdf(engine, WINDOW, 6, 5)
    assert len(calls) == 0
    mc.estimate_ce(engine, WINDOW, 6, 5)
    assert len(calls) == 6


@pytest.mark.parametrize("n", [2, 9])
def test_serving_cdf_pass_calls_no_kernel(monkeypatch, engine, n):
    """The serving-CDF pass compares distances with one radius, found
    before it; the per-user count it replaces calls the kernel once per
    realization."""
    radius = engine.coverage_radius(engine.scenario.traffic.mean()).r
    interference_base, calls = AnalyticEngine.interference_base, []

    def counted(self, r):
        calls.append(1)
        return interference_base(self, r)

    monkeypatch.setattr(AnalyticEngine, "interference_base", counted)
    mc.run_estimators(engine.scenario, WINDOW, n, 5, [mc.serving_cdf_estimator(WINDOW, radius)])
    assert len(calls) == 0
    mc.run_estimators(engine.scenario, WINDOW, n, 5, [oracles.mean_interference_ce_estimator(engine, WINDOW)])
    assert len(calls) == n


@pytest.mark.parametrize(
    "strategy, convention",
    [("matern", "db-std"), ("matern", "paper-moments"), ("ppp", "db-std"), ("random", "db-std")],
)
def test_serving_cdf_equals_mean_interference_count(strategy, convention):
    """Rate > demand exactly inside the coverage radius, as the SINR is
    strictly decreasing: the serving-distance CDF at the radius equals the
    per-user mean-interference count bit for bit, on the same users, at the
    compare command's defaults (seeds 1-40, 60 realizations)."""
    cfg = cfgmod.RunConfig(strategy=strategy, shadowing_convention=convention)
    scenario, window = cfgmod.to_scenario(cfg), cfgmod.to_window(cfg)
    eng = AnalyticEngine(scenario)
    radius = eng.coverage_radius(scenario.traffic.mean()).r
    estimators = [mc.serving_cdf_estimator(window, radius), oracles.mean_interference_ce_estimator(eng, window)]
    for seed in range(1, 41):
        new, old = mc.run_estimators(scenario, window, 60, seed, estimators)
        assert new == old, seed


def test_ce_deterministic_in_seed(scenario, engine):
    a = mc.estimate_ce(engine, WINDOW, 30, 5)
    b = mc.estimate_ce(engine, WINDOW, 30, 5)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_finite_m_streams_distinct_across_antenna_counts(monkeypatch):
    """Each (antenna count, trial) has its own stream: counts 1000 apart
    share none (a key of t * 1000 + m made trial t at m = 1016 trial t + 1
    at m = 16)."""
    child_rng, keys = mc.child_rng, []

    def recorded(seed, *key):
        keys.append(key)
        return child_rng(seed, *key)

    monkeypatch.setattr(mc, "child_rng", recorded)
    cells = [(-600.0, 0.0), (600.0, 0.0), (0.0, 800.0)]
    mc.finite_m_validation([16, 1016], 5, cells, RadioParams(), seed=2, n_trials=3)
    assert len(keys) == 6
    assert len(set(keys)) == len(keys)


def test_finite_m_errors_shrink():
    cells = [(-600.0, 0.0), (600.0, 0.0), (0.0, 800.0)]
    rows = mc.finite_m_validation([16, 64, 256], 5, cells, RadioParams(), seed=2, n_trials=40)
    errs = [r.median_rel_error for r in rows]
    assert errs[0] > errs[1] > errs[2]
    devs = [r.diag_deviation for r in rows]
    assert devs[0] > devs[2]
    with pytest.raises(ParameterError):
        mc.finite_m_validation([4], 5, cells, RadioParams(), seed=2, n_trials=5)
