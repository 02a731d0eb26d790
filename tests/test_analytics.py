import numpy as np
import pytest

from greencell.analytics import AnalyticEngine, Scenario
from greencell.channel import RadioParams, ShadowingModel, TrafficModel
from greencell.errors import InterferenceDivergenceError, ParameterError
from greencell.hcpp import HcppParams, zeta1, zeta2
from greencell.quadrature import gauss_hermite, gauss_legendre

PARAMS = HcppParams(1e-4, 200.0)


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
        Scenario(PARAMS, regularization="bogus")
    with pytest.raises(ParameterError):
        Scenario(PARAMS, ues_per_cell=-1)


def test_retain_probability_modes():
    s = Scenario(PARAMS)
    assert s.retain_probability == pytest.approx(zeta1(PARAMS) / PARAMS.lambda_b, rel=1e-12)
    flipped = Scenario(PARAMS, random_mode="remove")
    assert flipped.retain_probability == pytest.approx(1.0 - s.retain_probability, rel=1e-12)


def test_active_density_by_strategy(matern_engine, ppp_engine):
    assert ppp_engine.active_density == PARAMS.lambda_b
    assert matern_engine.active_density == pytest.approx(zeta1(PARAMS), rel=1e-12)
    rnd = AnalyticEngine(Scenario(PARAMS, strategy="random"))
    assert rnd.active_density == pytest.approx(zeta1(PARAMS), rel=1e-12)


def test_constant_kernel_closed_form(ppp_engine):
    # with a flat second moment the exclusion-ball integral has an exact value
    lam = PARAMS.lambda_b
    p = 8.0
    for r in (30.0, 100.0, 500.0):
        exact = lam**2 * 2.0 * np.pi * r ** (2.0 - p) / (p - 2.0)
        got = float(ppp_engine._radial_integral(r, p)[0])
        assert abs(got / exact - 1.0) < 1e-6


def test_matern_kernel_vs_brute_oracle(matern_engine):
    p = 8.0
    for r in (50.0, 150.0, 400.0):
        ref = brute_exclusion_integral(r, p, lambda u: zeta2(u, PARAMS))
        got = float(matern_engine._radial_integral(r, p)[0])
        assert abs(got / ref - 1.0) < 2e-3


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


def test_unregularized_divergence():
    eng = AnalyticEngine(Scenario(PARAMS, regularization="none", shadowing=ShadowingModel(0.0)))
    with pytest.raises(InterferenceDivergenceError):
        eng.avg_interference(300.0)
    # inside the hard core the integral exists as printed
    assert eng.avg_interference(150.0) > 0
    ppp = AnalyticEngine(
        Scenario(PARAMS, strategy="ppp", regularization="none", shadowing=ShadowingModel(0.0))
    )
    with pytest.raises(InterferenceDivergenceError):
        ppp.avg_interference(50.0)


def test_min_distance_regularization_finite():
    eng = AnalyticEngine(
        Scenario(
            PARAMS,
            regularization="min-distance",
            shadowing=ShadowingModel(0.0),
        )
    )
    v = eng.avg_interference(300.0)
    assert np.isfinite(v) and v > 0


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
        matern_engine.avg_cell_rate() / matern_engine.bs_power(), rel=1e-12
    )
    assert matern_engine.avg_cell_rate() > 0
    assert matern_engine.avg_tx_power() > 0


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


def test_coverage_paths_agree(matern_engine):
    for rho in (0.5, 1.5, 3.0, 6.0):
        a = matern_engine.coverage_efficiency(rho, method="cdf")
        b = matern_engine.coverage_efficiency(rho, method="change-of-variables")
        assert abs(a - b) <= 1e-6
        assert 0.0 <= a <= 1.0


def test_coverage_monotone_in_threshold(matern_engine):
    vals = [matern_engine.coverage_efficiency(rho, method="cdf") for rho in (0.5, 1.5, 3.0, 6.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert matern_engine.coverage_efficiency(0.0, method="cdf") > 0.999
    with pytest.raises(ParameterError):
        matern_engine.coverage_efficiency(-1.0)


def test_coverage_antenna_invariance_bit_exact():
    vals = []
    for m in (64, 128, 256):
        radio = RadioParams(antennas_m=m, noise_power=0.0)
        eng = AnalyticEngine(Scenario(PARAMS, radio=radio, shadowing=ShadowingModel(0.0)))
        vals.append(eng.coverage_efficiency(3.0, method="cdf"))
    assert vals[0] == vals[1] == vals[2]


def test_coverage_traffic_modes(matern_engine):
    at_mean = matern_engine.coverage_efficiency_traffic("at-mean")
    marg = matern_engine.coverage_efficiency_traffic("marginalized")
    assert 0.0 <= at_mean <= 1.0
    assert 0.0 <= marg <= 1.0
    with pytest.raises(ParameterError):
        matern_engine.coverage_efficiency_traffic("sampled")


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
    "family, n, rule",
    [("legendre", 32, gauss_legendre), ("legendre", 64, gauss_legendre), ("hermite", 96, gauss_hermite)],
)
def test_gauss_rules_match_50_digit_oracle(family, n, rule):
    # the analytic engine's fixed rules: nodes and weights correctly rounded
    # (<= 0.5 ulp); LAPACK-based rules miss by up to 1e4 ulp
    x, w = rule(n)
    assert len(x) == n and np.all(np.diff(x) > 0) and np.all(x == -x[::-1])
    assert np.all(w == w[::-1])
    xs, ws = _oracle_rule(family, x)
    assert _max_ulps(x, xs) <= 0.5
    assert _max_ulps(w, ws) <= 0.5
