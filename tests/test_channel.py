import numpy as np
import pytest

from greencell.channel import (
    CONVENTIONS,
    RadioParams,
    ShadowingModel,
    TrafficModel,
    noise_power_from_dbm,
)
from greencell.errors import ParameterError


def test_shadowing_moments_paper_convention():
    m = ShadowingModel(2.0)
    assert m.log_std == 2.0
    assert m.moment(1) == pytest.approx(np.exp(2.0), rel=1e-12)
    assert m.moment(2) == pytest.approx(np.exp(8.0), rel=1e-12)


def test_shadowing_db_convention():
    m = ShadowingModel(6.0, convention="db-std")
    assert m.log_std == pytest.approx(6.0 * np.log(10.0) / 10.0, rel=1e-12)


def test_shadowing_sample_moments():
    m = ShadowingModel(0.5)
    x = m.sample_with(np.random.default_rng(7), size=200_000)
    assert abs(x.mean() / m.moment(1) - 1.0) < 0.01
    assert abs((x**2).mean() / m.moment(2) - 1.0) < 0.03


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("sigma", [0.0, 0.5, 8.0])
@pytest.mark.parametrize("size", [10, (37, 1764)])
def test_shadowing_draws_are_lognormal_draws(convention, sigma, size):
    """The draws equal np.exp(rng.normal(0, log_std, size)) bit for bit, and
    leave the stream where that call leaves it."""
    m = ShadowingModel(sigma, convention=convention)
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    assert np.array_equal(m.sample_with(rng, size), np.exp(ref.normal(0.0, m.log_std, size)))
    assert rng.random() == ref.random()


def test_shadowing_zero_sigma_degenerate():
    m = ShadowingModel(0.0)
    assert m.moment(1) == 1.0
    assert m.moment(2) == 1.0
    assert np.all(m.sample_with(np.random.default_rng(1), size=10) == 1.0)


def test_shadowing_validation():
    with pytest.raises(ParameterError):
        ShadowingModel(-1.0)
    with pytest.raises(ParameterError):
        ShadowingModel(1.0, convention="nats")
    with pytest.raises(ParameterError):
        ShadowingModel(1.0).moment(3)


def test_radio_defaults_match_reference_table():
    r = RadioParams()
    assert r.p_f == 7.7
    assert r.p_p == 0.13
    assert r.antennas_m == 128
    assert r.alpha == 4.0
    assert r.eta == 0.38
    assert r.p_rf_chain == 0.048
    assert r.p_sta == 4.3
    assert r.noise_power == pytest.approx(10 ** (-20.4), rel=1e-12)


def test_radio_validation():
    with pytest.raises(ParameterError, match="eta"):
        RadioParams(eta=1.5)
    with pytest.raises(ParameterError):
        RadioParams(alpha=1.0)
    with pytest.raises(ParameterError):
        RadioParams(p_f=-1.0)
    with pytest.raises(ParameterError):
        RadioParams(antennas_m=0)


def test_noise_power_from_dbm():
    assert noise_power_from_dbm(-174.0) == pytest.approx(10 ** (-20.4), rel=1e-12)
    assert noise_power_from_dbm(30.0) == pytest.approx(1.0, rel=1e-12)


def test_traffic_mean_and_validation():
    t = TrafficModel(theta=1.5, rho_min=1.0)
    assert t.mean() == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ParameterError):
        TrafficModel(theta=1.0)
    with pytest.raises(ParameterError):
        TrafficModel(rho_min=0.0)


def test_traffic_ccdf_closed_form_and_samples():
    t = TrafficModel(theta=2.5, rho_min=2.0)
    assert t.ccdf(t.rho_min) == 1.0
    x = np.array([0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 12.0])
    want = np.where(x > t.rho_min, (t.rho_min / x) ** t.theta, 1.0)
    assert np.allclose(t.ccdf(x), want, rtol=1e-15, atol=0.0)
    # 1 - ccdf is the CDF of the sampler, within 4 binomial standard errors
    draws = t.sample_with(np.random.default_rng(5), size=100_000)
    p = 1.0 - t.ccdf(x)
    emp = (draws[:, None] <= x).mean(axis=0)
    assert np.all(np.abs(emp - p) <= 4.0 * np.sqrt(p * (1.0 - p) / draws.size))


def test_traffic_sample_moments():
    t = TrafficModel(theta=3.0, rho_min=1.0)
    x = t.sample_with(np.random.default_rng(11), size=200_000)
    assert np.all(x >= t.rho_min)
    assert abs(x.mean() / t.mean() - 1.0) < 0.01
