import numpy as np
import pytest
from scipy.integrate import quad

from greencell import hcpp
from greencell.errors import ParameterError
from greencell.hcpp import HcppParams


def test_zeta1_reference_values():
    assert hcpp.zeta1(HcppParams(1e-4, 200.0)) == pytest.approx(7.957719403206055e-06, rel=1e-12)
    assert hcpp.zeta1(HcppParams(1e-4, 100.0)) == pytest.approx(3.0455446877969375e-05, rel=1e-12)


def test_zeta1_small_delta_limit():
    lam = 1e-4
    assert hcpp.zeta1(HcppParams(lam, 1e-6)) == pytest.approx(lam, rel=1e-10)
    assert hcpp.zeta1(HcppParams(lam, 0.0)) == pytest.approx(lam, rel=1e-12)


def test_zeta1_monotone_decreasing_in_delta():
    lam = 1e-4
    vals = [hcpp.zeta1(HcppParams(lam, d)) for d in (10.0, 50.0, 100.0, 200.0, 400.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_union_area_endpoints():
    assert hcpp.union_area(0.0, 1.0) == pytest.approx(np.pi, rel=1e-12)
    assert hcpp.union_area(2.0, 1.0) == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert hcpp.union_area(5.0, 1.0) == pytest.approx(2.0 * np.pi, rel=1e-12)
    exact = 2.0 * np.pi - 2.0 * np.arccos(0.5) + np.sqrt(0.75)
    assert hcpp.union_area(1.0, 1.0) == pytest.approx(exact, rel=1e-12)
    assert hcpp.union_area(1.0, 1.0) == pytest.approx(5.05482, abs=1e-5)


def test_union_area_validation():
    with pytest.raises(ParameterError):
        hcpp.union_area(1.0, 0.0)
    with pytest.raises(ParameterError):
        hcpp.union_area(-1.0, 1.0)


def test_zeta2_hard_core_support():
    p = HcppParams(1e-4, 200.0)
    r = np.linspace(0.0, 200.0, 40)
    assert np.all(hcpp.zeta2(r, p) == 0.0)


def test_zeta2_far_field_identity():
    p = HcppParams(1e-4, 200.0)
    z1sq = hcpp.zeta1(p) ** 2
    for r in np.linspace(400.0, 4000.0, 50):
        assert abs(hcpp.zeta2(r, p) / z1sq - 1.0) < 1e-10


def test_zeta2_continuous_and_positive_in_transition():
    p = HcppParams(1e-4, 200.0)
    r = np.linspace(201.0, 399.0, 100)
    v = hcpp.zeta2(r, p)
    assert np.all(v > 0)
    assert np.all(np.isfinite(v))


def test_excluded_area_reference_value():
    assert hcpp.excluded_area(300.0, 200.0) == pytest.approx(167354.89, abs=0.5)


def test_excluded_area_support_and_growth():
    assert hcpp.excluded_area(99.9, 200.0) == 0.0
    assert hcpp.excluded_area(100.0, 200.0) == 0.0
    r = np.linspace(101.0, 2000.0, 200)
    m = hcpp.excluded_area(r, 200.0)
    assert np.all(np.diff(m) > 0)
    # far-field slope tends to the half-disk law pi r^2 / 2
    assert hcpp.excluded_area(1e5, 200.0) == pytest.approx(np.pi * 1e10 / 2.0, rel=1e-2)


def test_fit_lambda_star_reference():
    p = HcppParams(1e-4, 200.0)
    lam_star = hcpp.fit_lambda_star(p)
    assert lam_star == pytest.approx(1.404342809e-05, rel=1e-8)
    model = hcpp.NearestPdfModel(p, lam_star)
    mass, _ = quad(model.pdf, 0.0, 5000.0, limit=300)
    assert abs(mass - 1.0) <= 1e-6


@pytest.mark.parametrize(
    "lam, delta", [(1e-4, 200.0), (1e-4, 50.0), (3e-5, 300.0), (1e-3, 200.0), (1e-4, 1000.0), (1e-4, 0.5)]
)
def test_fit_lambda_star_normalizes_to_rounding(lam, delta):
    p = HcppParams(lam, delta)
    assert abs(hcpp._pdf_integral(p, hcpp.fit_lambda_star(p)) - 1.0) <= 1e-14


def test_hard_core_law_rejects_zero_delta():
    # without a hard core the contact law is RayleighNearestModel
    with pytest.raises(ParameterError, match="delta must be > 0"):
        hcpp.fit_nearest_model(HcppParams(1e-4, 0.0))
    with pytest.raises(ParameterError, match="delta must be > 0"):
        hcpp.NearestPdfModel(HcppParams(1e-4, 0.0), 2e-4)


def test_nearest_model_cdf_monotone():
    model = hcpp.fit_nearest_model(HcppParams(1e-4, 200.0))
    radii = [50.0, 150.0, 250.0, 400.0, 700.0]
    cdfs = [model.cdf(r) for r in radii]
    assert all(b > a for a, b in zip(cdfs, cdfs[1:]))
    assert model.cdf(model.support_radius()) > 1.0 - 1e-6


def _mp_cdf(model, radii, dps=30):
    """Nearest-law CDF of ``model`` at ascending ``radii`` in ``dps``-digit
    arithmetic: closed form up to delta/2, then adaptive tanh-sinh segments
    (in t = sqrt(r - delta/2) on the first, which removes the square-root
    opening of the excluded area)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        d = mp.mpf(model.params.delta)
        lam, pre = mp.mpf(model.lambda_star_fit), mp.mpf(model.prefactor)
        h = d / 2

        def pdf(r):
            x = d / (2 * r)
            area = mp.pi * r**2 - (2 * mp.asin(x) + mp.acos(x)) * r**2 + d * mp.sqrt(r**2 - h**2)
            return pre * r * mp.exp(-lam * area)

        out, acc, prev = [], None, None
        for r in map(mp.mpf, radii):
            if r <= h:
                out.append(float(pre * r * r / 2))
                continue
            if acc is None:
                t_hi = mp.sqrt(r - h)
                acc = pre * h * h / 2 + mp.quad(lambda t: 2 * t * pdf(h + t * t), mp.linspace(0, t_hi, 9))
            else:
                acc += mp.quad(pdf, mp.linspace(prev, r, 9))
            prev = r
            out.append(float(acc))
    return out


@pytest.mark.parametrize("lam, delta", [(1e-4, 50.0), (1e-4, 200.0), (3e-5, 300.0), (1e-3, 200.0)])
def test_nearest_model_cdf_matches_30_digit_oracle(lam, delta):
    model = hcpp.fit_nearest_model(HcppParams(lam, delta))
    radii = np.geomspace(0.3 * delta, 6000.0, 12)
    want = _mp_cdf(model, radii)
    got = [model.cdf(r) for r in radii]
    assert max(abs(g / w - 1.0) for g, w in zip(got, want)) <= 1e-14


@pytest.mark.parametrize("lam, delta", [(1e-4, 200.0), (3e-4, 50.0), (3e-5, 150.0)])
def test_support_radius_bounds_the_tail(lam, delta):
    # the first radius on the search grid (x1.5 steps) whose remaining mass,
    # by the oracle, is <= tail
    model = hcpp.fit_nearest_model(HcppParams(lam, delta))
    radii = {tail: model.support_radius(tail) for tail in (1e-9, 1e-7)}
    steps = sorted({x for r in radii.values() for x in (r / 1.5, r)})
    mass = dict(zip(steps, _mp_cdf(model, steps)))
    for tail, r in radii.items():
        assert 1.0 - mass[r] <= tail
        if r > delta:
            assert 1.0 - mass[r / 1.5] > tail


def test_nearest_model_small_delta_is_rayleigh():
    # as delta -> 0 the PDF collapses to the Poisson contact law, even though
    # the fitted normalization constant tends to 2*lambda_b (the excluded
    # area tends to the half disk pi r^2 / 2, not the full disk)
    lam = 1e-4
    model = hcpp.fit_nearest_model(HcppParams(lam, 0.5))
    r = np.linspace(5.0, 100.0, 20)  # bulk of the distribution
    ref = hcpp.RayleighNearestModel(lam).pdf(r)
    assert np.all(np.abs(model.pdf(r) / ref - 1.0) < 5e-3)
    assert model.lambda_star_fit == pytest.approx(2.0 * lam, rel=5e-3)


def test_ppp_nearest_pdf_normalized():
    lam = 1e-4
    mass, _ = quad(hcpp.RayleighNearestModel(lam).pdf, 0.0, 2000.0, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ParameterError):
        hcpp.RayleighNearestModel(0.0)


def test_rayleigh_model_consistency():
    m = hcpp.RayleighNearestModel(1e-4)
    r = 120.0
    num, _ = quad(m.pdf, 0.0, r)
    assert m.cdf(r) == pytest.approx(num, rel=1e-9)
    assert m.cdf(m.support_radius(1e-9)) == pytest.approx(1.0, abs=1e-8)


def test_params_validation():
    with pytest.raises(ParameterError):
        HcppParams(0.0, 100.0)
    with pytest.raises(ParameterError):
        HcppParams(1e-4, -1.0)
