import tracemalloc

import numpy as np
import oracles
import pytest

from greencell import geometry
from greencell.errors import ParameterError
from greencell.geometry import Window
from greencell.hcpp import HcppParams, zeta1, zeta2


def test_window_areas():
    w = Window(2500.0, 500.0)
    assert (2 * w.half_width) ** 2 == 5000.0**2
    assert (2 * w.sampling_half_width) ** 2 == 6000.0**2
    assert w.sampling_half_width == 3000.0


def test_window_validation():
    with pytest.raises(ParameterError):
        Window(0.0)
    with pytest.raises(ParameterError):
        Window(100.0, -1.0)


def test_sample_ppp_zero_intensity():
    assert len(geometry.sample_ppp(0.0, Window(100.0), np.random.default_rng(1))) == 0


def test_sample_ppp_negative_intensity():
    with pytest.raises(ParameterError):
        geometry.sample_ppp(-1.0, Window(100.0), np.random.default_rng(1))


def test_sample_ppp_deterministic():
    w = Window(500.0, 100.0)
    a = geometry.sample_ppp(1e-4, w, np.random.default_rng(9))
    b = geometry.sample_ppp(1e-4, w, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_sample_ppp_mean_count():
    w = Window(2500.0, 500.0)
    counts = [len(geometry.sample_ppp(1e-4, w, np.random.default_rng(k))) for k in range(300)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 3600.0) < 3.0 * se


def test_sample_ppp_positions_in_region():
    w = Window(500.0, 100.0)
    pts = geometry.sample_ppp(1e-3, w, np.random.default_rng(2))
    assert np.all(np.abs(pts) <= w.sampling_half_width)


def _marks(points, seed):
    """Independent Uniform[0,1] marks, one per point."""
    return np.random.default_rng(seed).uniform(size=len(points))


def test_matern_delta_zero_identity():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    out = geometry.matern_ii_thin(pts, np.array([0.5, 0.1, 0.9]), 0.0)
    assert np.array_equal(out, pts)


def test_matern_marks_must_match_points():
    pts = np.array([[0.0, 0.0], [100.0, 0.0]])
    with pytest.raises(ParameterError):
        geometry.matern_ii_thin(pts, np.array([0.9]), 200.0)


def test_matern_two_point_conflict():
    pts = np.array([[0.0, 0.0], [100.0, 0.0]])
    out = geometry.matern_ii_thin(pts, np.array([0.9, 0.2]), 200.0)
    assert len(out) == 1
    assert np.array_equal(out[0], pts[0])


def test_matern_tie_break_deterministic():
    pts = np.array([[0.0, 0.0], [50.0, 0.0]])
    out = geometry.matern_ii_thin(pts, np.array([0.5, 0.5]), 100.0)
    # equal marks: the later index wins under the (mark, index) order
    assert len(out) == 1
    assert np.array_equal(out[0], pts[1])


def _lattice(spacing, offset, nx=20, ny=20, aspect=1.0):
    gx = np.arange(nx) * spacing + offset
    gy = np.arange(ny) * (aspect * spacing) + offset
    return np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)


def _corner_pair(delta, offset, ulp):
    """Two points about delta apart on the diagonal, the first at the lowest corner of the point
    set, where the thinning's grid starts.  Its fine cells (side just under delta/sqrt(8)) then put
    the second point at the far corner of the first one's 3x3 block, or just past it.  A cluster
    3 delta away brings the mean number of points within delta of a point, n pi delta^2 / span^2,
    above 3, so that the thinning removes points outright."""
    first = np.full(2, offset)
    second = first + delta * 2**-0.5
    second += ulp * np.spacing(second)
    cluster = first + delta * (3.0 + np.random.default_rng(ulp + 4).uniform(0.0, 0.2, size=(12, 2)))
    return np.concatenate([[first, second], cluster])


def test_matern_matches_query_pairs_thinning():
    """The grid thinning keeps the points the query_pairs thinning keeps, in
    order, under uniform marks and under integer marks that tie often."""
    w = Window(1500.0, 600.0)  # the benchmark's sampling square, 1764 stations on average

    def ppp(seed):
        return geometry.sample_ppp(1e-4, w, np.random.default_rng(seed))

    cases = [(ppp(s), d) for d in (150.0, 200.0, 250.0) for s in range(3)]
    cases += [(ppp(5), 0.5), (ppp(6), 1000.0)]
    ds = (1.0, 5.0, 20.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 600.0, 1000.0)
    cases += [(ppp(20 + k), d) for k, d in enumerate(ds)]
    # spacings of exactly delta, which round to either side of delta
    cases += [(_lattice(d, off), d) for off in (0.0, 1e6, -1e6) for d in (0.3, 0.7, 200.0)]
    # lattices spaced delta in x and 1.2 delta in y: fewer than 3 points within delta on average
    cases += [(_lattice(d, off, 110, 90, 1.2), d) for off in (0.0, 1e6, -1e6) for d in (0.7, 200.0)]
    cases += [(_corner_pair(d, off, u), d) for off in (0.0, 1e6, -1e6) for d in (1.0, 200.0) for u in range(-4, 5)]
    # a pair exactly delta apart, 900 m above the lowest point
    cases.append((np.array([[0.0, -385.0941774370308], [0.0, 514.9058225629691], [0.0, 664.9058225629691]]), 150.0))
    line = np.arange(50.0)
    cases += [
        (np.repeat([[1.0, 2.0], [1.5, 2.0], [9.0, 9.0]], 3, axis=0), 1.0),  # duplicate points
        (np.repeat([[5.0, -3.0]], 12, axis=0), 1.0),  # all points identical: zero span
        (np.stack([line, np.zeros(50)], axis=1), 2.0),  # one row
        (np.stack([np.zeros(50), line], axis=1), 2.0),  # one column
        (np.array([[0.0, 0.0], [3.0, 4.0]]), 5.0),  # two points, exactly delta apart
        (np.array([[0.0, 0.0], [3.0, 4.0]]), 4.9),
    ]
    for k, (pts, delta) in enumerate(cases):
        for marks in (_marks(pts, k), np.random.default_rng(k).integers(0, 4, size=len(pts))):
            kept = geometry.matern_ii_thin(pts, marks, delta)
            assert np.array_equal(kept, oracles.matern_ii_thin_query_pairs(pts, marks, delta)), k
    for pts in (np.zeros((0, 2)), np.array([[1.0, 2.0]])):  # no pair to search
        assert np.array_equal(geometry.matern_ii_thin(pts, _marks(pts, 0), 1.0), pts)


@pytest.mark.parametrize("delta", [0.5, 1000.0])
def test_matern_memory_is_bounded(delta):
    """numpy reports its buffers to tracemalloc: a 1764-station thinning stays
    under 8 MB at the smallest and largest delta, where an uncapped grid at
    0.5 m would take 7e7 cells."""
    pts = geometry.sample_ppp(1e-4, Window(1500.0, 600.0), np.random.default_rng(8))
    marks = _marks(pts, 9)
    tracemalloc.start()
    try:
        geometry.matern_ii_thin(pts, marks, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_matern_hard_core_and_subset():
    w = Window(1000.0, 300.0)
    for seed in range(10):
        pts = geometry.sample_ppp(1e-4, w, np.random.default_rng(seed))
        out = geometry.matern_ii_thin(pts, _marks(pts, seed + 1000), 200.0)
        assert oracles.min_pairwise_distance(out) >= 200.0
        as_set = {tuple(p) for p in pts}
        assert all(tuple(p) in as_set for p in out)


def test_matern_monotone_in_delta():
    w = Window(1000.0, 300.0)
    pts = geometry.sample_ppp(1e-4, w, np.random.default_rng(3))
    marks = _marks(pts, 4)
    n_small = len(geometry.matern_ii_thin(pts, marks, 100.0))
    n_large = len(geometry.matern_ii_thin(pts, marks, 300.0))
    assert n_large <= n_small


def test_matern_guard_independence():
    # retained status inside the measurement region must not change when the
    # guard is enlarged, as long as guard >= delta
    delta = 200.0
    w_small = Window(800.0, delta)
    w_big = Window(800.0, 3.0 * delta)
    pts = geometry.sample_ppp(1e-4, w_big, np.random.default_rng(12))
    marks = _marks(pts, 13)
    out_big = geometry.matern_ii_thin(pts, marks, delta)

    inside_small = (np.abs(pts) <= w_small.sampling_half_width).all(axis=1)
    out_small = geometry.matern_ii_thin(pts[inside_small], marks[inside_small], delta)

    inner_big = {tuple(p) for p in out_big[geometry.in_measurement_region(out_big, w_small)]}
    inner_small = {tuple(p) for p in out_small[geometry.in_measurement_region(out_small, w_small)]}
    assert inner_big == inner_small


def test_random_thin_edges():
    pts = np.arange(20.0).reshape(10, 2)
    assert np.array_equal(geometry.random_thin(pts, 1.0, np.random.default_rng(1)), pts)
    assert len(geometry.random_thin(pts, 0.0, np.random.default_rng(1))) == 0
    with pytest.raises(ParameterError):
        geometry.random_thin(pts, 1.2, np.random.default_rng(1))


def test_random_thin_density():
    w = Window(1500.0, 0.0)
    p = 0.0796
    dens = []
    for seed in range(150):
        pts = geometry.sample_ppp(1e-4, w, np.random.default_rng(seed))
        kept = geometry.random_thin(pts, p, np.random.default_rng(seed + 5000))
        dens.append(len(kept) / (2 * w.sampling_half_width) ** 2)
    mean = np.mean(dens)
    se = np.std(dens, ddof=1) / np.sqrt(len(dens))
    assert abs(mean - p * 1e-4) < 3.0 * se


def test_nearest_distance_cases():
    assert oracles.nearest_distance((0.0, 0.0), np.array([[3.0, 4.0]])) == 5.0
    assert oracles.nearest_distance((1.0, 1.0), np.array([[1.0, 1.0], [9.0, 9.0]])) == 0.0
    with pytest.raises(ValueError):
        oracles.nearest_distance((0.0, 0.0), np.zeros((0, 2)))


def test_min_pairwise_distance():
    assert oracles.min_pairwise_distance(np.array([[0.0, 0.0]])) == np.inf
    d = oracles.min_pairwise_distance(np.array([[0.0, 0.0], [0.0, 7.0], [100.0, 0.0]]))
    assert d == 7.0


def test_pair_correlation_empty():
    est = oracles.empirical_pair_correlation(np.zeros((0, 2)), Window(500.0, 100.0), 50.0, 400.0)
    assert est.empty
    assert np.all(est.density == 0)


def test_pair_correlation_counts_match_brute_force():
    w = Window(600.0, 200.0)
    pts = geometry.sample_ppp(2e-4, w, np.random.default_rng(8))
    est = oracles.empirical_pair_correlation(pts, w, 50.0, 300.0)
    inner = min(w.half_width, w.sampling_half_width - 300.0)
    centers = pts[(np.abs(pts) <= inner).all(axis=1)]
    d = np.sqrt(((centers[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    edges = np.arange(0.0, 350.0, 50.0)
    expected, _ = np.histogram(d[d > 0], bins=edges)
    assert est.n_centers == len(centers)
    assert np.array_equal(est.pair_counts, expected)


def test_pair_correlation_ppp_flat():
    w = Window(2000.0, 0.0)
    lam = 2e-4
    acc = None
    n_real = 40
    for seed in range(n_real):
        pts = geometry.sample_ppp(lam, w, np.random.default_rng(seed))
        est = oracles.empirical_pair_correlation(pts, w, 100.0, 500.0)
        acc = est.density if acc is None else acc + est.density
    mean = acc / n_real
    assert np.all(np.abs(mean / lam**2 - 1.0) < 0.1)


def test_pair_correlation_matern():
    params = HcppParams(1e-4, 200.0)
    w = Window(2000.0, 400.0)
    acc = None
    n_real = 60
    for seed in range(n_real):
        pts = geometry.sample_ppp(params.lambda_b, w, np.random.default_rng(seed))
        active = geometry.matern_ii_thin(pts, _marks(pts, seed + 10**6), params.delta)
        est = oracles.empirical_pair_correlation(active, w, 100.0, 600.0)
        acc = est.density if acc is None else acc + est.density
    mean = acc / n_real
    # hard-core support: nothing below delta
    assert np.all(mean[est.r < params.delta] == 0.0)
    # beyond 2*delta the product density equals the squared intensity
    target = zeta1(params) ** 2
    far = mean[est.r >= 2 * params.delta]
    assert np.all(np.abs(far / target - 1.0) < 0.15)
    # and it matches the closed form in the transition zone too
    mid = (est.r > params.delta) & (est.r < 2 * params.delta)
    pred = zeta2(est.r[mid], params)
    assert np.all(np.abs(mean[mid] / pred - 1.0) < 0.2)
