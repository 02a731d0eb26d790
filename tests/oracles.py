"""Independent references the tests check the package against; no command
runs them.  Each is a second route to a quantity the package computes, or a
direct statistic of a sampled point set."""
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from greencell import geometry, hcpp, mc
from greencell.analytics import PAIR_NODES
from greencell.errors import ParameterError
from greencell.geometry import Window
from greencell.quadrature import _GL32_NODES, _GL32_WEIGHTS, _flat_ends, _mirror, _panelize

# Positive half of the 64-node Gauss-Legendre rule, each node and weight the double nearest
# its exact value (tests/test_analytics.py checks them against a 50-digit rule): the angular
# rule of the hard-core kernel's error budget.
GL64_X = (
    0.024350292663424433, 0.07299312178779904, 0.12146281929612056, 0.16964442042399283, 0.21742364374000708,
    0.2646871622087674, 0.31132287199021097, 0.3572201583376681, 0.4022701579639916, 0.4463660172534641,
    0.48940314570705296, 0.5312794640198946, 0.571895646202634, 0.6111553551723933, 0.6489654712546573,
    0.6852363130542333, 0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028, 0.9295691721319396,
    0.9464113748584028, 0.9610087996520538, 0.973326827789911, 0.983336253884626, 0.9910133714767443,
    0.9963401167719553, 0.9993050417357722,
)
GL64_W = (
    0.048690957009139724, 0.04857546744150343, 0.048344762234802954, 0.04799938859645831, 0.04754016571483031,
    0.04696818281621002, 0.046284796581314416, 0.04549162792741814, 0.044590558163756566, 0.04358372452932345,
    0.04247351512365359, 0.04126256324262353, 0.03995374113272034, 0.038550153178615626, 0.03705512854024005,
    0.035472213256882386, 0.033805161837141606, 0.03205792835485155, 0.030234657072402478,
    0.028339672614259483, 0.02637746971505466, 0.024352702568710874, 0.022270173808383253,
    0.02013482315353021, 0.017951715775697343, 0.015726030476024718, 0.013463047896718643,
    0.011168139460131128, 0.008846759826363947, 0.006504457968978363, 0.004147033260562468,
    0.001783280721696433,
)
GL64_NODES, GL64_WEIGHTS = _mirror(GL64_X, GL64_W)
# the 32-node rule with flat ends: the change-of-variables reference's panels, and the
# station-pair table's as the package once built it
_SMOOTH_NODES, _SMOOTH_WEIGHTS = _flat_ends(_GL32_NODES, _GL32_WEIGHTS)


def nearest_distance(origin, points: np.ndarray) -> float:
    """Euclidean distance from ``origin`` to the closest point of the set;
    ``ValueError`` for an empty set."""
    pts = np.asarray(points, float)
    d = pts - np.asarray(origin, float)
    return float(np.sqrt((d * d).sum(axis=1)).min())


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest inter-point distance; inf for fewer than two points."""
    pts = np.asarray(points, float)
    if len(pts) < 2:
        return np.inf
    d, _ = cKDTree(pts).query(pts, k=2)
    return float(d[:, 1].min())


def matern_ii_thin_query_pairs(points: np.ndarray, marks: np.ndarray, delta: float) -> np.ndarray:
    """``geometry.matern_ii_thin`` with its conflicting pairs found by
    ``cKDTree.query_pairs``, as the package once ran it."""
    if delta < 0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    if len(points) != len(marks):
        raise ParameterError("points and marks must have equal length")
    pts = np.asarray(points, float)
    if delta == 0 or len(pts) < 2:
        return pts.copy()
    pairs = cKDTree(pts).query_pairs(delta, output_type="ndarray")
    keep = np.ones(len(pts), dtype=bool)
    if len(pairs):
        i, j = pairs.T
        m = np.asarray(marks)
        # total order on (mark, index); the smaller of each conflicting pair dies
        i_loses = (m[i] < m[j]) | ((m[i] == m[j]) & (i < j))
        keep[np.where(i_loses, i, j)] = False
    return pts[keep]


@dataclass(frozen=True)
class PairCorrelationEstimate:
    """Binned estimate of the second-order product density (units m^-4)."""

    r: np.ndarray
    density: np.ndarray
    pair_counts: np.ndarray
    n_centers: int
    empty: bool


def empirical_pair_correlation(
    points: np.ndarray, window: Window, bin_width: float, r_max: float
) -> PairCorrelationEstimate:
    """Unbiased binned estimator of the second-order product density.

    Border effects are handled by minus sampling: only points whose full
    ``r_max`` neighbourhood lies inside the sampling region act as pair
    centers; partners may come from anywhere in the sampling region.
    """
    if bin_width <= 0:
        raise ParameterError(f"bin_width must be > 0, got {bin_width}")
    if r_max > window.half_width:
        raise ParameterError("r_max must not exceed the window half_width")
    edges = np.arange(0.0, r_max + bin_width, bin_width)
    edges = edges[edges <= r_max + 1e-9]
    centers_r = 0.5 * (edges[:-1] + edges[1:])
    pts = np.asarray(points, float)
    if len(pts) == 0:
        z = np.zeros(len(centers_r))
        return PairCorrelationEstimate(centers_r, z, z.astype(int), 0, empty=True)

    inner = min(window.half_width, window.sampling_half_width - r_max)
    is_center = (np.abs(pts) <= inner).all(axis=1)
    centers = pts[is_center]
    n_centers = len(centers)
    if n_centers == 0:
        z = np.zeros(len(centers_r))
        return PairCorrelationEstimate(centers_r, z, z.astype(int), 0, empty=True)

    # cumulative (center, point) pairs within each edge; the differences drop
    # each center's pair with itself, at distance 0 <= edges[0]
    counts = np.diff(cKDTree(centers).count_neighbors(cKDTree(pts), edges))
    annulus = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
    center_area = (2.0 * inner) ** 2
    density = counts / (center_area * annulus)
    return PairCorrelationEstimate(centers_r, density, counts, n_centers, empty=False)


def estimate_rate_at_distance(scenario, window: Window, r_int: float, n: int, master_seed: int) -> mc.McEstimate:
    """Mean achievable rate at fixed serving distance, with realized
    (instantaneous) interference and shadowing; the analytic bound must sit
    below this.  Realizations with no probe host or no interferer are skipped."""
    s = scenario
    m2 = float(s.radio.antennas_m) ** 2
    pfpp = s.radio.p_f * s.radio.p_p

    def measure(active, rng):
        probes = mc._probe_users(window, active, r_int, rng)
        if probes is None or len(active) < 2:
            return None
        interference = m2 * pfpp * mc._received_power(active, *probes, rng, s, r_min=r_int)[1]
        omega0 = s.shadowing.sample_with(rng, size=len(interference))
        signal = m2 * pfpp * omega0**2 * r_int ** (-2.0 * s.radio.alpha)
        return float(np.log2(1.0 + signal / (interference + s.radio.noise_power)).mean())

    return mc.run_estimators(s, window, n, master_seed, [(measure, mc._mc_estimate)])[0]


def sinr_slope(engine, r):
    """d(SINR)/dr at the radii ``r`` in one kernel call, by central finite
    difference with step h = 1e-5 r: within 1e-8 relative away from the
    radii ``KINKS`` * delta."""
    h = 1e-5 * np.asarray(r, float)
    lo, hi = engine.sinr_of_distance(np.ravel([r - h, r + h])).reshape(2, *h.shape)
    return (hi - lo) / (2.0 * h)


def coverage_change_of_variables(engine, rho: float) -> float:
    """Probability that the mean-interference rate exceeds ``rho``, as an
    independent reference for ``AnalyticEngine.coverage_efficiency``: the
    integral of gamma f(r(gamma)) / |dgamma/dr| over log gamma with r(gamma)
    from ``invert_sinr``, on one smooth 32-node panel between each pair of
    the threshold, the SINRs at ``KINKS`` * delta and the grid's near end.
    Returns the grid-end coverage for a threshold beyond it."""
    if rho < 0:
        raise ParameterError("rho must be >= 0")
    gamma_t = float(2.0**rho - 1.0) if rho < 1024 else np.inf  # 2.0**1024 overflows
    r_star, clipped = engine.invert_sinr(gamma_t)
    if clipped:
        return min(float(engine.nearest_model.cdf(r_star)), 1.0)
    kinks = [k for k in engine._hard_core * np.array(engine.KINKS) if engine.R_GRID_LO < k < r_star]
    edges = np.log([gamma_t, *engine.sinr_of_distance(np.array(kinks)), engine._sinr_grid[1][0]])
    x, w = _panelize(np.unique(edges), _SMOOTH_NODES, _SMOOTH_WEIGHTS)
    r = np.array([engine.invert_sinr(g).r for g in np.exp(x).tolist()])
    val = (w * np.exp(x) * engine.nearest_model.pdf(r) / np.abs(sinr_slope(engine, r))).sum()
    return min(float(val) + engine.nearest_model.cdf(engine.R_GRID_LO), 1.0)


def _angular(u: np.ndarray, r: float, psi_min: np.ndarray | None, ps: tuple, rule=(_GL32_NODES, _GL32_WEIGHTS)) -> list:
    """2 * integral over psi in [psi_min, pi] of dist^-p, per u node, on ``rule``; one row per
    exponent.  ``psi_min`` None is the full circle."""
    psi_min = np.zeros_like(u) if psi_min is None else psi_min
    edges = np.stack([psi_min, np.full_like(psi_min, np.pi)], axis=-1)
    psi, wpsi = _panelize(edges, *rule)
    dist_sq = u[:, None] ** 2 + r**2 - 2.0 * u[:, None] * r * np.cos(psi)
    return [2.0 * (wpsi * dist_sq ** (-p / 2.0)).sum(axis=1) for p in ps]


def angular_64(u: np.ndarray, r: float, psi_min: np.ndarray | None, ps: tuple) -> list:
    """``AnalyticEngine._angular`` on the 64-node Gauss-Legendre rule: in its place, the
    package's kernel is the reference its 32-node angular sums are budgeted against."""
    return _angular(u, r, psi_min, ps, (GL64_NODES, GL64_WEIGHTS))


def exclusion_single(engine, r: float, ps: tuple) -> np.ndarray:
    """``AnalyticEngine._radial_integral`` for one radius, hard core delta > 0 and
    ``exclusion-ball``, as the package once computed it, one radius at a time:
    each radius builds its own panels, calls ``hcpp.zeta2`` and sums its
    own series.  Plane integral with the exclusion ball, serving-station
    centered, at each exponent of ``ps``.  The allowed angular sector closes
    with a square-root law at u = 2r, so that stretch is integrated in the
    substituted variable u = 2r cos(beta), which is smooth; past
    c = max(2 delta, 2r) the integral is ``flat_tail_single``, in closed form."""
    delta = engine._hard_core
    total = np.zeros(len(ps))
    if delta < 2.0 * r:
        # region A: exclusion active, u in (delta, 2r)
        b_hi = np.arccos(delta / (2.0 * r))
        edges = {0.0, b_hi}
        for u_split in (r, delta, 1.5 * delta, 2.0 * delta):
            if 0.0 < u_split < 2.0 * r:
                edges.add(float(np.arccos(u_split / (2.0 * r))))
        beta, wb = _panelize(sorted(e for e in edges if e <= b_hi), _GL32_NODES, _GL32_WEIGHTS)
        u = 2.0 * r * np.cos(beta)
        w = wb * u * hcpp.zeta2(u, engine.scenario.hcpp) * (2.0 * r * np.sin(beta))
        total += [float((w * ang).sum()) for ang in _angular(u, r, beta, ps)]
    # region B: full circle, u in (max(delta, 2r), c); empty for r >= delta
    lo, c = max(delta, 2.0 * r), max(2.0 * delta, 2.0 * r)
    if lo < c:
        edges = [lo, 1.5 * delta, c] if lo < 1.5 * delta else [lo, c]
        u, wu = _panelize(edges, _GL32_NODES, _GL32_WEIGHTS)
        w = wu * u * hcpp.zeta2(u, engine.scenario.hcpp)
        total += [float((w * ang).sum()) for ang in _angular(u, r, np.zeros_like(u), ps)]
    return total + [flat_tail_single(engine, r, c, p) for p in ps]


def flat_tail_single(engine, r: float, c: float, p_exp: float) -> float:
    """The plane integral over u > c for c >= max(2 delta, 2r): there the
    whole circle is allowed and the second moment is ``_flat_moment``.
    The circle average of dist^-p is u^-p 2F1(p/2, p/2; 1; (r/u)^2),
    summed term by term after the u integral; with x = (r/c)^2 <= 1/4
    the series converges geometrically."""
    x, a, k, series = (r / c) ** 2, 1.0, 0, 0.0
    while (term := a / (p_exp - 2.0 + 2.0 * k)) > 1e-17 * series:
        series += term
        a *= ((0.5 * p_exp + k) / (k + 1.0)) ** 2 * x
        k += 1
    return engine._flat_moment * 2.0 * np.pi * c ** (2.0 - p_exp) * series


def mean_interference_ce_estimator(engine, window: Window):
    """Coverage of the mean-interference rate at the mean demand, one user
    at a time, as an independent reference for ``mc.serving_cdf_estimator``
    at the demand's ``coverage_radius``: the fraction of ``CE_USERS``
    uniform users per realization whose rate log2(1 + SINR) at their
    realized serving distance exceeds the demand; 0 with no active station.
    It evaluates the interference kernel at every user's distance."""
    rho = engine.scenario.traffic.mean()

    def measure(active, rng):
        if len(active) == 0:
            return 0.0
        ue = rng.uniform(-window.half_width, window.half_width, size=(mc.CE_USERS, 2))
        rate = np.log2(1.0 + engine.sinr_of_distance(np.sqrt(mc._sq_distances(active, ue).min(axis=1))))
        return float((rate > rho).mean())

    return measure, mc._mc_estimate


@lru_cache(maxsize=32)
def _offset_table(model) -> tuple[np.ndarray, np.ndarray]:
    """Radii and normalized trapezoid CDF of a (frozen, hashable)
    nearest-distance model, shared read-only by every draw from it."""
    r = np.linspace(0.0, model.support_radius(1e-7), 2048)
    pdf = np.asarray(model.pdf(r), float)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(r))])
    cdf /= cdf[-1]
    r.setflags(write=False)
    cdf.setflags(write=False)
    return r, cdf


def _sample_offsets(model, rng: np.random.Generator, size) -> np.ndarray:
    """Serving-distance draws from a nearest-distance model, by inverse CDF."""
    r, cdf = _offset_table(model)
    return np.interp(rng.uniform(size=size), cdf, r)


def per_user_station_power(engine, window: Window, active: np.ndarray, rng) -> np.ndarray:
    """Transmit power of the first ``mc.POWER_STATIONS`` stations in the
    measurement region as a sum over sampled users, as an independent
    reference for ``mc.station_power``: round(k) users per active cell at
    offsets drawn from the strategy's serving-distance law and uniform
    angles, both from ``rng``; m * P_p * E[omega] * sum(d^-alpha) over the
    other cells' users.  Empty when the region holds no station or
    ``active`` only one."""
    s = engine.scenario
    k_int = max(int(round(engine.k_ue)), 1)
    sample_idx = np.flatnonzero(geometry.in_measurement_region(active, window))[:mc.POWER_STATIONS]
    if len(sample_idx) == 0 or len(active) < 2:
        return np.zeros(0)

    m = s.radio.antennas_m
    radii = _sample_offsets(engine.nearest_model, rng, size=(len(active), k_int))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(len(active), k_int))
    ux = active[:, 0:1] + radii * np.cos(angles)
    uy = active[:, 1:2] + radii * np.sin(angles)
    radii2 = radii**2
    scale = m * s.radio.p_p * s.shadowing.moment(1)
    power = np.empty(len(sample_idx))
    for row, i in enumerate(sample_idx):
        d2 = (ux - active[i, 0]) ** 2 + (uy - active[i, 1]) ** 2
        # a user closer to this station than to its own server would have
        # associated here instead, so such contributions never occur
        terms = np.where(d2 >= radii2, d2 ** (-s.radio.alpha / 2.0), 0.0)
        terms[i] = 0.0  # own-cell sum excluded
        power[row] = scale * float(terms.sum())
    return power


def scaled_pair_kernel(engine, u: float) -> float:
    """u^alpha h(u) of ``AnalyticEngine.pair_kernel`` by nested adaptive
    ``quad`` in rho = r / u: the angle from arccos(min(1, 1 / 2 rho)) to pi
    inside, the nearest law's offset r outside, on intervals broken at
    delta/2 and at u/2 quadrupling out to the law's support radius, where
    the table's quadrature also stops (the mass beyond is 1e-9)."""
    model, alpha = engine.nearest_model, engine.scenario.radio.alpha
    r_sup = model.support_radius()

    def angular(r):
        rho = r / u
        psi_min = np.arccos(min(1.0, 0.5 / rho))
        return quad(lambda psi: (1.0 + rho * rho - 2.0 * rho * np.cos(psi)) ** (-alpha / 2.0),
                    psi_min, np.pi, epsabs=0.0, epsrel=1e-12)[0] / np.pi

    edges = sorted({0.0, engine._hard_core / 2.0, r_sup, *(e for e in 0.5 * u * 4.0 ** np.arange(40) if e < r_sup)})
    return sum(quad(lambda r: model.pdf(r) * angular(r), a, b, epsabs=0.0, epsrel=1e-10)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def pair_table_32(model, alpha: float, hard_core: float):
    """``analytics._pair_table`` as the package once built it, the reference of its error budget:
    (ln u_0, step, ln h, its differences) on 4098 uniform ln u, 6-point Lagrange in s from
    ``PAIR_NODES`` quadratures, one at a time, on flat-ended 32-node panels in r and psi."""
    r_sup = model.support_radius()
    u_lo = hard_core or 1e-4 * r_sup
    span, grade = np.log(1e2 * r_sup / u_lo), 2 if hard_core else 1
    y = np.empty(PAIR_NODES)
    for j, u in enumerate(u_lo * np.exp(span * np.linspace(0.0, 1.0, PAIR_NODES) ** grade)):
        edges = sorted(set(np.minimum([0.0, hard_core / 2.0, *(0.5 * u * 8.0 ** np.arange(6)), r_sup], r_sup).tolist()))
        r, w = _panelize(edges, _SMOOTH_NODES, _SMOOTH_WEIGHTS)
        psi_edges = np.stack([np.arccos(np.minimum(1.0, u / (2.0 * r))), np.full_like(r, np.pi)], axis=-1)
        psi, wpsi = _panelize(psi_edges, _SMOOTH_NODES, _SMOOTH_WEIGHTS)
        d2 = u * u + r[:, None] ** 2 - 2.0 * u * r[:, None] * np.cos(psi)
        y[j] = np.log((w * model.pdf(r) * (wpsi * d2 ** (-alpha / 2.0)).sum(axis=1)).sum() / np.pi)
    t = np.linspace(0.0, 1.0, 4096) ** (1.0 / grade) * (PAIR_NODES - 1)
    i = np.clip(np.floor(t).astype(int) - 2, 0, PAIR_NODES - 6)
    ln_h = sum(np.prod([(t - i - b) / (a - b) for b in range(6) if b != a], axis=0) * y[i + a] for a in range(6))
    step = span / 4095  # one node more at each end, on the asymptotes u^(2 - alpha) and u^(-alpha)
    ln_h = np.concatenate([[ln_h[0] - (2.0 - alpha) * step], ln_h, [ln_h[-1] - alpha * step]])
    return np.log(u_lo) - step, step, ln_h, np.diff(ln_h)
