"""Monte Carlo engine: realized networks, empirical EE/CE and the
finite-antenna validation of the asymptotic channel model.

Every estimator draws its per-realization randomness from a child stream
derived as SeedSequence([master_seed, index]), so results are bit-identical
for a given (scenario, window, master_seed, count) regardless of how the
realizations are scheduled.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry
from .analytics import AnalyticEngine, Scenario
from .errors import ParameterError
from .geometry import Window


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-realization stream; deterministic in (master, index)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def sample_active(scenario: Scenario, window: Window, rng: np.random.Generator) -> np.ndarray:
    """One realization of the active-station process for the strategy,
    composed from the geometry primitives, each drawing from ``rng`` in place."""
    s = scenario
    pts = geometry.sample_ppp(s.hcpp.lambda_b, window, rng)
    if s.strategy == "ppp":
        return pts
    if s.strategy == "matern":
        return geometry.matern_ii_thin(geometry.assign_marks(pts, rng), s.hcpp.delta)
    return geometry.random_thin(pts, s.retain_probability, rng)


@dataclass
class McEstimate:
    mean: float
    std_error: float
    realization_count: int

    def __post_init__(self) -> None:
        if self.realization_count < 2:
            raise ParameterError("need at least 2 realizations for a standard error")


def _mc_estimate(values: np.ndarray) -> McEstimate:
    values = np.asarray(values, float)
    n = len(values)
    return McEstimate(float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)), n)


@dataclass
class RealizationStats:
    """Per-realization record of the sampled network around the typical user."""

    active_count: int
    serving_distance: np.ndarray  # per UE, m
    interference: np.ndarray  # per UE, W
    sinr: np.ndarray
    rate: np.ndarray  # bits/s/Hz
    bs_tx_power: np.ndarray  # per sampled station, W
    no_coverage: bool = False


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


def _received_power(stations, users, serving_idx, rng, scenario: Scenario, r_min: float = 0.0):
    """Shadowed gains omega^2 d^(-2 alpha) from every station to every user,
    zero from stations closer than ``r_min``.  Returns each user's serving
    distance, its server's gain (the nearest station's when ``serving_idx`` is
    None) and the summed gain of the other stations.  The server's column is
    zeroed, not subtracted from the total, which cancels when it dominates."""
    d2 = (stations[None, :, 0] - users[:, None, 0]) ** 2
    d2 += (stations[None, :, 1] - users[:, None, 1]) ** 2
    rows = np.arange(len(users))
    if serving_idx is None:
        serving_idx = d2.argmin(axis=1)
    omega = scenario.shadowing.sample_with(rng, size=d2.shape)
    gain = np.where(d2 >= r_min**2, omega**2 * d2 ** (-scenario.radio.alpha), 0.0)
    own = gain[rows, serving_idx]
    gain[rows, serving_idx] = 0.0
    return np.sqrt(d2[rows, serving_idx]), own, gain.sum(axis=1)


def run_realization(
    scenario: Scenario,
    window: Window,
    seed_or_rng,
    engine: AnalyticEngine | None = None,
    n_ue: int | None = None,
    n_power_bs: int = 16,
) -> RealizationStats:
    """Sample one network and measure per-UE SINR/rate and per-BS power.

    The typical users are dropped uniformly in the measurement region and
    associate with their nearest active station; interferers are every other
    active station in the sampling region.  Station transmit power follows
    the precoded-downlink sum over every sampled cell's users, with user
    offsets drawn from the strategy's serving-distance law (own-cell term
    excluded; its spatial expectation is divergent, see the analytics
    module).
    """
    rng = np.random.default_rng(seed_or_rng)
    if engine is None:
        engine = AnalyticEngine(scenario)
    s = scenario
    active = sample_active(s, window, rng)
    inner = geometry.in_measurement_region(active, window)
    if len(active) == 0:
        empty = np.zeros(0)
        return RealizationStats(0, empty, empty, empty, empty, empty, no_coverage=True)

    k_int = max(int(round(engine.k_ue)), 1)
    if n_ue is None:
        n_ue = k_int
    m = s.radio.antennas_m
    m2 = float(m) ** 2
    pfpp = s.radio.p_f * s.radio.p_p

    ue = rng.uniform(-window.half_width, window.half_width, size=(n_ue, 2))
    serving, own, other = _received_power(active, ue, None, rng, s)
    interference = m2 * pfpp * other
    signal = m2 * pfpp * own
    sinr = signal / (interference + s.radio.noise_power)
    rate = np.log2(1.0 + sinr)

    # per-station transmit power over sampled cells
    inner_idx = np.flatnonzero(inner)
    power = np.zeros(0)
    if n_power_bs and len(inner_idx) and len(active) > 1:
        sample_idx = inner_idx[:n_power_bs]
        radii = _sample_offsets(engine.nearest_model, rng, size=(len(active), k_int))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(len(active), k_int))
        ux = active[:, 0:1] + radii * np.cos(angles)
        uy = active[:, 1:2] + radii * np.sin(angles)
        radii2 = radii**2
        power = np.empty(len(sample_idx))
        # per-station (cells, users) blocks draw what one (stations, cells, users) draw would
        for row, i in enumerate(sample_idx):
            d2 = (ux - active[i, 0]) ** 2 + (uy - active[i, 1]) ** 2
            omega = s.shadowing.sample_with(rng, size=d2.shape)
            # a user closer to this station than to its own server would have
            # associated here instead, so such contributions never occur
            terms = np.where(d2 >= radii2, omega * d2 ** (-s.radio.alpha / 2.0), 0.0)
            terms[i] = 0.0  # own-cell sum excluded
            power[row] = m * s.radio.p_p * float(terms.sum())

    return RealizationStats(
        active_count=int(inner.sum()),
        serving_distance=serving,
        interference=interference,
        sinr=sinr,
        rate=rate,
        bs_tx_power=power,
        no_coverage=False,
    )


def _probe_interference(scenario: Scenario, window: Window, r_int: float, rng) -> np.ndarray | None:
    """Summed interferer gains at probe users placed ``r_int`` from every
    active station in the measurement region, at a uniform angle; ``None``
    when the realization has no host or no interferer."""
    active = sample_active(scenario, window, rng)
    inner = geometry.in_measurement_region(active, window)
    hosts = active[inner]
    if len(hosts) == 0 or len(active) < 2:
        return None
    theta = rng.uniform(0.0, 2.0 * np.pi, size=len(hosts))
    probes = hosts + r_int * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    _, _, other = _received_power(active, probes, np.flatnonzero(inner), rng, scenario, r_min=r_int)
    return other


def estimate_interference(
    scenario: Scenario,
    window: Window,
    r_int: float,
    n: int,
    master_seed: int,
    engine: AnalyticEngine | None = None,
) -> McEstimate:
    """Mean interference at a fixed serving distance, Palm-style: every
    active station in the measurement region hosts a probe user at distance
    ``r_int``; interferers closer than the server are never present under
    nearest-station association, so none are counted."""
    if r_int <= 0:
        raise ParameterError("r_int must be > 0")
    s = scenario
    if engine is None:
        engine = AnalyticEngine(scenario)
    m2 = float(s.radio.antennas_m) ** 2
    pfpp = s.radio.p_f * s.radio.p_p
    # deterministic bound on contributions beyond the sampled region
    # (constant-kernel tail from the inscribed-circle radius outward)
    r_edge = window.sampling_half_width
    tail = (
        m2
        * pfpp
        * s.shadowing.moment(2)
        * engine.active_density
        * 2.0
        * np.pi
        * r_edge ** (2.0 - 2.0 * s.radio.alpha)
        / (2.0 * s.radio.alpha - 2.0)
    )
    means = []
    for k in range(n):
        gains = _probe_interference(s, window, r_int, child_rng(master_seed, k))
        means.append(0.0 if gains is None else m2 * pfpp * float(gains.mean()))
    est = _mc_estimate(np.asarray(means))
    if est.mean > 0 and tail > 1e-3 * est.mean:
        est = McEstimate(est.mean + tail, est.std_error, est.realization_count)
    return est


def estimate_rate_at_distance(
    scenario: Scenario, window: Window, r_int: float, n: int, master_seed: int
) -> McEstimate:
    """Mean achievable rate at fixed serving distance, with realized
    (instantaneous) interference; the analytic bound must sit below this."""
    s = scenario
    m2 = float(s.radio.antennas_m) ** 2
    pfpp = s.radio.p_f * s.radio.p_p
    means = []
    for k in range(n):
        rng = child_rng(master_seed, k)
        gains = _probe_interference(s, window, r_int, rng)
        if gains is None:
            continue
        interference = m2 * pfpp * gains
        omega0 = s.shadowing.sample_with(rng, size=len(gains))
        signal = m2 * pfpp * omega0**2 * r_int ** (-2.0 * s.radio.alpha)
        rate = np.log2(1.0 + signal / (interference + s.radio.noise_power))
        means.append(float(rate.mean()))
    return _mc_estimate(np.asarray(means))


def _ratio_estimate(num: np.ndarray, den: np.ndarray) -> McEstimate:
    """Ratio-of-means with a delta-method standard error."""
    num, den = np.asarray(num, float), np.asarray(den, float)
    n = len(num)
    a, b = num.mean(), den.mean()
    ratio = a / b
    resid = (num - ratio * den) / b
    return McEstimate(float(ratio), float(resid.std(ddof=1) / np.sqrt(n)), n)


def estimate_ee(
    scenario: Scenario,
    window: Window,
    n: int,
    master_seed: int,
    engine: AnalyticEngine | None = None,
    n_ue: int | None = None,
) -> McEstimate:
    """Empirical energy efficiency: mean per-cell sum rate over mean
    per-station power, across independent realizations."""
    if engine is None:
        engine = AnalyticEngine(scenario)
    rates, powers = [], []
    for k in range(n):
        stats = run_realization(scenario, window, child_rng(master_seed, k), engine=engine, n_ue=n_ue)
        if stats.no_coverage or len(stats.bs_tx_power) == 0:
            continue
        rates.append(engine.k_ue * float(stats.rate.mean()))
        powers.append(
            float(stats.bs_tx_power.mean()) / scenario.radio.eta
            + scenario.radio.antennas_m * scenario.radio.p_rf_chain
            + scenario.radio.p_sta
        )
    return _ratio_estimate(np.asarray(rates), np.asarray(powers))


def estimate_ce(
    scenario: Scenario,
    window: Window,
    n: int,
    master_seed: int,
    traffic_mode: str = "at-mean",
    sinr_mode: str = "instantaneous",
    engine: AnalyticEngine | None = None,
    n_ue: int = 16,
) -> McEstimate:
    """Empirical coverage efficiency: fraction of typical users whose rate
    exceeds their traffic demand.

    ``sinr_mode='mean-interference'`` replaces the realized interference by
    the analytic average at the realized serving distance, matching the
    approximation the closed-form coverage expression rests on.
    """
    if traffic_mode not in ("at-mean", "sampled"):
        raise ParameterError("traffic_mode must be 'at-mean' or 'sampled'")
    if sinr_mode not in ("instantaneous", "mean-interference"):
        raise ParameterError("sinr_mode must be 'instantaneous' or 'mean-interference'")
    if engine is None:
        engine = AnalyticEngine(scenario)
    s = scenario
    fractions = []
    for k in range(n):
        rng = child_rng(master_seed, k)
        stats = run_realization(s, window, rng, engine=engine, n_ue=n_ue, n_power_bs=0)
        if stats.no_coverage:
            fractions.append(0.0)
            continue
        if sinr_mode == "mean-interference":
            rate = np.log2(1.0 + engine.sinr_of_distance(stats.serving_distance))
        else:
            rate = stats.rate
        if traffic_mode == "sampled":
            rho = s.traffic.sample_with(rng, size=len(rate))
        else:
            rho = s.traffic.mean()
        fractions.append(float((rate > rho).mean()))
    return _mc_estimate(np.asarray(fractions))


def empirical_nearest_pdf(
    scenario: Scenario, window: Window, n: int, bins, master_seed: int = 0
):
    """Normalized histogram of typical-user serving distances."""
    if n < 100:
        raise ParameterError("need at least 100 realizations")
    dists = np.empty(n)
    misses = 0
    for k in range(n):
        rng = child_rng(master_seed, k)
        active = sample_active(scenario, window, rng)
        if len(active) == 0:
            misses += 1
            dists[k] = np.nan
            continue
        dists[k] = geometry.nearest_distance((0.0, 0.0), active)
    dists = dists[np.isfinite(dists)]
    hist, edges = np.histogram(dists, bins=bins, density=True)
    return hist, edges, misses


# ---- finite-antenna validation of the asymptotic channel -----------------


@dataclass
class FiniteMRow:
    antennas_m: int
    median_rel_error: float
    mean_rel_error: float
    diag_deviation: float  # max |H^T H* / M - D| over entries, median across seeds


def finite_m_validation(
    m_list,
    k: int,
    cell_layout,
    radio,
    seed: int,
    n_trials: int = 200,
    ue_radius: float = 150.0,
) -> list[FiniteMRow]:
    """Realized matched-filter desired power versus its large-array limit.

    Builds explicit fast-fading matrices with pilot-contaminated estimates
    for a small fixed layout and reports how far the realized per-user
    desired power sits from the deterministic limit; the deviation must
    shrink as the array grows.
    """
    cells = np.asarray(cell_layout, float)
    n_cells = len(cells)
    rows = []
    for m in m_list:
        if m < k:
            raise ParameterError(f"antennas ({m}) must be >= users per cell ({k})")
        rel_errors = []
        diag_devs = []
        for t in range(n_trials):
            rng = child_rng(seed, t * 1000 + m)
            # fixed per-trial user layout: k users around each station
            ue = cells[:, None, :] + rng.uniform(-ue_radius, ue_radius, size=(n_cells, k, 2))
            # large-scale gains between station i and users of cell u
            d = np.sqrt(((ue[None, :, :, :] - cells[:, None, None, :]) ** 2).sum(axis=-1))
            beta = d ** (-radio.alpha)  # (i, u, k)
            g = rng.normal(size=(n_cells, n_cells, m, k)) + 1j * rng.normal(
                size=(n_cells, n_cells, m, k)
            )
            h = g / np.sqrt(2.0) * np.sqrt(beta)[:, :, None, :]  # H_iu, (i,u,m,k)
            for i in range(n_cells):
                est = h[i].sum(axis=0)  # contaminated estimate basis, (m,k)
                coef = np.sqrt(radio.p_f * radio.p_p) * np.einsum(
                    "mk,mk->k", h[i, i], est.conj()
                )
                asym = m * np.sqrt(radio.p_f * radio.p_p) * beta[i, i]
                rel_errors.extend(np.abs(np.abs(coef) ** 2 / (asym**2) - 1.0))
                prod = h[i, i].T @ h[i, i].conj() / m
                diag_devs.append(float(np.abs(prod - np.diag(beta[i, i])).max()))
        rel_errors = np.asarray(rel_errors)
        rows.append(
            FiniteMRow(
                antennas_m=int(m),
                median_rel_error=float(np.median(rel_errors)),
                mean_rel_error=float(rel_errors.mean()),
                diag_deviation=float(np.median(diag_devs)),
            )
        )
    return rows
