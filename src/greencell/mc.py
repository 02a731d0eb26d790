"""Monte Carlo engine: realized networks, empirical EE/CE and the
finite-antenna validation of the asymptotic channel model.  Nearest-station
association realizes the analytic engine's exclusion ball for ``ppp`` and
``random``, and for ``matern`` only at serving distances up to delta/2.

Every estimator draws its per-realization randomness from a child stream
derived as SeedSequence([master_seed, index]), so results are bit-identical
for a given (scenario, window, master_seed, count) regardless of how the
realizations are scheduled, or of which estimators share them.  EE and CE
read one draw of typical users per realization (common random numbers):
EE the first round(k), CE the first ``CE_USERS``.  Sums linear
in the shadowing coefficient omega (station power, mean interference) take
its moments, and station power its users' mean, in place of draws (conditional Monte Carlo).
``compare``'s coverage is the serving-distance CDF at the mean demand's
``coverage_radius``, exact because the mean-interference SINR strictly
decreases in distance (``MonotonicityError`` otherwise).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .analytics import AnalyticEngine, Scenario
from .errors import ParameterError
from .geometry import Window


#: typical users per realization that the coverage estimator scores
CE_USERS = 16
#: stations in the measurement region whose transmit power an EE realization measures
POWER_STATIONS = 16


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent per-realization stream; deterministic in (master, key)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, key)]))


def sample_active(scenario: Scenario, window: Window, rng: np.random.Generator) -> np.ndarray:
    """One realization of the active-station process for the strategy,
    composed from the geometry primitives, each drawing from ``rng`` in place;
    without a hard core nothing is switched off, and the parent process is the draw."""
    s = scenario
    pts = geometry.sample_ppp(s.hcpp.lambda_b, window, rng)
    if s.strategy == "ppp" or s.hcpp.delta == 0:
        return pts
    if s.strategy == "matern":
        return geometry.matern_ii_thin(pts, rng.uniform(size=len(pts)), s.hcpp.delta)
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


def _sq_distances(stations, users) -> np.ndarray:
    """Squared distances from every user (rows) to every station (columns)."""
    d2 = stations[None, :, 0] - users[:, None, 0]
    dy = stations[None, :, 1] - users[:, None, 1]
    np.square(d2, out=d2)  # in place: a block may hold users x stations
    d2 += np.square(dy, out=dy)
    return d2


def _received_power(stations, users, serving_idx, rng, scenario: Scenario, r_min: float = 0.0):
    """Shadowed gains omega^2 d^(-2 alpha) from every station to every user,
    zero from stations closer than ``r_min``; with ``rng`` None, omega^2 is
    its expectation, ``moment(2)``.  Returns each user's server's gain (the
    nearest station's when ``serving_idx`` is None) and the summed gain of
    the other stations.  The server's column is zeroed, not subtracted from
    the total, which cancels when it dominates."""
    d2 = _sq_distances(stations, users)
    rows = np.arange(len(users))
    if serving_idx is None:
        serving_idx = d2.argmin(axis=1)
    near = d2 < r_min**2 if r_min > 0 else None
    if rng is None:
        omega2 = scenario.shadowing.moment(2)
    else:
        omega2 = scenario.shadowing.sample_with(rng, size=d2.shape)
        np.square(omega2, out=omega2)
    gain = np.power(d2, -scenario.radio.alpha, out=d2)  # in place: the block is users x stations
    gain *= omega2
    if near is not None:
        gain[near] = 0.0
    own = gain[rows, serving_idx]
    gain[rows, serving_idx] = 0.0
    return own, gain.sum(axis=1)


def station_power(engine: AnalyticEngine, window: Window, active: np.ndarray) -> np.ndarray:
    """Transmit power m p_p E[omega] k sum_{j != i} h(|x_i - x_j|) of the first ``POWER_STATIONS``
    stations i in the measurement region (none when it holds no station or ``active`` only one):
    ``pair_kernel`` h integrates out the other cells' users; the own cell's sum diverges.  Each EE
    realization measures it once, and its mean is both EE's power and ``compare``'s transmit power."""
    idx = np.flatnonzero(geometry.in_measurement_region(active, window))[:POWER_STATIONS]
    if len(idx) == 0 or len(active) < 2:
        return np.zeros(0)
    d2 = _sq_distances(active, active[idx])
    d2[np.arange(len(idx)), idx] = np.inf  # drops the own cell: h(inf) = 0
    s = engine.scenario
    return s.radio.antennas_m * s.radio.p_p * s.shadowing.moment(1) * engine.k_ue * engine.pair_kernel(d2).sum(axis=1)


def user_counts(engine: AnalyticEngine) -> dict:
    """Typical users drawn per realization, and how many of them EE and CE read."""
    ee_users = max(int(round(engine.k_ue)), 1)
    return {"typical_users": max(ee_users, CE_USERS), "ee_users": ee_users, "ce_users": CE_USERS}


def run_realization(engine: AnalyticEngine, window: Window, active: np.ndarray, rng: np.random.Generator):
    """Rates (bits/s/Hz) of the ``user_counts`` typical users of one realization,
    and ``station_power`` of its non-empty ``active`` stations.  The users are
    its only draws: their positions, uniform in the measurement region, then
    one omega per link.  Each associates with its nearest station; every other
    active station interferes."""
    s = engine.scenario
    gain = float(s.radio.antennas_m) ** 2 * (s.radio.p_f * s.radio.p_p)
    ue = rng.uniform(-window.half_width, window.half_width, size=(user_counts(engine)["typical_users"], 2))
    own, other = _received_power(active, ue, None, rng, s)
    return np.log2(1.0 + gain * own / (gain * other + s.radio.noise_power)), station_power(engine, window, active)


def _usable(values: list, n: int) -> list:
    if len(values) < 2:
        raise ParameterError(f"{len(values)} of {n} realizations usable; need at least 2")
    return values


def run_estimators(scenario: Scenario, window: Window, n: int, master_seed: int, estimators) -> list:
    """Run ``(measure, reduce)`` estimators over the same ``n`` realizations.

    Each realization's stations are drawn once.  Every ``measure(active,
    rng)`` starts from the stream's state as it stands after that draw,
    restored before each, so its values are exactly those of running it
    alone; it returns None for a realization it skips.  ``reduce`` turns the
    kept values into the estimate; each needs at least 2 kept values."""
    kept = [[] for _ in estimators]
    for k in range(n):
        rng = child_rng(master_seed, k)
        active = sample_active(scenario, window, rng)
        state = rng.bit_generator.state
        for j, (measure, _) in enumerate(estimators):
            rng.bit_generator.state = state
            value = measure(active, rng)
            if value is not None:
                kept[j].append(value)
    for values in kept:
        _usable(values, n)
    return [reduce(values) for (_, reduce), values in zip(estimators, kept)]


def _probe_users(window: Window, active: np.ndarray, r_int: float, rng):
    """Probe users placed ``r_int`` from every active station in the
    measurement region, at a uniform angle, with their hosts' indices;
    ``None`` when the realization has no host."""
    hosts = np.flatnonzero(geometry.in_measurement_region(active, window))
    if len(hosts) == 0:
        return None
    theta = rng.uniform(0.0, 2.0 * np.pi, size=len(hosts))
    return active[hosts] + r_int * np.stack([np.cos(theta), np.sin(theta)], axis=1), hosts


def interference_estimator(engine: AnalyticEngine, window: Window, r_int: float):
    """Mean interference at a fixed serving distance, Palm-style: every
    active station in the measurement region hosts a probe user at distance
    ``r_int``; interferers closer than the server are never present under
    nearest-station association, so none are counted.  The mean is linear
    in omega^2, so each gain takes ``moment(2)`` in place of a draw.
    Realizations with no host are skipped; a lone host scores 0."""
    if r_int <= 0:
        raise ParameterError("r_int must be > 0")
    s = engine.scenario
    m2 = float(s.radio.antennas_m) ** 2
    pfpp = s.radio.p_f * s.radio.p_p
    # deterministic bound on contributions beyond the sampled region
    # (constant-kernel tail from the inscribed-circle radius outward)
    r_edge = window.sampling_half_width
    tail = (m2 * pfpp * s.shadowing.moment(2) * engine.active_density * 2.0 * np.pi
            * r_edge ** (2.0 - 2.0 * s.radio.alpha) / (2.0 * s.radio.alpha - 2.0))

    def measure(active, rng):
        probes = _probe_users(window, active, r_int, rng)
        if probes is None:
            return None
        return m2 * pfpp * float(_received_power(active, *probes, None, s, r_min=r_int)[1].mean())

    def reduce(means):
        est = _mc_estimate(means)
        if est.mean > 0 and tail > 1e-3 * est.mean:
            est = McEstimate(est.mean + tail, est.std_error, est.realization_count)
        return est

    return measure, reduce


def estimate_interference(engine, window, r_int, n, master_seed) -> McEstimate:
    """``interference_estimator`` over ``n`` realizations."""
    est = interference_estimator(engine, window, r_int)
    return run_estimators(engine.scenario, window, n, master_seed, [est])[0]


def ee_ce_estimator(engine: AnalyticEngine, window: Window, sampled: bool):
    """Empirical energy and coverage efficiency, read off the same typical users
    of each ``run_realization``.  EE is the mean per-cell sum rate of the first
    round(k) over the mean per-station power; it skips a realization with no
    active station or no measured station power.  CE is the fraction of the
    first ``CE_USERS`` whose rate exceeds their traffic demand, the mean demand
    or, ``sampled``, one draw per user; 0 with no active station.  ``reduce``
    returns ((EE, station power), CE)."""
    s = engine.scenario
    ee_users = user_counts(engine)["ee_users"]

    def measure(active, rng):
        if len(active) == 0:
            return None, 0.0
        rate, power = run_realization(engine, window, active, rng)
        rho = s.traffic.sample_with(rng, size=CE_USERS) if sampled else s.traffic.mean()
        ce = float((rate[:CE_USERS] > rho).mean())
        ee = (engine.k_ue * float(rate[:ee_users].mean()), float(power.mean())) if len(power) else None
        return ee, ce

    def reduce(kept):  # EE: ratio of means, with a delta-method standard error
        pairs = _usable([e for e, _ in kept if e is not None], len(kept))
        rates, p_tx = np.asarray(pairs, float).T
        powers = np.array([engine.bs_power(p) for p in p_tx.tolist()])
        mean_power = powers.mean()
        ratio = rates.mean() / mean_power
        resid = (rates - ratio * powers) / mean_power
        ee = McEstimate(float(ratio), float(resid.std(ddof=1) / np.sqrt(len(rates))), len(rates))
        return (ee, _mc_estimate(p_tx)), _mc_estimate([c for _, c in kept])

    return measure, reduce


def estimate_ee(engine, window, n, master_seed) -> McEstimate:
    """``ee_ce_estimator``'s energy efficiency over ``n`` realizations."""
    return run_estimators(engine.scenario, window, n, master_seed, [ee_ce_estimator(engine, window, False)])[0][0][0]


def estimate_ce(engine, window, n, master_seed, sampled=False) -> McEstimate:
    """``ee_ce_estimator``'s coverage efficiency over ``n`` realizations."""
    return run_estimators(engine.scenario, window, n, master_seed, [ee_ce_estimator(engine, window, sampled)])[0][1]


def serving_cdf_estimator(window: Window, radius: float):
    """Empirical serving-distance CDF at ``radius``: fraction of ``CE_USERS``
    uniform users per realization whose nearest station lies within it; 0
    with no active station.  It draws no shadowing."""

    def measure(active, rng):
        if len(active) == 0:
            return 0.0
        ue = rng.uniform(-window.half_width, window.half_width, size=(CE_USERS, 2))
        return float((_sq_distances(active, ue).min(axis=1) < radius**2).mean())

    return measure, _mc_estimate


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
    n_trials: int,
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
            rng = child_rng(seed, m, t)
            # fixed per-trial user layout: k users in a 300 m square around each station
            ue = cells[:, None, :] + rng.uniform(-150.0, 150.0, size=(n_cells, k, 2))
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
