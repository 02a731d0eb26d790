"""Numerical evaluation of the network's analytic performance metrics.

Average interference, rate lower bound, transmit power, energy efficiency
and coverage efficiency, for three switch-off strategies:

* ``ppp``     -- every station stays on (Poisson geometry, parent density);
* ``matern``  -- hard-core switch-off (dependent thinning, repulsive);
* ``random``  -- independent switch-off matched to the hard-core density.

The interference integral diverges as printed whenever an interferer could
sit on top of the user; the default ``exclusion-ball`` regularization
integrates only over interferers no closer than the serving station, which
is exactly what nearest-station association realizes in the simulator.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import hcpp
from .channel import RadioParams, ShadowingModel, TrafficModel
from .errors import InterferenceDivergenceError, MonotonicityError, ParameterError
from .hcpp import HcppParams
from .quadrature import _GH_NODES, _GH_WEIGHTS, _GL32_NODES, _GL32_WEIGHTS, _GL_NODES, _GL_WEIGHTS
from .quadrature import _SMOOTH_NODES, _SMOOTH_WEIGHTS, _panelize, regula_falsi

STRATEGIES = ("ppp", "matern", "random")
REGULARIZATIONS = ("exclusion-ball", "none")
RANDOM_MODES = ("retain", "remove")
PAIR_NODES = 96  # quadrature nodes of the station-pair power kernel, interpolated onto 4096 in ln u


@lru_cache(maxsize=32)
def _pair_table(model, alpha: float, hard_core: float):
    """(ln u_0, step, ln h, its differences) on 4098 uniform ln u for ``AnalyticEngine.pair_kernel``
    per (hashable) nearest-distance model and alpha, at unit density for a Rayleigh law: 6-point
    Lagrange in s from ``PAIR_NODES`` quadratures, one at a time, at uniform s (README, Numerical notes)."""
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


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one network configuration."""

    hcpp: HcppParams
    radio: RadioParams = RadioParams()
    shadowing: ShadowingModel = ShadowingModel(6.0)
    traffic: TrafficModel = TrafficModel()
    ues_per_cell: int = 5
    strategy: str = "matern"
    regularization: str = "exclusion-ball"
    random_mode: str = "retain"  # 'retain': keep prob = matched density ratio

    def __post_init__(self) -> None:
        if self.ues_per_cell < 0:
            raise ParameterError("ues_per_cell must be >= 0")
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"strategy must be one of {STRATEGIES}")
        if self.regularization not in REGULARIZATIONS:
            raise ParameterError(f"regularization must be one of {REGULARIZATIONS}")
        if self.random_mode not in RANDOM_MODES:
            raise ParameterError(f"random_mode must be one of {RANDOM_MODES}")

    @property
    def retain_probability(self) -> float:
        """Retention probability of the matched random strategy."""
        p = hcpp.zeta1(self.hcpp) / self.hcpp.lambda_b
        if self.random_mode == "remove":
            p = 1.0 - p
        return p


class InversionResult(NamedTuple):
    r: float
    clipped: bool


class AnalyticEngine:
    """Evaluates the closed-form metrics for one scenario.

    All methods are pure; a few per-scenario tables (the SINR-vs-distance
    grid and the fitted nearest-distance model) are computed lazily once
    and then read-only.
    """

    #: inversion grid for SINR(r); log-spaced
    R_GRID_LO = 0.5
    R_GRID_HI = 6000.0
    R_GRID_N = 40
    #: kinks of SINR(r), where the kernel's panels start, in units of the hard core
    KINKS = (0.5, 0.75, 1.0, 2.0)

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    # ---- strategy-dependent geometry -------------------------------------

    @cached_property
    def active_density(self) -> float:
        """First moment of the active-station process (lambda_star density)."""
        s = self.scenario
        if s.strategy == "ppp":
            return s.hcpp.lambda_b
        if s.strategy == "matern":
            return hcpp.zeta1(s.hcpp)
        return s.retain_probability * s.hcpp.lambda_b

    def second_moment(self, u):
        """Radial second-order product density of the active process."""
        s = self.scenario
        if s.strategy == "matern":
            return hcpp.zeta2(u, s.hcpp)
        u = np.asarray(u, float)
        out = np.full_like(u, self.active_density**2)
        return out if out.ndim else float(out)

    @cached_property
    def _hard_core(self) -> float:
        """Radius inside which the second moment vanishes (0 for Poisson-like)."""
        return self.scenario.hcpp.delta if self.scenario.strategy == "matern" else 0.0

    @cached_property
    def nearest_model(self):
        s = self.scenario
        if s.strategy == "matern":
            return hcpp.fit_nearest_model(s.hcpp)
        return hcpp.RayleighNearestModel(self.active_density)

    @cached_property
    def lambda_star_fit(self) -> float:
        if self.scenario.strategy == "matern":
            return self.nearest_model.lambda_star_fit
        return self.active_density

    @cached_property
    def k_ue(self) -> float:
        """Average UEs per active cell (offloading-conserving)."""
        s = self.scenario
        return s.ues_per_cell * s.hcpp.lambda_b / self.active_density

    # ---- spatial integrals -----------------------------------------------

    def _radial_integral(self, r, p_exp):
        """Integral of second_moment(|x|) * |x + x_int|^(-p) over the plane,
        with |x_int| = r, under the scenario's regularization: one value per
        radius for a number ``p_exp``, one row per exponent for a tuple, each
        radius's geometry built once for all of them.  Geometry is centered
        on the serving station; ``u`` is the interferer's distance to it and
        ``dist`` its distance to the user; ``none`` adds ``_disk_term`` to the
        exclusion-ball integral.  Diverges, and raises, for any p <= 2."""
        ps = p_exp if isinstance(p_exp, tuple) else (p_exp,)
        r = np.atleast_1d(np.asarray(r, float))
        if np.any(r <= 0):
            raise ParameterError("serving distance must be > 0")
        if min(ps) <= 2.0:
            raise InterferenceDivergenceError(
                f"plane integral of distance^-p diverges for p = {min(ps):g} <= 2 (transmit power: p = alpha)"
            )
        mode, delta = self.scenario.regularization, self._hard_core
        if mode == "none" and delta == 0:
            raise InterferenceDivergenceError(
                "unregularized interference integral diverges for a Poisson-type "
                "second moment (an interferer may coincide with the user)"
            )
        if mode == "none" and np.any(r >= delta):
            raise InterferenceDivergenceError(
                f"unregularized interference integral diverges for serving distance "
                f"{r[r >= delta][0]:g} m >= hard-core distance {delta:g} m"
            )
        if delta > 0:
            out = np.empty((len(ps), r.size))
            for i, ri in enumerate(r):
                out[:, i] = self._exclusion_single(float(ri), ps)
        else:  # flat second moment: lambda_a^2 times the integral of dist^-p over dist >= r
            out = np.array([self.active_density**2 * 2.0 * np.pi * r ** (2.0 - p) / (p - 2.0) for p in ps])
        if mode == "none":
            out = out + [[self._disk_term(float(ri), p) for ri in r] for p in ps]
        return out if isinstance(p_exp, tuple) else out[0]

    def _angular(self, u: np.ndarray, r: float, psi_min: np.ndarray, ps: tuple) -> list:
        """2 * integral over psi in [psi_min, pi] of dist^-p, per u node; one row per exponent."""
        edges = np.stack([psi_min, np.full_like(psi_min, np.pi)], axis=-1)
        psi, wpsi = _panelize(edges, _GL_NODES, _GL_WEIGHTS)
        dist_sq = u[:, None] ** 2 + r**2 - 2.0 * u[:, None] * r * np.cos(psi)
        return [2.0 * (wpsi * dist_sq ** (-p / 2.0)).sum(axis=1) for p in ps]

    def _exclusion_single(self, r: float, ps: tuple) -> np.ndarray:
        """Plane integral with the exclusion ball for a hard core delta > 0,
        serving-station centered, at each exponent of ``ps``.  The allowed
        angular sector closes with a square-root law at u = 2r, so that
        stretch is integrated in the substituted variable u = 2r cos(beta),
        which is smooth; past c = max(2 delta, 2r) the integral is
        ``_flat_tail``, in closed form."""
        delta = self._hard_core
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
            w = wb * u * self.second_moment(u) * (2.0 * r * np.sin(beta))
            total += [float((w * ang).sum()) for ang in self._angular(u, r, beta, ps)]
        # region B: full circle, u in (max(delta, 2r), c); empty for r >= delta
        lo, c = max(delta, 2.0 * r), max(2.0 * delta, 2.0 * r)
        if lo < c:
            edges = [lo, 1.5 * delta, c] if lo < 1.5 * delta else [lo, c]
            u, wu = _panelize(edges, _GL32_NODES, _GL32_WEIGHTS)
            w = wu * u * self.second_moment(u)
            total += [float((w * ang).sum()) for ang in self._angular(u, r, np.zeros_like(u), ps)]
        return total + [self._flat_tail(r, c, p) for p in ps]

    @cached_property
    def _flat_moment(self) -> float:
        """The second moment at u >= 2 delta, where union_area is exactly 2 pi delta^2."""
        return float(self.second_moment(2.0 * self._hard_core))

    def _flat_tail(self, r: float, c: float, p_exp: float) -> float:
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
        return self._flat_moment * 2.0 * np.pi * c ** (2.0 - p_exp) * series

    def _disk_term(self, r: float, p_exp: float) -> float:
        """Integral of second_moment(u) * s^-p over the disk s < r around the
        user, in polar coordinates (s, phi) about it.  s-panels break where
        the circle s touches u = delta or 2 delta and double upward, as s^(1-p)
        falls steeply; phi-panels break at u = delta (where the second moment
        jumps), 1.5 delta and 2 delta."""
        delta = self._hard_core
        near = (0.0, abs(r - delta), r + delta, abs(r - 2.0 * delta))
        edges = {e for e in near if e < r} | {r}
        g = min(e for e in edges if e > 0)
        while g < r:
            edges.add(g)
            g *= 2.0
        s, ws = _panelize(sorted(edges), _SMOOTH_NODES, _SMOOTH_WEIGHTS)
        # phi = 0 faces the server; u = 0 and u = inf give the ends phi = 0 and pi
        c = np.array([0.0, delta, 1.5 * delta, 2.0 * delta, np.inf])
        sin_sq = np.clip((c * c - (r - s[:, None]) ** 2) / (4.0 * r * s[:, None]), 0.0, 1.0)
        phi, wphi = _panelize(2.0 * np.arcsin(np.sqrt(sin_sq)), _SMOOTH_NODES, _SMOOTH_WEIGHTS)
        u = np.sqrt((r - s[:, None]) ** 2 + 4.0 * r * s[:, None] * np.sin(0.5 * phi) ** 2)
        ang = 2.0 * (wphi * np.asarray(self.second_moment(u), float)).sum(axis=1)
        return float((ws * s * s**-p_exp * ang).sum())

    # ---- metrics ---------------------------------------------------------

    def interference_base(self, r):
        """Average interference divided by M^2 (kept antenna-free so that the
        antenna count cancels bit-exactly in the noise-free SINR)."""
        base = self._base_of(self._radial_integral(r, 2.0 * self.scenario.radio.alpha))
        return base if np.ndim(r) else float(base[0])

    def _base_of(self, j):
        """``interference_base`` from the kernel at exponent 2 alpha."""
        s = self.scenario
        return s.radio.p_f * s.radio.p_p * s.shadowing.moment(2) / self.active_density * j

    def avg_interference(self, r_int):
        """Average interference power seen at serving distance ``r_int``."""
        m2 = float(self.scenario.radio.antennas_m) ** 2
        return m2 * self.interference_base(r_int)

    def _sinr_ratio(self, r, base, gain: float):
        """m^2 P_f P_p gain r^(-2 alpha) / (m^2 base + N) per radius: the mean-interference
        SINR at gain E[omega^2], its shadowing-free part at gain 1."""
        s = self.scenario
        m2 = float(s.radio.antennas_m) ** 2
        return m2 * (s.radio.p_f * s.radio.p_p * gain * r ** (-2.0 * s.radio.alpha)) / (m2 * base + s.radio.noise_power)

    def rate_lower_bound(self, r, base=None):
        """Jensen lower bound of the mean achievable rate at serving distance
        ``r``, averaging log2(1 + SINR(omega)) over the shadowing distribution
        with the mean interference in the denominator; ``base`` is
        ``interference_base(r)``, where the caller already holds it."""
        r_arr = np.atleast_1d(np.asarray(r, float))
        c = self._sinr_ratio(r_arr, self.interference_base(r_arr) if base is None else base, 1.0)
        ls = self.scenario.shadowing.log_std
        if ls == 0:
            out = np.log1p(c) / np.log(2.0)
        else:  # omega = e^s at the Gauss-Hermite s-values; ln(1 + omega^2 c) per node
            vals = np.logaddexp(0.0, 2.0 * (np.sqrt(2.0) * ls * _GH_NODES)[None, :] + np.log(c)[:, None])
            out = (vals * _GH_WEIGHTS).sum(axis=1) / np.sqrt(np.pi) / np.log(2.0)
        return out if np.ndim(r) else float(out[0])

    @cached_property
    def _serving_grid(self):
        """Serving-distance nodes, weight * pdf, and the kernel there at 2 alpha (rate) and
        alpha (transmit power) in one pass; not ``rule``, which moves ee by 1.44e-6."""
        model = self.nearest_model
        r_sup = model.support_radius()
        delta = self._hard_core
        edges = (0.0, delta / 2.0, delta, 2.0 * delta, r_sup / 2.0, r_sup)
        r, w = _panelize(sorted({e for e in edges if e <= r_sup}), _GL32_NODES, _GL32_WEIGHTS)
        f = np.asarray(model.pdf(r), float)
        alpha = self.scenario.radio.alpha
        return r, w * f, *self._radial_integral(r, (2.0 * alpha, alpha))

    def avg_cell_rate(self) -> float:
        """Per-cell sum rate: K times the serving-distance average of the
        rate lower bound."""
        if self.scenario.ues_per_cell == 0:
            return 0.0
        r, wf, j_rate, _ = self._serving_grid
        return float(self.k_ue * (wf * self.rate_lower_bound(r, self._base_of(j_rate))).sum())

    def avg_tx_power(self) -> float:
        """Mean per-station transmit power of the precoded downlink."""
        s = self.scenario
        if s.ues_per_cell == 0:
            return 0.0
        _, wf, _, j_power = self._serving_grid
        mean_j = float((wf * (j_power / self.active_density)).sum())
        return s.radio.antennas_m * s.radio.p_p * self.k_ue * s.shadowing.moment(1) * mean_j

    def pair_kernel(self, u2):
        """h(u) at an array of squared station distances ``u2``: the mean d^(-alpha) from a station
        to one user of a cell u away, over the nearest law's offset and a uniform angle, less
        the users nearer the station than their own.  Linear in ln u on ``_pair_table``
        (relative error <= 1e-4), beyond it its asymptotes u^(2 - alpha) and u^(-alpha): 0 at inf."""
        model, alpha, ln_lam = self.nearest_model, self.scenario.radio.alpha, 0.0
        if isinstance(model, hcpp.RayleighNearestModel):  # h_lam(u) = lam^(alpha/2) h_1(u sqrt(lam))
            model, ln_lam = hcpp.RayleighNearestModel(1.0), np.log(model.intensity)
        x0, dx, y, dy = _pair_table(model, alpha, self._hard_core)
        y = y + 0.5 * alpha * ln_lam
        t = np.log(u2)  # in place from here: each temporary of a large u2 costs a pass
        t *= 0.5 / dx
        t -= (x0 - 0.5 * ln_lam) / dx
        k = np.clip(t, 0.0, len(dy) - 1).astype(np.intp)  # the end segments extrapolate
        t -= k
        t *= dy[k]
        t += y[k]
        return np.exp(t, out=t)

    def bs_power(self, p_tx: float | None = None) -> float:
        """Linear station power model: amplifier draw plus RF chains plus static."""
        s = self.scenario
        if p_tx is None:
            p_tx = self.avg_tx_power()
        if p_tx < 0:
            raise ParameterError("p_tx must be >= 0")
        return p_tx / s.radio.eta + s.radio.antennas_m * s.radio.p_rf_chain + s.radio.p_sta

    def energy_efficiency(self, p_tx: float | None = None) -> float:
        """Area rate over area power; the active density cancels, leaving the
        per-cell sum rate over the per-station power draw."""
        return self.avg_cell_rate() / self.bs_power(p_tx)

    # ---- SINR-vs-distance and coverage -----------------------------------

    def sinr_of_distance(self, r):
        """Mean-interference SINR as a deterministic function of distance."""
        r_arr = np.atleast_1d(np.asarray(r, float))
        out = self._sinr_ratio(r_arr, self.interference_base(r_arr), self.scenario.shadowing.moment(2))
        return out if np.ndim(r) else float(out[0])

    @cached_property
    def _sinr_grid(self):
        r = np.geomspace(self.R_GRID_LO, self.R_GRID_HI, self.R_GRID_N)
        gamma = self.sinr_of_distance(r)
        if not np.all(np.diff(gamma) < 0):
            raise MonotonicityError(
                "SINR-vs-distance is not strictly decreasing on the grid; "
                "inversion undefined"
            )
        return r, gamma

    def invert_sinr(self, gamma: float) -> InversionResult:
        """Distance at which the mean-interference SINR equals ``gamma``."""
        r_grid, g_grid = self._sinr_grid
        if gamma >= g_grid[0]:
            return InversionResult(float(r_grid[0]), clipped=gamma > g_grid[0])
        if gamma <= g_grid[-1]:
            return InversionResult(float(r_grid[-1]), clipped=gamma < g_grid[-1])
        k = int(np.searchsorted(-g_grid, -gamma))
        # log(SINR / gamma) against log r from the grid bracket, one kernel call per iterate
        a, b = np.log(r_grid[k - 1 : k + 1])
        fa, fb = np.log(g_grid[k - 1 : k + 1] / gamma)
        f_tol = 1e-13 * (fa - fb) / (b - a)  # |f| that puts x within ~1e-13
        x, fx = regula_falsi(
            lambda x: np.log(self.sinr_of_distance(float(np.exp(x))) / gamma), a, b, fa, fb, f_tol
        )
        if abs(np.expm1(fx)) > 1e-9:
            raise MonotonicityError("SINR inversion failed to polish")
        return InversionResult(float(np.exp(x)), clipped=False)

    def coverage_radius(self, rho: float) -> InversionResult:
        """Distance where the mean-interference SINR falls to 2^rho - 1, inside which
        the rate exceeds ``rho``; clipped to the grid's ends for a threshold beyond them."""
        if rho < 0:
            raise ParameterError("rho must be >= 0")
        gamma_t = float(2.0**rho - 1.0) if rho < 1024 else np.inf  # 2.0**1024 overflows
        return self.invert_sinr(gamma_t)

    def coverage_efficiency(self, rho: float) -> float:
        """P(mean-interference rate > ``rho``): the serving-distance CDF at ``coverage_radius``."""
        return min(float(self.nearest_model.cdf(self.coverage_radius(rho).r)), 1.0)

    def coverage_efficiency_traffic(self, mode: str = "at-mean") -> float:
        """Coverage at the mean demand, or marginalized over the demand law by
        Fubini: F(R_GRID_LO) plus f(r) P(demand < rate(r)) integrated by the
        nearest law's ``rule`` from R_GRID_LO to r_1, rate(r_1) = rho_min, on
        panels quadrupling from R_GRID_LO, broken at r_1 and ``KINKS`` * delta."""
        t = self.scenario.traffic
        if mode == "at-mean":
            return self.coverage_efficiency(t.mean())
        if mode != "marginalized":
            raise ParameterError("mode must be 'at-mean' or 'marginalized'")
        near = self.coverage_efficiency(np.inf)
        r_1 = self.coverage_radius(t.rho_min).r
        if r_1 <= self.R_GRID_LO:
            return near
        lo = self.R_GRID_LO
        quads = lo * 4.0 ** np.arange(np.log(self.R_GRID_HI / lo) / np.log(4.0))
        breaks = [*quads, *self._hard_core * np.array(self.KINKS)]
        r, wf = self.nearest_model.rule(sorted({*(e for e in breaks if lo <= e < r_1), r_1}))
        rate = np.log2(1.0 + self.sinr_of_distance(r))
        return min(near + float((wf * (1.0 - t.ccdf(rate))).sum()), 1.0)
