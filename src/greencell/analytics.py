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
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from . import hcpp
from .channel import RadioParams, ShadowingModel, TrafficModel
from .errors import InterferenceDivergenceError, MonotonicityError, ParameterError
from .hcpp import HcppParams
from .quadrature import _GH_NODES, _GH_WEIGHTS, _GL32_NODES, _GL32_WEIGHTS, _GL_NODES, _GL_WEIGHTS
from .quadrature import _SMOOTH_NODES, _SMOOTH_WEIGHTS, _panelize

STRATEGIES = ("ppp", "matern", "random")
REGULARIZATIONS = ("exclusion-ball", "min-distance", "none")
RANDOM_MODES = ("retain", "remove")
MIN_DISTANCE_EPS = 1.0  # m; interferer distance floor of the "min-distance" regularization


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
    R_GRID_N = 400

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

    def _radial_integral(self, r, p_exp: float):
        """Integral of second_moment(|x|) * |x + x_int|^(-p_exp) over the plane,
        with |x_int| = r, under the scenario's regularization.  Geometry is
        centered on the serving station; ``u`` is the interferer's distance to
        it and ``dist`` its distance to the user; the other regularizations
        add ``_disk_term`` to the exclusion-ball integral."""
        r = np.atleast_1d(np.asarray(r, float))
        if np.any(r <= 0):
            raise ParameterError("serving distance must be > 0")
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
        out = np.array([self._exclusion_single(float(ri), p_exp) for ri in r])
        if mode == "exclusion-ball":
            return out
        eps = MIN_DISTANCE_EPS if mode == "min-distance" else 0.0
        return out + [self._disk_term(float(ri), p_exp, eps) for ri in r]

    def _angular(self, u: np.ndarray, r: float, psi_min: np.ndarray, p_exp: float) -> np.ndarray:
        """2 * integral over psi in [psi_min, pi] of dist^-p, per u node."""
        edges = np.stack([psi_min, np.full_like(psi_min, np.pi)], axis=-1)
        psi, wpsi = _panelize(edges, _GL_NODES, _GL_WEIGHTS)
        dist_sq = u[:, None] ** 2 + r**2 - 2.0 * u[:, None] * r * np.cos(psi)
        return 2.0 * (wpsi * dist_sq ** (-p_exp / 2.0)).sum(axis=1)

    def _exclusion_single(self, r: float, p_exp: float) -> float:
        """Plane integral with the exclusion ball, serving-station centered.

        The allowed angular sector closes with a square-root law at u = 2r,
        so that stretch is integrated in the substituted variable
        u = 2r cos(beta), which is smooth; beyond 2r the full circle is
        allowed and plain geometric panels suffice.
        """
        delta = self._hard_core
        u_cut = max(30.0 * r, 30.0 * delta, 100.0)
        total = 0.0
        if delta < 2.0 * r:
            # region A: exclusion active, u in (delta, 2r)
            b_hi = np.arccos(delta / (2.0 * r)) if delta > 0 else np.pi / 2.0
            edges = {0.0, b_hi}
            for u_split in (r, delta, 1.5 * delta, 2.0 * delta):
                if 0.0 < u_split < 2.0 * r:
                    edges.add(float(np.arccos(u_split / (2.0 * r))))
            beta, wb = _panelize(sorted(e for e in edges if e <= b_hi), _GL32_NODES, _GL32_WEIGHTS)
            u = 2.0 * r * np.cos(beta)
            jac = 2.0 * r * np.sin(beta)
            k = np.asarray(self.second_moment(u), float)
            total += float((wb * u * k * jac * self._angular(u, r, beta, p_exp)).sum())
        # region B: full circle, u in (max(delta, 2r), u_cut)
        lo = max(delta, 2.0 * r)
        edges = [lo]
        for u_split in (1.5 * delta, 2.0 * delta):
            if lo < u_split < u_cut:
                edges.append(u_split)
        g = edges[-1]
        while g < u_cut:
            g = min(g * 1.7, u_cut)
            edges.append(g)
        u, wu = _panelize(sorted(set(edges)), _GL32_NODES, _GL32_WEIGHTS)
        k = np.asarray(self.second_moment(u), float)
        total += float((wu * u * k * self._angular(u, r, np.zeros_like(u), p_exp)).sum())
        # analytic tail beyond u_cut with second-order offset correction
        far = float(self.second_moment(u_cut * 2.0)) * 2.0 * np.pi
        tail = far * u_cut ** (2.0 - p_exp) / (p_exp - 2.0)
        return total + tail * (1.0 + p_exp * (p_exp - 2.0) * r**2 / (4.0 * u_cut**2))

    def _disk_term(self, r: float, p_exp: float, eps: float) -> float:
        """Integral of second_moment(u) * (max(s, eps)^-p - [s >= r] s^-p) over
        the disk s < max(r, eps) around the user, in polar coordinates (s, phi)
        about it.  s-panels break where the circle s touches u = delta or
        2 delta and double upward, as s^(1-p) falls steeply; phi-panels break
        at u = delta (where the second moment jumps), 1.5 delta and 2 delta."""
        delta, s_hi = self._hard_core, max(r, eps)
        near = (0.0, eps, r, abs(r - delta), r + delta, abs(r - 2.0 * delta))
        edges = {e for e in near if e < s_hi} | {s_hi}
        g = min(e for e in edges if e > 0)
        while g < s_hi:
            edges.add(g)
            g *= 2.0
        s, ws = _panelize(sorted(edges), _SMOOTH_NODES, _SMOOTH_WEIGHTS)
        # phi = 0 faces the server; u = 0 and u = inf give the ends phi = 0 and pi
        c = np.array([0.0, delta, 1.5 * delta, 2.0 * delta, np.inf])
        sin_sq = np.clip((c * c - (r - s[:, None]) ** 2) / (4.0 * r * s[:, None]), 0.0, 1.0)
        phi, wphi = _panelize(2.0 * np.arcsin(np.sqrt(sin_sq)), _SMOOTH_NODES, _SMOOTH_WEIGHTS)
        u = np.sqrt((r - s[:, None]) ** 2 + 4.0 * r * s[:, None] * np.sin(0.5 * phi) ** 2)
        ang = 2.0 * (wphi * np.asarray(self.second_moment(u), float)).sum(axis=1)
        clip = np.maximum(s, eps) ** -p_exp - np.where(s >= r, s**-p_exp, 0.0)
        return float((ws * s * clip * ang).sum())

    # ---- metrics ---------------------------------------------------------

    def interference_base(self, r):
        """Average interference divided by M^2 (kept antenna-free so that the
        antenna count cancels bit-exactly in the noise-free SINR)."""
        s = self.scenario
        j = self._radial_integral(r, 2.0 * s.radio.alpha)
        base = s.radio.p_f * s.radio.p_p * s.shadowing.moment(2) / self.active_density * j
        return base if np.ndim(r) else float(base[0])

    def avg_interference(self, r_int: float) -> float:
        """Average interference power seen at serving distance ``r_int``."""
        if r_int <= 0:
            raise ParameterError("r_int must be > 0")
        m2 = float(self.scenario.radio.antennas_m) ** 2
        return m2 * self.interference_base(r_int)

    def _rate_from_base(self, r: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Jensen lower bound of the mean achievable rate at distances ``r``,
        averaging log2(1 + SINR(omega)) over the shadowing distribution with
        the mean interference in the denominator."""
        s = self.scenario
        m2 = float(s.radio.antennas_m) ** 2
        num = m2 * (s.radio.p_f * s.radio.p_p * r ** (-2.0 * s.radio.alpha))
        den = m2 * base + s.radio.noise_power
        c = num / den
        ls = s.shadowing.log_std
        if ls == 0:
            return np.log1p(c) / np.log(2.0)
        shift = np.sqrt(2.0) * ls * _GH_NODES  # s-values; omega = e^s
        expo = 2.0 * shift[None, :] + np.log(c)[:, None]
        vals = np.logaddexp(0.0, expo)  # ln(1 + omega^2 c)
        return (vals @ _GH_WEIGHTS) / np.sqrt(np.pi) / np.log(2.0)

    def rate_lower_bound(self, r_int: float) -> float:
        if r_int <= 0:
            raise ParameterError("r_int must be > 0")
        r = np.asarray([r_int], float)
        return float(self._rate_from_base(r, self.interference_base(r))[0])

    @cached_property
    def _serving_grid(self):
        """Quadrature nodes/weights against the serving-distance PDF."""
        model = self.nearest_model
        r_sup = model.support_radius()
        delta = self._hard_core
        edges = (0.0, delta / 2.0, delta, 2.0 * delta, r_sup / 2.0, r_sup)
        r, w = _panelize(np.unique([e for e in edges if e <= r_sup]), _GL32_NODES, _GL32_WEIGHTS)
        f = np.asarray(model.pdf(r), float)
        return r, w * f

    def avg_cell_rate(self) -> float:
        """Per-cell sum rate: K times the serving-distance average of the
        rate lower bound."""
        if self.scenario.ues_per_cell == 0:
            return 0.0
        r, wf = self._serving_grid
        base = self.interference_base(r)
        rates = self._rate_from_base(r, base)
        return float(self.k_ue * (wf * rates).sum())

    def avg_tx_power(self) -> float:
        """Mean per-station transmit power of the precoded downlink."""
        s = self.scenario
        if s.radio.alpha <= 2.0:
            raise InterferenceDivergenceError(
                f"transmit-power integral diverges for alpha={s.radio.alpha} <= 2"
            )
        if self.scenario.ues_per_cell == 0:
            return 0.0
        r, wf = self._serving_grid
        j = self._radial_integral(r, s.radio.alpha) / self.active_density
        mean_j = float((wf * j).sum())
        return s.radio.antennas_m * s.radio.p_p * self.k_ue * s.shadowing.moment(1) * mean_j

    def bs_power(self, p_tx: float | None = None) -> float:
        """Linear station power model: amplifier draw plus RF chains plus static."""
        s = self.scenario
        if p_tx is None:
            p_tx = self.avg_tx_power()
        if p_tx < 0:
            raise ParameterError("p_tx must be >= 0")
        return p_tx / s.radio.eta + s.radio.antennas_m * s.radio.p_rf_chain + s.radio.p_sta

    def energy_efficiency(self) -> float:
        """Area rate over area power; the active density cancels, leaving the
        per-cell sum rate over the per-station power draw."""
        return self.avg_cell_rate() / self.bs_power()

    # ---- SINR-vs-distance and coverage -----------------------------------

    def _sinr_from_base(self, r: np.ndarray, base: np.ndarray) -> np.ndarray:
        s = self.scenario
        m2 = float(s.radio.antennas_m) ** 2
        num = m2 * (s.radio.p_f * s.radio.p_p * s.shadowing.moment(2) * r ** (-2.0 * s.radio.alpha))
        return num / (m2 * base + s.radio.noise_power)

    def sinr_of_distance(self, r):
        """Mean-interference SINR as a deterministic function of distance."""
        r_arr = np.atleast_1d(np.asarray(r, float))
        if np.any(r_arr <= 0):
            raise ParameterError("r must be > 0")
        out = self._sinr_from_base(r_arr, self.interference_base(r_arr))
        return out if np.ndim(r) else float(out[0])

    @cached_property
    def _sinr_grid(self):
        r = np.geomspace(self.R_GRID_LO, self.R_GRID_HI, self.R_GRID_N)
        gamma = self._sinr_from_base(r, self.interference_base(r))
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
        # Regula falsi on f = log(SINR / gamma) vs x = log r from the grid bracket
        # (Anderson-Bjorck's Illinois variant): (b, fb) is the latest exact-kernel
        # iterate and the root; (a, fa) the last of opposite sign, shrunk when kept.
        a, b = np.log(r_grid[k - 1 : k + 1])
        fa, fb = np.log(g_grid[k - 1 : k + 1] / gamma)
        f_tol = 1e-13 * (fa - fb) / (b - a)  # |f| that puts x within ~1e-13
        for _ in range(100):
            x = b - fb * (b - a) / (fb - fa)
            r = float(np.exp(x))
            g = float(self.sinr_of_distance(r))
            fx = np.log(g / gamma)
            if abs(fx) <= f_tol or abs(x - b) <= 1e-14:
                break
            if (fx > 0) != (fb > 0):
                a, fa = b, fb
            else:
                m = 1.0 - fx / fb
                fa *= m if m > 0 else 0.5
            b, fb = x, fx
        if abs(g - gamma) > 1e-9 * gamma:
            raise MonotonicityError("SINR inversion failed to polish")
        return InversionResult(r, clipped=False)

    def _sinr_slope(self, r: float) -> float:
        """d(SINR)/dr by central finite difference."""
        h = 1e-5 * r
        lo, hi = self.sinr_of_distance(r - h), self.sinr_of_distance(r + h)
        return (float(hi) - float(lo)) / (2.0 * h)

    def coverage_efficiency(self, rho: float, method: str = "cross-check") -> float:
        """Probability that the mean-interference rate exceeds ``rho``.

        ``method``: 'cdf' integrates the serving-distance PDF up to the
        threshold distance; 'change-of-variables' integrates the SINR density
        over the threshold-exceeding range; 'cross-check' (default) computes
        both and asserts agreement to 1e-6.
        """
        if rho < 0:
            raise ParameterError("rho must be >= 0")
        gamma_t = float(2.0**rho - 1.0)
        r_grid, g_grid = self._sinr_grid
        if gamma_t <= g_grid[-1]:
            # below the weakest grid SINR: (numerically) full support covered
            return min(float(self.nearest_model.cdf(float(r_grid[-1]))), 1.0)
        if gamma_t >= g_grid[0]:
            return float(self.nearest_model.cdf(float(r_grid[0])))
        r_star = self.invert_sinr(gamma_t).r

        def cdf_form() -> float:
            return min(float(self.nearest_model.cdf(r_star)), 1.0)

        def cov_form() -> float:
            gamma_hi = float(g_grid[0])
            pdf = self.nearest_model.pdf

            def integrand(lng: float) -> float:
                g = np.exp(lng)
                r = self.invert_sinr(float(g)).r
                return float(pdf(r)) / abs(self._sinr_slope(r)) * g

            val, _ = quad(
                integrand, np.log(gamma_t), np.log(gamma_hi), limit=300, epsabs=1e-9, epsrel=1e-9
            )
            return min(float(val) + float(self.nearest_model.cdf(float(r_grid[0]))), 1.0)

        if method == "cdf":
            return cdf_form()
        if method == "change-of-variables":
            return cov_form()
        a, b = cdf_form(), cov_form()
        if abs(a - b) > 1e-6:
            raise MonotonicityError(
                f"coverage paths disagree: cdf={a:.9f}, change-of-variables={b:.9f}"
            )
        return a

    def coverage_efficiency_traffic(self, mode: str = "at-mean") -> float:
        """Coverage against the traffic model: either at the mean demand or
        marginalized over the demand distribution."""
        t = self.scenario.traffic
        if mode == "at-mean":
            return self.coverage_efficiency(t.mean(), method="cdf")
        if mode != "marginalized":
            raise ParameterError("mode must be 'at-mean' or 'marginalized'")

        # substitute v = ccdf(rho): rho = rho_min * v**(-1/theta), v in (0, 1]
        def integrand(v: float) -> float:
            rho = t.rho_min * v ** (-1.0 / t.theta)
            return self.coverage_efficiency(rho, method="cdf")

        val, _ = quad(integrand, 0.0, 1.0, limit=200, epsabs=1e-8, epsrel=1e-7)
        return min(float(val), 1.0)
