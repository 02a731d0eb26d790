"""Numerical evaluation of the network's analytic performance metrics.

Average interference, rate lower bound, transmit power, energy efficiency
and coverage efficiency, for three switch-off strategies:

* ``ppp``     -- every station stays on (Poisson geometry, parent density);
* ``matern``  -- hard-core switch-off (dependent thinning, repulsive);
* ``random``  -- independent switch-off matched to the hard-core density.

The interference integral diverges as printed whenever an interferer could
sit on top of the user.  The one model here, the exclusion ball, integrates
only over interferers no closer than the serving station.  Nearest-station
association realizes it for ``ppp`` and ``random``, for ``matern`` up to delta/2.
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
from .quadrature import _GH_NODES, _GH_WEIGHTS, _GL32_NODES, _GL32_WEIGHTS
from .quadrature import _SMOOTH16_NODES, _SMOOTH16_WEIGHTS, _panelize, regula_falsi

STRATEGIES = ("ppp", "matern", "random")
PAIR_NODES = 96  # quadrature nodes of the station-pair power kernel, interpolated onto 4096 in ln u
PAIR_CHUNK = 16  # of them per pass of its build, which keeps each node array near 256 kB
# cos psi and weights of the 32-node rule on [0, pi], as ``_panelize`` maps it, shared by all full-circle nodes
_CIRCLE_COS, _CIRCLE_W = np.cos(0.5 * np.pi + 0.5 * np.pi * _GL32_NODES), 0.5 * np.pi * _GL32_WEIGHTS
# the flat-ended 16-node rule on [0, 1], the station-pair table's angles in units of their range,
# and cos(pi tau), the whole half circle's
_TAU16 = 0.5 + 0.5 * _SMOOTH16_NODES
_HALF_COS = np.cos(np.pi * _TAU16)


@lru_cache(maxsize=32)
def _pair_table(model, alpha: float, hard_core: float):
    """(ln u_0, step, ln h, its differences) on 4098 uniform ln u for ``AnalyticEngine.pair_kernel``
    per (hashable) nearest-distance model and alpha, at unit density for a Rayleigh law: 6-point
    Lagrange in s from ``PAIR_NODES`` quadratures at uniform s, on flat-ended 16-node panels in r
    and psi, up to ``PAIR_CHUNK`` nodes with as many radial edges per pass (README, Numerical notes)."""
    r_sup = model.support_radius
    u_lo = hard_core or 1e-4 * r_sup
    span, grade = np.log(1e2 * r_sup / u_lo), 2 if hard_core else 1
    u = u_lo * np.exp(span * np.linspace(0.0, 1.0, PAIR_NODES) ** grade)
    # radial edges 0, delta/2, u/2 growing 8-fold, r_sup/2 and r_sup, capped at r_sup: each node's distinct ones
    ends = np.repeat([[0.0, hard_core / 2.0, r_sup / 2.0, r_sup]], PAIR_NODES, axis=0)
    edges = np.sort(np.minimum(np.column_stack([ends, 0.5 * u[:, None] * 8.0 ** np.arange(6)]), r_sup), axis=1)
    fresh = np.diff(edges, axis=1, prepend=-1.0) > 0
    count = fresh.sum(axis=1)
    y = np.empty(PAIR_NODES)
    for k in set(count.tolist()):
        group = np.flatnonzero(count == k)
        for j in np.split(group, range(PAIR_CHUNK, group.size, PAIR_CHUNK)):
            r, w = _panelize(edges[j][fresh[j]].reshape(-1, k), _SMOOTH16_NODES, _SMOOTH16_WEIGHTS)
            uj = u[j, None]
            # psi over [pi - theta, pi], cos(pi - theta) = -min(1, u / 2r): the half circle, less the
            # angles that put the user nearer this station than its own; cos psi = -cos(theta tau)
            theta = np.arccos(-np.minimum(1.0, uj / (2.0 * r)))
            d2, sector = np.tile(_HALF_COS, (*r.shape, 1)), theta < np.pi
            d2[sector] = np.cos(theta[sector, None] * _TAU16)
            d2 *= (2.0 * uj * r)[..., None]  # in place from here: u^2 + r^2 - 2ur cos(psi), then d^-alpha
            d2 += (uj * uj + r * r)[..., None]
            np.power(d2, -alpha / 2.0, out=d2)
            d2 *= _SMOOTH16_WEIGHTS
            y[j] = np.log((w * model.pdf(r) * (0.5 * theta) * d2.sum(axis=-1)).sum(axis=-1) / np.pi)
    t = np.linspace(0.0, 1.0, 4096) ** (1.0 / grade) * (PAIR_NODES - 1)
    i = np.clip(np.floor(t).astype(int) - 2, 0, PAIR_NODES - 6)
    ln_h = sum(np.prod([(t - i - b) / (a - b) for b in range(6) if b != a], axis=0) * y[i + a] for a in range(6))
    step = span / 4095  # one node more at each end, on the asymptotes u^(2 - alpha) and u^(-alpha)
    ln_h = np.concatenate([[ln_h[0] - (2.0 - alpha) * step], ln_h, [ln_h[-1] - alpha * step]])
    return np.log(u_lo) - step, step, ln_h, np.diff(ln_h)


@lru_cache(maxsize=64)
def _series_block(p_exp: float, k: int):
    """Term ratios ((p/2 + j) / (j + 1))^2 and divisors p - 2 + 2j of ``_flat_tail``'s series
    for j in [k, k + 64), built once per exponent and block (read-only)."""
    ks = range(k, k + 64)
    rows = np.array([[((0.5 * p_exp + j) / (j + 1.0)) ** 2 for j in ks], [p_exp - 2.0 + 2.0 * j for j in ks]])
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one network configuration."""

    hcpp: HcppParams
    radio: RadioParams = RadioParams()
    shadowing: ShadowingModel = ShadowingModel(6.0)
    traffic: TrafficModel = TrafficModel()
    ues_per_cell: int = 5
    strategy: str = "matern"

    def __post_init__(self) -> None:
        if self.ues_per_cell < 0:
            raise ParameterError("ues_per_cell must be >= 0")
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"strategy must be one of {STRATEGIES}")

    @property
    def retain_probability(self) -> float:
        """Retention probability of the random strategy matched to the hard-core density."""
        return hcpp.zeta1(self.hcpp) / self.hcpp.lambda_b


class InversionResult(NamedTuple):
    r: float
    clipped: bool


class AnalyticEngine:
    """Evaluates the closed-form metrics for one scenario.

    All methods are pure; a few per-scenario tables (the SINR-vs-distance
    grid, the fitted nearest-distance model and each threshold's coverage
    radius) are computed lazily once and then read-only.
    """

    #: inversion grid for SINR(r); log-spaced
    R_GRID_LO = 0.5
    R_GRID_HI = 6000.0
    R_GRID_N = 40
    #: kinks of SINR(r), where the kernel's panels start, in units of the hard core
    KINKS = (0.5, 0.75, 1.0, 2.0)
    #: radii per pass of the hard-core kernel, which bounds its node arrays
    KERNEL_CHUNK = 32

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._radii: dict[float, InversionResult] = {}  # ``coverage_radius`` per SINR threshold

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

    @cached_property
    def _hard_core(self) -> float:
        """Radius inside which the second moment vanishes (0 for Poisson-like)."""
        return self.scenario.hcpp.delta if self.scenario.strategy == "matern" else 0.0

    @cached_property
    def nearest_model(self):
        """The hard-core law where stations repel, else the Poisson contact law
        (``ppp``, ``random`` and ``matern`` at delta = 0 are one process)."""
        if self._hard_core > 0:
            return hcpp.fit_nearest_model(self.scenario.hcpp)
        return hcpp.RayleighNearestModel(self.active_density)

    @cached_property
    def lambda_star_fit(self) -> float:
        if self._hard_core > 0:
            return self.nearest_model.lambda_star_fit
        return self.active_density

    @cached_property
    def k_ue(self) -> float:
        """Average UEs per active cell (offloading-conserving)."""
        s = self.scenario
        return s.ues_per_cell * s.hcpp.lambda_b / self.active_density

    # ---- spatial integrals -----------------------------------------------

    def _radial_integral(self, r, ps: tuple):
        """Integral of the second-order product density at |x| times |x + x_int|^(-p) over the
        plane outside the exclusion ball, with |x_int| = r: one row per exponent p in ``ps``, one
        column per radius, each radius's geometry built once for all of them.  Geometry is
        centered on the serving station; ``u`` is the interferer's distance to it and ``dist``
        its distance to the user; a hard core runs ``KERNEL_CHUNK`` radii per ``_exclusion``
        call.  Diverges, and raises, for any p <= 2."""
        r = np.atleast_1d(np.asarray(r, float))
        if np.any(r <= 0):
            raise ParameterError("serving distance must be > 0")
        if min(ps) <= 2.0:
            raise InterferenceDivergenceError(
                f"plane integral of distance^-p diverges for p = {min(ps):g} <= 2 (transmit power: p = alpha)"
            )
        if self._hard_core > 0:
            out = np.empty((len(ps), r.size))
            for i in range(0, r.size, self.KERNEL_CHUNK):
                out[:, i : i + self.KERNEL_CHUNK] = self._exclusion(r[i : i + self.KERNEL_CHUNK], ps)
        else:  # flat second moment: lambda_a^2 times the integral of dist^-p over dist >= r
            out = np.array([self.active_density**2 * 2.0 * np.pi * r ** (2.0 - p) / (p - 2.0) for p in ps])
        return out

    @staticmethod
    def _angular(u: np.ndarray, r: float, psi_min: np.ndarray | None, ps: tuple) -> list:
        """2 * integral over psi in [psi_min, pi] of dist^-p, per u node; one row per exponent.
        ``psi_min`` None is the full circle, on one rule shared by every node."""
        if psi_min is None:
            cos_psi, wpsi = _CIRCLE_COS, _CIRCLE_W
        else:
            edges = np.stack([psi_min, np.full_like(psi_min, np.pi)], axis=-1)
            cos_psi, wpsi = _panelize(edges, _GL32_NODES, _GL32_WEIGHTS)
            np.cos(cos_psi, out=cos_psi)
        dist_sq = u[:, None] ** 2 + r**2 - 2.0 * u[:, None] * r * cos_psi
        return [2.0 * (wpsi * dist_sq ** (-p / 2.0)).sum(axis=1) for p in ps]

    def _exclusion(self, r: np.ndarray, ps: tuple) -> np.ndarray:
        """Plane integral with the exclusion ball for a hard core delta > 0, serving-station
        centered: one row per exponent, one column per radius.  The allowed angular sector closes
        with a square-root law at u = 2r, so that stretch is integrated in the smooth substituted
        variable u = 2r cos(beta); past c = max(2 delta, 2r) the integral is ``_flat_tail``.  Radii
        with as many panels share a ``_panelize`` call, all radii one ``hcpp.zeta2`` call."""
        delta = self._hard_core
        blocks = []  # (radii, u, weight, beta) per panel count; beta None on the full circle
        # region A: exclusion active, u in (delta, 2r), in beta up to b_hi = arccos(delta / 2r),
        # broken where u = r, delta, 1.5 delta or 2 delta; the edges of each radius sorted, as a set
        ia = np.flatnonzero(delta < 2.0 * r)
        two_r = 2.0 * r[ia, None]
        u_split = np.column_stack([r[ia], np.repeat([[delta, 1.5 * delta, 2.0 * delta]], ia.size, axis=0)])
        cuts = np.where(u_split < two_r, np.arccos(np.minimum(u_split / two_r, 1.0)), np.inf)
        rows = [sorted({0.0, *(e for e in row if e <= row[1])}) for row in cuts.tolist()]  # row[1] is b_hi
        count = np.array([len(row) for row in rows])
        for k in set(count.tolist()):
            beta, wb = _panelize([row for row in rows if len(row) == k], _GL32_NODES, _GL32_WEIGHTS)
            g = count == k
            u = two_r[g] * np.cos(beta)
            blocks.append((ia[g], u, wb, beta))
        # region B: full circle, u in (max(delta, 2r), c), broken at 1.5 delta; empty for r >= delta
        lo, c = np.maximum(delta, 2.0 * r), np.maximum(2.0 * delta, 2.0 * r)
        three = lo < 1.5 * delta
        for g, cols in ((three, (lo, np.full_like(lo, 1.5 * delta), c)), (~three & (lo < c), (lo, c))):
            if g.any():
                u, wu = _panelize(np.stack(cols, axis=-1)[g], _GL32_NODES, _GL32_WEIGHTS)
                blocks.append((np.flatnonzero(g), u, wu, None))
        moment = hcpp.zeta2(np.concatenate([b[1].ravel() for b in blocks]), self.scenario.hcpp)
        total, at = np.zeros((len(ps), r.size)), 0
        for radii, u, w, beta in blocks:
            w, at = w * u * moment[at : at + u.size].reshape(u.shape), at + u.size
            if beta is not None:  # the Jacobian of u = 2r cos(beta)
                w *= 2.0 * r[radii, None] * np.sin(beta)
            for j, i in enumerate(radii):
                angular = self._angular(u[j], float(r[i]), None if beta is None else beta[j], ps)
                total[:, i] += [float((w[j] * ang).sum()) for ang in angular]
        return total + [self._flat_tail(r, c, p) for p in ps]

    @cached_property
    def _flat_moment(self) -> float:
        """The second moment at u >= 2 delta, where union_area is exactly 2 pi delta^2."""
        return hcpp.zeta2(2.0 * self._hard_core, self.scenario.hcpp)

    def _flat_tail(self, r, c, p_exp: float) -> np.ndarray:
        """The plane integral over u > c for c >= max(2 delta, 2r), per radius with its c: there the
        whole circle is allowed and the second moment is ``_flat_moment``.  The circle average of
        dist^-p is u^-p 2F1(p/2, p/2; 1; (r/u)^2), summed term by term after the u integral; with
        x = (r/c)^2 <= 1/4 the series converges geometrically, each radius's to its own last term."""
        r, c = np.atleast_1d(r).tolist(), np.atleast_1d(c).tolist()
        x = np.array([(ri / ci) ** 2 for ri, ci in zip(r, c)])
        series, live, a, s, k = np.empty_like(x), np.arange(x.size), np.ones_like(x), np.zeros_like(x), 0
        while live.size:  # 64 terms at a time: running products and sums, each in the order of a loop
            ratio, divisor = _series_block(p_exp, k)
            a_k = np.cumprod(np.column_stack([a, ratio * x[live, None]]), axis=1)
            term = a_k[:, :-1] / divisor
            s_k = np.cumsum(np.column_stack([s, term]), axis=1)
            stop = ~(term > 1e-17 * s_k[:, :-1])
            done = stop.any(axis=1)
            series[live[done]] = s_k[done, stop[done].argmax(axis=1)]
            live, a, s, k = live[~done], a_k[~done, -1], s_k[~done, -1], k + 64
        return self._flat_moment * 2.0 * np.pi * np.array([ci ** (2.0 - p_exp) for ci in c]) * series

    # ---- metrics ---------------------------------------------------------

    def interference_base(self, r):
        """Average interference divided by M^2 (kept antenna-free so that the
        antenna count cancels bit-exactly in the noise-free SINR)."""
        base = self._base_of(self._radial_integral(r, (2.0 * self.scenario.radio.alpha,))[0])
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

    def rate_lower_bound(self, r, base):
        """Jensen lower bound of the mean achievable rate at serving distance
        ``r``, averaging log2(1 + SINR(omega)) over the shadowing distribution
        with the mean interference, ``base`` = ``interference_base(r)``, in the denominator."""
        r_arr = np.atleast_1d(np.asarray(r, float))
        c = self._sinr_ratio(r_arr, base, 1.0)
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
        r_sup = model.support_radius
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

    def bs_power(self, p_tx: float) -> float:
        """Linear station power model: amplifier draw plus RF chains plus static."""
        s = self.scenario
        if p_tx < 0:
            raise ParameterError("p_tx must be >= 0")
        return p_tx / s.radio.eta + s.radio.antennas_m * s.radio.p_rf_chain + s.radio.p_sta

    def energy_efficiency(self) -> float:
        """Area rate over area power; the active density cancels, leaving the
        per-cell sum rate over the per-station power draw."""
        return self.avg_cell_rate() / self.bs_power(self.avg_tx_power())

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
        if gamma_t not in self._radii:
            self._radii[gamma_t] = self.invert_sinr(gamma_t)
        return self._radii[gamma_t]

    def coverage_efficiency(self, rho: float) -> float:
        """P(mean-interference rate > ``rho``): the serving-distance CDF at ``coverage_radius``."""
        return min(float(self.nearest_model.cdf(self.coverage_radius(rho).r)), 1.0)

    def coverage_efficiency_traffic(self, marginalized: bool) -> float:
        """Coverage at the mean demand, or ``marginalized`` over the demand law by
        Fubini: F(R_GRID_LO) plus f(r) P(demand < rate(r)) integrated by the
        nearest law's ``rule`` from R_GRID_LO to r_1, rate(r_1) = rho_min, on
        panels quadrupling from R_GRID_LO, broken at r_1 and ``KINKS`` * delta."""
        t = self.scenario.traffic
        if not marginalized:
            return self.coverage_efficiency(t.mean())
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
