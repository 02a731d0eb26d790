"""Closed-form moments of the hard-core (Matern II) process.

First/second product densities, the geometric kernels they depend on, and
the nearest-active-station distance PDF with its normalization root-solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NormalizationFitError, ParameterError
from .quadrature import _GL32_NODES, _GL32_WEIGHTS, _panelize, regula_falsi

SUPPORT_TAIL = 1e-9  # the nearest laws' mass beyond their ``support_radius``


@dataclass(frozen=True)
class HcppParams:
    """Parent intensity and hard-core distance of the thinned process."""

    lambda_b: float  # parent PPP intensity, m^-2
    delta: float  # minimum distance between retained points, m

    def __post_init__(self) -> None:
        if not self.lambda_b > 0:
            raise ParameterError(f"lambda_b must be > 0, got {self.lambda_b}")
        if not self.delta >= 0:
            raise ParameterError(f"delta must be >= 0, got {self.delta}")


def zeta1(p: HcppParams) -> float:
    """Retained (active) density: (1 - exp(-lambda_b*pi*delta^2)) / (pi*delta^2).

    The delta -> 0 limit is the parent intensity itself.
    """
    a = np.pi * p.delta**2
    x = p.lambda_b * a
    if x < 1e-8:
        # series of (1 - e^-x)/x to avoid 0/0
        return p.lambda_b * (1.0 - x / 2.0 + x**2 / 6.0)
    return float(-np.expm1(-x) / a)


def union_area(r, delta: float):
    """Area of the union of two delta-disks whose centers are ``r`` apart."""
    if delta <= 0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    r = np.asarray(r, float)
    if np.any(r < 0):
        raise ParameterError("r must be >= 0")
    rc = np.minimum(r, 2.0 * delta)
    v = (
        2.0 * np.pi * delta**2
        - 2.0 * delta**2 * np.arccos(rc / (2.0 * delta))
        + rc * np.sqrt(np.maximum(delta**2 - rc**2 / 4.0, 0.0))
    )
    out = np.where(r >= 2.0 * delta, 2.0 * np.pi * delta**2, v)
    return out if out.ndim else float(out)


def zeta2(r, p: HcppParams):
    """Second-order product density of the thinned process (m^-4) for a hard core
    delta > 0: lambda_b^2 times the density factor that two parent points ``r``
    apart both survive the thinning.  Zero inside the hard core."""
    r = np.asarray(r, float)
    a = np.pi * p.delta**2
    v = np.asarray(union_area(r, p.delta), float)
    lam = p.lambda_b
    with np.errstate(divide="ignore", invalid="ignore"):
        num = 2.0 * v * -np.expm1(-lam * a) - 2.0 * a * -np.expm1(-lam * v)
        den = lam**2 * a * v * (v - a)
        val = num / den
    out = lam**2 * np.where(r > p.delta, val, 0.0)
    return out if out.ndim else float(out)


def excluded_area(r, delta: float):
    """Area term governing the nearest-active-station distance model.

    Zero for r <= delta/2, continuous and nondecreasing beyond.
    """
    if delta <= 0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    r = np.asarray(r, float)
    if np.any(r < 0):
        raise ParameterError("r must be >= 0")
    with np.errstate(invalid="ignore"):
        x = np.clip(delta / (2.0 * np.where(r > 0, r, 1.0)), 0.0, 1.0)
        m = (
            np.pi * r**2
            - (2.0 * np.arcsin(x) + np.arccos(x)) * r**2
            + delta * np.sqrt(np.maximum(r**2 - delta**2 / 4.0, 0.0))
        )
    out = np.where(r > delta / 2.0, m, 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NearestPdfModel:
    """Fitted nearest-active-station distance PDF for the hard-core process,
    delta > 0 (without a hard core the contact law is ``RayleighNearestModel``).

    ``lambda_star_fit`` is the normalization constant making the PDF proper;
    it is distinct from the active density zeta1 (both are reported).
    """

    params: HcppParams
    lambda_star_fit: float

    def __post_init__(self) -> None:
        if not self.params.delta > 0:
            raise ParameterError(f"delta must be > 0, got {self.params.delta}")

    @property
    def prefactor(self) -> float:
        p = self.params
        return 2.0 * -np.expm1(-p.lambda_b * np.pi * p.delta**2) / p.delta**2

    def pdf(self, r):
        r = np.asarray(r, float)
        area = np.asarray(excluded_area(r, self.params.delta), float)
        out = self.prefactor * r * np.exp(-self.lambda_star_fit * area)
        return out if out.ndim else float(out)

    def rule(self, edges):
        """Nodes and weight * pdf of 32-node Gauss-Legendre panels on ascending
        ``edges`` (with delta/2 if they straddle it): in r up to delta/2, where
        the PDF is linear, and in t = sqrt(r - delta/2), where it is analytic, beyond."""
        h, edges = self.params.delta / 2.0, np.asarray(edges, float)
        r, w = _panelize(edges[edges <= h], _GL32_NODES, _GL32_WEIGHTS)
        t, v = _panelize(np.sqrt(edges[edges >= h] - h), _GL32_NODES, _GL32_WEIGHTS)
        r, w = np.concatenate([r, h + t * t]), np.concatenate([w, 2.0 * t * v])
        return r, w * self.pdf(r)

    def cdf(self, r: float) -> float:
        """Mass on [0, r]: closed form to delta/2, then ``rule`` on t-panels of at most
        two decay lengths (lambda* pi t^4 / 2 = 1); within 1e-14 of a 30-digit oracle."""
        h = self.params.delta / 2.0
        if r <= h:
            return 0.5 * self.prefactor * r * r
        t_hi = np.sqrt(r - h)
        n = max(4, int(np.ceil(0.5 * t_hi * (self.lambda_star_fit * np.pi / 2.0) ** 0.25)))
        _, wf = self.rule(h + np.linspace(0.0, t_hi, n + 1) ** 2)
        return float(0.5 * self.prefactor * h * h + wf.sum())

    @cached_property
    def support_radius(self) -> float:
        """Radius beyond which the remaining PDF mass is at most ``SUPPORT_TAIL``."""
        r = self.params.delta
        while r <= 1e7 and 1.0 - self.cdf(r) > SUPPORT_TAIL:
            r *= 1.5
        return r


def _pdf_integral(p: HcppParams, lam_star: float) -> float:
    """Total mass of the nearest-distance PDF for a trial normalization constant."""
    # integrand decays like exp(-lam* pi r^2 / 2); truncate where negligible
    r_hi = max(np.sqrt(80.0 / (lam_star * np.pi / 2.0)), 4.0 * p.delta + 1.0)
    return NearestPdfModel(p, lam_star).cdf(r_hi)


def fit_lambda_star(p: HcppParams) -> float:
    """Normalization constant of the nearest-distance PDF: the root of
    log(total mass) in log(constant), by bracketed regula falsi.  The mass
    is strictly decreasing in the constant, close to a power law, so the
    bracket is guaranteed to work whenever it straddles the root."""
    lo, hi = 1e-12, 10.0 * p.lambda_b
    f_lo = _pdf_integral(p, lo) - 1.0
    f_hi = _pdf_integral(p, hi) - 1.0
    if not (f_lo > 0 > f_hi):
        raise NormalizationFitError(
            f"root not bracketed in [{lo:g}, {hi:g}]: N(lo)={f_lo:g}, N(hi)={f_hi:g} "
            f"for lambda_b={p.lambda_b:g}, delta={p.delta:g}"
        )

    def log_mass(x):
        return np.log(_pdf_integral(p, float(np.exp(x))))

    x, _ = regula_falsi(log_mass, np.log(lo), np.log(hi), np.log1p(f_lo), np.log1p(f_hi), 1e-15)
    root = float(np.exp(x))
    if abs(_pdf_integral(p, root) - 1.0) > 1e-9:
        raise NormalizationFitError("converged root misses tolerance 1e-09")
    return root


def fit_nearest_model(p: HcppParams) -> NearestPdfModel:
    return NearestPdfModel(p, fit_lambda_star(p))


@dataclass(frozen=True)
class RayleighNearestModel:
    """Rayleigh contact law 2 pi lambda r exp(-lambda pi r^2) of a Poisson set."""

    intensity: float

    def __post_init__(self) -> None:
        if not self.intensity > 0:
            raise ParameterError(f"intensity must be > 0, got {self.intensity}")

    def pdf(self, r):
        r = np.asarray(r, float)
        out = 2.0 * np.pi * self.intensity * r * np.exp(-self.intensity * np.pi * r**2)
        return out if out.ndim else float(out)

    def rule(self, edges):
        """Nodes and weight * pdf of 32-node Gauss-Legendre panels between ``edges``."""
        r, w = _panelize(edges, _GL32_NODES, _GL32_WEIGHTS)
        return r, w * self.pdf(r)

    def cdf(self, r: float) -> float:
        return float(-np.expm1(-self.intensity * np.pi * r**2))

    @cached_property
    def support_radius(self) -> float:
        return float(np.sqrt(-np.log(SUPPORT_TAIL) / (self.intensity * np.pi)))
