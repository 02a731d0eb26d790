"""Large-scale channel model: lognormal shadowing, path loss, noise, traffic.

The shadowing dispersion admits two conventions.  ``paper-moments`` treats
the coefficient as exp(s) with s ~ N(0, sigma_s^2), so its first and second
moments are exp(sigma_s^2/2) and exp(2 sigma_s^2); this is the convention
the downstream rate and power formulas assume.  ``db-std`` reads sigma_s as
a dB standard deviation (coefficient 10^(s/10)), which is the physically
conventional reading.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

CONVENTIONS = ("paper-moments", "db-std")


@dataclass(frozen=True)
class ShadowingModel:
    sigma_s: float
    convention: str = "paper-moments"

    def __post_init__(self) -> None:
        if not self.sigma_s >= 0:
            raise ParameterError(f"sigma_s must be >= 0, got {self.sigma_s}")
        if self.convention not in CONVENTIONS:
            raise ParameterError(f"convention must be one of {CONVENTIONS}")

    @property
    def log_std(self) -> float:
        """Standard deviation of log(omega)."""
        if self.convention == "paper-moments":
            return self.sigma_s
        return self.sigma_s * np.log(10.0) / 10.0

    def moment(self, order: int) -> float:
        if order == 1:
            return float(np.exp(self.log_std**2 / 2.0))
        if order == 2:
            return float(np.exp(2.0 * self.log_std**2))
        raise ParameterError(f"order must be 1 or 2, got {order}")

    def sample_with(self, rng: np.random.Generator, size):
        z = rng.standard_normal(size)
        z *= self.log_std
        return np.exp(z, out=z)


@dataclass(frozen=True)
class RadioParams:
    """Transmit/pilot powers, array size, path loss and the BS power model."""

    p_f: float = 7.7  # signal power, W
    p_p: float = 0.13  # pilot power, W
    noise_power: float = 10 ** ((-174.0 - 30.0) / 10.0)  # W
    antennas_m: int = 128
    alpha: float = 4.0  # path loss exponent
    eta: float = 0.38  # amplifier efficiency
    p_rf_chain: float = 0.048  # W per antenna
    p_sta: float = 4.3  # W, static

    def __post_init__(self) -> None:
        for name in ("p_f", "p_p", "noise_power", "p_rf_chain", "p_sta"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if not 0 < self.eta <= 1:
            raise ParameterError(f"eta must be in (0, 1], got {self.eta}")
        if self.antennas_m < 1:
            raise ParameterError(f"antennas_m must be >= 1, got {self.antennas_m}")
        if not self.alpha > 1:
            raise ParameterError(f"alpha must be > 1, got {self.alpha}")


def noise_power_from_dbm(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class TrafficModel:
    """Heavy-tailed (Pareto) per-user traffic demand, in bits/s/Hz."""

    theta: float = 1.5
    rho_min: float = 1.0

    def __post_init__(self) -> None:
        if not self.theta > 1:
            raise ParameterError(
                f"theta must be > 1 for a finite mean, got {self.theta}"
            )
        if not self.rho_min > 0:
            raise ParameterError(f"rho_min must be > 0, got {self.rho_min}")

    def mean(self) -> float:
        return self.theta * self.rho_min / (self.theta - 1.0)

    def ccdf(self, x):
        return (self.rho_min / np.maximum(x, self.rho_min)) ** self.theta

    def sample_with(self, rng: np.random.Generator, size):
        # inverse CDF: rho_min * U**(-1/theta)
        u = rng.uniform(size=size)
        return self.rho_min * u ** (-1.0 / self.theta)
