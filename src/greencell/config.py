"""Plain key=value run configuration with Table-style defaults.

The key set is closed: unknown keys are rejected by name so that a typo
never silently falls back to a default.  Parsing and serialization round-trip
exactly (shortest decimal representation, '.' separator).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .analytics import STRATEGIES, Scenario
from .channel import CONVENTIONS, RadioParams, ShadowingModel, TrafficModel, noise_power_from_dbm
from .errors import ParameterError
from .geometry import Window
from .hcpp import HcppParams

TRAFFIC_MODES = ("at-mean", "marginalized", "sampled")
# the string keys and their allowed values
_CHOICES = {
    "strategy": STRATEGIES,
    "traffic_mode": TRAFFIC_MODES,
    "shadowing_convention": CONVENTIONS,
}


@dataclass(frozen=True)
class RunConfig:
    lambda_b: float = 1e-4  # BS density, m^-2
    delta_m: float = 200.0  # hard-core distance, m
    antennas_m: int = 128
    ues_per_cell_l: int = 5
    sigma_s: float = 6.0
    noise_dbm: float = -174.0
    alpha: float = 4.0
    p_f_w: float = 7.7
    p_p_w: float = 0.13
    eta: float = 0.38
    p_rf_chain_w: float = 0.048
    p_sta_w: float = 4.3
    theta: float = 1.5
    rho_min: float = 1.0
    window_m: float = 3000.0  # full width of the measurement square, m
    guard_m: float = 600.0
    realizations: int = 200
    seed: int = 1
    strategy: str = "matern"
    traffic_mode: str = "at-mean"
    shadowing_convention: str = "paper-moments"

    def __post_init__(self) -> None:
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ParameterError(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")
        if self.window_m <= 0 or self.guard_m < 0:
            raise ParameterError("window_m must be > 0 and guard_m >= 0")
        if self.realizations < 2:
            raise ParameterError("realizations must be >= 2")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")


_TYPES = get_type_hints(RunConfig)  # key -> int, float or str, as annotated


def parse_config_text(text: str) -> RunConfig:
    values = {}
    unknown = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _TYPES:
            unknown.append(key)
            continue
        if key in _CHOICES:
            values[key] = val
        else:
            try:
                values[key] = _TYPES[key](val)
            except ValueError as exc:
                raise ParameterError(f"line {lineno}: bad value for {key}: {val!r}") from exc
            if not math.isfinite(values[key]):
                raise ParameterError(f"line {lineno}: {key} must be finite, got {val!r}")
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name}={v!r}" if isinstance(v, float) else f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def to_scenario(cfg: RunConfig) -> Scenario:
    # ppp switches no station off: no hard core, one scenario at every delta_m
    return Scenario(
        hcpp=HcppParams(cfg.lambda_b, 0.0 if cfg.strategy == "ppp" else cfg.delta_m),
        radio=RadioParams(
            p_f=cfg.p_f_w,
            p_p=cfg.p_p_w,
            noise_power=noise_power_from_dbm(cfg.noise_dbm),
            antennas_m=cfg.antennas_m,
            alpha=cfg.alpha,
            eta=cfg.eta,
            p_rf_chain=cfg.p_rf_chain_w,
            p_sta=cfg.p_sta_w,
        ),
        shadowing=ShadowingModel(cfg.sigma_s, cfg.shadowing_convention),
        traffic=TrafficModel(cfg.theta, cfg.rho_min),
        ues_per_cell=cfg.ues_per_cell_l,
        strategy=cfg.strategy,
    )


def to_window(cfg: RunConfig) -> Window:
    return Window(cfg.window_m / 2.0, cfg.guard_m)
