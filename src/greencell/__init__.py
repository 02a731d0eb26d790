"""Energy and coverage efficiency of base-station switch-off strategies in
massive-MIMO small-cell networks: closed-form point-process analytics
cross-validated against Monte Carlo simulation."""

from .analytics import AnalyticEngine, Scenario
from .channel import RadioParams, ShadowingModel, TrafficModel
from .config import RunConfig, parse_config, serialize_config, to_scenario, to_window
from .errors import (
    InterferenceDivergenceError,
    MonotonicityError,
    NormalizationFitError,
    ParameterError,
)
from .geometry import Window
from .hcpp import HcppParams, NearestPdfModel, fit_nearest_model, zeta1, zeta2

__all__ = [
    "AnalyticEngine",
    "HcppParams",
    "InterferenceDivergenceError",
    "MonotonicityError",
    "NearestPdfModel",
    "NormalizationFitError",
    "ParameterError",
    "RadioParams",
    "RunConfig",
    "Scenario",
    "ShadowingModel",
    "TrafficModel",
    "Window",
    "fit_nearest_model",
    "parse_config",
    "serialize_config",
    "to_scenario",
    "to_window",
    "zeta1",
    "zeta2",
]

__version__ = "0.1.0"
