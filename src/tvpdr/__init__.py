"""Time-varying-parameter distributional regression.

Estimates the full conditional distribution of an outcome (designed around
quarterly inflation) by stacking probit regressions across a threshold
grid, with random-walk coefficient paths sampled jointly through banded
precision algebra and an in-sampler ordering constraint that keeps the
implied CDF monotone draw by draw.

The names below are the workflow: data, fit, store, read, evaluate. The
sampler's building blocks stay in their modules (``tvpdr.banded``,
``tvpdr.samplers``, ``tvpdr.model``).
"""

from .data import AlignedDesign, MacroDataset, assemble_design, load_csv, load_schema
from .distribution import (
    ConditionalCdf,
    Quantile,
    ThresholdGrid,
    build_threshold_grid,
    cdf_derivative,
    cdf_interpolate,
    conditional_cdf,
    forecast_predictive,
    quantile_from_cdf,
)
from .evaluation import (
    BacktestPlan,
    BacktestRecord,
    BacktestResult,
    expanding_window_backtest,
    pit,
    pit_uniformity_band,
    quantile_score,
)
from .model import (
    EstimationError,
    ModelSpec,
    MonotonicityError,
    PosteriorDraws,
    hash_data,
    run_gibbs,
)
from .risk import (
    RiskReportRow,
    compare_distributions,
    deflation_risk,
    distribution_mean,
    excess_inflation_risk,
)
from .store import StoreError, draw_buffers, load_estimate, read_manifest, save_estimate

__version__ = "0.1.0"

__all__ = [
    "AlignedDesign",
    "BacktestPlan",
    "BacktestRecord",
    "BacktestResult",
    "ConditionalCdf",
    "EstimationError",
    "MacroDataset",
    "ModelSpec",
    "MonotonicityError",
    "PosteriorDraws",
    "Quantile",
    "RiskReportRow",
    "StoreError",
    "ThresholdGrid",
    "assemble_design",
    "build_threshold_grid",
    "cdf_derivative",
    "cdf_interpolate",
    "compare_distributions",
    "conditional_cdf",
    "deflation_risk",
    "distribution_mean",
    "draw_buffers",
    "excess_inflation_risk",
    "expanding_window_backtest",
    "hash_data",
    "load_csv",
    "load_estimate",
    "load_schema",
    "pit",
    "pit_uniformity_band",
    "quantile_from_cdf",
    "quantile_score",
    "read_manifest",
    "run_gibbs",
    "save_estimate",
    "__version__",
]
