"""Takagi-Sugeno fuzzy rainfall-runoff modeling.

Identify TS fuzzy models from input-output time series with
Gustafson-Kessel, fuzzy c-means, or subtractive clustering, pick the rule
count with cluster validity indices, and score multi-step-ahead forecasts
with hydrological error measures.
"""

from .clustering import (
    ClusterConfig,
    IterationTrace,
    NumericalError,
    run_clustering,
    run_fcm,
    run_gk,
    run_sc,
)
from .core import (
    TsModel,
    load_model,
    predict,
    predict_batch,
    save_model,
)
from .dataio import (
    DataValidationError,
    EventSeries,
    NormalizationRecord,
    StormParams,
    SupervisedSet,
    build_supervised,
    estimate_lag,
    load_event_csv,
    scheme_sets,
    synth_storm,
    write_event_csv,
)
from .evalmetrics import MetricSet, metric_set, rmse
from .identify import FitReport, fit_model
from .validity import ValidityReport, sweep_clusters

__version__ = "0.1.0"

__all__ = [
    "ClusterConfig",
    "DataValidationError",
    "EventSeries",
    "FitReport",
    "IterationTrace",
    "MetricSet",
    "NormalizationRecord",
    "NumericalError",
    "StormParams",
    "SupervisedSet",
    "TsModel",
    "ValidityReport",
    "build_supervised",
    "estimate_lag",
    "fit_model",
    "load_event_csv",
    "load_model",
    "metric_set",
    "predict",
    "predict_batch",
    "rmse",
    "run_clustering",
    "run_fcm",
    "run_gk",
    "run_sc",
    "save_model",
    "scheme_sets",
    "sweep_clusters",
    "synth_storm",
    "write_event_csv",
]
