"""Performance criteria for observed vs. predicted series.

Four measures: root mean square error, coefficient of efficiency (the
Nash-Sutcliffe skill score: 1 for a perfect model, 0 when the model is no
better than predicting the observed mean), signed volumetric error in
percent, and the Pearson correlation coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricSet:
    rmse: float
    ce: float
    ve: float
    r: float


def _pair(y, yhat):
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("empty series")
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    return y, yhat


def rmse(y, yhat) -> float:
    """sqrt(mean squared error); lower is better.  Public on its own for
    callers that need only the error, such as the benchmark workloads and
    the acceptance tests; the other criteria come from :func:`metric_set`."""
    y, yhat = _pair(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def metric_set(y, yhat) -> MetricSet:
    """All four criteria for one observed/predicted pair, from one check of
    the pair and one residual.

    CE is 1 - F/F0, with F the residual sum of squares and F0 the sum of
    squares of the observed series about its own mean; VE is
    (sum(y) - sum(yhat)) / sum(y) * 100; r is the Pearson correlation.
    Raises ValueError for an empty or mismatched pair, then for a constant
    observed series or one whose spread F0 underflows to 0, then for one
    that sums to zero, then for a constant prediction or one whose spread
    is 0.  Equal values are refused as constant even where their mean
    rounds to a nonzero spread.
    """
    y, yhat = _pair(y, yhat)
    f, dy = float(np.sum((y - yhat) ** 2)), y - y.mean()
    f0 = float(np.sum(dy**2))
    if np.all(y == y[0]):
        raise ValueError(f"observed series is constant ({float(y[0])!r}); "
                         "there is nothing to score")
    if f0 == 0.0:
        raise ValueError("observed series has zero variance (F0 = 0)")
    total = float(np.sum(y))
    if total == 0.0:
        raise ValueError("observed series sums to zero")
    dp = yhat - yhat.mean()
    sp = float(np.sqrt(np.sum(dp**2)))
    if sp == 0.0 or np.all(yhat == yhat[0]):
        raise ValueError("zero variance in one of the series")
    return MetricSet(rmse=float(np.sqrt(f / y.size)), ce=1.0 - f / f0,
                     ve=(total - float(np.sum(yhat))) / total * 100.0,
                     r=float(np.sum(dy * dp)) / (float(np.sqrt(f0)) * sp))
