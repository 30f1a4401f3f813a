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
    """sqrt(mean squared error); lower is better."""
    y, yhat = _pair(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def ce(y, yhat) -> float:
    """Coefficient of efficiency 1 - F/F0.

    F is the residual sum of squares, F0 the sum of squares of the observed
    series about its own mean.
    """
    y, yhat = _pair(y, yhat)
    f0 = _f0(y - y.mean())
    return 1.0 - float(np.sum((y - yhat) ** 2)) / f0


def ve(y, yhat) -> float:
    """Signed volumetric error in percent: (sum(y) - sum(yhat)) / sum(y) * 100."""
    return _ve(*_pair(y, yhat))


def r(y, yhat) -> float:
    """Pearson correlation between the two series."""
    y, yhat = _pair(y, yhat)
    dy = y - y.mean()
    return _r(dy, float(np.sum(dy**2)), yhat)


def metric_set(y, yhat) -> MetricSet:
    """All four criteria for one observed/predicted pair, from one check of
    the pair and one residual; equal bit for bit to rmse, ce, ve and r, whose
    errors it raises in that order."""
    y, yhat = _pair(y, yhat)
    f, dy = float(np.sum((y - yhat) ** 2)), y - y.mean()
    f0 = _f0(dy)
    return MetricSet(rmse=float(np.sqrt(f / y.size)), ce=1.0 - f / f0,
                     ve=_ve(y, yhat), r=_r(dy, f0, yhat))


def _f0(dy) -> float:
    f0 = float(np.sum(dy**2))
    if f0 == 0.0:
        raise ValueError("observed series is constant (F0 = 0)")
    return f0


def _ve(y, yhat) -> float:
    total = float(np.sum(y))
    if total == 0.0:
        raise ValueError("observed series sums to zero")
    return (total - float(np.sum(yhat))) / total * 100.0


def _r(dy, f0, yhat) -> float:
    """r from the observed deviations ``dy`` and their sum of squares ``f0``."""
    dp = yhat - yhat.mean()
    sy = float(np.sqrt(f0))
    sp = float(np.sqrt(np.sum(dp**2)))
    if sy == 0.0 or sp == 0.0:
        raise ValueError("zero variance in one of the series")
    return float(np.sum(dy * dp)) / (sy * sp)
