"""Model identification: from a fuzzy partition to a full TS model.

Premise parameters come from membership-weighted statistics of the input
columns; consequents come from a single least-squares problem whose
regressor row for sample k concatenates, over rules i, the normalised truth
value times [1, x_k].  The solve uses an orthogonal-triangular factorisation
with column pivoting (no explicit normal-equation inversion), which stays
well-behaved on rank-deficient systems and returns the minimum-norm
solution of the column-equilibrated system.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .atomicio import write_csv
from .clustering import (NumericalError, ClusterConfig, _as_data, _membership_mass,
                         _minmax_normalise, run_clustering)
from .core import TsModel, normalized_truth, predict_batch
from .dataio import DataValidationError
from .evalmetrics import MetricSet, metric_set
from .validity import sweep_clusters


def premise_means(z: np.ndarray, u: np.ndarray, m: float) -> np.ndarray:
    """(C, n) weighted means of the input columns (output column excluded)."""
    um = u**m
    return (um @ z[:, :-1]) / _membership_mass(um)[:, None]


def premise_widths(z: np.ndarray, u: np.ndarray, m: float, means: np.ndarray) -> np.ndarray:
    """(C, n) premise widths sqrt(2 * weighted variance).

    The factor 2 under the radical pairs with the membership function in
    :mod:`fuzzyrunoff.core`, which has no factor 2 in its exponent
    denominator.  Zero-spread clusters are clamped to 1e-6 of the column
    range (1e-6 absolute for constant columns) so widths stay positive.
    """
    um = u**m
    mass = um.sum(axis=1)
    x = z[:, :-1]
    var = np.empty_like(means)
    for i in range(means.shape[0]):
        var[i] = (um[i][:, None] * (x - means[i]) ** 2).sum(axis=0) / mass[i]
    sigma = np.sqrt(2.0 * var)
    col_range = x.max(axis=0) - x.min(axis=0)
    floor = np.where(col_range > 0, 1e-6 * col_range, 1e-6)
    return np.maximum(sigma, floor)


def build_regressors(X, truth) -> np.ndarray:
    """(N, C*(n+1)) regressor matrix shared by all rules.

    Row k is the concatenation over rules i of truth_ik * [1, x_k1 .. x_kn].
    """
    X = np.asarray(X, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if X.ndim != 2 or truth.ndim != 2 or X.shape[0] != truth.shape[0]:
        raise ValueError(
            f"shape mismatch: X {X.shape} vs truth {truth.shape}"
        )
    ones = np.ones((X.shape[0], 1))
    x1 = np.hstack([ones, X])
    return (truth[:, :, None] * x1[:, None, :]).reshape(X.shape[0], -1)


# Identifiability fallback used when fitting consequents from clustered
# data.  A rule whose firing region holds an input nearly constant yields a
# regressor direction with almost no independent variation; the exact
# least-squares solution then contains huge cancelling coefficient pairs
# that explode off the training data.  Fitting first solves at the exact
# numerical rank and only refits with this coarser cutoff when the
# equilibrated coefficients exceed COEFFICIENT_BLOWUP times the output
# scale - a genuinely identified system keeps its exact solution.
CONSEQUENT_COND = 1e-2
COEFFICIENT_BLOWUP = 1e4


def solve_consequents(pi, y, cond: float = 1e-10):
    """Minimum-norm least squares; returns (zeta, residual norm).

    Solved through a complete orthogonal factorisation (QR with column
    pivoting), never by inverting the normal equations, so rank-deficient
    regressor matrices are fine.  Columns are equilibrated to unit norm
    first; ``cond`` is the relative cutoff deciding the numerical rank.
    The 1e-10 default leaves any honestly identifiable direction alone;
    model fitting passes the larger CONSEQUENT_COND.  On an exactly
    rank-deficient system the residual is that of ``pinv(pi) @ y``, but
    the coefficients are minimum-norm in the equilibrated columns, so they
    equal the pseudo-inverse ones only where the dependent columns have
    equal norms (not for ``[b0, b1, 2 * b0]``).  An identically zero
    regressor matrix raises NumericalError.
    """
    pi = np.asarray(pi, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if pi.ndim != 2 or pi.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: pi {pi.shape} vs y {y.shape}")
    if not np.any(pi):
        raise NumericalError("regressor matrix is identically zero")
    norms = np.linalg.norm(pi, axis=0)
    # a column that is numerical dust relative to the matrix gets a zero
    # coefficient; equilibrating it instead would amplify noise by 1/norm
    live = norms > 1e-10 * norms.max()
    scale = np.where(live, norms, 1.0)
    solution, _, _, _ = scipy.linalg.lstsq(pi[:, live] / scale[live], y,
                                           cond=cond, lapack_driver="gelsy")
    zeta = np.zeros(pi.shape[1])
    zeta[live] = solution / scale[live]
    residual = y - pi @ zeta
    return zeta, float(np.linalg.norm(residual))


@dataclass
class FitReport:
    """What happened during one fit_model call."""

    algorithm: str
    n_rules: int
    m: float
    seed: int
    converged: bool
    n_iterations: int
    residual_norm: float
    train: MetricSet
    consensus_c: int | None = None  # set when the rule count came from a sweep

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["algorithm", "n_rules", "m", "seed", "converged", "n_iterations",
             "residual_norm", "train_rmse", "train_ve", "train_ce", "train_r",
             "consensus_c"],
            [[self.algorithm, self.n_rules, repr(self.m), self.seed,
              int(self.converged), self.n_iterations, repr(self.residual_norm),
              repr(self.train.rmse), repr(self.train.ve), repr(self.train.ce),
              repr(self.train.r), "" if self.consensus_c is None else self.consensus_c]],
        )


def _solve_stable(pi, y):
    """Exact least squares unless its coefficients are cancelling blow-ups."""
    zeta, residual_norm = solve_consequents(pi, y)
    norms = np.linalg.norm(pi, axis=0)
    scale = max(float(np.linalg.norm(y)), 1e-12)
    if float(np.max(np.abs(zeta) * norms)) > COEFFICIENT_BLOWUP * scale:
        zeta, residual_norm = solve_consequents(pi, y, cond=CONSEQUENT_COND)
    return zeta, residual_norm


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ValueError, NumericalError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _partition(z: np.ndarray, cfg: ClusterConfig, partitions):
    """(u, trace) of run_clustering on ``z``; sc's is looked up in the dict
    ``partitions`` if given (see fit_model) and clustered only if missing."""
    if partitions is None or cfg.algorithm != "sc" or not z.size:
        u, _, trace = run_clustering(z, cfg)
        return u, trace
    scaled = _minmax_normalise(z)
    key = (repr(cfg), scaled.shape, scaled.tobytes())
    if key not in partitions:
        u, _, trace = run_clustering(z, cfg)
        partitions[key] = u, trace
    return partitions[key]


def fit_model(data, cfg: ClusterConfig, c_range=None, partitions=None):
    """Full identification pipeline on a joined (N, n+1) data matrix.

    Clustering -> premise parameters -> normalised truth values -> global
    regressors -> least-squares consequents.  When ``c_range`` is given the
    rule count is chosen first by the validity-index consensus over that
    range (gk/fcm only) and the sweep's partition of that C is used;
    otherwise cfg.n_clusters is used as-is.

    ``partitions``, a dict a caller passes to several fits, lets sc fits
    share one clustering: sc's memberships depend only on cfg and the rows
    min-max normalised, so fits whose rows normalise to the same bits (a set
    and its own normalised copy) reuse the first one's, kept in the dict
    under cfg and those bits, and get the models they would get alone, bit
    for bit.  gk and fcm are not scale-invariant bit for bit; they ignore it.

    Returns (TsModel, FitReport).
    """
    z = _as_data(data)
    n = z.shape[1] - 1
    if n < 1:
        raise ValueError("joined data needs at least one input column")
    X, y = z[:, :n], z[:, n]
    if y.size and np.all(y == y[0]):
        raise DataValidationError(f"output column is constant ({float(y[0])!r}); there is nothing to fit")
    consensus = None
    if c_range is None:
        with _stage("clustering"):
            u, trace = _partition(z, cfg, partitions)
    else:  # the sweep refuses sc, and it has already clustered the consensus C
        with _stage("rule-count sweep"):
            sweep = sweep_clusters(z, cfg, c_range)
        consensus = sweep.consensus
        u, _, trace = sweep.partition
    with _stage("premise estimation"):
        means = premise_means(z, u, cfg.m)
        widths = premise_widths(z, u, cfg.m, means)
    c = means.shape[0]
    shell = TsModel(means, widths, np.zeros((c, n + 1)))
    with _stage("consequent estimation"):
        truth = normalized_truth(shell, X)
        pi = build_regressors(X, truth)
        zeta, residual_norm = _solve_stable(pi, y)
    model = replace(shell, consequents=zeta.reshape(c, n + 1))
    yhat = predict_batch(model, X)
    report = FitReport(
        algorithm=cfg.algorithm,
        n_rules=c,
        m=cfg.m,
        seed=cfg.seed,
        converged=trace.converged,
        n_iterations=trace.n_iterations,
        residual_norm=residual_norm,
        train=metric_set(y, yhat),
        consensus_c=consensus,
    )
    return model, report
