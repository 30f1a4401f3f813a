"""Fuzzy clustering of the joined input-output space.

Three ways to produce a fuzzy partition matrix from an (N, d) data matrix
whose rows are joined input-output samples:

* ``run_gk``  - Gustafson-Kessel: alternating optimisation with a per-cluster
  norm-inducing matrix derived from the fuzzy covariance under a unit
  hyper-volume constraint, so clusters may be elliptical with any
  orientation.
* ``run_fcm`` - fuzzy c-means: the same loop with the norm fixed to the
  identity (hyper-spherical clusters), covariance update skipped.
* ``run_sc``  - subtractive clustering: density-peak selection on min-max
  normalised data; finds C itself instead of taking it as an input.

All three, and ``run_clustering``, which dispatches on the algorithm's
name, return (u, centers, trace).  Data, partition matrices and centers are
plain arrays: the data (N, d), the memberships (C, N), the centers (C, d).
Each entry point checks its data once (2-d, finite).

All three are deterministic for a fixed seed, and iteration traces
reproduce bit for bit.  Distances, GK's induced ones included, work on the
samples as contiguous (d, N) columns and sum the squared terms over the
coordinates one at a time, in order, starting from +0.0 (see
``_sq_euclidean``).  GK subtracts a center from those columns row by row,
one coordinate at a time, so no operand broadcasts along the short d axis.
GK's scatter works on the same columns: one GEMM per cluster adds the
samples' terms in the order OpenBLAS uses for those operand layouts, so
moving an operand to another layout changes the round-off, and the
bit-for-bit tests run with one BLAS thread (``OPENBLAS_NUM_THREADS=1``),
whose order is fixed.  Every other reduction uses numpy's fixed summation
order.

The alternating-optimisation loop takes u**m once per iteration (the
objective's weights are the next iteration's), the GK blend scale and the
(d, N) columns once per run, and reuses its scratch buffers across clusters.
The partition change and the objective are formed in the (C, N) arrays the
iteration is done with (the previous partition and the distances), not in
fresh ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Every algorithm name, and those given their rule count C by n_clusters
# (the others find their own and read neither n_clusters nor a C range).
ALGORITHMS = ("gk", "fcm", "sc")
TAKES_RULE_COUNT = ("gk", "fcm")


class NumericalError(RuntimeError):
    """Numerical failure inside a clustering or fitting stage."""


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs shared by the clustering algorithms.

    ``xi`` is the termination constant on the partition-matrix change
    (max absolute entry of U_l - U_{l-1}); ``gamma`` blends each fuzzy
    covariance toward a scaled identity so collinear clusters stay
    invertible (0 disables the blend).  The sc_* fields parametrise
    subtractive clustering on min-max normalised data.

    Frozen: a bad field is a ValueError when a config is built, by
    ``dataclasses.replace`` too, so the runners take every config as valid.
    """

    algorithm: str = "gk"
    n_clusters: int = 2
    m: float = 2.0
    xi: float = 0.001
    max_iter: int = 200
    seed: int = 0
    gamma: float = 1e-3
    sc_radius: float = 0.5
    sc_squash: float = 1.25
    sc_accept: float = 0.5
    sc_reject: float = 0.15

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 1 < self.m < np.inf:
            raise ValueError(f"fuzziness m must be > 1 and finite, got {self.m}")
        if not 0 < self.xi < np.inf:
            raise ValueError(f"termination constant xi must be > 0 and finite, got {self.xi}")
        if self.algorithm in TAKES_RULE_COUNT and self.n_clusters < 2:
            raise ValueError(f"need at least 2 clusters, got {self.n_clusters}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0 < self.sc_radius <= 1:
            raise ValueError(f"sc_radius must be in (0, 1], got {self.sc_radius}")
        if not 0 < self.sc_squash < np.inf:
            raise ValueError(f"sc_squash must be > 0 and finite, got {self.sc_squash}")
        # run_sc's exponents: a square that underflows to 0 or overflows, or
        # one so small that 4 over it overflows, leaves run_sc none
        for name, term, scale in (("sc_radius", "sc_radius", self.sc_radius),
                                  ("sc_squash", "(sc_squash * sc_radius)",
                                   self.sc_squash * self.sc_radius)):
            try:
                finite = math.isfinite(4.0 / float(scale) ** 2)
            except (ZeroDivisionError, OverflowError):
                finite = False
            if not finite:
                raise ValueError(f"{name} must leave 4 / {term}**2 finite, "
                                 f"got {getattr(self, name)}")
        if not 0 < self.sc_reject <= self.sc_accept <= 1:
            raise ValueError("need 0 < sc_reject <= sc_accept <= 1, got "
                             f"sc_reject={self.sc_reject}, sc_accept={self.sc_accept}")


@dataclass
class IterationTrace:
    """Per-iteration objective and partition change of one clustering run."""

    objective: list[float] = field(default_factory=list)
    delta_u: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def n_iterations(self) -> int:
        return len(self.objective)


def _as_data(data) -> np.ndarray:
    """The (N, d) float matrix of joined samples Z_k = [x_k1 .. x_kn, y_k];
    refuses any other shape and non-finite entries."""
    z = np.asarray(data, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"data matrix must be 2-d, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("data matrix contains non-finite entries")
    return z


def init_partition(n_samples: int, n_clusters: int, seed: int) -> np.ndarray:
    """Random column-stochastic (C, N) partition matrix, deterministic per seed."""
    if not 2 <= n_clusters < n_samples:
        raise ValueError(f"need 2 <= C < N, got C={n_clusters}, N={n_samples}")
    rng = np.random.default_rng(seed)
    u = rng.random((n_clusters, n_samples))
    u = np.maximum(u, 1e-12)  # keep entries strictly inside (0, 1)
    return u / u.sum(axis=0, keepdims=True)


def _membership_mass(um: np.ndarray) -> np.ndarray:
    """Row sums of mu^m; a cluster without any membership is refused."""
    mass = um.sum(axis=1)
    if (mass == 0).any():
        i = int(np.argmax(mass == 0))
        raise NumericalError(f"cluster {i} has zero membership mass")
    return mass


def update_centers(z: np.ndarray, um: np.ndarray) -> np.ndarray:
    """Membership-weighted means v_i = sum_k mu_ik^m Z_k / sum_k mu_ik^m from
    the (C, N) weights ``um`` = u**m."""
    return (um @ z) / _membership_mass(um)[:, None]


def scatter_matrices(z: np.ndarray, um: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Raw fuzzy covariance per cluster from the weights ``um`` = u**m,
    before any regularisation.

    Works on the samples as contiguous (d, N) columns; ``z`` given as the
    transpose of such columns, as ``_run_alternating`` passes it, is not
    copied.  Per cluster the center is subtracted into one (d, N) buffer,
    row by row (each coordinate from its contiguous column), weighted by
    ``um[i]`` into a second, and one GEMM ``weighted @ diff.T`` sums over
    the samples in the order OpenBLAS uses for those operand layouts.
    Another layout of the same operands gives another order, so it moves
    the result by round-off.
    """
    mass = _membership_mass(um)
    cols = np.ascontiguousarray(z.T)
    c, d = centers.shape
    out = np.empty((c, d, d))
    diff = np.empty(cols.shape)
    weighted = np.empty(cols.shape)
    for i, v in enumerate(centers):
        for j in range(d):
            np.subtract(cols[j], v[j], out=diff[j])
        np.multiply(diff, um[i], out=weighted)
        np.matmul(weighted, diff.T, out=out[i])
        out[i] /= mass[i]
    return out


def blend_scale(z: np.ndarray) -> float:
    """det(F_all)^(1/d) of the total scatter F_all of the data: the scale of
    the identity that ``update_covariances`` blends toward.  Falls back to
    1.0 when that determinant is not positive (only for fully degenerate
    data)."""
    d = z.shape[1]
    diff = z - z.mean(axis=0)
    f_all = (diff.T @ diff) / z.shape[0]
    # a singular total scatter can have a determinant that rounds below
    # zero, whose fractional power would be complex
    det = float(np.linalg.det(f_all)) if d > 0 else 0.0
    return det ** (1.0 / d) if det > 0 else 1.0


def update_covariances(scatter: np.ndarray, gamma: float,
                       scale: float | None) -> np.ndarray:
    """Fuzzy covariances blended toward a scaled identity.

    F_i <- (1-gamma) F_i + gamma * scale * I for the raw ``scatter`` F_i,
    with ``scale`` = ``blend_scale(z)``, which does not change between
    iterations (unused when gamma is 0, a ValueError when missing for a
    blend).  Raises if a blended matrix is still numerically singular
    (smallest eigenvalue <= 1e-12 * trace).
    """
    covs = scatter
    if gamma > 0:
        if scale is None:
            raise ValueError(f"a blend with gamma = {gamma} needs scale = blend_scale(z), "
                             "got None")
        d = scatter.shape[-1]
        covs = np.multiply(1.0 - gamma, scatter, order="C")  # so reshape is a view
        covs.reshape(len(covs), d * d)[:, ::d + 1] += gamma * scale  # the diagonals
    smallest = np.linalg.eigvalsh(covs)[:, 0]
    singular = smallest <= 1e-12 * np.trace(covs, axis1=1, axis2=2)
    if singular.any():
        i = int(np.argmax(singular))
        raise NumericalError(f"covariance of cluster {i} is singular after regularisation")
    return covs


def norm_matrices(covariances: np.ndarray) -> np.ndarray:
    """Norm-inducing matrices det(F_i)^(1/d) * F_i^{-1}, with d the dimension
    of the clustering space, so each has unit determinant."""
    covariances = np.asarray(covariances, dtype=float)
    d = covariances.shape[-1]
    det = np.linalg.det(covariances)
    nonpositive = det <= 0
    if nonpositive.any():
        i = int(np.argmax(nonpositive))
        raise NumericalError(f"covariance of cluster {i} is not positive definite")
    return (det ** (1.0 / d))[:, None, None] * np.linalg.inv(covariances)


def _sq_euclidean(cols: np.ndarray, points: np.ndarray, out: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from each of the (k, d) ``points`` to every
    sample, written into the (k, N) ``out``; ``cols`` holds the samples as
    contiguous columns (d, N), ``tmp`` is scratch of the shape of ``out``.

    The first coordinate's square is written into ``out`` and the others are
    added to it one at a time in column order.  A square is never -0.0, so
    this equals adding every term to a zeroed ``out``, numpy's order for an
    axis of fewer than 8 elements: for d <= 7 it equals
    ``(diff ** 2).sum(axis=-1)`` bit for bit; for d >= 8 numpy sums pairwise
    and the two can differ by round-off.  With no coordinates every
    distance is 0.
    """
    if not len(cols):
        out.fill(0.0)
    for j, col in enumerate(cols):
        term = tmp if j else out
        np.subtract(points[:, j, None], col[None, :], out=term)
        np.square(term, out=term)
        if j:
            out += tmp
    return out


def _squared_distances(z: np.ndarray, centers: np.ndarray, norms=None) -> np.ndarray:
    """(C, N) matrix of squared induced distances; ``norms=None`` is the
    Euclidean norm, computed by ``_sq_euclidean``.

    Per cluster the center is subtracted from the samples' contiguous
    columns row by row, the (d, N) terms (A^T diff) * diff are formed in
    place, and one reduce adds their rows into the output row in order,
    starting from +0.0: the summation order of ``_sq_euclidean``.
    """
    cols = np.ascontiguousarray(z.T)
    shape = (centers.shape[0], z.shape[0])
    if norms is None:
        return _sq_euclidean(cols, centers, np.empty(shape), np.empty(shape))
    out = np.empty(shape)
    diff = np.empty(cols.shape)
    terms = np.empty(cols.shape)
    for i, v in enumerate(centers):
        for j in range(len(cols)):
            np.subtract(cols[j], v[j], out=diff[j])
        np.matmul(norms[i].T, diff, out=terms)
        terms *= diff
        np.add.reduce(terms, axis=0, out=out[i], initial=0.0)
    # tiny negatives from round-off would break the power update
    np.maximum(out, 0.0, out=out)
    return out


def update_memberships(distances, m: float) -> np.ndarray:
    """(C, N) membership update mu_ik = 1 / sum_q (G_ik^2 / G_qk^2)^(1/(m-1)).

    Columns with one or more exactly-zero distances put all membership on
    those clusters (split equally) and zero elsewhere.  The result is
    formed in one new (C, N) array; ``distances`` is left unchanged.
    """
    d2 = np.asarray(distances, dtype=float)
    if (d2 < 0).any():
        raise ValueError("squared distances must be non-negative")
    p = 1.0 / (m - 1.0)
    # Scale each column by its min distance: ratios >= 1, no overflow.
    dmin = d2.min(axis=0)
    hit = np.flatnonzero(dmin == 0.0)  # the columns holding an exact zero
    if hit.size:
        dmin[hit] = 1.0
    u = d2 / dmin
    if hit.size:
        u[:, hit] = 1.0  # placeholder; these columns are rewritten below
    u **= -p
    u /= u.sum(axis=0)
    if hit.size:
        zero = d2[:, hit] == 0.0
        u[:, hit] = zero / zero.sum(axis=0)
    return u


def _objective(um: np.ndarray, d2: np.ndarray) -> float:
    """J = sum_ik mu_ik^m d2_ik from the weights ``um`` = u**m; the products
    are written into ``d2``, which the caller no longer needs."""
    return float(np.multiply(um, d2, out=d2).sum())


def run_gk(data, cfg: ClusterConfig):
    """Gustafson-Kessel alternating optimisation.

    Loops centers -> covariances -> induced distances -> memberships until
    the max absolute change of the partition matrix is <= cfg.xi or
    cfg.max_iter is hit (then the trace is returned non-converged; no
    error).  Returns (u, centers, trace): the (C, N) partition matrix, the
    (C, d) centers it was computed from and the IterationTrace.
    """
    return _run_alternating(data, cfg, adaptive_norm=True)


def run_fcm(data, cfg: ClusterConfig):
    """Fuzzy c-means: the same loop with the identity norm (spherical)."""
    return _run_alternating(data, cfg, adaptive_norm=False)


def _run_alternating(data, cfg: ClusterConfig, adaptive_norm: bool):
    z = _as_data(data)
    u = init_partition(z.shape[0], cfg.n_clusters, cfg.seed)
    um = u**cfg.m
    scale = blend_scale(z) if adaptive_norm and cfg.gamma > 0 else None
    cols = np.ascontiguousarray(z.T)
    norms = None
    trace = IterationTrace()
    centers = None
    for _ in range(cfg.max_iter):
        centers = update_centers(z, um)
        if adaptive_norm:
            scatter = scatter_matrices(cols.T, um, centers)  # takes cols, no copy
            covs = update_covariances(scatter, cfg.gamma, scale)
            norms = norm_matrices(covs)
        d2 = _squared_distances(cols.T, centers, norms)  # takes cols, no copy
        u_new = update_memberships(d2, cfg.m)
        um = u_new**cfg.m  # the objective's weights and the next iteration's
        delta = float(np.abs(np.subtract(u_new, u, out=u), out=u).max())
        trace.objective.append(_objective(um, d2))
        trace.delta_u.append(delta)
        u = u_new
        if delta <= cfg.xi:
            trace.converged = True
            break
    _membership_mass(um)  # the last update may have emptied a cluster
    return u, centers, trace


# ---------------------------------------------------------------------------
# Subtractive clustering
# ---------------------------------------------------------------------------


def _minmax_normalise(z: np.ndarray):
    lo = z.min(axis=0)
    span = z.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return (z - lo) / span


# Byte budget of the two (rows, N) buffers run_sc computes potentials in.
_SC_BLOCK_BYTES = 2**20


def run_sc(data, cfg: ClusterConfig):
    """Subtractive clustering: density-peak center selection.

    Potentials P_k = sum_j exp(-4 |Z_k - Z_j|^2 / r_a^2) are computed on
    min-max normalised data.  Each pass of the center search accepts the
    eligible point of highest potential (ties pick the lowest row index)
    and subtracts its squash-scaled potential everywhere, or stops if there
    is none.  Eligible is a potential above the accept ratio of the first
    peak, or one in the gray zone down to the reject ratio whose distance
    to the nearest center (infinite before the first) over r_a plus its
    potential over the first peak is >= 1.  Both only fall, so a point
    refused once stays refused, as in the classic search that sets each
    refused candidate aside.
    Returns (u, centers, trace): the (C, N)
    memberships of the normalised squared distances to the C accepted
    peaks, the (C, d) centers in original coordinates and an empty,
    converged IterationTrace.

    Only the centers read ``data`` itself; the memberships depend on the
    min-max normalised rows alone (and ``cfg``).  A data set and its own
    min-max normalised copy normalise to the same bits: the copy's column
    minima are 0.0 and its maxima (max - min) / (max - min) = 1.0 exactly,
    and (v - 0.0) / 1.0 is v.  So both get the same memberships bit for bit,
    which lets ``identify.fit_model`` cluster such a pair once.

    The potentials are computed over blocks of rows in two (rows, N)
    buffers, as many rows as keep both within ``_SC_BLOCK_BYTES`` (at least
    one row); the squared distances accumulate one coordinate column at a
    time, and the exponentials are taken in place.  Only the distance rows
    of the accepted centers are kept, so memory is O(budget + d * N + k * N)
    for k centers, never O(N^2).  Every distance, the centers' rows
    included, comes from ``_sq_euclidean``, so the result does not depend
    on the block.
    """
    z = _as_data(data)
    n = z.shape[0]
    if n == 0:
        raise ValueError("empty data matrix")
    zn = _minmax_normalise(z)
    cols = np.ascontiguousarray(zn.T)
    ra = cfg.sc_radius
    alpha = 4.0 / ra**2
    beta = 4.0 / (cfg.sc_squash * ra) ** 2
    block = max(1, min(n, _SC_BLOCK_BYTES // (2 * 8 * n)))
    out, tmp = np.empty((block, n)), np.empty((block, n))
    potential = np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        size = stop - start
        e = _sq_euclidean(cols, zn[start:stop], out[:size], tmp[:size])
        # an exponent past the float range is -inf, whose exp is the limit 0
        with np.errstate(over="ignore"):
            e *= -alpha
        np.exp(e, out=e)
        potential[start:stop] = e.sum(axis=1)

    first_peak = float(potential.max())
    nearest = np.full(n, np.inf)  # squared distance to the nearest center
    accepted, center_rows = [], []  # the centers' row indices, their distances
    while True:
        eligible = (potential >= cfg.sc_reject * first_peak) & (
            (potential > cfg.sc_accept * first_peak)
            | (np.sqrt(nearest) / ra + potential / first_peak >= 1.0))
        if not eligible.any():
            break
        idx = int(np.where(eligible, potential, -np.inf).argmax())
        accepted.append(idx)
        center_rows.append(_sq_euclidean(cols, zn[idx:idx + 1], np.empty((1, n)), tmp[:1])[0])
        np.minimum(nearest, center_rows[-1], out=nearest)
        with np.errstate(over="ignore"):
            potential = potential - potential[idx] * np.exp(-beta * center_rows[-1])
    u = update_memberships(np.array(center_rows), cfg.m)
    return u, z[np.array(accepted)], IterationTrace(converged=True)


def run_clustering(data, cfg: ClusterConfig):
    """Dispatch on cfg.algorithm; returns the runner's (u, centers, trace)."""
    if cfg.algorithm == "gk":
        return run_gk(data, cfg)
    if cfg.algorithm == "fcm":
        return run_fcm(data, cfg)
    return run_sc(data, cfg)
