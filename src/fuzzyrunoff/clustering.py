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
  normalised data; returns the centers and the cluster count it found
  instead of taking C as an input.

All three are deterministic for a fixed seed.  Reductions use numpy's fixed
summation order, so iteration traces reproduce bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atomicio import write_csv


class NumericalError(RuntimeError):
    """Numerical failure inside a clustering or fitting stage."""


@dataclass
class DataMatrix:
    """N joined samples Z_k = [x_k1 .. x_kn, y_k]."""

    z: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        if self.z.ndim != 2:
            raise ValueError(f"data matrix must be 2-d, got shape {self.z.shape}")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("data matrix contains non-finite entries")

    @property
    def n_samples(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]


@dataclass
class PartitionMatrix:
    """C x N fuzzy membership matrix; every column sums to 1."""

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 2:
            raise ValueError(f"partition matrix must be 2-d, got {self.u.shape}")

    @property
    def n_clusters(self) -> int:
        return self.u.shape[0]

    @property
    def n_samples(self) -> int:
        return self.u.shape[1]

    def validate(self, atol: float = 1e-9) -> None:
        u = self.u
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("memberships must lie in [0, 1]")
        col = u.sum(axis=0)
        if np.any(np.abs(col - 1.0) > atol):
            k = int(np.argmax(np.abs(col - 1.0)))
            raise ValueError(f"column {k} sums to {col[k]!r}, expected 1")
        row = u.sum(axis=1)
        if np.any(row <= 0) or np.any(row >= self.n_samples):
            i = int(np.argmax((row <= 0) | (row >= self.n_samples)))
            raise ValueError(f"cluster {i} row sum {row[i]!r} outside (0, N)")


@dataclass
class ClusterSet:
    """Cluster prototypes with their covariance and induced norm matrices."""

    centers: np.ndarray      # (C, d)
    covariances: np.ndarray  # (C, d, d)
    norms: np.ndarray        # (C, d, d), unit-determinant scaled inverses


@dataclass
class ClusterConfig:
    """Knobs shared by the clustering algorithms.

    ``xi`` is the termination constant on the partition-matrix change
    (max absolute entry of U_l - U_{l-1}); ``gamma`` blends each fuzzy
    covariance toward a scaled identity so collinear clusters stay
    invertible (0 disables the blend).  The sc_* fields parametrise
    subtractive clustering on min-max normalised data.
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

    def validate(self) -> None:
        if self.algorithm not in ("gk", "fcm", "sc"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.m <= 1:
            raise ValueError(f"fuzziness m must be > 1, got {self.m}")
        if self.xi <= 0:
            raise ValueError(f"termination constant xi must be > 0, got {self.xi}")
        if self.algorithm != "sc" and self.n_clusters < 2:
            raise ValueError(f"need at least 2 clusters, got {self.n_clusters}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0 < self.sc_radius <= 1:
            raise ValueError(f"sc_radius must be in (0, 1], got {self.sc_radius}")


@dataclass
class IterationTrace:
    """Per-iteration objective and partition change of one clustering run."""

    objective: list[float] = field(default_factory=list)
    delta_u: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def n_iterations(self) -> int:
        return len(self.objective)

    def to_csv(self, path) -> None:
        write_csv(path, ["iteration", "objective", "delta_u", "converged"],
                  ([i, repr(j), repr(d), int(self.converged)]
                   for i, (j, d) in enumerate(zip(self.objective, self.delta_u))))


def _as_z(data) -> np.ndarray:
    return data.z if isinstance(data, DataMatrix) else np.asarray(data, dtype=float)


def _as_u(partition) -> np.ndarray:
    if isinstance(partition, PartitionMatrix):
        return partition.u
    return np.asarray(partition, dtype=float)


def init_partition(n_samples: int, n_clusters: int, seed: int) -> PartitionMatrix:
    """Random column-stochastic partition matrix, deterministic per seed."""
    if not 2 <= n_clusters < n_samples:
        raise ValueError(
            f"need 2 <= C < N, got C={n_clusters}, N={n_samples}"
        )
    rng = np.random.default_rng(seed)
    u = rng.random((n_clusters, n_samples))
    u = np.maximum(u, 1e-12)  # keep entries strictly inside (0, 1)
    return PartitionMatrix(u / u.sum(axis=0, keepdims=True))


def update_centers(data, partition, m: float) -> np.ndarray:
    """Membership-weighted means: v_i = sum_k mu_ik^m Z_k / sum_k mu_ik^m."""
    z = _as_z(data)
    um = _as_u(partition) ** m
    mass = um.sum(axis=1)
    if np.any(mass == 0):
        i = int(np.argmax(mass == 0))
        raise NumericalError(f"cluster {i} has zero membership mass")
    return (um @ z) / mass[:, None]


def scatter_matrices(data, partition, centers, m: float) -> np.ndarray:
    """Raw fuzzy covariance per cluster, before any regularisation."""
    z = _as_z(data)
    um = _as_u(partition) ** m
    centers = np.asarray(centers, dtype=float)
    c, d = centers.shape
    out = np.empty((c, d, d))
    for i in range(c):
        diff = z - centers[i]
        out[i] = ((diff.T * um[i]) @ diff) / um[i].sum()
    return out


def update_covariances(data, partition, centers, m: float, gamma: float) -> np.ndarray:
    """Fuzzy covariances blended toward a scaled identity.

    F_i <- (1-gamma) F_i + gamma * det(F_all)^(1/d) * I, with F_all the total
    scatter of the data.  When the total scatter itself is singular the
    identity scale falls back to 1.0 (only happens for fully degenerate
    data).  Raises if a blended matrix is still numerically singular
    (smallest eigenvalue <= 1e-12 * trace).
    """
    z = _as_z(data)
    covs = scatter_matrices(data, partition, centers, m)
    d = z.shape[1]
    if gamma > 0:
        mean = z.mean(axis=0)
        diff = z - mean
        f_all = (diff.T @ diff) / z.shape[0]
        scale = float(np.linalg.det(f_all)) ** (1.0 / d) if d > 0 else 1.0
        if not scale > 0:
            scale = 1.0
        covs = (1.0 - gamma) * covs + gamma * scale * np.eye(d)
    smallest = np.linalg.eigvalsh(covs)[:, 0]
    singular = smallest <= 1e-12 * np.trace(covs, axis1=1, axis2=2)
    if singular.any():
        i = int(np.argmax(singular))
        raise NumericalError(
            f"covariance of cluster {i} is singular after regularisation"
        )
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


def _squared_distances(z: np.ndarray, centers: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(C, N) matrix of squared induced distances."""
    c = centers.shape[0]
    out = np.empty((c, z.shape[0]))
    for i in range(c):
        diff = z - centers[i]
        out[i] = ((diff @ norms[i]) * diff).sum(axis=1)
    # tiny negatives from round-off would break the power update
    np.maximum(out, 0.0, out=out)
    return out


def update_memberships(distances, m: float) -> PartitionMatrix:
    """Membership update mu_ik = 1 / sum_q (G_ik^2 / G_qk^2)^(1/(m-1)).

    Columns with one or more exactly-zero distances put all membership on
    those clusters (split equally) and zero elsewhere.
    """
    d2 = np.asarray(distances, dtype=float)
    if np.any(d2 < 0):
        raise ValueError("squared distances must be non-negative")
    p = 1.0 / (m - 1.0)
    zero = d2 == 0.0
    hit = zero.any(axis=0)
    # Scale each column by its min distance: ratios >= 1, no overflow.
    dmin = d2.min(axis=0)
    safe = np.where(hit, 1.0, dmin)
    ratio = d2 / safe[None, :]
    if hit.any():
        ratio[:, hit] = 1.0  # placeholder; these columns are rewritten below
    inv = ratio ** (-p)
    u = inv / inv.sum(axis=0, keepdims=True)
    if hit.any():
        cols = np.where(hit)[0]
        u[:, cols] = 0.0
        for k in cols:
            members = np.where(zero[:, k])[0]
            u[members, k] = 1.0 / len(members)
    return PartitionMatrix(u)


def _objective(u: np.ndarray, d2: np.ndarray, m: float) -> float:
    return float(((u**m) * d2).sum())


def run_gk(data, cfg: ClusterConfig):
    """Gustafson-Kessel alternating optimisation.

    Loops centers -> covariances -> induced distances -> memberships until
    the max absolute change of the partition matrix is <= cfg.xi or
    cfg.max_iter is hit (then the trace is returned non-converged; no
    error).  Returns (PartitionMatrix, ClusterSet, IterationTrace).
    """
    return _run_alternating(data, cfg, adaptive_norm=True)


def run_fcm(data, cfg: ClusterConfig):
    """Fuzzy c-means: the same loop with the identity norm (spherical)."""
    return _run_alternating(data, cfg, adaptive_norm=False)


def _run_alternating(data, cfg: ClusterConfig, adaptive_norm: bool):
    cfg.validate()
    z = _as_z(data)
    n, d = z.shape
    if cfg.n_clusters >= n:
        raise ValueError(f"need C < N, got C={cfg.n_clusters}, N={n}")
    part = init_partition(n, cfg.n_clusters, cfg.seed)
    u = part.u
    eye = np.broadcast_to(np.eye(d), (cfg.n_clusters, d, d))
    trace = IterationTrace()
    centers = covs = norms = None
    for _ in range(cfg.max_iter):
        centers = update_centers(z, u, cfg.m)
        if adaptive_norm:
            covs = update_covariances(z, u, centers, cfg.m, cfg.gamma)
            norms = norm_matrices(covs)
        else:
            norms = eye
        d2 = _squared_distances(z, centers, norms)
        u_new = update_memberships(d2, cfg.m).u
        delta = float(np.abs(u_new - u).max())
        trace.objective.append(_objective(u_new, d2, cfg.m))
        trace.delta_u.append(delta)
        u = u_new
        if delta <= cfg.xi:
            trace.converged = True
            break
    if not adaptive_norm:
        # descriptive only; the loop itself used the identity norm and never
        # inverts these, so they are neither regularised nor checked
        covs = scatter_matrices(z, u, centers, cfg.m)
    clusters = ClusterSet(centers=centers, covariances=covs, norms=np.array(norms))
    return PartitionMatrix(u), clusters, trace


# ---------------------------------------------------------------------------
# Subtractive clustering
# ---------------------------------------------------------------------------


def _minmax_normalise(z: np.ndarray):
    lo = z.min(axis=0)
    hi = z.max(axis=0)
    span = hi - lo
    span_safe = np.where(span > 0, span, 1.0)
    return (z - lo) / span_safe, lo, span_safe


# Byte budget of the (rows, N, d) difference block run_sc works on.
_SC_BLOCK_BYTES = 16 * 2**20


def _sc_sq_dist_rows(zn: np.ndarray, rows: slice) -> np.ndarray:
    """Squared Euclidean distances from zn[rows] to every row of zn."""
    diff = zn[rows, None, :] - zn[None, :, :]
    np.square(diff, out=diff)
    return diff.sum(axis=2)


def run_sc(data, cfg: ClusterConfig):
    """Subtractive clustering: density-peak center selection.

    Potentials P_k = sum_j exp(-4 |Z_k - Z_j|^2 / r_a^2) are computed on
    min-max normalised data.  The max-potential point becomes a center, its
    squash-scaled potential is subtracted everywhere, and further candidates
    are accepted or rejected against the first peak (accept ratio, reject
    ratio, and the distance/potential trade-off rule in between).  Ties pick
    the lowest row index.  Returns (centers in original coordinates,
    effective cluster count).

    The potentials are summed over blocks of rows, each block as many rows
    as keep its (rows, N, d) difference array within ``_SC_BLOCK_BYTES``
    (at least one row).  Only the distance rows of the accepted centers are
    kept, so memory is O(N * block + k * N) for k centers, never O(N^2).
    Every distance is the same expression on the same operands as a full
    (N, N) matrix would hold, so the result does not depend on the block.
    """
    cfg.validate()
    z = _as_z(data)
    n, d = z.shape
    if n == 0:
        raise ValueError("empty data matrix")
    zn, lo, span = _minmax_normalise(z)
    ra = cfg.sc_radius
    alpha = 4.0 / ra**2
    beta = 4.0 / (cfg.sc_squash * ra) ** 2
    block = max(1, _SC_BLOCK_BYTES // (8 * n * max(d, 1)))
    potential = np.empty(n)
    for start in range(0, n, block):
        rows = slice(start, start + block)
        potential[rows] = np.exp(-alpha * _sc_sq_dist_rows(zn, rows)).sum(axis=1)

    first_peak = float(potential.max())
    idx = int(potential.argmax())
    accepted = [idx]
    center_rows = []  # squared distances from each accepted center
    while True:
        center_rows.append(_sc_sq_dist_rows(zn, slice(idx, idx + 1))[0])
        p_star = float(potential[idx])
        potential = potential - p_star * np.exp(-beta * center_rows[-1])
        rejected_all = False
        while True:
            idx = int(potential.argmax())
            p_cand = float(potential[idx])
            if p_cand > cfg.sc_accept * first_peak:
                break
            if p_cand < cfg.sc_reject * first_peak:
                rejected_all = True
                break
            # gray zone: trade off distance to existing centers vs potential
            dmin = np.sqrt(min(row[idx] for row in center_rows))
            if dmin / ra + p_cand / first_peak >= 1.0:
                break
            potential[idx] = 0.0
        if rejected_all:
            break
        accepted.append(idx)
    if not accepted:
        raise NumericalError("subtractive clustering accepted no center point")
    centers = z[np.array(accepted)]
    return centers, len(accepted)


def sc_partition(data, centers, m: float = 2.0):
    """Partition matrix for given centers from Euclidean distances.

    Distances are computed in the same min-max normalised space the centers
    were selected in, so the memberships are scale-free.  Returns
    (PartitionMatrix, ClusterSet); the cluster set carries identity norms
    and descriptive fuzzy covariances.
    """
    z = _as_z(data)
    centers = np.asarray(centers, dtype=float)
    zn, lo, span = _minmax_normalise(z)
    cn = (centers - lo) / span
    d = z.shape[1]
    eye = np.broadcast_to(np.eye(d), (centers.shape[0], d, d))
    d2 = _squared_distances(zn, cn, eye)
    part = update_memberships(d2, m)
    covs = scatter_matrices(z, part.u, centers, m)
    clusters = ClusterSet(centers=centers, covariances=covs, norms=np.array(eye))
    return part, clusters


def run_clustering(data, cfg: ClusterConfig):
    """Dispatch on cfg.algorithm; always returns (partition, clusters, trace).

    For subtractive clustering the partition is derived from the selected
    centers and the trace is empty (the algorithm is not iterative in the
    alternating-optimisation sense).
    """
    if cfg.algorithm == "gk":
        return run_gk(data, cfg)
    if cfg.algorithm == "fcm":
        return run_fcm(data, cfg)
    if cfg.algorithm == "sc":
        centers, count = run_sc(data, cfg)
        part, clusters = sc_partition(data, centers, cfg.m)
        trace = IterationTrace(converged=True)
        return part, clusters, trace
    raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
