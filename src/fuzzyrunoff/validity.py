"""Cluster validity indices and the rule-count sweep.

Six indices score a fuzzy partition as the cluster count C varies; each has
a direction (maximise or minimise) and the sweep picks a consensus C as the
mode of the six per-index optima (ties resolved toward the smallest C).

``all_indices`` scores one partition.  PC, PE and MPC depend on the
partition matrix alone; the partition index, separation index and Xie-Beni
index share one pass of plain Euclidean sample-to-center distances and one
table of center separations.  ``sweep_clusters`` clusters once per C, scores
each partition with ``all_indices`` and keeps the consensus C's partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .atomicio import write_csv
from .clustering import (
    TAKES_RULE_COUNT,
    ClusterConfig,
    NumericalError,
    _as_data,
    _squared_distances,
    run_clustering,
)

# index name -> optimisation direction over C
INDEX_DIRECTIONS = {
    "pc": "max",
    "pe": "min",
    "mpc": "max",
    "sc": "min",
    "s": "min",
    "xb": "min",
}


def pc(u: np.ndarray) -> float:
    """Partition coefficient sum(mu^2)/N; 1 for crisp, 1/C for uniform."""
    return float((u**2).sum() / u.shape[1])


def pe(u: np.ndarray) -> float:
    """Partition entropy -sum(mu log mu)/N (natural log, 0 log 0 = 0)."""
    terms = np.zeros_like(u)
    pos = u > 0
    terms[pos] = u[pos] * np.log(u[pos])
    return float(-terms.sum() / u.shape[1])


def mpc(u: np.ndarray) -> float:
    """Modified partition coefficient 1 - C/(C-1) (1 - PC); removes the
    monotonic drift of PC with C."""
    c = u.shape[0]
    if c < 2:
        raise ValueError("MPC is undefined for C = 1")
    return 1.0 - c / (c - 1.0) * (1.0 - pc(u))


def _min_separation(sep: np.ndarray):
    """Smallest off-diagonal squared center separation and its row index.

    Ties resolve to the lexicographically first (i, j) pair (row-major
    argmin), so the result is deterministic.
    """
    off = sep + np.diag(np.full(sep.shape[0], np.inf))
    k = int(np.argmin(off))
    return float(off.flat[k]), k // sep.shape[0]


def all_indices(u: np.ndarray, z: np.ndarray, v: np.ndarray) -> dict[str, float]:
    """The six indices of partition ``u`` of data ``z`` with centers ``v``.

    With scatter_i = sum_k mu_ik^2 |z_k - v_i|^2 (Euclidean), cardinality
    n_i = sum_k mu_ik and squared center separations s_ij, the lower-is-
    better partition index is sc = sum_i scatter_i / (n_i sum_j s_ij), the
    separation index s = sum_i scatter_i / (n_p min s_ij) and Xie-Beni
    xb = sum_i scatter_i / (N min s_ij).  The minimum pairs clusters (p, q),
    the lexicographically first pair on ties.  Normalising s by n_p is one
    reading of an ambiguous convention, so tests pin only the direction of
    its optimum and its scale invariance, not the constant factor.  Raises
    NumericalError for a cluster without members (zero cardinality) and for
    coincident centers.
    """
    mpc_value = mpc(u)  # refuses C = 1
    scatter = u**2 * _squared_distances(z, v)  # (C, N)
    sep = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)  # (C, C)
    cardinality = u.sum(axis=1)
    if not cardinality.all():
        i = int(np.argmin(cardinality != 0.0))
        raise NumericalError(f"cluster {i} has no members")
    denom = cardinality * sep.sum(axis=1)
    if not denom.all():
        i = int(np.argmin(denom != 0.0))
        raise NumericalError(f"coincident centers: cluster {i} has zero separation")
    min_sep, p = _min_separation(sep)
    if min_sep == 0.0:
        raise NumericalError("coincident centers: minimum separation is zero")
    total = float(scatter.sum())
    return {
        "pc": pc(u),
        "pe": pe(u),
        "mpc": mpc_value,
        # summed left to right over the clusters
        "sc": float(np.cumsum(scatter.sum(axis=1) / denom)[-1]),
        "s": total / (float(cardinality[p]) * min_sep),
        "xb": total / (u.shape[1] * min_sep),
    }


def consensus_count(per_index_optima) -> int:
    """Mode of the per-index optima; ties resolve to the smallest count."""
    counts = Counter(int(c) for c in per_index_optima)
    if not counts:
        raise ValueError("no per-index optima to take a consensus of")
    best = max(counts.values())
    return min(c for c, k in counts.items() if k == best)


@dataclass
class ValidityReport:
    """Index values over a C range plus per-index optima and the consensus.

    ``partition`` is the consensus C's (u, centers, trace), which fit_model
    reuses.  It is the only partition kept: a report may outlive its sweep,
    and every C's partition would cost memory in proportion to the range.
    During the sweep only the partitions of the indices' optima so far are
    held, since no other C can become the consensus.  ``iterations`` maps
    each C that clustered and scored to its trace's (n_iterations,
    converged); a failed C has no entry.
    """

    c_values: list[int]
    table: dict[str, list[float]]          # index name -> value per C (nan = failed run)
    per_index_optimum: dict[str, int]
    consensus: int
    failures: dict[int, str] = field(default_factory=dict)
    iterations: dict[int, tuple[int, bool]] = field(default_factory=dict)
    partition: tuple | None = field(default=None, repr=False, compare=False)

    def to_csv(self, path) -> None:
        names = list(INDEX_DIRECTIONS)
        write_csv(path, ["C"] + names,
                  ([c] + [repr(self.table[name][row]) for name in names]
                   for row, c in enumerate(self.c_values)))


def sweep_clusters(data, cfg_template: ClusterConfig, c_range) -> ValidityReport:
    """Cluster for each C in ``c_range`` and score all six indices.

    Per-index optimum follows the index direction; the consensus C is the
    mode of the six optima with ties going to the smallest C.  A numerical
    failure at some C is recorded and that C excluded; if every C fails a
    NumericalError is raised.  A bad setting, a C below 2 included, is a
    ValueError from building its config, before anything is clustered, not
    a failure.  Only the algorithms in ``TAKES_RULE_COUNT`` sweep - subtractive
    clustering derives its count from the radius, not from a C input.
    """
    if cfg_template.algorithm not in TAKES_RULE_COUNT:
        raise ValueError(f"sweep supports {' and '.join(map(repr, TAKES_RULE_COUNT))}, "
                         f"not {cfg_template.algorithm!r}")
    z = _as_data(data)
    c_values = sorted(set(int(c) for c in c_range))
    if not c_values:
        raise ValueError("empty cluster range")
    if c_values[-1] >= z.shape[0]:
        raise ValueError(f"C_max={c_values[-1]} must be < N={z.shape[0]}")
    names = list(INDEX_DIRECTIONS)
    table = {name: [] for name in names}
    failures: dict[int, str] = {}
    iterations: dict[int, tuple[int, bool]] = {}
    partitions = {}
    leaders = {}  # index name -> (score, C) of its optimum so far
    for c in c_values:
        cfg = replace(cfg_template, n_clusters=c)
        try:
            partitions[c] = run_clustering(z, cfg)
            values = all_indices(partitions[c][0], z, partitions[c][1])
            trace = partitions[c][2]
            iterations[c] = (trace.n_iterations, trace.converged)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            failures[c] = str(exc)
            values = dict.fromkeys(names, float("nan"))
        for name in names:
            table[name].append(values[name])
            # as nanargmax/nanargmin: a failed C never leads, the first optimum wins
            score = values[name] if INDEX_DIRECTIONS[name] == "max" else -values[name]
            if not np.isnan(score) and (name not in leaders or score > leaders[name][0]):
                leaders[name] = (score, c)
        # only an index's optimum so far can end up in the consensus
        kept = {leader for _, leader in leaders.values()}
        partitions = {k: partition for k, partition in partitions.items() if k in kept}
    if len(failures) == len(c_values):
        raise NumericalError(f"clustering failed for every C in {c_values}")
    per_index = {name: leaders[name][1] for name in names}
    consensus = consensus_count(per_index.values())
    return ValidityReport(c_values=c_values, table=table, per_index_optimum=per_index,
                          consensus=consensus, failures=failures, iterations=iterations,
                          partition=partitions[consensus])
