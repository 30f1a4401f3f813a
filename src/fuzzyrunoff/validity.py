"""Cluster validity indices and the rule-count sweep.

Six indices score a fuzzy partition as the cluster count C varies; each has
a direction (maximise or minimise) and the sweep picks a consensus C as the
mode of the six per-index optima (ties resolved toward the smallest C).

PC, PE and MPC depend on the partition matrix alone; the partition index,
separation index and Xie-Beni index also use the data and the cluster
centers, always through the plain Euclidean norm of the clustering space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .atomicio import write_csv
from .clustering import (
    ClusterConfig,
    NumericalError,
    _as_data,
    _squared_distances,
    run_fcm,
    run_gk,
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


def _center_setup(z, v):
    c, d = v.shape
    # squared Euclidean from every sample to every center: (C, N)
    d2 = _squared_distances(z, v, np.broadcast_to(np.eye(d), (c, d, d)))
    sep = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)  # (C, C)
    return d2, sep


def partition_index(u: np.ndarray, z: np.ndarray, v: np.ndarray) -> float:
    """Compactness/separation ratio summed per cluster; lower is better."""
    d2, sep = _center_setup(z, v)
    cardinality = u.sum(axis=1)
    total = 0.0
    for i in range(v.shape[0]):
        denom = cardinality[i] * sep[i].sum()
        if denom == 0.0:
            raise ValueError(f"coincident centers: cluster {i} has zero separation")
        total += float(((u[i] ** 2) * d2[i]).sum()) / denom
    return total


def _min_separation(sep: np.ndarray):
    """Smallest off-diagonal squared center separation and its row index.

    Ties resolve to the lexicographically first (i, j) pair (row-major
    argmin), so the result is deterministic.
    """
    off = sep + np.diag(np.full(sep.shape[0], np.inf))
    k = int(np.argmin(off))
    return float(off.flat[k]), k // sep.shape[0]


def separation_index(u: np.ndarray, z: np.ndarray, v: np.ndarray) -> float:
    """Total weighted scatter over (cardinality * minimum center separation).

    The cardinality is that of the cluster attaining the minimum separation
    pairing.  Lower is better.  Because the normalising cardinality is one
    reading of an ambiguous convention, tests only pin the direction of the
    optimum and the scale invariance, not the constant factor.
    """
    d2, sep = _center_setup(z, v)
    if v.shape[0] < 2:
        raise ValueError("separation index needs at least 2 centers")
    min_sep, i_min = _min_separation(sep)
    if min_sep == 0.0:
        raise ValueError("coincident centers: minimum separation is zero")
    cardinality = float(u[i_min].sum())
    scatter = float(((u**2) * d2).sum())
    return scatter / (cardinality * min_sep)


def xie_beni(u: np.ndarray, z: np.ndarray, v: np.ndarray) -> float:
    """Total weighted scatter over (N * minimum center separation); lower is
    better."""
    d2, sep = _center_setup(z, v)
    if v.shape[0] < 2:
        raise ValueError("Xie-Beni index needs at least 2 centers")
    min_sep, _ = _min_separation(sep)
    if min_sep == 0.0:
        raise ValueError("coincident centers: minimum separation is zero")
    scatter = float(((u**2) * d2).sum())
    return scatter / (u.shape[1] * min_sep)


def all_indices(u: np.ndarray, z: np.ndarray, v: np.ndarray) -> dict[str, float]:
    return {
        "pc": pc(u),
        "pe": pe(u),
        "mpc": mpc(u),
        "sc": partition_index(u, z, v),
        "s": separation_index(u, z, v),
        "xb": xie_beni(u, z, v),
    }


def consensus_count(per_index_optima) -> int:
    """Mode of the per-index optima; ties resolve to the smallest count."""
    counts: dict[int, int] = {}
    for c in per_index_optima:
        counts[int(c)] = counts.get(int(c), 0) + 1
    if not counts:
        raise ValueError("no per-index optima to take a consensus of")
    best = max(counts.values())
    return min(c for c, k in counts.items() if k == best)


@dataclass
class ValidityReport:
    """Index values over a C range plus per-index optima and the consensus."""

    c_values: list[int]
    table: dict[str, list[float]]          # index name -> value per C (nan = failed run)
    per_index_optimum: dict[str, int]
    consensus: int
    failures: dict[int, str] = field(default_factory=dict)

    def to_csv(self, path) -> None:
        names = list(INDEX_DIRECTIONS)
        write_csv(path, ["C"] + names,
                  ([c] + [repr(self.table[name][row]) for name in names]
                   for row, c in enumerate(self.c_values)))


def sweep_clusters(data, cfg_template: ClusterConfig, c_range) -> ValidityReport:
    """Cluster for each C in ``c_range`` and score all six indices.

    Per-index optimum follows the index direction; the consensus C is the
    mode of the six optima with ties going to the smallest C.  A clustering
    failure at some C is recorded and that C excluded; if every C fails the
    error propagates.  Only the gk and fcm algorithms sweep - subtractive
    clustering derives its count from the radius, not from a C input.
    """
    if cfg_template.algorithm not in ("gk", "fcm"):
        raise ValueError(f"sweep supports 'gk' and 'fcm', not {cfg_template.algorithm!r}")
    runner = run_gk if cfg_template.algorithm == "gk" else run_fcm
    z = _as_data(data)
    c_values = sorted(set(int(c) for c in c_range))
    if not c_values:
        raise ValueError("empty cluster range")
    if c_values[0] < 2:
        raise ValueError("cluster counts must be >= 2")
    if c_values[-1] >= z.shape[0]:
        raise ValueError(f"C_max={c_values[-1]} must be < N={z.shape[0]}")
    names = list(INDEX_DIRECTIONS)
    table = {name: [] for name in names}
    failures: dict[int, str] = {}
    for c in c_values:
        cfg = replace(cfg_template, n_clusters=c)
        try:
            u, centers, _ = runner(z, cfg)
            values = all_indices(u, z, centers)
        except (NumericalError, ValueError) as exc:
            failures[c] = str(exc)
            for name in names:
                table[name].append(float("nan"))
            continue
        for name in names:
            table[name].append(values[name])
    if len(failures) == len(c_values):
        raise NumericalError(f"clustering failed for every C in {c_values}")

    per_index = {}
    for name in names:
        col = np.asarray(table[name])
        good = ~np.isnan(col)
        candidates = np.asarray(c_values)[good]
        vals = col[good]
        pick = np.argmax(vals) if INDEX_DIRECTIONS[name] == "max" else np.argmin(vals)
        per_index[name] = int(candidates[pick])

    consensus = consensus_count(per_index.values())
    return ValidityReport(
        c_values=c_values,
        table=table,
        per_index_optimum=per_index,
        consensus=consensus,
        failures=failures,
    )
