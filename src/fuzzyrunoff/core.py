"""Takagi-Sugeno fuzzy model types and the forward inference path.

A model is a set of C rules.  Each rule carries one Gaussian membership
function per input dimension (the premise) and an affine coefficient vector
(the consequent).  Inference evaluates all memberships, takes the minimum
across input dimensions as the rule firing strength, and returns the
firing-weighted average of the per-rule affine outputs.

Note on the membership function: the Gaussian used here is

    mf(x) = exp(-(x - mean)^2 / width^2)

i.e. WITHOUT the conventional factor 2 in the denominator.  The width
estimator in :mod:`fuzzyrunoff.identify` carries a compensating factor 2
under its radical, so the fitted pair behaves like an ordinary Gaussian with
standard deviation ``width / sqrt(2)``.  Do not "fix" one side without the
other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomicio import write_atomic

# Below this total firing mass an input is considered outside every rule's
# region and the nearest-rule fallback applies (the weighted average would
# divide by ~0).
DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True)
class Scheme:
    """How a model's training rows were built: the clustering ``algorithm``,
    the prediction ``stride`` and rainfall ``lag`` in samples, and the
    min-max ``normalization`` (mins, maxs) of the supervised columns, which
    is None for a dimensional model."""

    algorithm: str
    stride: int
    lag: int
    normalization: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.stride < 1 or self.lag < 0:
            raise ValueError(f"scheme needs stride >= 1 and lag >= 0, got {self.stride}, {self.lag}")


@dataclass(frozen=True, eq=False)
class TsModel:
    """Immutable Takagi-Sugeno model; safe for concurrent read-only use.

    Row i of each parameter matrix is rule i: ``premise_means`` and
    ``premise_widths`` (C, n) hold its Gaussian premises, ``consequents``
    (C, n+1) its affine coefficients, intercept first.  The matrices are
    read-only copies of the arguments.  ``scheme`` is None for a model built
    or fitted outside the CLI."""

    premise_means: np.ndarray
    premise_widths: np.ndarray
    consequents: np.ndarray
    scheme: Scheme | None = None

    def __post_init__(self):
        for name in ("premise_means", "premise_widths", "consequents"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        means, widths, theta = self.premise_means, self.premise_widths, self.consequents
        if means.ndim != 2 or 0 in means.shape:
            raise ValueError(f"model needs at least one rule and one input, "
                             f"got premise means of shape {means.shape}")
        c, n = means.shape
        if widths.shape != (c, n) or theta.shape != (c, n + 1):
            raise ValueError(f"expected widths of shape {(c, n)} and consequents of shape "
                             f"{(c, n + 1)}, got {widths.shape} and {theta.shape}")
        finite = np.isfinite(np.hstack([means, widths, theta])).all(axis=1)
        if not finite.all():
            raise ValueError(f"rule {int(np.argmin(finite))}: parameters must be finite")
        positive = (widths > 0).all(axis=1)
        if not positive.all():
            raise ValueError(f"rule {int(np.argmin(positive))}: premise widths must be > 0")

    @property
    def input_dim(self) -> int:
        return self.premise_means.shape[1]

    @property
    def rule_count(self) -> int:
        return self.premise_means.shape[0]


def firing_matrix(model: TsModel, X) -> np.ndarray:
    """(N, C) min-operator firing strengths for every row of ``X``."""
    X = _check_batch(model, X)
    if X.shape[0] == 0:
        return np.zeros((0, model.rule_count))
    # memberships: (N, C, n); firing = min over input dimensions
    z = (X[:, None, :] - model.premise_means[None, :, :]) / model.premise_widths[None, :, :]
    return np.exp(-(z**2)).min(axis=2)


def rule_output_matrix(model: TsModel, X) -> np.ndarray:
    """(N, C) affine consequent outputs for every row of ``X``."""
    X = _check_batch(model, X)
    theta = model.consequents
    # Summation runs along the feature axis independently per (row, rule),
    # which keeps single-row and batched evaluation bit-identical.
    return theta[None, :, 0] + (X[:, None, :] * theta[None, :, 1:]).sum(axis=2)


def nearest_rule_index(model: TsModel, X) -> np.ndarray:
    """Index of the rule whose premise mean vector is closest to each row.

    Distances are taken in a normalised input space: each dimension is
    divided by the spread of the premise means across rules, so no
    dimension dominates on units alone.  A spread that round-off cannot
    resolve against the means (at most eps * max(1, max |mean|), zero
    included) scales by 1.0 instead, so it cannot blow distances up to inf.
    Ties go to the lowest rule index.
    """
    X = _check_batch(model, X)
    means = model.premise_means
    scale = means.max(axis=0) - means.min(axis=0)
    floor = np.finfo(float).eps * np.maximum(1.0, np.abs(means).max(axis=0))
    scale = np.where(scale > floor, scale, 1.0)
    d2 = (((X[:, None, :] - means[None, :, :]) / scale) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def predict(model: TsModel, x) -> float:
    """Model output for a single input vector.

    Weighted average of the rule outputs with the firing strengths as
    weights.  When all firings underflow (input far outside every cluster)
    the output of the nearest rule is returned instead.  This is
    :func:`predict_batch` on a one-row matrix, so both agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_dim,):
        raise ValueError(
            f"input length {x.shape} does not match model dimension {model.input_dim}"
        )
    return float(predict_batch(model, x[None, :])[0])


def predict_batch(model: TsModel, X) -> np.ndarray:
    """Vectorised :func:`predict` over the rows of an (N, n) matrix."""
    X = _check_batch(model, X)
    if not np.all(np.isfinite(X)):
        bad = int(np.argwhere(~np.isfinite(X).all(axis=1))[0, 0])
        raise ValueError(f"non-finite input at row {bad}")
    w = firing_matrix(model, X)
    outputs = rule_output_matrix(model, X)
    wsum = w.sum(axis=1)
    degenerate = wsum < DEGENERACY_FLOOR
    safe = np.where(degenerate, 1.0, wsum)
    yhat = (w * outputs).sum(axis=1) / safe
    if degenerate.any():
        idx = nearest_rule_index(model, X[degenerate])
        yhat[degenerate] = outputs[degenerate, idx]
    return yhat


def _check_batch(model: TsModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != model.input_dim):
        raise ValueError(
            f"expected (N, {model.input_dim}) input matrix, got shape {X.shape}"
        )
    if X.shape[0] == 0:
        X = X.reshape(0, model.input_dim)
    return X


# ---------------------------------------------------------------------------
# Serialisation: versioned plain text, value-exact round trip.
# ---------------------------------------------------------------------------

_FORMAT_TAG = "tsmodel-v2"


def _fmt_floats(values) -> str:
    # repr() emits the shortest decimal that round-trips the exact double
    return " ".join(repr(float(v)) for v in values)


def dump_model(model: TsModel) -> str:
    """Serialise a model and its scheme, if any, to the versioned text format."""
    lines = [
        f"format {_FORMAT_TAG}",
        f"input_dim {model.input_dim}",
        f"rule_count {model.rule_count}",
    ]
    scheme = model.scheme
    if scheme is not None:
        lines += [f"algorithm {scheme.algorithm}", f"stride {scheme.stride}",
                  f"lag {scheme.lag}"]
        if scheme.normalization is not None:
            lines.append("norm_mins " + _fmt_floats(scheme.normalization[0]))
            lines.append("norm_maxs " + _fmt_floats(scheme.normalization[1]))
    rows = zip(model.premise_means, model.premise_widths, model.consequents)
    for i, (means, widths, theta) in enumerate(rows):
        lines += [f"rule {i}", "means " + _fmt_floats(means),
                  "widths " + _fmt_floats(widths), "theta " + _fmt_floats(theta)]
    return "\n".join(lines) + "\n"


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split())


def _value(entries: dict, key: str, convert):
    """Convert the ``key`` line of ``entries``, naming the line on failure."""
    if key not in entries:
        raise ValueError(f"missing '{key}' line")
    lineno, rest = entries[key]
    try:
        return convert(rest)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {key} value {rest!r}") from None


def parse_model(text: str) -> TsModel:
    """Inverse of :func:`dump_model`; values are restored bit-exactly.

    Also reads ``tsmodel-v1`` text, which yields a model without a scheme.
    A malformed file raises ValueError naming the bad line or missing key.
    """
    header: dict[str, tuple[int, str]] = {}
    rules_raw: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        key, _, rest = line.strip().partition(" ")
        if key == "rule":
            rules_raw.append({})
        elif key in ("means", "widths", "theta"):
            if not rules_raw:
                raise ValueError(f"line {lineno}: '{key}' before any rule header")
            rules_raw[-1][key] = (lineno, rest)
        elif key:
            header[key] = (lineno, rest)
    tag = header.get("format", (0, None))[1]
    if tag not in ("tsmodel-v1", _FORMAT_TAG):  # v1 files carry no scheme
        raise ValueError(f"unsupported model format: {tag!r}")
    n = _value(header, "input_dim", int)
    c = _value(header, "rule_count", int)
    if len(rules_raw) != c:
        raise ValueError(f"expected {c} rules, found {len(rules_raw)}")
    rows = []
    for i, raw in enumerate(rules_raw):
        try:
            rows.append([_value(raw, k, _floats) for k in ("means", "widths", "theta")])
            if [len(row) for row in rows[-1]] != [n, n, n + 1]:
                raise ValueError(f"row lengths do not match input_dim {n}")
        except ValueError as exc:
            raise ValueError(f"rule {i}: {exc}") from None
    scheme = None
    if "algorithm" in header:
        normalization = None
        if "norm_mins" in header or "norm_maxs" in header:
            normalization = (_value(header, "norm_mins", _floats),
                             _value(header, "norm_maxs", _floats))
        scheme = Scheme(header["algorithm"][1], _value(header, "stride", int),
                        _value(header, "lag", int), normalization)
    means, widths, theta = ([row[k] for row in rows] for k in range(3))
    return TsModel(means, widths, theta, scheme)


def save_model(model: TsModel, path) -> None:
    write_atomic(path, dump_model(model))


def load_model(path) -> TsModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
