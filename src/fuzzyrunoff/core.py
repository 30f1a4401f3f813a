"""Takagi-Sugeno fuzzy model types and the forward inference path.

A model is a set of C rules.  Each rule carries one Gaussian membership
function per input dimension (the premise) and an affine coefficient vector
(the consequent).  Inference evaluates all memberships, takes the minimum
across input dimensions as the rule firing strength, and returns the
firing-weighted average of the per-rule affine outputs.

Inference is rule-major from input to output.  The (N, n) input rows are
taken once as a contiguous (n, N) array; the firing and then the rule
outputs are formed in one (n, C, N) scratch buffer and reduced over the
inputs to (C, N) arrays; the firing total and the weighted sum are sums of
(C, N) arrays over the rules.  Every one of these sums, over the inputs and
over the rules, adds its terms in index order starting from +0.0, whatever
the number of rows, so a single row is bit for bit its row in a batch.  The
rule parameters are held in that layout as C-contiguous read-only copies,
made once per model, so that one column's arithmetic with them runs numpy's
same-shape loops.

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


def _refused_rule(means: np.ndarray, widths: np.ndarray, theta: np.ndarray):
    """(index, reason) of the first of the (C, .) rule rows a model refuses,
    a parameter that is not finite or a premise width that is not > 0, or
    None."""
    finite = np.isfinite(np.hstack([means, widths, theta])).all(axis=1)
    if not finite.all():
        return int(np.argmin(finite)), "parameters must be finite"
    positive = (widths > 0).all(axis=1)
    if not positive.all():
        return int(np.argmin(positive)), "premise widths must be > 0"
    return None


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
        refused = _refused_rule(means, widths, theta)
        if refused:
            raise ValueError("rule %d: %s" % refused)
        # the parameters as the rule-major kernel broadcasts them over
        # (n, C, N), copied C-contiguous and read-only: means, widths and
        # input coefficients (n, C, 1), intercepts (C, 1)
        rule_major = tuple(np.ascontiguousarray(a) for a in (
            means.T[:, :, None], widths.T[:, :, None], theta[:, 1:].T[:, :, None], theta[:, :1]))
        for a in rule_major:
            a.setflags(write=False)
        object.__setattr__(self, "_rule_major", rule_major)

    @property
    def input_dim(self) -> int:
        return self.premise_means.shape[1]

    @property
    def rule_count(self) -> int:
        return self.premise_means.shape[0]


def firing_matrix(model: TsModel, X) -> np.ndarray:
    """(N, C) min-operator firing strengths for every row of ``X``, taken as
    exp(-max_k z_k^2) on (n, C, N) arrays: one exp per (row, rule), equal to
    min_k exp(-z_k^2) bit for bit because exp is monotone."""
    cols = _columns(model, X)
    scratch = np.empty((len(cols), model.rule_count, cols.shape[1]))
    return np.ascontiguousarray(_firing_rows(model, cols[:, None, :], scratch).T)


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
    the output of the nearest rule is returned instead.  This is the kernel
    of :func:`predict_batch` on one (n, 1) column, so both agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_dim,):
        raise ValueError(
            f"input length {x.shape} does not match model dimension {model.input_dim}"
        )
    return float(_predict_columns(model, x[:, None])[0])


def predict_batch(model: TsModel, X) -> np.ndarray:
    """Vectorised :func:`predict` over the rows of an (N, n) matrix, in the
    rule-major layout and summation order of the module docstring."""
    return _predict_columns(model, _columns(model, X))


def _predict_columns(model: TsModel, cols: np.ndarray) -> np.ndarray:
    """The forecasts of the (n, N) columns ``cols``, one per column; the
    firing and then the rule outputs are formed in one (n, C, N) buffer."""
    x = cols[:, None, :]
    scratch = np.empty((len(cols), model.rule_count, cols.shape[1]))
    w, wsum, degenerate, nearest = _firing_with_fallback(model, x, scratch)
    outputs = _rule_output_rows(model, x, scratch)
    yhat = _ordered_sum(np.multiply(w, outputs, w))
    yhat /= wsum
    if nearest is not None:
        yhat[degenerate] = outputs[nearest, np.flatnonzero(degenerate)]
    return yhat


def normalized_truth(model: TsModel, X) -> np.ndarray:
    """(N, C) firing strengths normalised to sum 1 per row.

    Rows whose total firing underflows get a one-hot row at the nearest
    rule, matching the prediction-time fallback.  A non-finite row is
    refused as :func:`predict_batch` refuses it.
    """
    cols = _columns(model, X)
    scratch = np.empty((len(cols), model.rule_count, cols.shape[1]))
    w, wsum, degenerate, nearest = _firing_with_fallback(model, cols[:, None, :], scratch)
    truth = np.ascontiguousarray((w / wsum).T)
    if nearest is not None:
        truth[degenerate] = np.eye(model.rule_count)[nearest]
    return truth


def _columns(model: TsModel, X) -> np.ndarray:
    """The rows of ``X``, checked against the model, as one contiguous
    (n, N) array."""
    return np.ascontiguousarray(_check_batch(model, X).T)


def _firing_rows(model: TsModel, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(C, N) firing strengths of the (n, 1, N) columns ``x``, formed in the
    (n, C, N) ``scratch``."""
    means, widths, _, _ = model._rule_major
    z = np.subtract(x, means, scratch)
    np.divide(z, widths, z)
    np.multiply(z, z, z)
    a = np.maximum.reduce(z, 0)
    return np.exp(np.negative(a, a), a)


def _rule_output_rows(model: TsModel, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(C, N) rule outputs of the (n, 1, N) columns ``x``: the products
    x_k * theta_k formed in ``scratch``, added over the inputs in order,
    then the intercepts."""
    _, _, slopes, intercepts = model._rule_major
    y = _ordered_sum(np.multiply(x, slopes, scratch))
    y += intercepts
    return y


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of ``a`` in index order from +0.0.  numpy adds the
    slices of an outer axis in that order, but sums one contiguous run of 8
    or more terms pairwise; its cumulative sum keeps the order there."""
    if len(a) < 8 or a.size > len(a):
        return np.add.reduce(a, 0)
    return np.cumsum(a, axis=0)[-1] + 0.0


def _firing_with_fallback(model: TsModel, x: np.ndarray, scratch: np.ndarray):
    """(w, wsum, degenerate, nearest) for the (n, 1, N) columns ``x``, formed
    in the (n, C, N) ``scratch``: the (C, N) firing, its sums over the rules
    with 1.0 where the total is below DEGENERACY_FLOOR, the mask of those
    rows and their nearest rules (both None if there are none).

    A non-finite input makes its total NaN or 0, so one minimum of the
    totals clears a batch of finite inputs with no fallback rows; only when
    it does not are the inputs checked, naming the first non-finite row in a
    ValueError."""
    w = _firing_rows(model, x, scratch)
    wsum = _ordered_sum(w)
    if np.minimum.reduce(wsum, initial=np.inf) >= DEGENERACY_FLOOR:
        return w, wsum, None, None
    cols = x[:, 0]
    finite = np.isfinite(cols).all(axis=0)
    if not finite.all():
        raise ValueError(f"non-finite input at row {int(np.argmin(finite))}")
    degenerate = wsum < DEGENERACY_FLOOR
    wsum[degenerate] = 1.0
    return w, wsum, degenerate, nearest_rule_index(model, cols[:, degenerate].T.copy())


def _check_batch(model: TsModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(
            f"expected (N, {model.input_dim}) input matrix, got shape {X.shape}"
        )
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


def parse_model(text: str) -> TsModel:
    """Inverse of :func:`dump_model`; values are restored bit-exactly.

    Only ``tsmodel-v2`` text is read, its lines in dump_model's order,
    blank lines skipped.  Any other line, a missing one or a value that
    does not convert raises ValueError naming the line.  Values that
    convert but that ``Scheme`` or ``TsModel`` refuses raise their
    ValueError, prefixed with the lines they were read from.
    """
    lines = []  # (line number, key, value) of each line that is not blank
    for lineno, line in enumerate(text.splitlines(), start=1):
        key, _, rest = line.strip().partition(" ")
        if key:
            lines.append((lineno, key, rest))
    lines.append((None, None, None))  # the end of the file
    at = 0

    def take(key: str, convert):
        """Convert the value of the next line, which must be a ``key`` line."""
        nonlocal at
        lineno, found_key, rest = lines[at]
        if found_key is None:
            raise ValueError(f"missing '{key}' line, found the end of the file")
        if found_key != key:
            raise ValueError(f"missing '{key}' line, found '{found_key}' at line {lineno}")
        at += 1
        try:
            return convert(rest)
        except ValueError:
            raise ValueError(f"line {lineno}: bad {key} value {rest!r}") from None

    def taken_since(first: int) -> str:
        """The lines from ``first`` to the last one taken."""
        return f"lines {first}-{lines[at - 1][0]}"

    tag = take("format", str)
    if tag != _FORMAT_TAG:
        raise ValueError(f"unsupported model format: {tag!r}")
    first = lines[at][0]
    n = take("input_dim", int)
    c = take("rule_count", int)
    shape_lines = taken_since(first)
    scheme = None
    if lines[at][1] == "algorithm":
        algorithm = take("algorithm", str)
        first = lines[at][0]
        stride = take("stride", int)
        lag = take("lag", int)
        scheme_lines = taken_since(first)
        normalization = None
        if lines[at][1] == "norm_mins":
            mins = take("norm_mins", _floats)
            maxs = take("norm_maxs", _floats)
            normalization = (mins, maxs)
        try:
            scheme = Scheme(algorithm, stride, lag, normalization)
        except ValueError as exc:
            raise ValueError(f"{scheme_lines}: {exc}") from None
    means, widths, theta = [], [], []
    for i in range(c):
        first = lines[at][0]
        try:
            index = take("rule", int)
            if index != i:
                raise ValueError(f"line {first}: found rule {index}")
            means.append(take("means", _floats))
            widths.append(take("widths", _floats))
            theta.append(take("theta", _floats))
            if (len(means[i]), len(widths[i]), len(theta[i])) != (n, n, n + 1):
                raise ValueError(f"row lengths do not match input_dim {n}")
        except ValueError as exc:
            raise ValueError(f"rule {i}: {exc}") from None
        refused = _refused_rule(np.array([means[i]]), np.array([widths[i]]),
                                np.array([theta[i]]))
        if refused:
            raise ValueError(f"{taken_since(first)}: rule {i}: {refused[1]}")
    lineno, key, _ = lines[at]
    if key is not None:
        raise ValueError(f"line {lineno}: '{key}' after the last rule")
    try:
        return TsModel(means, widths, theta, scheme)
    except ValueError as exc:  # no rule or no input
        raise ValueError(f"{shape_lines}: {exc}") from None


def save_model(model: TsModel, path) -> None:
    write_atomic(path, dump_model(model))


def load_model(path) -> TsModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
