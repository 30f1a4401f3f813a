"""Property tests of the inference path, the model file, the clustering
partitions, the validity indices and the consequent solve."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dataclasses import replace

from test_clustering import full_matrix_sc
from test_core import rule_output_rows

from fuzzyrunoff import clustering
from fuzzyrunoff.clustering import (
    ClusterConfig,
    NumericalError,
    run_fcm,
    run_gk,
    run_sc,
)
from fuzzyrunoff.core import (
    DEGENERACY_FLOOR,
    Scheme,
    TsModel,
    dump_model,
    firing_matrix,
    nearest_rule_index,
    parse_model,
    predict,
    predict_batch,
)
from fuzzyrunoff.dataio import NormalizationRecord
from fuzzyrunoff.identify import solve_consequents
from fuzzyrunoff.validity import all_indices

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
widths = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw, values=finite):
    n = draw(st.integers(1, 4))
    c = draw(st.integers(1, 20))

    def matrix(elements, cols):
        return [[draw(elements) for _ in range(cols)] for _ in range(c)]

    return TsModel(matrix(values, n), matrix(widths, n), matrix(values, n + 1))


schemes = st.one_of(
    st.none(),
    st.builds(Scheme, st.sampled_from(["gk", "fcm", "sc"]), st.integers(1, 100),
              st.integers(0, 100),
              st.one_of(st.none(), st.tuples(st.tuples(*[any_float] * 5),
                                             st.tuples(*[any_float] * 5)))),
)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def v1_text(model: TsModel) -> str:
    """The model file as the v1 serialiser wrote it: no scheme lines."""
    fmt = lambda values: " ".join(repr(float(v)) for v in values)  # noqa: E731
    lines = ["format tsmodel-v1", f"input_dim {model.input_dim}",
             f"rule_count {model.rule_count}"]
    rows = zip(model.premise_means, model.premise_widths, model.consequents)
    for i, (means, widths, theta) in enumerate(rows):
        lines += [f"rule {i}", "means " + fmt(means), "widths " + fmt(widths),
                  "theta " + fmt(theta)]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(models(), st.data())
def test_single_row_equals_batch_bit_for_bit(model, data):
    rows = data.draw(st.integers(1, 12))
    X = np.array([[data.draw(finite) for _ in range(model.input_dim)] for _ in range(rows)])
    batch = predict_batch(model, X)
    for k in range(rows):
        assert bits(predict(model, X[k])) == bits(batch[k])


def firing_nci(model: TsModel, X) -> np.ndarray:
    """The firing strengths as (N, C, n) memberships reduced by min."""
    z = (X[:, None, :] - model.premise_means[None, :, :]) / model.premise_widths[None, :, :]
    return np.exp(-(z**2)).min(axis=2)


def rule_outputs_nci(model: TsModel, X) -> np.ndarray:
    """The rule outputs as (N, C, n) products summed along the feature axis."""
    theta = model.consequents
    return theta[None, :, 0] + (X[:, None, :] * theta[None, :, 1:]).sum(axis=2)


def rule_sum_in_order(a) -> np.ndarray:
    """The (N, C) rows of ``a`` summed over the rules in index order from +0.0."""
    total = np.zeros(len(a))
    for column in a.T:
        total = total + column
    return total


def predict_batch_nci(model: TsModel, X) -> np.ndarray:
    """Weighted average of ``rule_outputs_nci`` by ``firing_nci``, the rules
    added in order, with the nearest-rule fallback below DEGENERACY_FLOOR."""
    w, outputs = firing_nci(model, X), rule_outputs_nci(model, X)
    wsum = rule_sum_in_order(w)
    degenerate = wsum < DEGENERACY_FLOOR
    wsum[degenerate] = 1.0
    yhat = rule_sum_in_order(w * outputs) / wsum
    if degenerate.any():
        yhat[degenerate] = outputs[degenerate, nearest_rule_index(model, X[degenerate])]
    return yhat


@st.composite
def wide_models_and_rows(draw):
    """A model with n = 1..7 inputs and C = 1..20 rules (rule sums of 8 and
    more terms), and 0..6 finite rows, 0..3 rows one width from some rule's
    means (firing exp(-1) there) and 0..2 rows far outside every rule (they
    take the fallback).  The premise means are either anywhere or within
    one unit, so that many rules fire together.
    Half of the models have every rule output equal to -5e-324, which a
    firing below 0.5 weights to exactly -0.0: a row where every rule fires
    below 0.5 but the total is above the degeneracy floor then sums a column
    of -0.0 in the numerator."""
    n, c = draw(st.integers(1, 7)), draw(st.integers(1, 20))

    def matrix(elements, rows, cols):
        return np.array([[draw(elements) for _ in range(cols)]
                         for _ in range(rows)]).reshape(rows, cols)

    spread = draw(st.sampled_from([finite, st.floats(-1.0, 1.0)]))
    means, widths_ = matrix(spread, c, n), matrix(widths, c, n)
    if draw(st.booleans()):
        theta = np.hstack([np.full((c, 1), -5e-324),
                           matrix(st.sampled_from([0.0, -0.0]), c, n)])
    else:
        theta = matrix(finite, c, n + 1)
    model = TsModel(means, widths_, theta)
    edges = draw(st.lists(st.integers(0, c - 1), max_size=3))
    X = np.vstack([matrix(finite, draw(st.integers(0, 6)), n), means[edges] + widths_[edges]])
    far = (means + 10 * widths_).max(axis=0)
    X = np.vstack([X] + [far] * draw(st.integers(0, 2)))
    return model, X[draw(st.permutations(range(len(X))))]


@settings(max_examples=300, deadline=None)
@given(wide_models_and_rows())
def test_rule_major_inference_equals_the_feature_axis_formulas(case):
    model, X = case
    c = model.rule_count
    firing = firing_matrix(model, X)
    assert firing.shape == (len(X), c) and firing.flags.c_contiguous
    assert bits(firing) == bits(firing_nci(model, X))
    assert bits(rule_output_rows(model, X)) == bits(rule_outputs_nci(model, X))
    want = predict_batch_nci(model, X)
    assert bits(predict_batch(model, X)) == bits(want)
    for k in range(len(X)):  # a row alone sums each rule axis as one run
        assert bits(predict_batch(model, X[k:k + 1])) == bits(want[k])


@settings(max_examples=200, deadline=None)
@given(models(values=any_float), schemes)
def test_model_file_roundtrip_is_bit_exact(model, scheme):
    model = replace(model, scheme=scheme)
    back = parse_model(dump_model(model))
    assert back.scheme == scheme
    for attr in ("premise_means", "premise_widths", "consequents"):
        assert bits(getattr(back, attr)) == bits(getattr(model, attr))
    if scheme is not None and scheme.normalization is not None:
        assert bits(back.scheme.normalization) == bits(scheme.normalization)


@settings(max_examples=200, deadline=None)
@given(models(values=any_float))
def test_v1_text_is_refused(model):
    # tsmodel-v1 is no longer read, whatever the parameters
    with pytest.raises(ValueError, match=r"^unsupported model format: 'tsmodel-v1'$"):
        parse_model(v1_text(model))


seeds = st.integers(0, 2**32 - 1)


@st.composite
def grid_clouds(draw, dims=st.integers(1, 7)):
    """Normal draws rounded to a 0.1 grid, some rows repeated: ties in the
    potentials, coincident points and gray-zone decisions."""
    d = draw(dims)
    n = draw(st.integers(3, 40))
    z = np.round(np.random.default_rng(draw(seeds)).normal(size=(n, d)), 1)
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
    return np.vstack([z, z[repeats]])


@settings(max_examples=30, deadline=None)
@given(grid_clouds(dims=st.integers(1, 3)), st.integers(2, 4), seeds)
def test_partition_columns_sum_to_one(z, c, seed):
    cfg = ClusterConfig(n_clusters=c, seed=seed, max_iter=50)
    parts = [run_sc(z, ClusterConfig(algorithm="sc"))[0]]
    for run in (run_fcm, run_gk) if c < len(z) else ():
        try:
            parts.append(run(z, cfg)[0])
        except NumericalError:
            pass  # an empty or flat cluster is refused, not partitioned
    for u in parts:
        assert np.allclose(u.sum(axis=0), 1.0, rtol=0, atol=1e-9)


def unhoisted_run_alternating(z, cfg: ClusterConfig, adaptive_norm: bool):
    """The alternating-optimisation loop in its earlier form: each step takes
    u**m again, the blend scale is recomputed every iteration and each
    squared distance is a short-axis ``sum(axis=1)`` over fresh temporaries.
    The scatter is the one product of the (d, N) column layout, whose GEMM
    sums in another order than the rows layout's ``(diff.T * w) @ diff``."""
    m, mass_of = cfg.m, clustering._membership_mass

    def update_centers(u):
        um = u**m
        return (um @ z) / mass_of(um)[:, None]

    def update_covariances(u, centers):
        um = u**m
        mass = mass_of(um)
        c, d = centers.shape
        covs = np.empty((c, d, d))
        for i in range(c):
            diff = np.ascontiguousarray(z.T) - centers[i][:, None]
            covs[i] = ((diff * um[i]) @ diff.T) / mass[i]
        if cfg.gamma > 0:
            diff = z - z.mean(axis=0)
            det = float(np.linalg.det((diff.T @ diff) / z.shape[0]))
            scale = det ** (1.0 / d) if det > 0 else 1.0
            covs = (1.0 - cfg.gamma) * covs
            covs[:, range(d), range(d)] += cfg.gamma * scale
        smallest = np.linalg.eigvalsh(covs)[:, 0]
        singular = smallest <= 1e-12 * np.trace(covs, axis1=1, axis2=2)
        if singular.any():
            raise NumericalError(f"covariance of cluster {int(np.argmax(singular))} "
                                 "is singular after regularisation")
        return covs

    def squared_distances(centers, norms):
        out = np.empty((len(centers), len(z)))
        for i in range(len(centers)):
            diff = z - centers[i]
            out[i] = ((diff if norms is None else diff @ norms[i]) * diff).sum(axis=1)
        return np.maximum(out, 0.0)

    u = clustering.init_partition(len(z), cfg.n_clusters, cfg.seed)
    norms, centers, trace = None, None, clustering.IterationTrace()
    for _ in range(cfg.max_iter):
        centers = update_centers(u)
        if adaptive_norm:
            norms = clustering.norm_matrices(update_covariances(u, centers))
        d2 = squared_distances(centers, norms)
        u_new = clustering.update_memberships(d2, m)
        delta = float(np.abs(u_new - u).max())
        trace.objective.append(float(((u_new**m) * d2).sum()))
        trace.delta_u.append(delta)
        u = u_new
        if delta <= cfg.xi:
            trace.converged = True
            break
    mass_of(u**m)
    return u, centers, trace


def outcome(run, *args):
    """The bits of a clustering run, or the message of its numerical failure."""
    try:
        u, centers, trace = run(*args)
    except NumericalError as exc:
        return str(exc)
    return (bits(u), bits(centers), bits(trace.objective), bits(trace.delta_u),
            trace.converged)


@st.composite
def clumped_clouds(draw):
    """A few distinct grid points, each repeated: a center can land on a point
    exactly, so the zero-distance branch of update_memberships runs."""
    z = draw(grid_clouds())
    distinct = min(draw(st.integers(2, 5)), len(z))
    return z[draw(st.lists(st.integers(0, distinct - 1), min_size=3, max_size=40))]


@settings(max_examples=100, deadline=None)
@given(st.one_of(grid_clouds(), clumped_clouds()), st.integers(2, 4), seeds,
       st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([0.0, 1e-3]))
def test_gk_and_fcm_equal_the_unhoisted_loop_bit_for_bit(z, c, seed, m, gamma):
    if c >= len(z):
        return
    cfg = ClusterConfig(n_clusters=c, seed=seed, m=m, gamma=gamma, max_iter=40)
    for run, adaptive_norm in ((run_gk, True), (run_fcm, False)):
        assert outcome(run, z, cfg) == outcome(unhoisted_run_alternating, z, cfg,
                                               adaptive_norm)


@settings(max_examples=50, deadline=None)
@given(grid_clouds(dims=st.integers(1, 4)), st.integers(2, 6), seeds)
def test_indices_ignore_the_sample_order(z, c, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(c, z.shape[1]))
    u = rng.random((c, len(z))) + 1e-3
    u /= u.sum(axis=0)
    perm = rng.permutation(len(z))
    shuffled = all_indices(u[:, perm], z[perm], centers)
    for name, value in all_indices(u, z, centers).items():
        assert shuffled[name] == pytest.approx(value, rel=1e-9), name


@settings(max_examples=50, deadline=None)
@given(grid_clouds(), st.sampled_from([0.3, 0.5]), st.data())
def test_sc_equals_the_full_matrix(z, ra, data):
    cfg = ClusterConfig(algorithm="sc", sc_radius=ra)
    rows = data.draw(st.integers(1, len(z)))
    budget = clustering._SC_BLOCK_BYTES
    clustering._SC_BLOCK_BYTES = rows * 2 * 8 * len(z)
    try:
        _, centers, _ = run_sc(z, cfg)
    finally:
        clustering._SC_BLOCK_BYTES = budget
    expected, expected_count = full_matrix_sc(z, cfg)
    assert len(centers) == expected_count
    assert centers.tobytes() == expected.tobytes()


@st.composite
def joined_rows(draw):
    """Supervised rows, 4 inputs then the target, with no constant column:
    grid clouds moved, and stretched by up to three decades either way,
    column by column."""
    z = draw(grid_clouds(dims=st.just(5)))
    rng = np.random.default_rng(draw(seeds))
    z = z * 10.0 ** rng.uniform(-3, 3, 5) + rng.uniform(-1e3, 1e3, 5)
    assume(np.all(z.max(axis=0) > z.min(axis=0)))
    return z


@settings(max_examples=100, deadline=None)
@given(joined_rows(), st.sampled_from([0.3, 0.5]))
def test_sc_partitions_rows_and_their_normalised_copy_alike(z, ra):
    # what lets train cluster both scalings of a stride once
    record = NormalizationRecord.from_supervised(z[:, :4], z[:, 4])

    def scaled(rows):
        return np.column_stack([record.normalize_x(rows[:, :4]), record.normalize_y(rows[:, 4])])

    cfg = ClusterConfig(algorithm="sc", sc_radius=ra)
    u, centers, _ = run_sc(z, cfg)
    u_scaled, centers_scaled, _ = run_sc(scaled(z), cfg)
    assert u_scaled.shape == u.shape
    assert u_scaled.tobytes() == u.tobytes()
    # the same rows accepted as centers
    assert centers_scaled.tobytes() == scaled(centers).tobytes()


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 4), st.data())
def test_solve_consequents_matches_pinv_when_rank_deficient(seed, rank, data):
    # the rank deficiencies of a TS regressor matrix: repeated columns
    # (rules with the same premise) and zero columns (rules that never fire).
    # solve_consequents equilibrates the columns first, so it gives the pinv
    # solution only where the dependent columns have equal norms.  The base
    # has singular values in [0.5, 2], so the rank is unambiguous.
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(rank + 1, 12))
    q_left, _ = np.linalg.qr(rng.normal(size=(m, rank)))
    q_right, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
    base = q_left @ np.diag(rng.uniform(0.5, 2.0, rank)) @ q_right
    base = np.hstack([base, np.zeros((m, 1))])
    extra = data.draw(st.lists(st.integers(0, rank), min_size=1, max_size=4))
    picks = data.draw(st.permutations(list(range(rank)) + extra))
    pi = base[:, picks]
    y = rng.normal(size=m)
    zeta, residual = solve_consequents(pi, y)
    oracle = np.linalg.pinv(pi) @ y
    assert np.allclose(zeta, oracle, rtol=0, atol=1e-9)
    assert np.isclose(residual, np.linalg.norm(y - pi @ oracle), rtol=1e-9, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 4), st.data())
def test_solve_consequents_ignores_the_row_order(seed, rank, data):
    # the same least-squares problem with its rows (pi, y) permuted: the
    # coefficients and the residual agree up to round-off, here 1e-9 times
    # the largest coefficient (the base has singular values in [0.5, 2]
    # before its columns are scaled by up to 1e3 either way, which the
    # equilibration undoes); dependent columns make some systems rank-deficient
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(rank + 1, 12))
    q_left, _ = np.linalg.qr(rng.normal(size=(m, rank)))
    q_right, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
    base = q_left @ np.diag(rng.uniform(0.5, 2.0, rank)) @ q_right
    extra = data.draw(st.lists(st.integers(0, rank - 1), max_size=3))
    pi = base[:, list(range(rank)) + extra] * 10.0 ** rng.uniform(-3, 3, rank + len(extra))
    y = rng.normal(size=m)
    perm = data.draw(st.permutations(range(m)))
    zeta, residual = solve_consequents(pi, y)
    zeta_p, residual_p = solve_consequents(pi[perm], y[perm])
    assert np.allclose(zeta_p, zeta, rtol=0, atol=1e-9 * np.abs(zeta).max())
    assert np.isclose(residual_p, residual, rtol=1e-9, atol=1e-12)


bounded = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def records(draw):
    """A min-max record over the 5 supervised columns, each max above its min."""
    mins = np.array([draw(bounded) for _ in range(5)])
    spans = np.array([draw(st.floats(1e-3, 1e6)) for _ in range(5)])
    return NormalizationRecord(mins, mins + spans)


@settings(max_examples=200, deadline=None)
@given(records(), st.lists(bounded, min_size=1, max_size=8), st.data())
def test_normalization_record_inverts_within_round_off(record, values, data):
    # each of the three maps takes two or three roundings: 4 eps of the
    # magnitudes involved, plus 4 subnormal steps scaled by the span for a
    # result that underflows, bound the round trip (values may lie outside
    # the record's range, as validation data does)
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    y = np.array(values)
    lo, span = record.mins[4], record.maxs[4] - record.mins[4]
    back = record.denormalize_y(record.normalize_y(y))
    assert np.all(np.abs(back - y) <= 4 * eps * (np.abs(y) + abs(lo)) + 4 * tiny * (1 + span))
    v = (y - lo) / span
    again = record.normalize_y(record.denormalize_y(v))
    assert np.all(np.abs(again - v)
                  <= 4 * eps * (np.abs(v) + abs(lo) / span) + 4 * tiny * (1 + 1 / span))
    # normalize_x scales input column j as normalize_y scales the target of
    # the record whose last column is j, so denormalize_y of that record
    # inverts it
    x = np.array([[data.draw(bounded) for _ in range(4)] for _ in range(len(y))])
    x_norm = record.normalize_x(x)
    for j in range(4):
        column = NormalizationRecord(np.roll(record.mins, 4 - j), np.roll(record.maxs, 4 - j))
        assert x_norm[:, j].tobytes() == column.normalize_y(x[:, j]).tobytes()
        lo_j, span_j = record.mins[j], record.maxs[j] - record.mins[j]
        assert np.all(np.abs(column.denormalize_y(x_norm[:, j]) - x[:, j])
                      <= 4 * eps * (np.abs(x[:, j]) + abs(lo_j)) + 4 * tiny * (1 + span_j))
