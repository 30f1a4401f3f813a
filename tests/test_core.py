import math
import warnings

import numpy as np
import pytest

from fuzzyrunoff import core
from fuzzyrunoff.core import (
    DEGENERACY_FLOOR,
    Scheme,
    TsModel,
    firing_matrix,
    predict,
    predict_batch,
)


def one_input_model(*rules, scheme=None) -> TsModel:
    """Model over one input from one (mean, width, theta) triple per rule."""
    means, widths, thetas = zip(*rules)
    return TsModel([[m] for m in means], [[w] for w in widths], thetas, scheme)


def random_model(rng, c, n, mean_scale=1.0, width_scale=1.0, width_floor=0.2,
                 theta_scale=1.0) -> TsModel:
    return TsModel(rng.normal(size=(c, n)) * mean_scale,
                   rng.random((c, n)) * width_scale + width_floor,
                   rng.normal(size=(c, n + 1)) * theta_scale)


def x_for_membership(mean: float, width: float, target: float) -> float:
    """Input right of the mean where the membership equals ``target``."""
    return mean + width * math.sqrt(-math.log(target))


def membership(mean: float, width: float, x: float) -> float:
    """Membership of scalar ``x``: the firing of a one-input, one-rule model."""
    model = one_input_model((mean, width, [0.0, 0.0]))
    return float(firing_matrix(model, [[x]])[0, 0])


def rule_output_rows(model: TsModel, X) -> np.ndarray:
    """(N, C) affine consequent values of the rows of ``X``, from the
    rule-major kernel that predict and predict_batch run."""
    cols = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    scratch = np.empty((len(cols), model.rule_count, cols.shape[1]))
    return core._rule_output_rows(model, cols[:, None, :], scratch).T


def rule_outputs(model: TsModel, x) -> np.ndarray:
    """Affine consequent value of each rule at the single input ``x``."""
    return rule_output_rows(model, [x])[0]


class TestGaussianMf:
    def test_peak_at_mean(self):
        assert membership(5.0, 2.0, 5.0) == 1.0

    def test_unit_offset(self):
        assert membership(0.0, 1.0, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_far_tail(self):
        assert membership(0.0, 1.0, 10.0) == pytest.approx(math.exp(-100), rel=1e-12)

    def test_no_factor_two_in_denominator(self):
        # exp(-(x-m)^2 / s^2), not exp(-(x-m)^2 / (2 s^2))
        assert membership(0.0, 2.0, 2.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_symmetry_about_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mean, width = rng.normal(), abs(rng.normal()) + 0.1
            d = rng.normal() * 3
            left = membership(mean, width, mean - d)
            right = membership(mean, width, mean + d)
            assert abs(left - right) <= 1e-12

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            mean, width = rng.normal(), abs(rng.normal()) + 1e-3
            v = membership(mean, width, rng.normal() * 10)
            assert 0.0 <= v <= 1.0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="widths must be > 0"):
            one_input_model((0.0, 0.0, [0.0, 0.0]))
        with pytest.raises(ValueError, match="widths must be > 0"):
            one_input_model((0.0, -1.0, [0.0, 0.0]))

    def test_rejects_nonfinite_input(self):
        model = one_input_model((0.0, 1.0, [0.0, 1.0]))
        with pytest.raises(ValueError):
            predict(model, [float("nan")])
        with pytest.raises(ValueError):
            predict(model, [float("inf")])


class TestFiring:
    def test_minimum_of_memberships(self):
        model = TsModel(np.zeros((1, 3)), np.ones((1, 3)), np.zeros((1, 4)))
        x = np.array([x_for_membership(0.0, 1.0, t) for t in (0.8, 0.3, 0.5)])
        assert firing_matrix(model, [x])[0, 0] == pytest.approx(0.3, rel=1e-12)

    def test_all_mfs_peak(self):
        model = TsModel([[1.0, -2.0]], [[0.5, 3.0]], np.zeros((1, 3)))
        assert firing_matrix(model, [[1.0, -2.0]])[0, 0] == 1.0

    def test_single_input_equals_membership(self):
        expected = math.exp(-((3.3 - 2.0) ** 2) / 1.5**2)
        assert membership(2.0, 1.5, 3.3) == pytest.approx(expected, rel=1e-15)

    def test_dimension_mismatch(self):
        model = one_input_model((0.0, 1.0, [0.0, 0.0]))
        with pytest.raises(ValueError):
            firing_matrix(model, [[1.0, 2.0]])


class TestRuleOutput:
    def test_affine(self):
        assert rule_outputs(one_input_model((0, 1, [1.0, 2.0])), [3.0])[0] == 7.0

    def test_zero_coefficients(self):
        model = TsModel(np.zeros((1, 2)), np.ones((1, 2)), np.zeros((1, 3)))
        assert rule_outputs(model, [17.0, -4.0])[0] == 0.0

    def test_intercept_only(self):
        model = TsModel(np.zeros((1, 2)), np.ones((1, 2)), [[5.5, 0.0, 0.0]])
        assert rule_outputs(model, [123.0, -9.0])[0] == 5.5


class TestPredict:
    def test_single_rule_cancellation(self):
        model = one_input_model((0.0, 1.0, [2.0, -1.0]))
        # any firing > 0 cancels in the weighted average
        assert predict(model, [2.5]) == rule_outputs(model, [2.5])[0]

    def test_two_rules_equal_firing(self):
        # symmetric rules, sample at midpoint -> equal weights
        model = one_input_model((-1.0, 1.0, [2.0, 0.0]), (1.0, 1.0, [4.0, 0.0]))
        assert predict(model, [0.0]) == pytest.approx(3.0, rel=1e-12)

    def test_weighted_mean_arithmetic(self):
        w = np.array([0.25, 0.75])
        outputs = np.array([0.0, 4.0])
        assert (w * outputs).sum() / w.sum() == pytest.approx(3.0, rel=1e-15)
        # through the model: pick inputs so the firings hit 0.25 / 0.75
        x0 = x_for_membership(0.0, 1.0, 0.25)
        # second rule centred so its membership at x0 is 0.75
        shift = 1.0 * math.sqrt(-math.log(0.75))
        model = one_input_model((0.0, 1.0, [0.0, 0.0]), (x0 - shift, 1.0, [4.0, 0.0]))
        assert predict(model, [x0]) == pytest.approx(3.0, rel=1e-9)

    def test_firing_scale_invariance(self):
        # the aggregation normalises, so scaling every firing cancels
        rng = np.random.default_rng(3)
        w = rng.random(5) + 0.01
        out = rng.normal(size=5)
        base = (w * out).sum() / w.sum()
        scaled = ((7.3 * w) * out).sum() / (7.3 * w).sum()
        assert abs(base - scaled) <= 1e-12 * max(1.0, abs(base))

    def test_input_of_the_wrong_length_refused(self):
        model = one_input_model((0.0, 1.0, [2.0, -1.0]))
        with pytest.raises(ValueError, match=r"^input length \(2,\) does not match model "
                                             r"dimension 1$"):
            predict(model, [1.0, 2.0])

    def test_zero_rules_rejected(self):
        with pytest.raises(ValueError, match="at least one rule"):
            TsModel(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 2)))

    def test_output_bounded_by_rule_outputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            model = random_model(rng, c, n)
            x = rng.normal(size=n)
            outs = rule_outputs(model, x)
            y = predict(model, x)
            assert min(outs) - 1e-9 <= y <= max(outs) + 1e-9


class TestPredictBatch:
    def test_empty_matrix(self):
        model = one_input_model((0, 1, [0, 1]))
        out = predict_batch(model, np.zeros((0, 1)))
        assert out.shape == (0,)
        assert firing_matrix(model, np.zeros((0, 1))).shape == (0, 1)

    @pytest.mark.parametrize("fn", [predict_batch, firing_matrix])
    def test_empty_matrix_of_the_wrong_width_is_refused(self, fn):
        model = TsModel(np.zeros((2, 4)), np.ones((2, 4)), np.zeros((2, 5)))
        with pytest.raises(ValueError, match=r"expected \(N, 4\) input matrix, got shape \(0, 7\)"):
            fn(model, np.zeros((0, 7)))

    def test_single_row(self):
        model = one_input_model((0, 1, [1, 2]))
        out = predict_batch(model, [[3.0]])
        assert out.shape == (1,)
        assert out[0] == predict(model, [3.0])

    def test_identical_rows_identical_outputs(self):
        model = one_input_model((0, 1, [1, 2]), (4, 2, [-1, 0.5]))
        out = predict_batch(model, [[2.0], [2.0]])
        assert out[0] == out[1]

    def test_matches_predict_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            model = random_model(rng, c, n)
            X = rng.normal(size=(17, n)) * 3
            batch = predict_batch(model, X)
            for k in range(X.shape[0]):
                assert batch[k] == predict(model, X[k])

    @pytest.mark.parametrize("n", [8, 9, 12, 17])
    def test_one_rule_row_alone_matches_the_batch(self, n):
        # a one-rule model's single row is one contiguous run of products,
        # which numpy sums pairwise from 8 inputs on unless told otherwise
        rng = np.random.default_rng(n)
        model = random_model(rng, 1, n, width_scale=10.0)
        X = rng.normal(size=(200, n)) * 10.0 ** rng.integers(-3, 4, size=(200, n))
        batch, outputs = predict_batch(model, X), rule_output_rows(model, X)
        for k in range(X.shape[0]):
            assert rule_output_rows(model, X[k:k + 1])[0, 0] == outputs[k, 0], k
            assert predict(model, X[k]) == batch[k], k

    @pytest.mark.parametrize("c", [8, 9, 20, 129])
    def test_many_rule_row_alone_matches_the_batch(self, c):
        # a single row's rule sums are one contiguous run of C terms, which
        # numpy sums pairwise from 8 rules on unless told otherwise
        rng = np.random.default_rng(c)
        model = random_model(rng, c, 3, mean_scale=0.5, width_scale=5.0)
        X = rng.normal(size=(50, 3))
        batch = predict_batch(model, X)
        for k in range(X.shape[0]):
            assert predict(model, X[k]) == batch[k], k

    @pytest.mark.parametrize("layout", ["fortran", "strided", "transposed", "reversed"])
    @pytest.mark.parametrize("c", [1, 3, 8, 9])
    def test_parameter_layout_does_not_change_the_bits(self, c, layout):
        # the model copies its parameters in their own memory order; from
        # 8 rules on a single row's rule sums are one contiguous run
        rng = np.random.default_rng(c)
        params = [rng.normal(size=(c, 3)) * 0.5, rng.random((c, 3)) * 5.0 + 0.2,
                  rng.normal(size=(c, 4))]
        if layout == "fortran":
            held = [np.asfortranarray(a) for a in params]
        elif layout == "strided":  # every other row, every third column
            held = []
            for a in params:
                wide = np.full((2 * a.shape[0], 3 * a.shape[1]), np.nan)
                wide[::2, ::3] = a
                held.append(wide[::2, ::3])
        elif layout == "transposed":  # of C-contiguous (n, C) arrays
            held = [np.ascontiguousarray(a.T).T for a in params]
        else:  # negative strides
            held = [np.array(a[::-1, ::-1])[::-1, ::-1] for a in params]
        # one row in Fortran order is C-contiguous too
        one_row = c == 1 and layout in ("fortran", "transposed")
        assert one_row or not any(a.flags.c_contiguous for a in held)
        reference = TsModel(*(np.ascontiguousarray(a) for a in params))
        model = TsModel(*held)
        X = rng.normal(size=(60, 3))
        want = predict_batch(reference, X)
        assert predict_batch(model, X).tobytes() == want.tobytes()
        assert (firing_matrix(model, X).tobytes()
                == firing_matrix(reference, X).tobytes())
        for k in range(len(X)):
            assert predict(model, X[k]) == predict(reference, X[k]) == want[k], k

    def test_ordered_sum_adds_in_index_order_from_plus_zero(self):
        # C = 1..40: fewer than 8 terms, then runs that numpy would sum
        # pairwise; C = 129..136: more than 128 terms, which numpy's pairwise
        # sum splits in two.  N = 1 is one contiguous run, N = 40 slices.
        rng = np.random.default_rng(7)
        for c in [*range(1, 41), *range(129, 137)]:
            for n in (1, 40):
                a = rng.normal(size=(c, n)) * 10.0 ** rng.integers(-8, 9, size=(c, n))
                if n > 1:
                    a[:, :4] = -0.0  # summed from +0.0, these columns are +0.0
                    a[:, 4:8] = rng.choice([0.0, -0.0], size=(c, 4))
                want = np.zeros(n)
                for row in a:
                    want = want + row
                assert core._ordered_sum(a).tobytes() == want.tobytes(), (c, n)
        assert core._ordered_sum(np.full((9, 1), -0.0)).tobytes() == np.zeros(1).tobytes()

    def test_row_index_in_error(self):
        model = one_input_model((0, 1, [0, 1]))
        X = np.array([[1.0], [np.nan], [2.0]])
        with pytest.raises(ValueError, match="row 1"):
            predict_batch(model, X)


class TestDegenerateFallback:
    def make_far_model(self):
        # two tight rules; inputs far from both underflow the firing sum
        return one_input_model((0.0, 0.1, [1.0, 0.0]), (10.0, 0.1, [2.0, 0.0]))

    def test_fallback_picks_nearest_rule(self):
        model = self.make_far_model()
        # both inputs underflow every firing, so the fallback decides
        firing = firing_matrix(model, [[-500.0], [510.0]])
        assert np.all(firing.sum(axis=1) < DEGENERACY_FLOOR)
        assert predict(model, [-500.0]) == 1.0   # nearest premise mean is rule 0
        assert predict(model, [510.0]) == 2.0    # nearest is rule 1

    def test_firing_vector_degeneracy_flag(self):
        total = firing_matrix(self.make_far_model(), [[-500.0], [0.05]]).sum(axis=1)
        assert total[0] < DEGENERACY_FLOOR
        assert not total[1] < DEGENERACY_FLOOR

    def test_fallback_is_continuous_by_region(self):
        model = self.make_far_model()
        # everything left of the midpoint maps to rule 0's output
        for x in (-300.0, -100.0, -50.0):
            assert predict(model, [x]) == 1.0

    def test_unresolvable_spread_does_not_overflow(self):
        # the first input's means differ by 1e-300: scaling by that spread
        # would make both distances inf; it scales by 1.0 instead, so the
        # second input, where rule 1 matches exactly, decides
        model = TsModel([[0.0, 0.0], [1e-300, 10.0]], np.ones((2, 2)), np.zeros((2, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core.nearest_rule_index(model, [[1e6, 10.0]]).tolist() == [1]


class TestImmutability:
    def test_model_fields_frozen(self):
        model = one_input_model((0, 1, [0, 1]))
        for name in ("premise_means", "premise_widths", "consequents", "scheme"):
            with pytest.raises(AttributeError):
                setattr(model, name, None)

    def test_parameter_arrays_read_only(self):
        model = one_input_model((0, 1, [0.5, 1.5]))
        with pytest.raises(ValueError):
            model.premise_means[0, 0] = 9.9
        with pytest.raises(ValueError):
            model.premise_widths[0, 0] = 9.9
        with pytest.raises(ValueError):
            model.consequents[0, 0] = 9.9

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_every_array_the_model_holds_is_read_only(self, order):
        # the kernel's rule-major copies of the parameters included: a
        # contiguous copy of a read-only view is writable unless made not so
        rng = np.random.default_rng(3)
        model = TsModel(*(np.array(a, order=order) for a in (
            rng.normal(size=(3, 2)), rng.random((3, 2)) + 0.5, rng.normal(size=(3, 3)))))
        held = []
        for value in vars(model).values():
            held += value if isinstance(value, tuple) else [value]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert len(arrays) == 3 + len(model._rule_major)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 9.9
        assert predict(model, [0.1, 0.2]) == predict_batch(model, [[0.1, 0.2]])[0]

    def test_caller_arrays_are_copied(self):
        means, widths, theta = np.zeros((1, 1)), np.ones((1, 1)), np.array([[0.5, 1.5]])
        model = TsModel(means, widths, theta)
        means[0, 0] = widths[0, 0] = theta[0, 0] = 9.9
        assert model.premise_means[0, 0] == 0.0
        assert model.premise_widths[0, 0] == 1.0
        assert model.consequents[0, 0] == 0.5


def _with(matrix: int, row: int, value: float):
    """Parameters of a valid two-rule, one-input model with one entry replaced."""
    params = [np.zeros((2, 1)), np.ones((2, 1)), np.zeros((2, 2))]
    params[matrix][row, 0] = value
    return params


class TestModelChecks:
    @pytest.mark.parametrize("params,message", [
        ((np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 2))), "at least one rule and one input"),
        ((np.zeros((1, 0)), np.zeros((1, 0)), np.zeros((1, 1))), "at least one rule and one input"),
        (([0.0], [1.0], [0.0, 0.0]), "at least one rule and one input"),
        ((np.zeros((2, 1)), np.ones((1, 1)), np.zeros((2, 2))), r"expected widths of shape \(2, 1\)"),
        ((np.zeros((2, 1)), np.ones((2, 2)), np.zeros((2, 2))), r"expected widths of shape \(2, 1\)"),
        ((np.zeros((2, 1)), np.ones((2, 1)), np.zeros((2, 1))), r"consequents of shape \(2, 2\)"),
        ((np.zeros((2, 1)), np.ones((2, 1)), np.zeros((1, 2))), r"consequents of shape \(2, 2\)"),
        (_with(0, 1, np.nan), "rule 1: parameters must be finite"),
        (_with(0, 1, np.inf), "rule 1: parameters must be finite"),
        (_with(1, 1, np.nan), "rule 1: parameters must be finite"),
        (_with(1, 1, -np.inf), "rule 1: parameters must be finite"),
        (_with(2, 1, np.nan), "rule 1: parameters must be finite"),
        (_with(2, 1, np.inf), "rule 1: parameters must be finite"),
        (_with(1, 1, 0.0), "rule 1: premise widths must be > 0"),
        (_with(1, 0, -1.0), "rule 0: premise widths must be > 0"),
    ])
    def test_invalid_parameters_rejected(self, params, message):
        with pytest.raises(ValueError, match=message):
            TsModel(*params)


class TestSerialization:
    def roundtrip(self, model):
        return core.parse_model(core.dump_model(model))

    def test_value_exact_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            c, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            model = random_model(rng, c, n, mean_scale=1e3, width_scale=1e-3,
                                 width_floor=1e-8, theta_scale=1e5)
            back = self.roundtrip(model)
            assert np.array_equal(back.premise_means, model.premise_means)
            assert np.array_equal(back.premise_widths, model.premise_widths)
            assert np.array_equal(back.consequents, model.consequents)

    def test_file_roundtrip(self, tmp_path):
        model = one_input_model((1 / 3, math.pi, [math.e, -1 / 7]))
        path = tmp_path / "model.txt"
        core.save_model(model, path)
        back = core.load_model(path)
        assert np.array_equal(back.consequents, model.consequents)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            core.parse_model("format tsmodel-v9\ninput_dim 1\nrule_count 0\n")

    def test_rejects_rule_count_mismatch(self):
        text = core.dump_model(one_input_model((0, 1, [0, 1])))
        text = text.replace("rule_count 1", "rule_count 2")
        with pytest.raises(ValueError):
            core.parse_model(text)

    def test_scheme_roundtrip(self):
        rule = (0.5, 2.0, [1.0, -3.0])
        for scheme in (Scheme("gk", 2, 12),
                       Scheme("sc", 1, 0, ((-0.1, 0.0), (187.4, 9.600000000000001)))):
            back = self.roundtrip(one_input_model(rule, scheme=scheme))
            assert back.scheme == scheme
            assert np.array_equal(back.consequents, np.array([[1.0, -3.0]]))
        assert self.roundtrip(one_input_model(rule)).scheme is None

    def test_reads_v1_text(self):
        # written by the v1 serialiser, before models carried their scheme;
        # that format is no longer read
        v1 = ("format tsmodel-v1\ninput_dim 2\nrule_count 2\n"
              "rule 0\nmeans 0.3333333333333333 -2.5\nwidths 3.141592653589793 0.1\n"
              "theta 2.718281828459045 -0.14285714285714285 1e-300\n"
              "rule 1\nmeans 7.0 0.0\nwidths 1e-08 2.0\ntheta -0.0 500000.0 1.25\n")
        with pytest.raises(ValueError, match=r"^unsupported model format: 'tsmodel-v1'$"):
            core.parse_model(v1)
        v2 = v1.replace("tsmodel-v1", "tsmodel-v2")
        assert core.parse_model(v2).scheme is None  # the same rules as v2 text load

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.replace("means 0.5\n", ""), "rule 0: missing 'means' line"),
        (lambda t: t.replace("widths 2.0\n", ""), "rule 0: missing 'widths' line"),
        (lambda t: t.replace("theta 1.0 -3.0\n", ""), "rule 0: missing 'theta' line"),
        (lambda t: t.replace("input_dim 1\n", ""), "missing 'input_dim' line"),
        (lambda t: t.replace("rule_count 1", "rule_count x"), "line 3: bad rule_count"),
        (lambda t: t.replace("widths 2.0", "widths 2.o"), "rule 0: line 9: bad widths"),
        (lambda t: t.replace("stride 2", "stride two"), "line 5: bad stride"),
        (lambda t: t.replace("tsmodel-v2", "tsmodel-v9"), "unsupported model format"),
        (lambda t: t.replace("theta 1.0 -3.0", "theta 1.0"), "rule 0: row lengths do not match"),
        (lambda t: t.replace("widths 2.0", "widths 0.0"), "rule 0: premise widths must be > 0"),
        # lines out of dump_model's order, repeated, unknown or trailing
        (lambda t: t.replace("stride 2\n", "stride 2\nstride 7\n"),
         r"^missing 'lag' line, found 'stride' at line 6$"),
        (lambda t: t.replace("lag 12\n", "lag 12\nbogus 1\n"),
         r"^rule 0: missing 'rule' line, found 'bogus' at line 7$"),
        (lambda t: t + "theta 1.0 -3.0\n", r"^line 11: 'theta' after the last rule$"),
        (lambda t: t.replace("algorithm gk\nstride 2\nlag 12\n",
                             "norm_mins 0 0\nnorm_maxs 1 1\n"),
         r"^rule 0: missing 'rule' line, found 'norm_mins' at line 4$"),
        (lambda t: t.replace("rule 0", "rule 1"), r"^rule 0: line 7: found rule 1$"),
        (lambda t: t + "stride 3\n", r"^line 11: 'stride' after the last rule$"),
        # values that convert but that Scheme or TsModel refuses
        (lambda t: t.replace("stride 2", "stride 0"),
         r"^lines 5-6: scheme needs stride >= 1 and lag >= 0, got 0, 12$"),
        (lambda t: t.replace("lag 12", "lag -1"),
         r"^lines 5-6: scheme needs stride >= 1 and lag >= 0, got 2, -1$"),
        (lambda t: t.replace("widths 2.0", "widths -1.0"),
         r"^lines 7-10: rule 0: premise widths must be > 0$"),
        (lambda t: t.replace("means 0.5", "means nan"),
         r"^lines 7-10: rule 0: parameters must be finite$"),
        (lambda t: t.replace("rule_count 1", "rule_count 0").split("rule 0")[0],
         r"^lines 2-3: model needs at least one rule and one input"),
    ])
    def test_malformed_file_names_line_or_key(self, edit, message):
        text = core.dump_model(one_input_model((0.5, 2.0, [1.0, -3.0]),
                                               scheme=Scheme("gk", 2, 12)))
        with pytest.raises(ValueError, match=message):
            core.parse_model(edit(text))


class TestNonFiniteInput:
    """A non-finite entry is refused with the index of the first row holding
    one, by the batch and the single-row path alike, also beside a row that
    takes the nearest-rule fallback, and with no RuntimeWarning."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize("far_row", [None, 0, 4, 6])
    def test_first_non_finite_row_is_named(self, value, column, row, far_row):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, 3)
        X = rng.normal(size=(7, 3))
        if far_row is not None:
            X[far_row] = 1e3
            assert firing_matrix(model, X[far_row:far_row + 1]).sum() < DEGENERACY_FLOOR
        X[row, column] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^non-finite input at row {row}$"):
                predict_batch(model, X)
            with pytest.raises(ValueError, match=r"^non-finite input at row 0$"):
                predict(model, X[row])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_normalized_truth_refuses_non_finite_rows(self, value):
        model = random_model(np.random.default_rng(6), 2, 2)
        X = np.array([[0.0, 0.0], [1e3, 1e3], [0.5, value]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^non-finite input at row 2$"):
                core.normalized_truth(model, X)
