import math

import numpy as np
import pytest

from fuzzyrunoff.evalmetrics import MetricSet, metric_set, rmse


class TestRmse:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0

    def test_constant_offset(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y + 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_offset_identity(self):
        # rmse(y, yhat + c)^2 = rmse(y, yhat)^2 + c^2 + 2 c mean(yhat - y)
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        yhat = rng.normal(size=50)
        c = 0.7
        lhs = rmse(y, yhat + c) ** 2
        rhs = rmse(y, yhat) ** 2 + c**2 + 2 * c * float(np.mean(yhat - y))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestCe:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 4.0])
        assert metric_set(y, y).ce == 1.0

    def test_as_bad_as_the_mean_scores_zero(self):
        # yhat - mean = 2 (y - mean) leaves a residual sum of squares of F0
        y = np.array([1.0, 2.0, 4.0])
        assert metric_set(y, 2 * y - y.mean()).ce == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert metric_set([0.0, 2.0], [2.0, 0.0]).ce == pytest.approx(-3.0, rel=1e-12)

    def test_constant_observed_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            metric_set([2.0, 2.0], [1.0, 3.0])

    def test_identity_with_rmse(self):
        # ce == 1 - N rmse^2 / F0
        rng = np.random.default_rng(1)
        y = rng.normal(size=40)
        yhat = y + rng.normal(size=40) * 0.3
        f0 = float(np.sum((y - y.mean()) ** 2))
        assert metric_set(y, yhat).ce == pytest.approx(
            1 - len(y) * rmse(y, yhat) ** 2 / f0, rel=1e-12)


class TestVe:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert metric_set(y, y).ve == 0.0

    def test_underprediction_positive(self):
        y = np.array([1.0, 2.0, 3.0])
        assert metric_set(y, 0.9 * y).ve == pytest.approx(10.0, rel=1e-12)

    def test_overprediction_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert metric_set(y, 1.1 * y).ve == pytest.approx(-10.0, rel=1e-12)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError, match="sums to zero"):
            metric_set([1.0, -1.0], [1.0, 2.0])


class TestR:
    def test_positive_affine(self):
        y = np.array([1.0, 2.0, 5.0, 3.0])
        assert metric_set(y, 2 * y + 5).r == pytest.approx(1.0, rel=1e-12)

    def test_negation(self):
        y = np.array([1.0, 2.0, 5.0, 3.0])
        assert metric_set(y, -y).r == pytest.approx(-1.0, rel=1e-12)

    def test_orthogonal_pair(self):
        # deviations (1, -1, 0) and (-1, -1, 2) / 3; the observed sum is 3
        assert abs(metric_set([2.0, 0.0, 1.0], [0.0, 0.0, 1.0]).r) <= 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=30)
        yhat = rng.normal(size=30)
        base = metric_set(y, yhat).r
        assert metric_set(3 * y + 1, yhat).r == pytest.approx(base, abs=1e-10)
        assert metric_set(y, 0.5 * yhat - 4).r == pytest.approx(base, abs=1e-10)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            metric_set([1.0, 2.0], [5.0, 5.0])


def test_metric_set_bundles_all_four():
    rng = np.random.default_rng(3)
    y = rng.normal(size=25) + 10
    yhat = y + rng.normal(size=25) * 0.1
    ms = metric_set(y, yhat)
    assert ms.rmse == rmse(y, yhat)
    assert np.isfinite([ms.rmse, ms.ce, ms.ve, ms.r]).all()
    assert ms.rmse >= 0
    assert -1 <= ms.r <= 1


def separate_passes(y, yhat) -> MetricSet:
    """The four criteria, each from its own pass over the pair."""
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    f0 = float(np.sum((y - y.mean()) ** 2))
    dy, dp = y - y.mean(), yhat - yhat.mean()
    return MetricSet(
        rmse=float(np.sqrt(np.mean((y - yhat) ** 2))),
        ce=1.0 - float(np.sum((y - yhat) ** 2)) / f0,
        ve=(float(np.sum(y)) - float(np.sum(yhat))) / float(np.sum(y)) * 100.0,
        r=float(np.sum(dy * dp)) / (float(np.sqrt(np.sum(dy**2)))
                                   * float(np.sqrt(np.sum(dp**2)))),
    )


def test_metric_set_equals_separate_passes_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(300):
        size, scale = int(rng.integers(2, 400)), 10.0 ** rng.uniform(-6, 6)
        y = (rng.normal(size=size) + rng.normal()) * scale
        yhat = y + rng.normal(size=size) * scale * rng.uniform(0, 2)
        got, want = metric_set(y, yhat), separate_passes(y, yhat)
        assert np.array([got.rmse, got.ce, got.ve, got.r]).tobytes() == \
            np.array([want.rmse, want.ce, want.ve, want.r]).tobytes()


@pytest.mark.parametrize("y, yhat, message", [
    ([], [], "empty series"),
    ([1.0], [1.0, 2.0], "length mismatch"),
    ([2.0, 2.0], [1.0, 1.0], "constant"),  # ce's error before ve's and r's
    ([1.0, -1.0], [3.0, 3.0], "sums to zero"),  # ve's error before r's
    ([1.0, 2.0], [5.0, 5.0], "zero variance"),
    # equal values whose mean rounds off them: CE would read -8.65e31, r -1.2e-16
    ([0.1] * 3, [0.2, 0.1, 0.3],
     r"^observed series is constant \(0\.1\); there is nothing to score$"),
    ([1.0, 2.0, 4.0], [0.7] * 3, "zero variance"),
    ([1e-200, 2e-200], [1.0, 2.0], r"zero variance \(F0 = 0\)"),  # the spread underflows
])
def test_metric_set_raises_the_first_error_of_rmse_ce_ve_r(y, yhat, message):
    with pytest.raises(ValueError, match=message):
        metric_set(y, yhat)
