import dataclasses

import numpy as np
import pytest

from fuzzyrunoff.dataio import (
    DataValidationError,
    EventSeries,
    NormalizationRecord,
    StormParams,
    SupervisedSet,
    build_supervised,
    estimate_lag,
    load_event_csv,
    outside_unit_fraction,
    scheme_sets,
    synth_storm,
    write_event_csv,
)


def simple_series(n=40, base=30.0, head=None, rain=None):
    t = np.arange(n) * base
    if rain is None:
        rain = np.abs(np.sin(np.arange(n)[:, None] * 0.3 + np.array([0.0, 1.0, 2.0])))
    if head is None:
        head = 5.0 + np.arange(n, dtype=float)
    return EventSeries(timestamps=t, rain=rain, head=head)


def delayed_series(delay, n=80, base=30.0, seed=0):
    """Head is the summed rainfall shifted by `delay` samples (pure delay)."""
    rng = np.random.default_rng(seed)
    rain = rng.random((n, 3)) * 3.0
    head = np.zeros(n)
    total = rain.sum(axis=1)
    for k in range(n):
        head[k] = total[k - delay] if k - delay >= 0 else 0.0
    return EventSeries(timestamps=np.arange(n) * base, rain=rain, head=head)


class TestEventSeries:
    def test_uniform_spacing_required(self):
        t = np.array([0.0, 30.0, 61.0])
        with pytest.raises(DataValidationError,
                           match=r"^non-uniform spacing at row 2: step 31\.0, expected 30\.0$"):
            EventSeries(t, np.zeros((3, 3)), np.zeros(3))

    def test_negative_rainfall_named(self):
        t = np.arange(3) * 30.0
        rain = np.zeros((3, 3))
        rain[1, 2] = -0.5
        with pytest.raises(DataValidationError, match="rain3"):
            EventSeries(t, rain, np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            EventSeries(np.arange(4) * 30.0, np.zeros((3, 3)), np.zeros(3))

    @pytest.mark.parametrize("t, message", [
        ([0.0], "event series needs at least 2 samples"),
        ([30.0, 0.0], "timestamps must be strictly increasing"),
        ([0.0, 0.0, 0.0], "timestamps must be strictly increasing"),
    ])
    def test_too_few_samples_or_time_not_increasing(self, t, message):
        n = len(t)
        with pytest.raises(DataValidationError, match=f"^{message}$"):
            EventSeries(np.array(t), np.zeros((n, 3)), np.zeros(n))

    def test_channel_accessors(self):
        s = simple_series(5)
        assert len(s) == 5


class TestLoadEventCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "event.csv"
        path.write_text(text)
        return path

    def test_well_formed(self, tmp_path):
        path = self.write(tmp_path, "timestamp,rain1,rain2,rain3,head\n"
                                    "0,0.1,0.2,0.3,5\n30,0.2,0.1,0.4,6\n60,0,0,0,7\n")
        s = load_event_csv(path, base_interval=30.0)
        assert len(s) == 3
        assert s.head[2] == 7.0

    def test_spacing_error_names_row(self, tmp_path):
        path = self.write(tmp_path, "timestamp,rain1,rain2,rain3,head\n"
                                    "0,0,0,0,1\n31,0,0,0,2\n61,0,0,0,3\n")
        with pytest.raises(DataValidationError, match=r"spacing 31\.0 at row 1 \(expected"):
            load_event_csv(path, base_interval=30.0)

    def test_negative_rainfall_names_column(self, tmp_path):
        path = self.write(tmp_path, "timestamp,rain1,rain2,rain3,head\n"
                                    "0,0,-1,0,1\n30,0,0,0,2\n")
        with pytest.raises(DataValidationError, match="rain2"):
            load_event_csv(path, base_interval=30.0)

    def test_missing_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "timestamp,rain1,rain2,rain3,head\n"
                                    "0,0,,0,1\n30,0,0,0,2\n")
        with pytest.raises(DataValidationError, match="missing"):
            load_event_csv(path, base_interval=30.0)

    def test_header_checked(self, tmp_path):
        path = self.write(tmp_path, "time,r1,r2,r3,h\n0,0,0,0,1\n")
        with pytest.raises(DataValidationError, match="header"):
            load_event_csv(path, base_interval=30.0)

    def test_roundtrip_exact(self, tmp_path):
        s = synth_storm(seed=3, duration=600.0, base_interval=30.0,
                        params=StormParams(noise=0.1))
        path = tmp_path / "rt.csv"
        write_event_csv(s, path)
        back = load_event_csv(path, base_interval=30.0)
        assert np.array_equal(back.rain, s.rain)
        assert np.array_equal(back.head, s.head)


class TestEstimateLag:
    @pytest.mark.parametrize("delay", list(range(0, 11)))
    def test_recovers_pure_delay(self, delay):
        s = delayed_series(delay)
        assert estimate_lag(s, max_lag=15) == delay

    def test_shared_mode_on_mixed_delays(self):
        # channels delayed by 4 and 6; oracle = brute-force argmax of the
        # summed-rainfall correlation
        rng = np.random.default_rng(1)
        n = 100
        rain = rng.random((n, 3)) * 2.0
        rain[:, 2] = 0.0
        head = np.zeros(n)
        for k in range(n):
            a = rain[k - 4, 0] if k >= 4 else 0.0
            b = rain[k - 6, 1] if k >= 6 else 0.0
            head[k] = a + b
        rain[:, 2] = rng.random(n) * 0.01  # keep channel 3 non-zero
        s = EventSeries(np.arange(n) * 30.0, rain, head)
        max_lag = 12
        total = s.rain.sum(axis=1)
        corr = []
        for lag in range(max_lag + 1):
            a = total[: n - lag] if lag else total
            b = head[lag:]
            corr.append(np.corrcoef(a, b)[0, 1])
        oracle = int(np.argmax(corr))
        got = estimate_lag(s, max_lag=max_lag)
        assert got == oracle
        assert got in (4, 5, 6)

    def test_all_zero_rainfall_rejected(self):
        n = 50
        s = EventSeries(np.arange(n) * 30.0, np.zeros((n, 3)),
                        np.linspace(1.0, 2.0, n))
        with pytest.raises(DataValidationError):
            estimate_lag(s, max_lag=5)

    def test_default_window_is_a_quarter_of_the_series_and_at_least_one(self):
        # three samples: n // 4 is 0, and the window of 1 still finds the delay
        s = EventSeries(np.arange(3) * 30.0, [[1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3],
                        [0.0, 1.0, 0.0])
        assert estimate_lag(s) == 1
        # a delay of 12 lies beyond the default window of 40 // 4 = 10
        s = delayed_series(12, n=40)
        assert estimate_lag(s, max_lag=15) == 12
        assert estimate_lag(s) == estimate_lag(s, max_lag=10) != 12

    def test_constant_head_has_no_correlation(self):
        s = simple_series(20, head=np.full(20, 5.0))
        with pytest.raises(DataValidationError, match="^correlation undefined at every lag$"):
            estimate_lag(s, max_lag=3)

    def test_window_precondition(self):
        s = simple_series(20)
        with pytest.raises(DataValidationError):
            estimate_lag(s, max_lag=10)

    def test_negative_window_is_a_bad_argument(self):
        # a ValueError, not a DataValidationError: the caller's setting is at fault
        with pytest.raises(ValueError, match="max_lag must be >= 0, got -1") as info:
            estimate_lag(delayed_series(2), max_lag=-1)
        assert not isinstance(info.value, DataValidationError)


class TestBuildSupervised:
    def test_row_count_stride_one(self):
        s = simple_series(302)
        sset = build_supervised(s, lag=0, stride=1)
        assert sset.n_rows == 301

    def test_index_arithmetic_oracle(self):
        # X[r] must equal [head[k-s], rain[k-s-L]] for the target head[k]
        s = simple_series(60)
        lag, stride = 3, 2
        sset = build_supervised(s, lag=lag, stride=stride)
        rng = np.random.default_rng(2)
        for r in rng.integers(0, sset.n_rows, size=5):
            k = lag + stride + r
            assert sset.y[r] == s.head[k]
            assert sset.x[r, 0] == s.head[k - stride]
            assert np.array_equal(sset.x[r, 1:], s.rain[k - stride - lag])

    @pytest.mark.parametrize("stride,rows", [(1, 301), (2, 300), (5, 297), (10, 292)])
    def test_scheme_strides(self, stride, rows):
        s = simple_series(302)
        sset = build_supervised(s, lag=0, stride=stride)
        assert sset.n_rows == rows

    def test_normalization_roundtrip(self):
        s = simple_series(50)
        sset = build_supervised(s, lag=1, stride=1, normalization=True)
        assert sset.normalization is not None
        y_back = sset.normalization.denormalize_y(sset.y)
        raw = build_supervised(s, lag=1, stride=1)
        assert np.allclose(y_back, raw.y, atol=1e-12)
        assert sset.y.min() >= -1e-12 and sset.y.max() <= 1 + 1e-12

    def test_training_record_applied_to_validation(self):
        train = simple_series(50)
        valid = simple_series(50, head=50.0 + np.arange(50, dtype=float))
        tset = build_supervised(train, lag=0, stride=1, normalization=True)
        vset = build_supervised(valid, lag=0, stride=1,
                                normalization=tset.normalization)
        # validation head exceeds the training max -> values above 1
        assert vset.y.max() > 1.0
        assert outside_unit_fraction(vset.y) > 0.0

    @pytest.mark.parametrize("lag, stride, message", [
        (0, 0, "stride must be >= 1, got 0"),
        (-1, 1, "lag must be >= 0, got -1"),
    ])
    def test_bad_lag_or_stride_refused(self, lag, stride, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_supervised(simple_series(20), lag=lag, stride=stride)

    def test_too_short_rejected(self):
        s = simple_series(12)
        with pytest.raises(DataValidationError, match="at least"):
            build_supervised(s, lag=6, stride=6)

    def test_joined_layout(self):
        s = simple_series(30)
        sset = build_supervised(s, lag=0, stride=1)
        z = sset.joined()
        assert z.shape == (29, 5)
        assert np.array_equal(z[:, 4], sset.y)


class TestSchemeSets:
    @pytest.mark.parametrize("lag,stride,shift", [(5, 1, 4), (5, 5, 0), (3, 10, 0),
                                                  (0, 2, 0)])
    def test_rain_shifts_by_lag_minus_stride_floored_at_zero(self, lag, stride, shift):
        train, valid = simple_series(60), simple_series(50, head=np.linspace(3, 9, 50))
        sets = scheme_sets(lag, stride, False, train, valid)
        assert [s.lag for s in sets] == [shift, shift]
        for sset, series in zip(sets, (train, valid)):
            want = build_supervised(series, lag=shift, stride=stride)
            assert sset.normalization is None
            assert np.array_equal(sset.x, want.x) and np.array_equal(sset.y, want.y)

    def test_every_set_is_scaled_with_the_training_record(self):
        train = simple_series(50)
        others = [simple_series(50, head=50.0 + np.arange(50.0)), simple_series(40)]
        tset, *rest = scheme_sets(4, 2, True, train, *others)
        assert tset.x.min() == 0.0 and tset.x.max() == 1.0
        for sset, series in zip(rest, others):
            assert sset.normalization is tset.normalization
            want = build_supervised(series, lag=2, stride=2, normalization=tset.normalization)
            assert np.array_equal(sset.x, want.x) and np.array_equal(sset.y, want.y)

    @pytest.mark.parametrize("short_one", ["train", "other"])
    def test_too_short_names_the_configured_lag(self, short_one):
        events = [simple_series(30)] if short_one == "train" else [simple_series(500),
                                                                   simple_series(30)]
        with pytest.raises(DataValidationError) as info:
            scheme_sets(400, 1, False, *events)
        assert str(info.value) == ("series of length 30 too short for lag 400 and stride 1; "
                                   "need at least 402 samples")

    def test_training_set_alone(self):
        sets = scheme_sets(1, 1, True, simple_series(30))
        assert len(sets) == 1 and sets[0].lag == 0 and sets[0].normalization is not None


class TestNormalization:
    def test_column_scaling(self):
        x = np.tile([[0.0, 1.0, 2.0, 3.0]], (3, 1)) + np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 5.0, 10.0])
        rec = NormalizationRecord.from_supervised(x, y)
        assert np.allclose(rec.normalize_y(y), [0.0, 0.5, 1.0], atol=1e-15)

    def test_constant_column_rejected(self):
        x = np.ones((3, 4))
        x[:, 1] = [1.0, 2.0, 3.0]
        y = np.array([0.0, 5.0, 10.0])
        with pytest.raises(DataValidationError, match="y_prev"):
            NormalizationRecord.from_supervised(x, y)

    def test_extrapolation_allowed_and_flagged(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        y = np.array([0.0, 5.0, 10.0])
        rec = NormalizationRecord.from_supervised(x, y)
        normalized = rec.normalize_y(np.array([12.0]))
        assert normalized[0] == pytest.approx(1.2, rel=1e-12)
        assert outside_unit_fraction(normalized) == 1.0
        assert rec.denormalize_y(normalized)[0] == pytest.approx(12.0, rel=1e-12)

    def test_no_values_give_a_zero_fraction(self):
        assert outside_unit_fraction([]) == 0.0

    def test_apply_normalization_guard(self):
        # a training record re-applied to its own series reproduces the
        # training set; anything but False, True or a record is refused
        s = simple_series(30)
        sset = build_supervised(s, lag=0, stride=1, normalization=True)
        again = build_supervised(s, lag=0, stride=1, normalization=sset.normalization)
        assert np.array_equal(again.x, sset.x) and np.array_equal(again.y, sset.y)
        with pytest.raises(ValueError, match="normalization must be"):
            build_supervised(s, lag=0, stride=1, normalization="yes")

    def test_order_preserving(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        rec = NormalizationRecord.from_supervised(x, y)
        yn = rec.normalize_y(y)
        assert np.array_equal(np.argsort(yn), np.argsort(y))


class TestSynthStorm:
    def test_hand_recursion_oracle(self):
        params = StormParams(pulses=(1, 1), exponent=1.0, noise=0.0,
                             routing_lag=4, storage=0.85, gain=0.1)
        s = synth_storm(seed=7, duration=3000.0, base_interval=30.0, params=params)
        total = s.rain.sum(axis=1)
        # recompute the recursion independently at a few points
        for k in (1, 40, 90):
            forcing = total[k - 4] if k - 4 >= 0 else 0.0
            expected = 0.85 * s.head[k - 1] + 0.1 * forcing
            assert s.head[k] == pytest.approx(expected, rel=1e-12)

    def test_zero_rainfall_decays_geometrically(self):
        params = StormParams(amplitude_range=(0.0, 0.0), exponent=1.0,
                             storage=0.9, gain=0.1, noise=0.0, initial_head=8.0)
        s = synth_storm(seed=1, duration=1500.0, base_interval=30.0, params=params)
        assert np.all(s.rain == 0.0)
        expected = 8.0
        for k in range(1, len(s)):
            expected *= 0.9
            assert s.head[k] == pytest.approx(expected, rel=1e-12)

    def test_deterministic(self):
        params = StormParams(noise=0.3)
        a = synth_storm(seed=11, duration=3000.0, base_interval=30.0, params=params)
        b = synth_storm(seed=11, duration=3000.0, base_interval=30.0, params=params)
        assert np.array_equal(a.rain, b.rain)
        assert np.array_equal(a.head, b.head)

    def test_validates_params(self):
        with pytest.raises(ValueError):
            StormParams(storage=1.2)
        with pytest.raises(ValueError):
            StormParams(exponent=0.0)
        with pytest.raises(ValueError):
            StormParams(station_gains=(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("field, value, message", [
        ("rain_resolution", -0.1, "rain_resolution must be >= 0"),
        ("storage", 1.0, r"storage must be in \[0, 1\), got 1.0"),
        ("gain", -1.0, "gain and noise must be >= 0, exponent > 0"),
        ("noise", -1.0, "gain and noise must be >= 0, exponent > 0"),
        ("exponent", -1.0, "gain and noise must be >= 0, exponent > 0"),
        ("routing_lag", -1, "routing_lag must be >= 0, got -1"),
        ("pulses", (0, 2), r"bad pulses range \(0, 2\)"),
        ("pulses", (3, 2), r"bad pulses range \(3, 2\)"),
        ("amplitude_range", (-1.0, 2.0), r"bad amplitude_range \(-1.0, 2.0\)"),
        ("amplitude_range", (3.0, 2.0), r"bad amplitude_range \(3.0, 2.0\)"),
        ("width_range", (0.0, 10.0), r"bad width_range \(0.0, 10.0\)"),
        ("width_range", (20.0, 10.0), r"bad width_range \(20.0, 10.0\)"),
        ("station_gains", (1.0, 1.0), "station_gains must be 3 positive factors"),
        ("station_gains", (1.0, -1.0, 1.0), "station_gains must be 3 positive factors"),
        ("station_delays", (0.0, 0.0), "station_delays must be 3 non-negative offsets"),
        ("station_delays", (0.0, -1.0, 0.0), "station_delays must be 3 non-negative offsets"),
        ("initial_head", -1.0, "initial_head must be >= 0"),
    ])
    def test_refuses_each_bad_field_when_built(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            StormParams(**{field: value})

    def test_fields_cannot_be_assigned(self):
        params = StormParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.storage = 1.2
        assert params.storage == 0.9

    @pytest.mark.parametrize("duration, base_interval", [
        (3000.0, 0.0), (3000.0, -30.0), (20.0, 30.0)])
    def test_duration_below_one_interval_refused(self, duration, base_interval):
        with pytest.raises(ValueError, match=r"^need duration >= base_interval > 0$"):
            synth_storm(seed=1, duration=duration, base_interval=base_interval,
                        params=StormParams())

    def test_series_is_valid_event(self):
        s = synth_storm(seed=5, duration=9000.0, base_interval=30.0,
                        params=StormParams(exponent=1.5, noise=0.2))
        assert len(s) == 301
        assert np.all(np.diff(s.timestamps) == 30.0)
        assert np.all(s.rain >= 0)

    def test_station_gains_scale_channels(self):
        params = StormParams(pulses=(2, 2), station_gains=(2.0, 1.0, 0.5),
                             noise=0.0)
        s = synth_storm(seed=9, duration=6000.0, base_interval=30.0, params=params)
        # same pulses, scaled per station (no delays configured)
        assert np.allclose(s.rain[:, 0], 2.0 * s.rain[:, 1], atol=1e-12)
        assert np.allclose(s.rain[:, 2], 0.5 * s.rain[:, 1], atol=1e-12)

    def test_rain_quantisation(self):
        params = StormParams(rain_resolution=0.2, noise=0.0)
        s = synth_storm(seed=3, duration=6000.0, base_interval=30.0, params=params)
        steps = s.rain / 0.2
        assert np.allclose(steps, np.round(steps), atol=1e-9)
