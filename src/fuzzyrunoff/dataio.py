"""Event-series ingestion, lag alignment, supervised-set construction, and
synthetic storm generation.

The supervised layout is fixed at four inputs per row: the previous output
and the three (lag-aligned) station rainfalls at the previous output's time
step, with the current output as target.  A prediction scheme is a stride
over the base sampling grid: stride 1 predicts one base interval ahead,
stride 10 predicts ten intervals ahead, each trained on its own strided
pairs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .atomicio import write_numeric_csv

EVENT_HEADER = ("timestamp", "rain1", "rain2", "rain3", "head")
SUPERVISED_COLUMNS = ("y_prev", "rain1", "rain2", "rain3", "head")


class DataValidationError(ValueError):
    """Raised when an input file or series violates the data contract."""


@dataclass
class EventSeries:
    """Uniformly sampled storm event: three rain gauges plus outlet head."""

    timestamps: np.ndarray  # seconds
    rain: np.ndarray        # (N, 3), mm per interval
    head: np.ndarray        # (N,), mm

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.rain = np.asarray(self.rain, dtype=float)
        self.head = np.asarray(self.head, dtype=float)
        n = self.timestamps.shape[0]
        if self.rain.shape != (n, 3) or self.head.shape != (n,):
            raise DataValidationError(
                f"channel lengths disagree: {n} timestamps, rain {self.rain.shape}, "
                f"head {self.head.shape}"
            )
        if n < 2:
            raise DataValidationError("event series needs at least 2 samples")
        for name, arr in (("timestamp", self.timestamps), ("rain", self.rain),
                          ("head", self.head)):
            if not np.all(np.isfinite(arr)):
                raise DataValidationError(f"non-finite value in column '{name}'")
        if np.any(self.rain < 0):
            k, j = np.argwhere(self.rain < 0)[0]
            raise DataValidationError(
                f"negative rainfall in column 'rain{j + 1}' at row {k}"
            )
        steps = np.diff(self.timestamps)
        if np.any(steps != steps[0]):
            k = int(np.argmax(steps != steps[0]))
            raise DataValidationError(
                f"non-uniform spacing at row {k + 1}: step {float(steps[k])!r}, "
                f"expected {float(steps[0])!r}"
            )
        if steps[0] <= 0:
            raise DataValidationError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return self.timestamps.shape[0]


def load_event_csv(path, base_interval: float) -> EventSeries:
    """Parse an event CSV (header ``timestamp,rain1,rain2,rain3,head``).

    Spacing must equal ``base_interval`` exactly; any missing value aborts
    (no imputation).
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataValidationError(f"{path}: empty file") from None
            if tuple(h.strip() for h in header) != EVENT_HEADER:
                raise DataValidationError(
                    f"{path}: expected header {','.join(EVENT_HEADER)!r}, "
                    f"got {','.join(header)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 5 or any(cell.strip() == "" for cell in row):
                    raise DataValidationError(
                        f"{path}: missing value at line {lineno} (no imputation)"
                    )
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError:
                    raise DataValidationError(
                        f"{path}: unparseable number at line {lineno}"
                    ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataValidationError(f"cannot read event file {path}: {exc}") from exc
    if len(rows) < 2:
        raise DataValidationError(f"{path}: need at least 2 data rows")
    arr = np.asarray(rows, dtype=float)
    steps = np.diff(arr[:, 0])
    bad = np.nonzero(steps != base_interval)[0]
    if bad.size:
        k = int(bad[0])
        raise DataValidationError(
            f"{path}: spacing {float(steps[k])!r} at row {k + 1} "
            f"(expected base interval {base_interval!r})"
        )
    try:
        return EventSeries(timestamps=arr[:, 0], rain=arr[:, 1:4], head=arr[:, 4])
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def write_event_csv(series: EventSeries, path) -> None:
    """Write an event CSV that round-trips through load_event_csv exactly."""
    columns = [series.timestamps, *series.rain.T, series.head]
    write_numeric_csv(path, EVENT_HEADER, [map(repr, c.tolist()) for c in columns])


# ---------------------------------------------------------------------------
# Lag estimation
# ---------------------------------------------------------------------------


def _lagged_correlation(x: np.ndarray, y: np.ndarray, max_lag: int) -> np.ndarray:
    """corr(x[:N-l], y[l:]) for l = 0..max_lag; nan when either side is
    constant."""
    out = np.full(max_lag + 1, np.nan)
    n = x.shape[0]
    for lag in range(max_lag + 1):
        a = x[: n - lag] if lag else x
        b = y[lag:]
        da = a - a.mean()
        db = b - b.mean()
        denom = np.sqrt((da**2).sum() * (db**2).sum())
        if denom > 0:
            out[lag] = (da * db).sum() / denom
    return out


def estimate_lag(series: EventSeries, max_lag: int | None = None) -> int:
    """Delay (in samples) from rainfall to outlet response.

    The argmax of the correlation between the summed rainfall and the head,
    so all input channels shift by the same delay.  Ties resolve to the
    smallest lag.
    """
    n = len(series)
    if max_lag is None:
        max_lag = max(1, n // 4)
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if n <= 2 * max_lag:
        raise DataValidationError(
            f"series length {n} must exceed twice the lag window {max_lag}"
        )
    total = series.rain.sum(axis=1)
    if not np.any(total > 0):
        raise DataValidationError("all rainfall channels are zero")
    corr = _lagged_correlation(total, series.head, max_lag)
    if np.all(np.isnan(corr)):
        raise DataValidationError("correlation undefined at every lag")
    return int(np.nanargmax(corr))


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------


@dataclass
class NormalizationRecord:
    """Per-column min/max of the supervised layout (4 inputs then target)."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=float)
        self.maxs = np.asarray(self.maxs, dtype=float)
        if self.mins.shape != (5,) or self.maxs.shape != (5,):
            raise DataValidationError("normalization record covers exactly 5 columns")
        if not (np.isfinite(self.mins).all() and np.isfinite(self.maxs).all()):
            raise DataValidationError("normalization record must be finite")
        if np.any(self.maxs <= self.mins):
            j = int(np.argmax(self.maxs <= self.mins))
            raise DataValidationError(
                f"constant column '{SUPERVISED_COLUMNS[j]}' cannot be normalised "
                f"(min == max == {float(self.mins[j])!r})"
            )

    @classmethod
    def from_supervised(cls, x: np.ndarray, y: np.ndarray) -> "NormalizationRecord":
        cols = np.hstack([x, y[:, None]])
        return cls(mins=cols.min(axis=0), maxs=cols.max(axis=0))

    def normalize_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mins[:4]) / (self.maxs[:4] - self.mins[:4])

    def normalize_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.mins[4]) / (self.maxs[4] - self.mins[4])

    def denormalize_y(self, y_norm: np.ndarray) -> np.ndarray:
        return y_norm * (self.maxs[4] - self.mins[4]) + self.mins[4]


def outside_unit_fraction(values) -> float:
    """Fraction of normalised values outside [0, 1] (extrapolation flag)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0
    return float(((v < 0) | (v > 1)).mean())


# ---------------------------------------------------------------------------
# Supervised sets
# ---------------------------------------------------------------------------


@dataclass
class SupervisedSet:
    """Rows [y_{k-s}, rain1, rain2, rain3] -> target y_k for stride s."""

    x: np.ndarray
    y: np.ndarray
    lag: int
    normalization: NormalizationRecord | None = None

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    def joined(self) -> np.ndarray:
        """Clustering-space matrix [X | y]."""
        return np.hstack([self.x, self.y[:, None]])


def build_supervised(series: EventSeries, lag: int, stride: int,
                     normalization=False) -> SupervisedSet:
    """Construct the 4-input supervised set for one prediction scheme.

    The rainfall channels are first shifted forward by ``lag`` samples
    (rain measured at time t acts on the outlet at t + lag).  Each row then
    pairs target y_k with y_{k-stride} and the aligned rainfall at step
    k - stride.

    ``normalization`` may be False (dimensional data), True (min-max scale
    every column to [0, 1] from this set's own statistics, i.e. this set is
    the training split), or an existing NormalizationRecord (scale with
    training statistics; used for validation splits so nothing leaks).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    n = len(series)
    start = lag + stride
    if n - start < 2:
        raise DataValidationError(
            f"series of length {n} too short for lag {lag} and stride {stride}; "
            f"need at least {start + 2} samples"
        )
    k = np.arange(start, n)
    x = np.column_stack([series.head[k - stride], series.rain[k - stride - lag]])
    y = series.head[k]

    record: NormalizationRecord | None = None
    if normalization is True:
        record = NormalizationRecord.from_supervised(x, y)
    elif isinstance(normalization, NormalizationRecord):
        record = normalization
    elif normalization is not False:
        raise ValueError("normalization must be False, True, or a NormalizationRecord")
    if record is not None:
        x = record.normalize_x(x)
        y = record.normalize_y(y)
    return SupervisedSet(x=x, y=y, lag=lag, normalization=record)


def scheme_sets(lag: int, stride: int, normalization: bool, train: EventSeries,
                *others: EventSeries) -> list[SupervisedSet]:
    """The supervised sets of one prediction scheme: the ``train`` set first,
    then one for each of ``others``, built and scaled the same way.

    Rain acts on the outlet ``lag`` samples later, and a row carries the rain
    of its forecast origin, ``stride`` samples before the target, so the rain
    shifts by ``lag - stride``, floored at 0 (a far horizon cannot see future
    rain); each set records the shift as its ``lag``.  With ``normalization``
    every set is scaled with the training set's min-max record, so nothing of
    the other events leaks into the scaling.  An event shorter than
    ``max(lag, stride) + 2`` samples is a data error naming ``lag``."""
    shift, need = max(0, lag - stride), max(lag, stride) + 2
    short = [len(series) for series in (train, *others) if len(series) < need]
    if short:
        raise DataValidationError(f"series of length {short[0]} too short for lag {lag} "
                                  f"and stride {stride}; need at least {need} samples")
    tset = build_supervised(train, lag=shift, stride=stride, normalization=normalization)
    record = tset.normalization if normalization else False
    return [tset] + [build_supervised(series, lag=shift, stride=stride,
                                      normalization=record) for series in others]


# ---------------------------------------------------------------------------
# Synthetic storm events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StormParams:
    """Shape of a synthetic storm and of the catchment response.

    A storm is a train of smooth pulses shared by all three stations; each
    station sees every pulse through its own fixed gain and timing offset
    (gauges of one catchment observe the same weather, scaled and shifted).
    The head follows the nonlinear reservoir recursion

        y_k = storage * y_{k-1} + gain * (sum_j rain_{j,k-lag})^exponent + noise

    which supplies the previous-output dependence the supervised layout
    assumes.  ``rain_resolution`` rounds the emitted rainfall to a
    tipping-bucket quantum (exact zeros between tips); the recursion is
    driven by the emitted (quantised) rainfall so the head stays an exact
    function of the reported inputs.

    Frozen: a bad field is a ValueError when the parameters are built.
    """

    pulses: tuple[int, int] = (1, 3)                   # inclusive draw range
    amplitude_range: tuple[float, float] = (2.0, 8.0)  # mm per interval
    width_range: tuple[float, float] = (120.0, 600.0)  # seconds
    station_gains: tuple[float, float, float] = (1.0, 1.0, 1.0)
    station_delays: tuple[float, float, float] = (0.0, 0.0, 0.0)  # seconds
    routing_lag: int = 5       # samples
    storage: float = 0.9
    gain: float = 0.08
    exponent: float = 1.0
    noise: float = 0.0         # std of the head noise, output units
    initial_head: float = 5.0  # mm
    rain_resolution: float = 0.0  # tipping-bucket quantum, mm; 0 = exact

    def __post_init__(self) -> None:
        if self.rain_resolution < 0:
            raise ValueError("rain_resolution must be >= 0")
        if not 0 <= self.storage < 1:
            raise ValueError(f"storage must be in [0, 1), got {self.storage}")
        if self.gain < 0 or self.noise < 0 or self.exponent <= 0:
            raise ValueError("gain and noise must be >= 0, exponent > 0")
        if self.routing_lag < 0:
            raise ValueError(f"routing_lag must be >= 0, got {self.routing_lag}")
        lo, hi = self.pulses
        if lo < 1 or hi < lo:
            raise ValueError(f"bad pulses range ({lo}, {hi})")
        lo_a, hi_a = self.amplitude_range
        if lo_a < 0 or hi_a < lo_a:  # zero amplitude = dry event, allowed
            raise ValueError(f"bad amplitude_range ({lo_a}, {hi_a})")
        lo_w, hi_w = self.width_range
        if lo_w <= 0 or hi_w < lo_w:
            raise ValueError(f"bad width_range ({lo_w}, {hi_w})")
        if len(self.station_gains) != 3 or any(g <= 0 for g in self.station_gains):
            raise ValueError("station_gains must be 3 positive factors")
        if len(self.station_delays) != 3 or any(d < 0 for d in self.station_delays):
            raise ValueError("station_delays must be 3 non-negative offsets")
        if self.initial_head < 0:
            raise ValueError("initial_head must be >= 0")


def synth_storm(seed: int, duration: float, base_interval: float,
                params: StormParams) -> EventSeries:
    """Deterministic synthetic storm event for desk-scale experiments.

    An event too long to allocate, or too long for numpy to size, is a
    MemoryError that gives its number of samples."""
    if not 0 < base_interval <= duration:
        raise ValueError("need duration >= base_interval > 0")
    try:
        n = int(round(duration / base_interval)) + 1
        t = np.arange(n) * float(base_interval)
    except (OverflowError, ValueError, MemoryError):  # ValueError: past numpy's limit
        raise MemoryError(f"an event of {duration / base_interval:.6g} samples is "
                          "too long to allocate") from None
    rng = np.random.default_rng(seed)

    rain = np.zeros((n, 3))
    lo, hi = params.pulses
    for _ in range(int(rng.integers(lo, hi + 1))):
        center = rng.uniform(0.05, 0.95) * duration
        width = rng.uniform(*params.width_range)
        amp = rng.uniform(*params.amplitude_range)
        for j in range(3):
            offset = center + params.station_delays[j]
            rain[:, j] += (amp * params.station_gains[j]
                           * np.exp(-((t - offset) ** 2) / (2.0 * width**2)))
    if params.rain_resolution > 0:
        # tipping-bucket style measurement: exact zeros between tips
        rain = np.round(rain / params.rain_resolution) * params.rain_resolution

    eps = rng.standard_normal(n)
    head = np.empty(n)
    head[0] = params.initial_head
    lag = params.routing_lag
    inflow = rain.sum(axis=1)
    for k in range(1, n):
        forcing = inflow[k - lag] if k - lag >= 0 else 0.0
        head[k] = (params.storage * head[k - 1]
                   + params.gain * forcing**params.exponent
                   + params.noise * eps[k])
    return EventSeries(timestamps=t, rain=rain, head=head)
