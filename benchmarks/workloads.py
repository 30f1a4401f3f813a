"""The three benchmark workloads: inputs, one timed iteration, correctness gate.

Every workload uses the storm regime of the acceptance gate (``STORM_REGIME``
in ``tests/test_acceptance.py``) at a 30 s base interval.  The workload seed
draws the noise realisation of each event; the storm schedule (pulse times,
widths, amplitudes) is that of the fixed reference events 0 (training) and
1000 (validation), as in the acceptance gate's first event.  A new schedule
per seed would change the clustering cost by about a third and the
validation RMSE by up to three times between seeds (measured on 16 seeds),
which no regression bound could absorb; a new noise realisation keeps the
cost and the error comparable while every input differs bit for bit.  The
library receives only the generated storms: clustering seeds stay fixed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from fuzzyrunoff import cli, core, dataio, evalmetrics, identify, validity
from calibration import slowdown
from fuzzyrunoff.clustering import ClusterConfig
from tracing import load_modules, replace_everywhere, restore

STORM_REGIME = dataio.StormParams(
    pulses=(3, 6),
    amplitude_range=(8.0, 16.0),
    width_range=(600.0, 1500.0),
    station_gains=(1.3, 0.8, 1.1),
    station_delays=(0.0, 30.0, 60.0),
    routing_lag=5,
    storage=0.9,
    gain=0.08,
    exponent=1.5,
    noise=0.05,
    initial_head=5.0,
    rain_resolution=0.2,
)
BASE_INTERVAL = 30.0
TRAIN_SCHEDULE = 0
VALIDATION_SCHEDULE = 1000
CLUSTER_SEED = 42
MAX_LAG = 20

# Event durations in seconds: the full benchmark and the smoke mode.
DURATIONS = {
    "full": {"train": 90000.0, "validation": 90000.0, "forecast_validation": 360000.0},
    "smoke": {"train": 4500.0, "validation": 4500.0, "forecast_validation": 9000.0},
}

# Streamed predict calls per latency block: a few tens of milliseconds, short
# enough that other tenants' load on the host is about constant within one.
BLOCK_CALLS = 2000

# A model's validation RMSE may differ from the recorded reference by this
# relative amount (round-off from reordered reductions), not more.
RMSE_RTOL = 1e-6


def storm(schedule: int, seed: int, stream: int, duration: float) -> dataio.EventSeries:
    """The reference schedule's storm with the seed's noise realisation.

    The head recursion is linear in its noise term, so the noisy head is the
    noise-free head plus the noise filtered through the same storage.
    """
    clean = dataio.synth_storm(schedule, duration, BASE_INTERVAL,
                               replace(STORM_REGIME, noise=0.0))
    eps = np.random.default_rng([seed, stream]).standard_normal(len(clean))
    noise = np.zeros(len(clean))  # the initial head carries no noise
    for k in range(1, len(clean)):
        noise[k] = STORM_REGIME.storage * noise[k - 1] + eps[k]
    return dataio.EventSeries(clean.timestamps, clean.rain,
                              clean.head + STORM_REGIME.noise * noise)


@dataclass
class Outcome:
    """What one iteration did and what the gate found."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    rmse: dict = field(default_factory=dict)  # model name -> validation RMSE, output units
    # Every timing below comes with the slowdown measured around it (see
    # calibration.py), or 1.0 when the iteration is not calibrated.
    stages: dict = field(default_factory=dict)  # stage of the timed run -> (seconds, slowdown)
    rows_per_s: list = field(default_factory=list)  # (batch rows/s, slowdown) per forecast pass
    latency: list = field(default_factory=list)  # (p50 us, p99 us, slowdown) per streamed block
    streamed: int = 0  # streamed predict calls
    layer: dict = field(default_factory=dict)  # per-layer values measured from outside

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def absorb(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def bits_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.view(np.int64) != b.view(np.int64)


class Clock:
    """Times consecutive stages, each with the slowdown around it: the
    geometric mean of the slowdowns measured at its start and at its end
    (see calibration.py).  The measuring is part of no stage.  An
    uncalibrated clock reports a slowdown of 1.0 and measures nothing."""

    def __init__(self, calibrated: bool):
        self.calibrated = calibrated
        self.factor = self._slowdown()
        self.start = time.perf_counter()

    def _slowdown(self) -> float:
        return slowdown() if self.calibrated else 1.0

    def lap(self) -> tuple:
        """End the current stage and start the next: (seconds, slowdown)."""
        seconds = time.perf_counter() - self.start
        factor = self._slowdown()
        sample = (seconds, math.sqrt(self.factor * factor))
        self.factor = factor
        self.start = time.perf_counter()
        return sample


def forecast_pass(models, outcome: Outcome, clock: Clock) -> None:
    """Batch and streaming forecasts of each (name, model, supervised set).

    The batch path is ``predict_batch`` plus ``metric_set`` over all rows.
    The streaming path is one caller that waits for each ``predict``, row by
    row, going through the rows in blocks of about ``BLOCK_CALLS`` calls and
    feeding each block to every model in turn.  Each block's 50th and 99th
    percentile of the calls' latency is kept, and each block and the batch
    path are timed as stages.
    Streamed outputs must equal the batch outputs bit for bit.
    """
    rows = 0
    batch = {}
    for name, model, vset in models:
        batch[name] = core.predict_batch(model, vset.x)
        ms = evalmetrics.metric_set(vset.y, batch[name])
        rows += vset.n_rows
        outcome.attempted += 1
        outcome.rmse[name] = ms.rmse
    batch_s, factor = outcome.stages["batch"] = clock.lap()
    outcome.rows_per_s.append((rows / batch_s, factor))
    streamed = {name: np.empty(vset.n_rows) for name, _, vset in models}
    block = -(-BLOCK_CALLS // len(models))
    for lo in range(0, max(vset.n_rows for _, _, vset in models), block):
        lat = []
        for name, model, vset in models:
            x, out = vset.x, streamed[name]
            for k in range(lo, min(lo + block, vset.n_rows)):
                t = time.perf_counter()
                out[k] = core.predict(model, x[k])
                lat.append(time.perf_counter() - t)
        _, factor = outcome.stages[f"stream{lo}"] = clock.lap()
        p50, p99 = np.percentile(lat, [50, 99]) * 1e6
        outcome.latency.append((float(p50), float(p99), factor))
        outcome.streamed += len(lat)
    for name, _, vset in models:
        outcome.attempted += vset.n_rows
        bad = int(bits_differ(streamed[name], batch[name]).sum())
        if bad:
            outcome.fail(f"{name}: {bad} streamed rows differ from predict_batch", bad)


def check_rmse(outcome: Outcome, reference: dict | None) -> None:
    """Finite validation errors, and equal to the reference when there is one."""
    for name, value in outcome.rmse.items():
        if not math.isfinite(value):
            outcome.fail(f"{name}: validation RMSE is not finite")
        elif reference is not None:
            want = reference.get(name)
            if want is None or abs(value - want) > RMSE_RTOL * abs(want):
                outcome.fail(f"{name}: validation RMSE {value!r}, reference {want!r}")
    if reference is not None and set(reference) != set(outcome.rmse):
        outcome.fail(f"models {sorted(outcome.rmse)} differ from reference {sorted(reference)}")


class Stamps:
    """The stages of one timed step, each with the slowdown around it.

    A step of several seconds is split where the library reports progress,
    so that each stage is short enough for the load of other tenants to be
    about constant over the stage and the measuring around it.
    """

    def __init__(self, calibrated: bool):
        self.clock = Clock(calibrated)
        self.stages = []

    def mark(self) -> None:
        self.stages.append(self.clock.lap())

    def record(self, step: str, stages: dict) -> None:
        """End the step and add its stages to ``stages``."""
        self.mark()
        for i, stage in enumerate(self.stages):
            stages[f"{step}.{i}"] = stage


class LineStamps(io.StringIO):
    """A text stream that marks a stage boundary at every line written."""

    def __init__(self, stamps: Stamps):
        super().__init__()
        self.stamps = stamps

    def write(self, text: str) -> int:
        if "\n" in text:
            self.stamps.mark()
        return super().write(text)


def quiet(fn, *args, stamps: Stamps):
    """Call ``fn`` with the CLI's progress lines kept off the result stream;
    each line marks a stage boundary."""
    with contextlib.redirect_stdout(LineStamps(stamps)), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        return fn(*args), err.getvalue()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        # whether iterations measure the slowdown around each stage; traced
        # runs do not, as the bursts would land inside library spans
        self.calibrated = True
        self.seed = seed
        self.workdir = workdir
        self.durations = DURATIONS[size]

    def setup(self) -> None:
        """Build the inputs; called several times, also between repetitions,
        so it must be idempotent."""
        raise NotImplementedError

    def iteration(self, k: int) -> Outcome:
        """One timed run of the workload."""
        raise NotImplementedError

    def check(self, k: int, outcome: Outcome, reference: dict | None) -> None:
        """Correctness gate for iteration ``k``, after the timer has stopped."""
        raise NotImplementedError

    def probe(self, k: int, seconds: float) -> Outcome:
        """Untimed forecast passes with iteration ``k``'s models, repeated
        for at least ``seconds``, for workloads whose timed run does not
        forecast."""
        models = self.probe_models(k)
        probe = Outcome()
        end = time.perf_counter() + seconds
        forecast_pass(models, probe, Clock(calibrated=True))
        while time.perf_counter() < end:
            forecast_pass(models, probe, Clock(calibrated=True))
        return probe

    def probe_models(self, k: int) -> list:
        """(name, model, supervised validation set) of iteration ``k``."""
        raise NotImplementedError

    def record(self, outcome: Outcome) -> dict:
        """The reference entry this outcome would write."""
        return {"valid_rmse": outcome.rmse}

    def cleanup(self, k: int) -> None:
        """Drop what iteration ``k`` left behind once it is checked."""


# ---------------------------------------------------------------------------


CLI_CONFIG = """\
# fuzzyrunoff experiment: the README pipeline on the acceptance storm regime
seed = {cluster_seed}
base_interval = {base_interval}
train_csv = {train_csv}
validation_csv = {validation_csv}
algorithms = gk,fcm,sc
clusters = 3
strides = 1,2,5,10
normalization = both
lag = auto
max_lag = {max_lag}
synth_duration = {duration}
storm_pulses = 3,6
storm_amplitude = 8,16
storm_width = 600,1500
storm_station_gains = 1.3,0.8,1.1
storm_station_delays = 0,30,60
storm_routing_lag = 5
storm_storage = 0.9
storm_gain = 0.08
storm_exponent = 1.5
storm_noise = 0.05
storm_initial_head = 5.0
storm_rain_resolution = 0.2
"""
CLI_STEPS = ("synth", "train", "evaluate", "compare")
CLI_MODELS = 3 * 4 * 2  # algorithms x strides x scalings


class CliExperiment(Workload):
    """synth -> train -> evaluate -> compare through ``cli.main``.

    ``synth`` writes its own event pair from the workload seed; ``train`` and
    ``evaluate`` read the seeded events written at set-up (see the module
    docstring for why the schedule is fixed).
    """

    name = "cli-experiment"

    def setup(self) -> None:
        inputs = os.path.join(self.workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        self.train = storm(TRAIN_SCHEDULE, self.seed, 0, self.durations["train"])
        self.valid = storm(VALIDATION_SCHEDULE, self.seed, 1, self.durations["validation"])
        paths = {}
        for key, series in (("train_csv", self.train), ("validation_csv", self.valid)):
            paths[key] = os.path.join(inputs, f"{key}.csv")
            dataio.write_event_csv(series, paths[key])
        self.config = os.path.join(inputs, "experiment.conf")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(CLI_CONFIG.format(cluster_seed=CLUSTER_SEED, base_interval=BASE_INTERVAL,
                                       max_lag=MAX_LAG, duration=self.durations["train"],
                                       **paths))

    def out(self, k: int) -> str:
        return os.path.join(self.workdir, f"run{k}")

    def iteration(self, k: int) -> Outcome:
        outcome = Outcome()
        out = self.out(k)
        for step in CLI_STEPS:
            args = [step, "--config", self.config, "--out", out]
            if step == "synth":
                args = [step, "--config", self.config, "--seed", str(self.seed),
                        "--out", os.path.join(out, "synth")]
            stamps = Stamps(self.calibrated)
            rc, err = quiet(cli.main, args, stamps=stamps)
            stamps.record(step, outcome.stages)
            outcome.attempted += 1
            if rc != 0:
                outcome.fail(f"{step} exited {rc}: {err.strip()}")
        return outcome

    def check(self, k: int, outcome: Outcome, reference: dict | None) -> None:
        out = self.out(k)
        models_dir = os.path.join(out, "models")
        names = sorted(f[: -len(".model.txt")] for f in os.listdir(models_dir)
                       if f.endswith(".model.txt")) if os.path.isdir(models_dir) else []
        outcome.attempted += CLI_MODELS
        if len(names) != CLI_MODELS:
            outcome.fail(f"{len(names)} models trained, expected {CLI_MODELS}",
                         abs(CLI_MODELS - len(names)))
        report = os.path.join(out, "forecast_report.csv")
        rows = []
        if os.path.exists(report):
            with open(report, newline="", encoding="utf-8") as fh:
                rows = [r for r in csv.DictReader(fh) if r["split"] == "validation"]
        if len(rows) != len(names) or not rows:
            outcome.fail(f"forecast_report.csv has {len(rows)} validation rows "
                         f"for {len(names)} models")
        if not os.path.exists(os.path.join(out, "compare.md")):
            outcome.fail("compare.md missing")
        for split in ("train.csv", "validation.csv"):
            path = os.path.join(out, "synth", split)
            if not os.path.exists(path):
                outcome.fail(f"synth did not write {split}")
            elif len(dataio.load_event_csv(path, BASE_INTERVAL)) != len(self.train):
                outcome.fail(f"synth {split} has the wrong length")
        for name in names:
            series = os.path.join(out, "series", f"series_{name}.csv")
            if os.path.exists(series):
                outcome.rmse[name] = self._series_rmse(series)
            else:
                outcome.fail(f"evaluate wrote no series for {name}")
        check_rmse(outcome, reference and reference["valid_rmse"])
        outcome.layer["cli.bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files)

    @staticmethod
    def _series_rmse(path) -> float:
        """Validation RMSE in output units from a CLI series file."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            cols = ("observed_mm", "predicted_mm") if "observed_mm" in reader.fieldnames \
                else ("observed", "predicted")
            pairs = np.array([[float(r[cols[0]]), float(r[cols[1]])] for r in reader])
        return evalmetrics.rmse(pairs[:, 0], pairs[:, 1])

    def probe_models(self, k: int) -> list:
        # the stride-1 models of the last iteration, on the validation event,
        # aligned and scaled as the CLI aligned and scaled them in training
        lag = max(0, dataio.estimate_lag(self.train, max_lag=MAX_LAG) - 1)
        record = dataio.build_supervised(self.train, lag=lag, stride=1,
                                         normalization=True).normalization
        models = []
        for algorithm in ("gk", "fcm", "sc"):
            for scaling, norm in (("dim", False), ("norm", record)):
                name = f"{algorithm}_s1_{scaling}"
                model = core.load_model(os.path.join(self.out(k), "models",
                                                     f"{name}.model.txt"))
                vset = dataio.build_supervised(self.valid, lag=lag, stride=1,
                                               normalization=norm)
                models.append((name, model, vset))
        return models

    def cleanup(self, k: int) -> None:
        shutil.rmtree(self.out(k), ignore_errors=True)


class RuleSweep(Workload):
    """fit_model(..., c_range=range(2, 9)) for gk and for fcm."""

    name = "rule-sweep"
    C_RANGE = range(2, 9)

    def setup(self) -> None:
        self.train = storm(TRAIN_SCHEDULE, self.seed, 0, self.durations["train"])
        self.valid = storm(VALIDATION_SCHEDULE, self.seed, 1, self.durations["validation"])
        lag = dataio.estimate_lag(self.train, max_lag=MAX_LAG)
        self.tset = dataio.build_supervised(self.train, lag=lag, stride=1)
        self.vset = dataio.build_supervised(self.valid, lag=lag, stride=1)

    def iteration(self, k: int) -> Outcome:
        outcome = Outcome()
        self.results = []
        for algorithm in ("gk", "fcm"):
            cfg = ClusterConfig(algorithm=algorithm, n_clusters=2, seed=CLUSTER_SEED)
            stamps = Stamps(self.calibrated)
            with capture_sweeps(stamps.mark) as sweeps:
                model, report = identify.fit_model(self.tset.joined(), cfg, c_range=self.C_RANGE)
            stamps.record(algorithm, outcome.stages)
            self.results.append((algorithm, model, report, sweeps))
        return outcome

    def check(self, k: int, outcome: Outcome, reference: dict | None) -> None:
        self.sweeps = {}
        for algorithm, model, report, sweeps in self.results:
            outcome.attempted += len(self.C_RANGE) + 1
            if len(sweeps) != 1:
                outcome.fail(f"{algorithm}: expected one validity sweep, observed {len(sweeps)}")
                continue
            sweep = sweeps[0]
            self.sweeps[algorithm] = sweep
            for c, message in sweep.failures.items():
                outcome.fail(f"{algorithm}: clustering failed at C={c}: {message}")
            optima = dict(sweep.per_index_optimum)
            if sweep.consensus != validity.consensus_count(optima.values()):
                outcome.fail(f"{algorithm}: consensus {sweep.consensus} is not the mode "
                             f"of {optima}")
            if report.consensus_c != sweep.consensus or model.rule_count != sweep.consensus:
                outcome.fail(f"{algorithm}: fitted {model.rule_count} rules for consensus "
                             f"{sweep.consensus}")
            if reference is not None:
                want = reference["sweep"][algorithm]
                if sweep.consensus != want["consensus"] or optima != want["per_index"]:
                    outcome.fail(f"{algorithm}: consensus {sweep.consensus} optima {optima}, "
                                 f"reference {want}")
            yhat = core.predict_batch(model, self.vset.x)
            outcome.rmse[f"{algorithm}_consensus"] = evalmetrics.rmse(self.vset.y, yhat)
        check_rmse(outcome, reference and reference["valid_rmse"])

    def probe_models(self, k: int) -> list:
        return [(f"{a}_consensus", model, self.vset) for a, model, _, _ in self.results]

    def record(self, outcome: Outcome) -> dict:
        return {"valid_rmse": outcome.rmse,
                "sweep": {a: {"consensus": s.consensus, "per_index": dict(s.per_index_optimum)}
                          for a, s in self.sweeps.items()}}


@contextlib.contextmanager
def capture_sweeps(mark):
    """Collect the ValidityReport of every sweep fit_model runs; fit_model
    returns only the consensus, and the gate checks the per-index optima.
    Each C of a sweep, once scored, calls ``mark``."""
    modules = load_modules()
    original = modules["validity"].sweep_clusters
    reports = []

    def capturing(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append(report)
        return report

    undo = replace_everywhere(modules, original, capturing)
    scoring = getattr(modules["validity"], "all_indices", None)
    if scoring is not None:  # without it, a sweep is one stage
        def marking(*args, **kwargs):
            values = scoring(*args, **kwargs)
            mark()
            return values

        undo += replace_everywhere(modules, scoring, marking)
    try:
        yield reports
    finally:
        restore(undo)


class Forecast(Workload):
    """Operational forecasting with trained models on a long validation event."""

    name = "forecast"
    MODELS = (("gk_c3", "gk", 3), ("fcm_c3", "fcm", 3), ("gk_c6", "gk", 6), ("sc", "sc", 2))

    def setup(self) -> None:
        train = storm(TRAIN_SCHEDULE, self.seed, 0, self.durations["train"])
        valid = storm(VALIDATION_SCHEDULE, self.seed, 1, self.durations["forecast_validation"])
        lag = dataio.estimate_lag(train, max_lag=MAX_LAG)
        tset = dataio.build_supervised(train, lag=lag, stride=1)
        self.vset = dataio.build_supervised(valid, lag=lag, stride=1)
        models_dir = os.path.join(self.workdir, "models")
        os.makedirs(models_dir, exist_ok=True)
        self.paths = []
        for name, algorithm, c in self.MODELS:
            cfg = ClusterConfig(algorithm=algorithm, n_clusters=c, seed=CLUSTER_SEED)
            model, _ = identify.fit_model(tset.joined(), cfg)
            path = os.path.join(models_dir, f"{name}.model.txt")
            core.save_model(model, path)
            self.paths.append((name, path))

    def iteration(self, k: int) -> Outcome:
        outcome = Outcome()
        clock = Clock(self.calibrated)
        models = [(name, core.load_model(path), self.vset) for name, path in self.paths]
        outcome.stages["load"] = clock.lap()
        forecast_pass(models, outcome, clock)
        return outcome

    def check(self, k: int, outcome: Outcome, reference: dict | None) -> None:
        check_rmse(outcome, reference and reference["valid_rmse"])


WORKLOADS = {w.name: w for w in (CliExperiment, RuleSweep, Forecast)}
