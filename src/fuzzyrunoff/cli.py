"""Experiment driver: synthesize events, sweep rule counts, train per-scheme
models, evaluate forecasts, and rank algorithms.

Subcommands: ``synth``, ``sweep``, ``train``, ``evaluate``, ``compare``.
Every subcommand takes ``--config`` (a key = value text file), plus
``--seed`` and ``--out`` overrides.  Outputs are plain CSV/text, put in
place only once the subcommand succeeds, with a manifest (config hash,
seed, versions) from which they can be reproduced.  Exit codes: 0 ok,
2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys
import uuid
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy

from . import __version__, core
from .atomicio import write_atomic, write_csv, write_numeric_csv
from .clustering import ALGORITHMS, TAKES_RULE_COUNT, ClusterConfig, NumericalError
from .dataio import (
    SUPERVISED_COLUMNS,
    DataValidationError,
    EventSeries,
    NormalizationRecord,
    StormParams,
    build_supervised,
    estimate_lag,
    load_event_csv,
    outside_unit_fraction,
    scheme_sets,
    synth_storm,
    write_event_csv,
)
from .evalmetrics import metric_set
from .identify import fit_model
from .validity import sweep_clusters


class ConfigError(ValueError):
    """Bad or missing configuration value."""


# ---------------------------------------------------------------------------
# Config file: `key = value` lines, '#' comments, commas for lists.
# ---------------------------------------------------------------------------


def parse_config(path) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key '{key}' already set at line "
                              f"{first_line[key]}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: key '{key}' has no value")
        values[key], first_line[key] = value, lineno
    return values


# ClusterConfig's fields that a config key of the same name sets
_TUNED = tuple(f for f in fields(ClusterConfig)
               if f.name not in ("algorithm", "n_clusters", "seed"))
# the storm regime of synth; its other fields keep StormParams' defaults
_STORM = StormParams(pulses=(3, 6), amplitude_range=(6.0, 14.0), width_range=(600.0, 1500.0),
                     station_gains=(1.3, 0.8, 1.1), station_delays=(0.0, 30.0, 60.0),
                     exponent=1.5, noise=0.05, rain_resolution=0.2)
# StormParams' field that each storm_<field> key sets, any _range suffix dropped
_STORM_KEYS = {f"storm_{f.name.removesuffix('_range')}": f.name for f in fields(StormParams)}
# every key the subcommands read and its default, whose type is the type
# Experiment.get reads; None where a key has no default or one derived where
# it is read
CONFIG_DEFAULTS = {
    "out": "out", "seed": 0, "base_interval": 30.0, "train_csv": None, "validation_csv": None,
    "algorithms": ",".join(ALGORITHMS), "clusters": 3, "c_max": 8,
    **{f.name: f.default for f in _TUNED},
    "strides": "1", "normalization": "off", "lag": "auto", "max_lag": None,
    "include_train": "off", "models_dir": None, "reports": None, "synth_duration": 9000.0,
    **{key: getattr(_STORM, name) for key, name in _STORM_KEYS.items()}}
# main refuses any other key
CONFIG_KEYS = frozenset(CONFIG_DEFAULTS)


@dataclass
class Experiment:
    """Typed view of the config with defaults, and the outputs of its run."""

    raw: dict[str, str]
    out: str
    seed: int
    pending: list = field(default_factory=list, init=False)  # (output, temporary) pairs

    def output(self, *parts) -> str:
        """A unique temporary name beside the output ``out/<parts>``, which
        main renames into place if the run succeeds and removes otherwise."""
        path = os.path.join(self.out, *parts)
        self.pending.append((path, f"{path}.{uuid.uuid4().hex}.pending"))
        return self.pending[-1][1]

    def get(self, key, derived=None):
        """The value of ``key``, or its default in CONFIG_DEFAULTS, or else
        ``derived``.  A default that is an int, a float or a tuple of them
        reads the value as an integer, a finite number or as many
        comma-separated values; any other default reads it as text."""
        default = derived if CONFIG_DEFAULTS[key] is None else CONFIG_DEFAULTS[key]
        if key not in self.raw or not isinstance(default, (int, float, tuple)):
            return self.raw.get(key, default)
        if isinstance(default, tuple):
            parts = [p.strip() for p in self.raw[key].split(",")]
            if len(parts) != len(default):
                raise ConfigError(f"config key '{key}' needs {len(default)} "
                                  "comma-separated values")
            kind = type(default[0])
            what = "integers" if kind is int else "numeric"
        else:
            parts, kind = [self.raw[key]], type(default)
            what = "an integer" if kind is int else "a number"
        try:
            values = tuple(kind(p) for p in parts)
        except ValueError:
            raise ConfigError(f"config key '{key}' must be {what}") from None
        if kind is float and not all(map(math.isfinite, values)):
            raise ConfigError(f"config key '{key}' must be a finite number")
        if key == "base_interval" and values[0] <= 0:
            raise ConfigError("config key 'base_interval' must be > 0")
        return values if isinstance(default, tuple) else values[0]

    @property
    def algorithms(self) -> list[str]:
        names = [a.strip() for a in self.get("algorithms").split(",") if a.strip()]
        if not names:
            raise ConfigError("config key 'algorithms' must list at least one algorithm")
        for a in names:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm '{a}' in config")
        if len(set(names)) < len(names):
            raise ConfigError("config key 'algorithms' repeats an algorithm")
        return names

    @property
    def strides(self) -> list[int]:
        try:
            strides = [int(s) for s in self.get("strides").split(",") if s.strip()]
        except ValueError:
            raise ConfigError("config key 'strides' must be integers") from None
        if not strides or any(s < 1 for s in strides):
            raise ConfigError("config key 'strides' must list positive integers")
        if len(set(strides)) < len(strides):
            raise ConfigError("config key 'strides' repeats a stride")
        return strides

    @property
    def normalization_modes(self) -> list[bool]:
        modes = {"off": [False], "on": [True], "both": [False, True]}
        mode = self.get("normalization")
        if mode not in modes:
            raise ConfigError("config key 'normalization' must be on, off, or both")
        return modes[mode]

    def rule_counts(self, algorithm: str, n_rows: int, sweep: bool):
        """(cfg, c_range) of a fit of ``algorithm`` on ``n_rows`` rows, cfg from
        the keys named after ClusterConfig's numeric fields, with its defaults.
        sc finds its own rule count; a ``sweep`` starts cfg at 2 and sweeps
        2..c_max; otherwise the count is ``clusters`` (3 by default)."""
        cfg = ClusterConfig(algorithm=algorithm, n_clusters=2, seed=self.seed,
                            **{f.name: self.get(f.name) for f in _TUNED})
        if algorithm not in TAKES_RULE_COUNT:
            return cfg, None
        key = "c_max" if sweep else "clusters"
        c = self.get("c_max") if sweep else self.get("clusters")
        if c < 2:
            raise ConfigError(f"config key '{key}' must be >= 2")
        if c >= n_rows:
            raise ConfigError(f"{key}={c} must be < supervised rows N={n_rows}")
        return (cfg, range(2, c + 1)) if sweep else (replace(cfg, n_clusters=c), None)

    def storm_params(self) -> StormParams:
        """_STORM with the storm_<field> keys set.  Every key is read before
        any is set, so that a value that does not parse comes first; then
        each is set on its own, so that a refused value names its key.  That
        is sound because each condition StormParams checks reads one field:
        no refusal depends on the order in which the keys are set."""
        values = {key: self.get(key) for key in _STORM_KEYS}
        params = _STORM
        for key, value in values.items():
            try:
                params = replace(params, **{_STORM_KEYS[key]: value})
            except ValueError as exc:
                raise ConfigError(f"config key '{key}': {exc}") from None
        return params

    def load_series(self, key) -> EventSeries:
        if key not in self.raw:
            raise ConfigError(f"missing config key '{key}'")
        return load_event_csv(self.raw[key], self.get("base_interval"))

    def training_sets(self, strides, modes) -> dict:
        """The supervised set of the train_csv event for each (stride,
        normalized) of ``strides`` and ``modes``, built once by scheme_sets
        at the configured or estimated lag; a data error names train_csv.
        The lag, and max_lag when the lag is estimated, are read before the
        event, as callers read the other keys, so that a config fault comes
        before a data fault; an unset max_lag leaves estimate_lag its own
        window."""
        lag = self.get("lag")
        if lag != "auto":
            try:
                lag = int(lag)
            except ValueError:
                raise ConfigError("config key 'lag' must be 'auto' or an integer") from None
            if lag < 0:
                raise ConfigError("config key 'lag' must be >= 0")
        max_lag = self.get("max_lag", 0) if lag == "auto" and "max_lag" in self.raw else None
        if max_lag is not None and max_lag < 0:
            raise ConfigError(f"max_lag must be >= 0, got {max_lag}")
        series = self.load_series("train_csv")
        try:
            if lag == "auto":
                lag = estimate_lag(series, max_lag=max_lag)
            return {(stride, normalized): scheme_sets(lag, stride, normalized, series)[0]
                    for stride in strides for normalized in modes}
        except DataValidationError as exc:
            raise DataValidationError(f"train_csv: {exc}") from None


def _write_manifest(exp: Experiment, command: str) -> None:
    canonical = "\n".join(f"{k} = {exp.raw[k]}" for k in sorted(exp.raw))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    lines = [
        f"command {command}",
        f"config_sha256 {digest}",
        f"seed {exp.seed}",
        f"fuzzyrunoff {__version__}",
        f"numpy {np.__version__}",
        f"scipy {scipy.__version__}",
        "",
        canonical,
        "",
    ]
    write_atomic(exp.output(f"manifest_{command}.txt"), "\n".join(lines))


def _combo_name(algorithm: str, stride: int, normalized: bool) -> str:
    return f"{algorithm}_s{stride}_{'norm' if normalized else 'dim'}"


def _combo_label(algorithm: str, normalized: bool) -> str:
    label = algorithm.upper()
    return f"{label} (N)" if normalized else label


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(exp: Experiment) -> None:
    """Write synthetic train and validation storm events."""
    params = exp.storm_params()
    duration = exp.get("synth_duration")
    for name, seed in (("train.csv", exp.seed), ("validation.csv", exp.seed + 1)):
        try:
            series = synth_storm(seed, duration, exp.get("base_interval"), params)
        except MemoryError as exc:
            raise ConfigError("config keys 'synth_duration' and 'base_interval': "
                              f"{exc}") from None
        write_event_csv(series, exp.output(name))
        print(f"wrote {os.path.join(exp.out, name)} ({len(series)} samples)")


def cmd_sweep(exp: Experiment) -> None:
    """Score the six validity indices over C for gk and fcm."""
    algorithms = [a for a in exp.algorithms if a in TAKES_RULE_COUNT]
    if not algorithms:
        raise ConfigError(f"sweep needs {' or '.join(TAKES_RULE_COUNT)} in 'algorithms' "
                          "(subtractive clustering has no C parameter)")
    for algorithm in algorithms:  # a bad setting comes before a fault in train_csv
        exp.rule_counts(algorithm, math.inf, True)
    sset, = exp.training_sets(exp.strides[:1], [True in exp.normalization_modes]).values()
    for algorithm in algorithms:
        cfg, c_range = exp.rule_counts(algorithm, sset.n_rows, True)
        try:
            report = sweep_clusters(sset.joined(), cfg, c_range)
        except NumericalError as exc:
            raise NumericalError(f"{algorithm}: {exc}") from None
        report.to_csv(exp.output(f"validity_{algorithm}.csv"))
        lines = [f"consensus {report.consensus}"]
        lines += [f"{name} {c}" for name, c in sorted(report.per_index_optimum.items())]
        write_atomic(exp.output(f"optima_{algorithm}.txt"), "\n".join(lines) + "\n")
        print(f"{algorithm}: consensus C = {report.consensus} "
              f"(per-index {report.per_index_optimum})")


def cmd_train(exp: Experiment) -> None:
    """Fit one model per algorithm, stride and scaling."""
    algorithms = exp.algorithms
    sweep = exp.raw.get("clusters") == "sweep"
    for algorithm in algorithms:  # a bad setting comes before a fault in train_csv
        exp.rule_counts(algorithm, math.inf, sweep)
    sets = exp.training_sets(exp.strides, exp.normalization_modes)
    # sc clusters each stride once: both scalings of it normalise to the
    # same bits, so they share one partition (see fit_model)
    partitions = {}
    for algorithm in algorithms:
        for (stride, normalized), sset in sets.items():
            cfg, c_range = exp.rule_counts(algorithm, sset.n_rows, sweep)
            name = _combo_name(algorithm, stride, normalized)
            try:
                model, fit = fit_model(sset.joined(), cfg, c_range=c_range,
                                       partitions=partitions)
            except (DataValidationError, NumericalError, np.linalg.LinAlgError) as exc:
                raise type(exc)(f"train_csv: {name}: {exc}") from None
            # SC's rule count, and so the parameter count, is known only now
            if sset.n_rows < model.consequents.size:
                raise DataValidationError(
                    f"train_csv: {name}: {sset.n_rows} rows cannot determine "
                    f"{model.consequents.size} consequent parameters")
            record = sset.normalization
            norm = None if record is None else (tuple(record.mins.tolist()),
                                                tuple(record.maxs.tolist()))
            scheme = core.Scheme(algorithm, stride, sset.lag, norm)
            core.save_model(replace(model, scheme=scheme),
                            exp.output("models", f"{name}.model.txt"))
            fit.to_csv(exp.output("reports", f"fit_{name}.csv"))
            print(f"trained {name}: rules={fit.n_rules} "
                  f"train_rmse={fit.train.rmse:.6g}")
    print(f"{len(algorithms) * len(sets)} model(s) in {os.path.join(exp.out, 'models')}")


def _metric_row(label, stride, split, ms):
    return [label, stride, split, repr(ms.rmse), repr(ms.ve), repr(ms.ce), repr(ms.r)]


def _score(model: core.TsModel, sset, key: str):
    """(metrics, predictions) of ``model`` on the supervised rows ``sset``.
    A split that metric_set refuses, such as a constant observed series, is
    a data error naming its CSV ``key``."""
    yhat = core.predict_batch(model, sset.x)
    try:
        return metric_set(sset.y, yhat), yhat
    except ValueError as exc:
        raise DataValidationError(f"{key}: {exc}") from None


def _evaluable_model(path: str, name: str, allowed):
    """The model at ``path`` and its scheme's scaling record (None for a
    dimensional model).  A file that cannot be read or parsed, that records
    no scheme or a bad scaling record, or whose width is not that of a
    supervised row, is a data error naming ``path``; a stride that is not
    configured is a config error."""
    try:
        model = core.load_model(path)
    except (OSError, ValueError) as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
    scheme = model.scheme
    if scheme is None:
        raise DataValidationError(f"{path}: the model records no training scheme; "
                                  "retrain it with train to evaluate it")
    if scheme.stride not in allowed:
        raise ConfigError(
            f"model {name} was trained for stride {scheme.stride}, "
            f"which is not in the configured strides {sorted(allowed)}"
        )
    try:
        record = NormalizationRecord(*scheme.normalization) if scheme.normalization else None
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None
    if model.input_dim != len(SUPERVISED_COLUMNS) - 1:
        raise DataValidationError(f"{path}: the model takes {model.input_dim} inputs, "
                                  f"a supervised row has {len(SUPERVISED_COLUMNS) - 1}")
    return model, record


def cmd_evaluate(exp: Experiment) -> None:
    """Score every model into the forecast report and series."""
    include_train = exp.get("include_train")
    if include_train not in ("on", "off"):
        raise ConfigError("config key 'include_train' must be on or off")
    allowed = set(exp.strides)
    models_dir = exp.get("models_dir", os.path.join(exp.out, "models"))
    validation = exp.load_series("validation_csv")
    train_series = exp.load_series("train_csv") if include_train == "on" else None
    try:
        names = sorted(f[: -len(".model.txt")] for f in os.listdir(models_dir)
                       if f.endswith(".model.txt"))
    except OSError as exc:
        raise DataValidationError(f"cannot list models in {models_dir}: {exc}") from exc
    if not names:
        raise DataValidationError(f"no models found in {models_dir}")

    # every model is checked, in name order, before any is scored; then the
    # models are scored and written one scheme at a time, the schemes in the
    # order of their first model, so that only one scheme's rows and text
    # are held at once
    schemes: dict[tuple, tuple] = {}
    for name in names:
        path = os.path.join(models_dir, f"{name}.model.txt")
        model, record = _evaluable_model(path, name, allowed)
        # repr tells the scaling records apart bit for bit (-0.0 from 0.0)
        key = (model.scheme.stride, model.scheme.lag, repr(model.scheme.normalization))
        schemes.setdefault(key, (path, record, []))[2].append((name, model))
    report, extrapolation = {}, {}
    for (stride, lag, _), (path, record, models) in schemes.items():
        # the scheme's rows of an event, built once; an event too short for its
        # lag and stride, or a record that scales a row beyond the largest
        # float (a valid but tiny range), is a data error naming the scheme's
        # first model file and the event's key
        def rows_of(series, key):
            try:
                with np.errstate(over="raise"):
                    return build_supervised(series, lag=lag, stride=stride,
                                            normalization=record or False)
            except DataValidationError as exc:
                raise DataValidationError(f"{path}: {key}: {exc}") from None
            except FloatingPointError:
                raise DataValidationError(f"{path}: scaling the {key} rows by its "
                                          "normalization record overflows") from None

        vset, tset = rows_of(validation, "validation_csv"), None
        header = ["index", "observed", "predicted"]
        # the text of the columns every model shares, and lazily that of each
        # model's forecasts: the repr of a float is the text csv writes for it
        shared = [list(map(str, range(vset.n_rows))), list(map(repr, vset.y.tolist()))]
        if record is not None:
            header += ["observed_mm", "predicted_mm"]
            observed_mm = list(map(repr, record.denormalize_y(vset.y).tolist()))
            # validation values outside the training min-max appear out of
            # [0, 1]; summarised per combination in extrapolation.csv
            fraction = repr(outside_unit_fraction(np.concatenate([vset.x.ravel(), vset.y])))
        for name, model in models:
            metrics, yhat = _score(model, vset, "validation_csv")
            label = _combo_label(model.scheme.algorithm, record is not None)
            report[name] = [_metric_row(label, stride, "validation", metrics)]
            if train_series is not None:
                if tset is None:  # after a validation score: a bad validation split goes first
                    tset = rows_of(train_series, "train_csv")
                report[name].append(_metric_row(label, stride, "train",
                                                _score(model, tset, "train_csv")[0]))
            columns = shared + [map(repr, yhat.tolist())]
            if record is not None:
                extrapolation[name] = fraction
                columns += [observed_mm, map(repr, record.denormalize_y(yhat).tolist())]
            write_numeric_csv(exp.output("series", f"series_{name}.csv"), header, columns)

    report_path = os.path.join(exp.out, "forecast_report.csv")
    rows = [row for name in names for row in report[name]]
    write_csv(exp.output("forecast_report.csv"),
              ["algorithm", "scheme", "split", "rmse", "ve", "ce", "r"], rows)
    if extrapolation:
        write_csv(exp.output("extrapolation.csv"),
                  ["combination", "outside_unit_fraction"],
                  [[name, extrapolation[name]] for name in names if name in extrapolation])
    print(f"wrote {report_path} ({len(rows)} rows)")


def cmd_compare(exp: Experiment) -> None:
    """Rank the algorithms of each scheme by validation RMSE."""
    paths = [p.strip() for p in
             exp.get("reports", os.path.join(exp.out, "forecast_report.csv")).split(",")
             if p.strip()]
    if not paths:
        raise ConfigError("config key 'reports' must list at least one report")
    if len(set(paths)) < len(paths):
        raise ConfigError("config key 'reports' repeats a report")
    rows = []  # (scheme, rmse, algorithm) of each validation row
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                if "split" not in (reader.fieldnames or ()):
                    raise DataValidationError(f"{path}: the report has no 'split' column")
                for r in (r for r in reader if r.get("split") == "validation"):
                    try:
                        row = (int(r["scheme"]), float(r["rmse"]), r["algorithm"])
                    except KeyError as exc:
                        raise DataValidationError(
                            f"{path}: the report has no {exc} column") from None
                    except (TypeError, ValueError):  # a short row reads None
                        raise DataValidationError(
                            f"{path}: line {reader.line_num}: scheme {r['scheme']!r} or "
                            f"rmse {r['rmse']!r} is not a number") from None
                    if not 0 <= row[1] < math.inf:  # nan would sort anywhere
                        raise DataValidationError(
                            f"{path}: line {reader.line_num}: rmse {r['rmse']!r} is not "
                            "a finite, non-negative number")
                    rows.append(row)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataValidationError(f"cannot read report {path}: {exc}") from exc
    if not rows:
        raise DataValidationError("no validation rows found in the given reports")

    lines = ["# Algorithm ranking by validation RMSE", ""]
    for scheme in sorted({scheme for scheme, _, _ in rows}):
        ranked = sorted((rmse, algorithm) for s, rmse, algorithm in rows if s == scheme)
        best = ranked[0][0]
        lines += [f"## Scheme: stride {scheme}", "",
                  "| rank | algorithm | rmse | delta vs best |",
                  "|------|-----------|------|---------------|"]
        for i, (rmse, algorithm) in enumerate(ranked, start=1):
            lines.append(f"| {i} | {algorithm} | {rmse:.6g} | {rmse - best:+.6g} |")
        lines.append("")
    write_atomic(exp.output("compare.md"), "\n".join(lines) + "\n")
    print(f"wrote {os.path.join(exp.out, 'compare.md')}")


COMMANDS = {
    "synth": cmd_synth,
    "sweep": cmd_sweep,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyrunoff",
        description="TS fuzzy rainfall-runoff experiment driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    exp = Experiment(raw={}, out=args.out, seed=args.seed)
    try:
        exp.raw = parse_config(args.config)
        unknown = [key for key in exp.raw if key not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"unknown config key '{unknown[0]}'")
        exp.out = args.out if args.out is not None else exp.get("out")
        exp.seed = args.seed if args.seed is not None else exp.get("seed")
        if exp.seed < 0:
            name = "config key 'seed'" if args.seed is None else "option --seed"
            raise ConfigError(f"{name} must be >= 0")
        COMMANDS[args.command](exp)
        _write_manifest(exp, args.command)
        blocked = [path for path, _ in exp.pending if os.path.isdir(path)]
        if blocked:  # refused before any output is put in place
            raise ConfigError(f"cannot write {blocked[0]}: Is a directory")
        for path, tmp in exp.pending:  # the manifest last
            os.replace(tmp, path)
        return 0
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every input is read where it is named: this is an output
        print(f"config error: cannot write {exc.filename or 'output'}: {exc.strerror}",
              file=sys.stderr)
        return 2
    finally:  # a failed run leaves every earlier output as it was
        for _, tmp in exp.pending:
            if os.path.exists(tmp):
                os.remove(tmp)


if __name__ == "__main__":
    sys.exit(main())
