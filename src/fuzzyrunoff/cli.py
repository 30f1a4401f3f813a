"""Experiment driver: synthesize events, sweep rule counts, train per-scheme
models, evaluate forecasts, and rank algorithms.

Subcommands: ``synth``, ``sweep``, ``train``, ``evaluate``, ``compare``.
Every subcommand takes ``--config`` (a key = value text file), plus
``--seed`` and ``--out`` overrides.  Outputs are plain CSV/text written
atomically; a manifest (config hash, seed, versions) accompanies every run
so results can be reproduced from the manifest alone.  Exit codes: 0 ok,
2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy

from . import __version__, core
from .atomicio import write_atomic, write_csv
from .clustering import ClusterConfig, NumericalError
from .dataio import (
    DataValidationError,
    EventSeries,
    NormalizationRecord,
    StormParams,
    build_supervised,
    estimate_lag,
    load_event_csv,
    outside_unit_fraction,
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


@dataclass
class Experiment:
    """Typed view of the config with defaults."""

    raw: dict[str, str]
    out: str
    seed: int

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def require(self, key) -> str:
        if key not in self.raw:
            raise ConfigError(f"missing config key '{key}'")
        return self.raw[key]

    def get_float(self, key, default):
        try:
            return float(self.raw.get(key, default))
        except ValueError:
            raise ConfigError(f"config key '{key}' must be a number") from None

    def get_int(self, key, default):
        try:
            return int(self.raw.get(key, default))
        except ValueError:
            raise ConfigError(f"config key '{key}' must be an integer") from None

    @property
    def algorithms(self) -> list[str]:
        names = [a.strip() for a in self.get("algorithms", "gk,fcm,sc").split(",") if a.strip()]
        if not names:
            raise ConfigError("config key 'algorithms' must list at least one algorithm")
        for a in names:
            if a not in ("gk", "fcm", "sc"):
                raise ConfigError(f"unknown algorithm '{a}' in config")
        return names

    @property
    def strides(self) -> list[int]:
        try:
            strides = [int(s) for s in self.get("strides", "1").split(",") if s.strip()]
        except ValueError:
            raise ConfigError("config key 'strides' must be integers") from None
        if not strides or any(s < 1 for s in strides):
            raise ConfigError("config key 'strides' must list positive integers")
        return strides

    @property
    def normalization_modes(self) -> list[bool]:
        mode = self.get("normalization", "off")
        if mode == "both":
            return [False, True]
        if mode == "on":
            return [True]
        if mode == "off":
            return [False]
        raise ConfigError("config key 'normalization' must be on, off, or both")

    @property
    def base_interval(self) -> float:
        return self.get_float("base_interval", 30.0)

    def cluster_config(self, algorithm: str) -> ClusterConfig:
        clusters = self.get("clusters", "3")
        n_clusters = 2 if clusters == "sweep" else int(clusters)
        return ClusterConfig(
            algorithm=algorithm,
            n_clusters=n_clusters,
            m=self.get_float("m", 2.0),
            xi=self.get_float("xi", 0.001),
            max_iter=self.get_int("max_iter", 200),
            seed=self.seed,
            gamma=self.get_float("gamma", 1e-3),
            sc_radius=self.get_float("sc_radius", 0.5),
            sc_squash=self.get_float("sc_squash", 1.25),
            sc_accept=self.get_float("sc_accept", 0.5),
            sc_reject=self.get_float("sc_reject", 0.15),
        )

    @property
    def sweep_range(self):
        return range(2, self.get_int("c_max", 8) + 1)

    def _pair(self, key, default):
        raw = self.get(key, default)
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"config key '{key}' must be 'low,high'")
        try:
            return float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"config key '{key}' must be numeric") from None

    def _triple(self, key, default):
        raw = self.get(key, default)
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"config key '{key}' needs 3 comma-separated values")
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"config key '{key}' must be numeric") from None

    def storm_params(self) -> StormParams:
        lo, hi = self._pair("storm_pulses", "3,6")
        return StormParams(
            pulses=(int(lo), int(hi)),
            amplitude_range=self._pair("storm_amplitude", "6,14"),
            width_range=self._pair("storm_width", "600,1500"),
            station_gains=self._triple("storm_station_gains", "1.3,0.8,1.1"),
            station_delays=self._triple("storm_station_delays", "0,30,60"),
            routing_lag=self.get_int("storm_routing_lag", 5),
            storage=self.get_float("storm_storage", 0.9),
            gain=self.get_float("storm_gain", 0.08),
            exponent=self.get_float("storm_exponent", 1.5),
            noise=self.get_float("storm_noise", 0.05),
            initial_head=self.get_float("storm_initial_head", 5.0),
            rain_resolution=self.get_float("storm_rain_resolution", 0.2),
        )

    def load_series(self, key) -> EventSeries:
        return load_event_csv(self.require(key), self.base_interval)

    def resolve_lag(self, series: EventSeries) -> int:
        lag = self.get("lag", "auto")
        if lag == "auto":
            return int(estimate_lag(series, max_lag=self.get_int("max_lag", len(series) // 4)))
        try:
            value = int(lag)
        except ValueError:
            raise ConfigError("config key 'lag' must be 'auto' or an integer") from None
        if value < 0:
            raise ConfigError("config key 'lag' must be >= 0")
        return value


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
    write_atomic(os.path.join(exp.out, f"manifest_{command}.txt"), "\n".join(lines))


def _combo_name(algorithm: str, stride: int, normalized: bool) -> str:
    return f"{algorithm}_s{stride}_{'norm' if normalized else 'dim'}"


def _combo_label(algorithm: str, normalized: bool) -> str:
    label = algorithm.upper()
    return f"{label} (N)" if normalized else label


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(exp: Experiment) -> int:
    params = exp.storm_params()
    duration = exp.get_float("synth_duration", 9000.0)
    train_seed = exp.get_int("synth_train_seed", exp.seed)
    valid_seed = exp.get_int("synth_validation_seed", exp.seed + 1)
    for name, seed in (("train.csv", train_seed), ("validation.csv", valid_seed)):
        series = synth_storm(seed, duration, exp.base_interval, params)
        path = os.path.join(exp.out, name)
        write_event_csv(series, path)
        print(f"wrote {path} ({len(series)} samples)")
    _write_manifest(exp, "synth")
    return 0


def cmd_sweep(exp: Experiment) -> int:
    series = exp.load_series("train_csv")
    lag = exp.resolve_lag(series)
    stride = exp.get_int("sweep_stride", 1)
    normalized = True in exp.normalization_modes
    sset = build_supervised(series, lag=lag, stride=stride, normalization=normalized)
    c_range = exp.sweep_range
    if c_range.stop - 1 >= sset.n_rows:
        raise ConfigError(
            f"c_max={c_range.stop - 1} must be < supervised rows N={sset.n_rows}"
        )
    algorithms = [a for a in exp.algorithms if a in ("gk", "fcm")]
    if not algorithms:
        raise ConfigError("sweep needs gk or fcm in 'algorithms' "
                          "(subtractive clustering has no C parameter)")
    for algorithm in algorithms:
        cfg = exp.cluster_config(algorithm)
        report = sweep_clusters(sset.joined(), cfg, c_range)
        report.to_csv(os.path.join(exp.out, f"validity_{algorithm}.csv"))
        lines = [f"consensus {report.consensus}"]
        lines += [f"{name} {c}" for name, c in sorted(report.per_index_optimum.items())]
        write_atomic(os.path.join(exp.out, f"optima_{algorithm}.txt"),
                     "\n".join(lines) + "\n")
        print(f"{algorithm}: consensus C = {report.consensus} "
              f"(per-index {report.per_index_optimum})")
    _write_manifest(exp, "sweep")
    return 0


def cmd_train(exp: Experiment) -> int:
    series = exp.load_series("train_csv")
    lag = exp.resolve_lag(series)
    models_dir = os.path.join(exp.out, "models")
    reports_dir = os.path.join(exp.out, "reports")
    os.makedirs(models_dir, exist_ok=True)
    os.makedirs(reports_dir, exist_ok=True)
    sweep_requested = exp.get("clusters", "3") == "sweep"
    count = 0
    for algorithm in exp.algorithms:
        for stride in exp.strides:
            # per-scheme alignment: the rainfall acting on the target lies
            # `lag` samples before it, and the supervised rows carry rain
            # from the forecast-origin step, so shift by lag minus stride
            # (floored at 0: far horizons cannot see future rain)
            lag_eff = max(0, lag - stride)
            for normalized in exp.normalization_modes:
                sset = build_supervised(series, lag=lag_eff, stride=stride,
                                        normalization=normalized)
                cfg = exp.cluster_config(algorithm)
                c_range = exp.sweep_range if sweep_requested and algorithm != "sc" else None
                model, fit = fit_model(sset.joined(), cfg, c_range=c_range)
                record = sset.normalization
                norm = None if record is None else (tuple(record.mins.tolist()),
                                                    tuple(record.maxs.tolist()))
                scheme = core.Scheme(algorithm, stride, lag_eff, norm)
                name = _combo_name(algorithm, stride, normalized)
                core.save_model(replace(model, scheme=scheme),
                                os.path.join(models_dir, f"{name}.model.txt"))
                fit.to_csv(os.path.join(reports_dir, f"fit_{name}.csv"))
                print(f"trained {name}: rules={fit.n_rules} "
                      f"train_rmse={fit.train.rmse:.6g}")
                count += 1
    _write_manifest(exp, "train")
    print(f"{count} model(s) in {models_dir}")
    return 0


def _metric_row(label, stride, split, ms):
    return [label, stride, split, repr(ms.rmse), repr(ms.ve), repr(ms.ce), repr(ms.r)]


def _require_varying(observed: np.ndarray, key: str) -> None:
    """Refuse a constant observed series: the coefficient of efficiency
    divides by its variance."""
    if np.all(observed == observed[0]):
        raise DataValidationError(f"{key}: observed series is constant "
                                  f"({float(observed[0])!r}); there is nothing to score")


def cmd_evaluate(exp: Experiment) -> int:
    validation = exp.load_series("validation_csv")
    include_train = exp.get("include_train", "off") == "on"
    train_series = exp.load_series("train_csv") if include_train else None
    models_dir = exp.get("models_dir", os.path.join(exp.out, "models"))
    series_dir = os.path.join(exp.out, "series")
    os.makedirs(series_dir, exist_ok=True)
    try:
        names = sorted(f[: -len(".model.txt")] for f in os.listdir(models_dir)
                       if f.endswith(".model.txt"))
    except OSError as exc:
        raise DataValidationError(f"cannot list models in {models_dir}: {exc}") from exc
    if not names:
        raise DataValidationError(f"no models found in {models_dir}")

    allowed = set(exp.strides)
    rows = []
    extrapolation = []
    for name in names:
        path = os.path.join(models_dir, f"{name}.model.txt")
        try:
            model = core.load_model(path)
        except (OSError, ValueError) as exc:
            raise DataValidationError(f"{path}: {exc}") from exc
        scheme = model.scheme
        if scheme is None:
            raise DataValidationError(f"{path}: format tsmodel-v1 records no training "
                                      "scheme; retrain the model to evaluate it")
        record = NormalizationRecord(*scheme.normalization) if scheme.normalization else None
        if scheme.stride not in allowed:
            raise ConfigError(
                f"model {name} was trained for stride {scheme.stride}, "
                f"which is not in the configured strides {sorted(allowed)}"
            )
        vset = build_supervised(validation, lag=scheme.lag, stride=scheme.stride,
                                normalization=record if record else False)
        _require_varying(vset.y, "validation_csv")
        yhat = core.predict_batch(model, vset.x)
        label = _combo_label(scheme.algorithm, record is not None)
        rows.append(_metric_row(label, scheme.stride, "validation",
                                metric_set(vset.y, yhat)))
        if include_train:
            tset = build_supervised(train_series, lag=scheme.lag, stride=scheme.stride,
                                    normalization=record if record else False)
            _require_varying(tset.y, "train_csv")
            rows.append(_metric_row(label, scheme.stride, "train",
                                    metric_set(tset.y, core.predict_batch(model, tset.x))))

        header, columns = ["index", "observed", "predicted"], [vset.y, yhat]
        if record is not None:
            # validation values outside the training min-max appear out of
            # [0, 1]; summarised per combination in extrapolation.csv
            extrapolation.append(
                [name, repr(outside_unit_fraction(
                    np.concatenate([vset.x.ravel(), vset.y])))]
            )
            header += ["observed_mm", "predicted_mm"]
            columns += [record.denormalize_y(vset.y), record.denormalize_y(yhat)]
        write_csv(os.path.join(series_dir, f"series_{name}.csv"), header,
                  ([k] + [repr(float(c[k])) for c in columns] for k in range(vset.n_rows)))

    report_path = os.path.join(exp.out, "forecast_report.csv")
    write_csv(report_path, ["algorithm", "scheme", "split", "rmse", "ve", "ce", "r"], rows)
    if extrapolation:
        write_csv(os.path.join(exp.out, "extrapolation.csv"),
                  ["combination", "outside_unit_fraction"], extrapolation)
    _write_manifest(exp, "evaluate")
    print(f"wrote {report_path} ({len(rows)} rows)")
    return 0


def cmd_compare(exp: Experiment) -> int:
    paths = [p.strip() for p in
             exp.get("reports", os.path.join(exp.out, "forecast_report.csv")).split(",")
             if p.strip()]
    rows = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                rows.extend(r for r in reader if r.get("split") == "validation")
        except OSError as exc:
            raise DataValidationError(f"cannot read report {path}: {exc}") from exc
    if not rows:
        raise DataValidationError("no validation rows found in the given reports")

    schemes = sorted({int(r["scheme"]) for r in rows})
    lines = ["# Algorithm ranking by validation RMSE", ""]
    for scheme in schemes:
        ranked = sorted((r for r in rows if int(r["scheme"]) == scheme),
                        key=lambda r: (float(r["rmse"]), r["algorithm"]))
        best = float(ranked[0]["rmse"])
        lines.append(f"## Scheme: stride {scheme}")
        lines.append("")
        lines.append("| rank | algorithm | rmse | delta vs best |")
        lines.append("|------|-----------|------|---------------|")
        for i, r in enumerate(ranked, start=1):
            rmse_v = float(r["rmse"])
            delta = rmse_v - best
            lines.append(f"| {i} | {r['algorithm']} | {rmse_v:.6g} | {delta:+.6g} |")
        lines.append("")
    path = os.path.join(exp.out, "compare.md")
    write_atomic(path, "\n".join(lines) + "\n")
    _write_manifest(exp, "compare")
    print(f"wrote {path}")
    return 0


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
    try:
        raw = parse_config(args.config)
        out = args.out if args.out is not None else raw.get("out", "out")
        seed = args.seed if args.seed is not None else int(raw.get("seed", "0"))
        os.makedirs(out, exist_ok=True)
        exp = Experiment(raw=raw, out=out, seed=seed)
        return COMMANDS[args.command](exp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
