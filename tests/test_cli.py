import csv
import gc
import io
import itertools
import os
import re
import shutil
import sys
import warnings

import numpy as np
import pytest

from fuzzyrunoff import cli, clustering, core, dataio
from fuzzyrunoff.atomicio import write_atomic
from fuzzyrunoff.clustering import ClusterConfig
from fuzzyrunoff.dataio import (build_supervised, estimate_lag, load_event_csv,
                                outside_unit_fraction, scheme_sets)
from fuzzyrunoff.evalmetrics import metric_set

BASE_CONFIG = (
    "seed = 11\n"
    "base_interval = 30\n"
    "synth_duration = 6000\n"
    "storm_noise = 0.1\n"
    "out = out\n"
    "train_csv = out/train.csv\n"
    "validation_csv = out/validation.csv\n"
    "lag = auto\n"
    "max_lag = 15\n"
    "clusters = 2\n"
)


def config_text(extra="", base=BASE_CONFIG):
    """``base`` with the lines of ``extra`` in place of its lines for the
    same keys, since a config sets each key once."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    return "".join(line for line in base.splitlines(keepends=True)
                   if line.partition("=")[0].strip() not in keys) + extra


def write_config(tmp_path, extra=""):
    path = tmp_path / "exp.conf"
    path.write_text(config_text(extra))
    return str(path)


def run(tmp_path, command, config, monkeypatch, *options):
    monkeypatch.chdir(tmp_path)
    return cli.main([command, "--config", config, *options])


def snapshot(root):
    """Every file under ``root``, by relative path, and its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def write_degenerate_event(tmp_path, n_rows, dead_gauge=False, constant_head=False):
    """out/train.csv with random rain and head, except that the third gauge
    reads 0 throughout (``dead_gauge``) or the head stays at 5.0."""
    out = tmp_path / "out"
    out.mkdir()
    rows = ["timestamp,rain1,rain2,rain3,head"]
    rng = np.random.default_rng(0)
    for k in range(n_rows):
        r = rng.random(4).round(3)
        rain3 = 0.0 if dead_gauge else r[2]
        head = 5.0 if constant_head else 5.0 + r[3]
        rows.append(f"{k * 30},{r[0]},{r[1]},{rain3},{head}")
    (out / "train.csv").write_text("\n".join(rows) + "\n")


class TestConfigParsing:
    def test_key_value_and_comments(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("a = 1\n# comment\nb = x,y\n\nc = 2 # trailing\n")
        values = cli.parse_config(p)
        assert values == {"a": "1", "b": "x,y", "c": "2"}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("just a line without equals\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(p)

    def test_missing_file_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["train", "--config", "nope.conf"]) == 2

    def test_closes_the_config_file(self, tmp_path, monkeypatch):
        # a ResourceWarning raised while a file object is finalised cannot
        # propagate; it reaches sys.unraisablehook instead
        p = tmp_path / "c.conf"
        p.write_text("a = 1\n")
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.parse_config(p) == {"a": "1"}
            gc.collect()
        assert [u.exc_value for u in unraisable] == []

    def test_out_naming_a_file_is_config_error(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        (tmp_path / "taken").write_text("")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", "--config", config, "--out", "taken"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "taken" in err

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_unknown_key_is_refused_before_any_output(self, tmp_path, monkeypatch, capsys,
                                                      command):
        config = write_config(tmp_path, "clsuters = 5\n")
        assert run(tmp_path, command, config, monkeypatch) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'clsuters'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_repeated_key_is_refused_before_any_output(self, tmp_path, monkeypatch, capsys,
                                                       command):
        (tmp_path / "exp.conf").write_text(BASE_CONFIG + "algorithms = gk\n\nclusters = 5\n")
        assert run(tmp_path, command, "exp.conf", monkeypatch) == 2
        assert capsys.readouterr().err == \
            "config error: exp.conf:13: key 'clusters' already set at line 10\n"
        assert not (tmp_path / "out").exists()

    def test_rule_counts_reads_the_dataclass_defaults(self):
        exp = cli.Experiment(raw={"max_iter": "7", "sc_radius": "0.25"}, out="out", seed=5)
        assert exp.rule_counts("fcm", 100, False) == (ClusterConfig(
            algorithm="fcm", n_clusters=3, seed=5, max_iter=7, sc_radius=0.25), None)
        sweep = cli.Experiment(raw={"clusters": "sweep"}, out="out", seed=0)
        cfg, c_range = sweep.rule_counts("gk", 100, True)
        assert cfg.n_clusters == 2 and c_range == range(2, 9)

    @pytest.mark.parametrize("command, settings", [
        ("sweep", "algorithms = gk\nclusters = abc\nc_max = 3\n"),
        ("train", "algorithms = sc\nclusters = abc\nc_max = abc\n"),
    ], ids=["sweep", "sc-only train"])
    def test_a_run_that_reads_no_cluster_count_ignores_it(self, tmp_path, monkeypatch,
                                                          command, settings):
        config = write_config(tmp_path, settings)
        run(tmp_path, "synth", config, monkeypatch)
        assert run(tmp_path, command, config, monkeypatch) == 0

    def test_bad_cluster_count_names_its_key(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, "algorithms = gk\nclusters = abc\n")
        run(tmp_path, "synth", config, monkeypatch)
        capsys.readouterr()
        assert run(tmp_path, "train", config, monkeypatch) == 2
        assert "config key 'clusters'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_bad_seed_names_its_key(self, tmp_path, monkeypatch, capsys, command):
        config = write_config(tmp_path, "seed = abc\n")
        assert run(tmp_path, command, config, monkeypatch) == 2
        err = capsys.readouterr().err
        assert err == "config error: config key 'seed' must be an integer\n"

    @pytest.mark.parametrize("value, message", [
        ("3.7,6.9", "config key 'storm_pulses' must be integers"),
        ("3", "config key 'storm_pulses' needs 2 comma-separated values"),
    ])
    def test_storm_pulses_must_be_two_integers(self, tmp_path, monkeypatch, capsys,
                                               value, message):
        config = write_config(tmp_path, f"storm_pulses = {value}\n")
        assert run(tmp_path, "synth", config, monkeypatch) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out" / "train.csv").exists()

    @pytest.mark.parametrize("setting", [
        "synth_duration = inf", "storm_width = 600,inf", "storm_amplitude = 6,inf",
        "storm_gain = inf", "storm_gain = nan", "storm_noise = nan",
    ])
    def test_non_finite_float_names_its_key(self, tmp_path, monkeypatch, capsys, setting):
        # unchecked, these end in an OverflowError traceback or in a data
        # error on the synthetic head
        config = write_config(tmp_path, f"{setting}\n")
        assert run(tmp_path, "synth", config, monkeypatch) == 2
        key = setting.split(" =")[0]
        assert capsys.readouterr().err == \
            f"config error: config key '{key}' must be a finite number\n"
        assert not (tmp_path / "out" / "train.csv").exists()

    def test_zero_sc_squash_is_config_error(self, tmp_path, monkeypatch, capsys):
        # unchecked, run_sc divides by zero; the scalings of a stride share
        # their clustering, and the fault keeps its stage
        config = write_config(tmp_path, "algorithms = sc\nsc_squash = 0\n"
                                        "normalization = both\n")
        run(tmp_path, "synth", config, monkeypatch)
        capsys.readouterr()
        assert run(tmp_path, "train", config, monkeypatch) == 2
        assert capsys.readouterr().err == \
            "config error: sc_squash must be > 0 and finite, got 0.0\n"

    @pytest.mark.parametrize("command", ["sweep", "train"])
    def test_bad_setting_in_a_sweep_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                    command):
        config = write_config(tmp_path, "algorithms = gk\nclusters = sweep\n"
                                        "c_max = 4\nm = 0.5\n")
        run(tmp_path, "synth", config, monkeypatch)
        capsys.readouterr()
        assert run(tmp_path, command, config, monkeypatch) == 2
        assert "fuzziness m must be > 1" in capsys.readouterr().err


# (command, setting, an option or a key left out, exit code, message)
REFUSALS = [
    ("synth", "storm_gain = abc", 2, "config key 'storm_gain' must be a number"),
    ("synth", "seed = -1", 2, "config key 'seed' must be >= 0"),
    ("synth", "--seed -1", 2, "option --seed must be >= 0"),
    ("train", "lag = 400", 3, "train_csv: series of length 201 too short for lag 400 and "
                              "stride 1; need at least 402 samples"),
    ("train", "train_csv = nan.csv", 3, "nan.csv: non-finite value in column 'rain'"),
    ("evaluate", "validation_csv = negative.csv", 3,
     "negative.csv: negative rainfall in column 'rain1' at row 1"),
    ("train", "algorithms = ,", 2, "config key 'algorithms' must list at least one algorithm"),
    ("train", "algorithms = gk,xx", 2, "unknown algorithm 'xx' in config"),
    ("train", "strides = 1,a", 2, "config key 'strides' must be integers"),
    ("train", "strides = 2,0", 2, "config key 'strides' must list positive integers"),
    ("train", "algorithms = gk,gk", 2, "config key 'algorithms' repeats an algorithm"),
    ("sweep", "algorithms = fcm,gk,fcm", 2, "config key 'algorithms' repeats an algorithm"),
    ("train", "strides = 1,2,1", 2, "config key 'strides' repeats a stride"),
    ("train", "max_lag = -1", 2, "max_lag must be >= 0, got -1"),
    ("synth", "base_interval = 0", 2, "config key 'base_interval' must be > 0"),
    # a refused storm setting names its key; every storm key is read first
    ("synth", "storm_amplitude = 8,6", 2,
     "config key 'storm_amplitude': bad amplitude_range (8.0, 6.0)"),
    ("synth", "storm_exponent = 0", 2,
     "config key 'storm_exponent': gain and noise must be >= 0, exponent > 0"),
    ("synth", "storm_storage = 1", 2,
     "config key 'storm_storage': storage must be in [0, 1), got 1.0"),
    ("synth", "storm_amplitude = 8,6\nstorm_gain = abc", 2,
     "config key 'storm_gain' must be a number"),
    # sizes that no host can allocate, refused before any array is made
    ("synth", "synth_duration = 1e16", 2, "config keys 'synth_duration' and 'base_interval': "
                                          "an event of 3.33333e+14 samples is too long to "
                                          "allocate"),
    ("synth", "base_interval = 1e-300", 2, "config keys 'synth_duration' and "
                                           "'base_interval': an event of 6e+303 samples is "
                                           "too long to allocate"),
    ("synth", "base_interval = 1e-310", 2, "config keys 'synth_duration' and "
                                           "'base_interval': an event of inf samples is too "
                                           "long to allocate"),
    ("sweep", "algorithms = sc", 2, "sweep needs gk or fcm in 'algorithms' "
                                    "(subtractive clustering has no C parameter)"),
    ("train", "base_interval = 0", 2, "config key 'base_interval' must be > 0"),
    ("train", "base_interval = -30", 2, "config key 'base_interval' must be > 0"),
    ("train", "normalization = maybe", 2,
     "config key 'normalization' must be on, off, or both"),
    ("train", "train_csv", 2, "missing config key 'train_csv'"),
    ("evaluate", "validation_csv", 2, "missing config key 'validation_csv'"),
    ("train", "lag = x", 2, "config key 'lag' must be 'auto' or an integer"),
    ("train", "lag = -1", 2, "config key 'lag' must be >= 0"),
    ("evaluate", "include_train = yes", 2, "config key 'include_train' must be on or off"),
    # evaluate reads its keys before its files, as train and sweep do
    ("evaluate", "validation_csv = missing.csv\ninclude_train = maybe", 2,
     "config key 'include_train' must be on or off"),
    ("evaluate", "validation_csv = missing.csv\nstrides = 1,a", 2,
     "config key 'strides' must be integers"),
    ("evaluate", "models_dir = nothere", 3,
     "cannot list models in nothere: [Errno 2] No such file or directory: 'nothere'"),
    ("evaluate", "models_dir = out", 3, "no models found in out"),
    ("compare", "reports = nothere.csv", 3,
     "cannot read report nothere.csv: [Errno 2] No such file or directory: 'nothere.csv'"),
    # refused before any report is read
    ("compare", "reports = ,", 2, "config key 'reports' must list at least one report"),
    ("compare", "reports = nothere.csv,nothere.csv", 2,
     "config key 'reports' repeats a report"),
    ("train", "clusters = 1", 2, "config key 'clusters' must be >= 2"),
    ("sweep", "c_max = 1", 2, "config key 'c_max' must be >= 2"),
    ("train", "clusters = sweep\nc_max = 1", 2, "config key 'c_max' must be >= 2"),
    ("train", "max_lag = 1000", 3,
     "train_csv: series length 201 must exceed twice the lag window 1000"),
    ("train", "train_csv = dry.csv", 3, "train_csv: all rainfall channels are zero"),
    ("sweep", "train_csv = dead_gauge.csv\nnormalization = on", 3,
     "train_csv: constant column 'rain3' cannot be normalised (min == max == 0.0)"),
    ("train", "train_csv = dead_gauge.csv\nnormalization = on", 3,
     "train_csv: constant column 'rain3' cannot be normalised (min == max == 0.0)"),
    ("train", "train_csv =", 2, "exp.conf:10: key 'train_csv' has no value"),
    ("synth", "out =", 2, "exp.conf:10: key 'out' has no value"),
    ("train", "train_csv = empty.csv", 3, "empty.csv: empty file"),
    ("train", "train_csv = abc.csv", 3, "abc.csv: unparseable number at line 3"),
    ("train", "train_csv = one_row.csv", 3, "one_row.csv: need at least 2 data rows"),
    # every setting is refused before train_csv, which holds a nan, is read
    *[(command, f"train_csv = nan.csv\n{setting}", 2, message)
      for command in ("train", "sweep")
      for setting, message in [
          ("m = 0.5", "fuzziness m must be > 1 and finite, got 0.5"),
          ("xi = 0", "termination constant xi must be > 0 and finite, got 0.0"),
          ("max_iter = 0", "max_iter must be >= 1"),
          ("gamma = 2", "gamma must be in [0, 1], got 2.0"),
          ("sc_radius = 0", "sc_radius must be in (0, 1], got 0.0"),
          ("sc_squash = 0", "sc_squash must be > 0 and finite, got 0.0"),
          ("sc_radius = 1e-200", "sc_radius must leave 4 / sc_radius**2 finite, got 1e-200"),
          ("sc_radius = 1e-160", "sc_radius must leave 4 / sc_radius**2 finite, got 1e-160"),
          ("sc_squash = 1e-200", "sc_squash must leave 4 / (sc_squash * sc_radius)**2 "
                                 "finite, got 1e-200"),
          ("sc_squash = 1e-160", "sc_squash must leave 4 / (sc_squash * sc_radius)**2 "
                                 "finite, got 1e-160"),
          ("sc_accept = 0.1", "need 0 < sc_reject <= sc_accept <= 1, got sc_reject=0.15, "
                              "sc_accept=0.1"),
          ("sc_reject = 0", "need 0 < sc_reject <= sc_accept <= 1, got sc_reject=0.0, "
                            "sc_accept=0.5"),
      ]],
    *[(command, "train_csv = nan.csv\nmax_lag = -1", 2, "max_lag must be >= 0, got -1")
      for command in ("train", "sweep")],
    # a configured lag leaves max_lag unread
    ("train", "train_csv = nan.csv\nlag = 1\nmax_lag = -1", 3,
     "nan.csv: non-finite value in column 'rain'"),
    ("train", "train_csv = nan.csv\nclusters = 1", 2, "config key 'clusters' must be >= 2"),
    ("train", "train_csv = nan.csv\nclusters = sweep\nc_max = 1", 2,
     "config key 'c_max' must be >= 2"),
    ("sweep", "train_csv = nan.csv\nc_max = 1", 2, "config key 'c_max' must be >= 2"),
]
# the event files that REFUSALS rows name; the 40-sample ones are long enough
# for BASE_CONFIG's max_lag of 15
BAD_EVENTS = {"nan.csv": "timestamp,rain1,rain2,rain3,head\n0,0,0,0,5\n30,nan,0,0,5\n",
              "negative.csv": "timestamp,rain1,rain2,rain3,head\n0,0,0,0,5\n30,-1,0,0,5\n",
              "dry.csv": "timestamp,rain1,rain2,rain3,head\n" + "".join(
                  f"{30 * k},0,0,0,{5 + k % 7}\n" for k in range(40)),
              "dead_gauge.csv": "timestamp,rain1,rain2,rain3,head\n" + "".join(
                  f"{30 * k},{k % 5},{k % 3},0,{5 + k % 7}\n" for k in range(40)),
              "empty.csv": "",
              "abc.csv": "timestamp,rain1,rain2,rain3,head\n0,0,0,0,5\n30,abc,0,0,5\n",
              "one_row.csv": "timestamp,rain1,rain2,rain3,head\n0,0,0,0,5\n"}


NOT_UTF8 = [  # (file, its text with a byte 0xE9, command, kind of error, message head)
    ("out/train.csv", "timestamp,rain1,rain2,rain3,head\n0,0,0,0,5\xe9\n", "train",
     "data error", "cannot read event file out/train.csv"),
    ("out/forecast_report.csv", "algorithm,scheme,split,rmse\nGK\xe9,1,validation,1.0\n",
     "compare", "data error", "cannot read report out/forecast_report.csv"),
    ("exp.conf", "seed = 1\nout = out\xe9\n", "synth", "config error",
     "cannot read config {config}"),
]


@pytest.mark.parametrize("name, text, command, kind, head", NOT_UTF8,
                         ids=["event", "report", "config"])
def test_text_that_is_not_utf8_is_refused_naming_its_file(tmp_path, monkeypatch, capsys,
                                                          name, text, command, kind, head):
    config = write_config(tmp_path, "algorithms = gk\n")
    (tmp_path / "out").mkdir()
    (tmp_path / name).write_bytes(text.encode("latin-1"))
    assert run(tmp_path, command, config, monkeypatch) == (2 if kind == "config error" else 3)
    err = capsys.readouterr().err
    assert err.startswith(f"{kind}: {head.format(config=config)}: 'utf-8' codec can't "
                          "decode byte 0xe9"), err


class TestConfigRefusals:
    @pytest.mark.parametrize("command, setting, code, message", REFUSALS,
                             ids=[f"{command}: {setting}" for command, setting, _, _ in REFUSALS])
    def test_refusal_names_its_cause(self, tmp_path, monkeypatch, capsys, command, setting,
                                     code, message):
        config = write_config(tmp_path)
        run(tmp_path, "synth", config, monkeypatch)
        capsys.readouterr()
        for name, text in BAD_EVENTS.items():
            (tmp_path / name).write_text(text)
        options = setting.split() if setting.startswith("--") else []
        if options:
            text = BASE_CONFIG
        elif "=" in setting:
            text = config_text(f"{setting}\n")
        else:  # a bare key is left out of the config
            text = "".join(line for line in BASE_CONFIG.splitlines(keepends=True)
                           if not line.startswith(setting))
        (tmp_path / "exp.conf").write_text(text)
        assert run(tmp_path, command, "exp.conf", monkeypatch, *options) == code
        kind = "config error" if code == 2 else "data error"
        assert capsys.readouterr().err == f"{kind}: {message}\n"


class TestSynth:
    def test_writes_loadable_events(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        assert run(tmp_path, "synth", config, monkeypatch) == 0
        train = load_event_csv(tmp_path / "out/train.csv", 30.0)
        valid = load_event_csv(tmp_path / "out/validation.csv", 30.0)
        assert len(train) == len(valid) == 201
        assert (tmp_path / "out/manifest_synth.txt").exists()

    @pytest.mark.parametrize("setting", ["synth_duration = 1e16", "base_interval = 1e-300"])
    def test_event_too_long_to_allocate_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                       setting):
        # numpy refuses these sizes without allocating anything; unchecked,
        # they end in a MemoryError traceback or in a message naming no key
        config = write_config(tmp_path, f"{setting}\n")
        assert run(tmp_path, "synth", config, monkeypatch) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config keys 'synth_duration' and 'base_interval': an event of ")
        assert not (tmp_path / "out").exists()

    def test_train_validation_differ(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        run(tmp_path, "synth", config, monkeypatch)
        train = load_event_csv(tmp_path / "out/train.csv", 30.0)
        valid = load_event_csv(tmp_path / "out/validation.csv", 30.0)
        assert not np.array_equal(train.head, valid.head)


class TestTrain:
    def test_single_combination_single_model(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = gk\nstrides = 1\n"
                                        "normalization = off\n")
        run(tmp_path, "synth", config, monkeypatch)
        assert run(tmp_path, "train", config, monkeypatch) == 0
        models = sorted((tmp_path / "out/models").glob("*.model.txt"))
        assert len(models) == 1
        assert models[0].name == "gk_s1_dim.model.txt"

    def test_cartesian_combination_count(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = gk,fcm,sc\n"
                                        "strides = 1,2,5,10\n"
                                        "normalization = both\n")
        run(tmp_path, "synth", config, monkeypatch)
        assert run(tmp_path, "train", config, monkeypatch) == 0
        models = list((tmp_path / "out/models").glob("*.model.txt"))
        assert len(models) == 24

    def test_each_training_set_is_built_once(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = gk,fcm,sc\n"
                                        "strides = 1,2,5,10\n"
                                        "normalization = both\n")
        run(tmp_path, "synth", config, monkeypatch)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return build_supervised(*args, **kwargs)

        monkeypatch.setattr(dataio, "build_supervised", counted)
        assert run(tmp_path, "train", config, monkeypatch) == 0
        assert len(calls) == 8

    def test_sc_clusters_each_stride_once(self, tmp_path, monkeypatch):
        # both scalings of a stride share one partition, and the scaled
        # models and reports are those of a run that trains them alone
        config = write_config(tmp_path, "algorithms = sc\nstrides = 1,2\n"
                                        "normalization = both\n")
        run(tmp_path, "synth", config, monkeypatch)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = clustering.run_sc
        monkeypatch.setattr(clustering, "run_sc", counted)
        assert run(tmp_path, "train", config, monkeypatch) == 0
        assert len(calls) == 2
        both = snapshot(tmp_path / "out")
        shutil.rmtree(tmp_path / "out/models")
        shutil.rmtree(tmp_path / "out/reports")
        config = write_config(tmp_path, "algorithms = sc\nstrides = 1,2\n"
                                        "normalization = on\n")
        assert run(tmp_path, "train", config, monkeypatch) == 0
        assert len(calls) == 4
        alone = snapshot(tmp_path / "out")
        scaled = [path for path in alone if "_norm" in path.name]
        assert len(scaled) == 4
        for path in scaled:
            assert both[path] == alone[path], path

    def test_a_fault_in_any_set_comes_before_the_first_fit(self, tmp_path, monkeypatch,
                                                           capsys):
        # the dimensional sets of a dead gauge fit; its scaled ones cannot be built
        write_degenerate_event(tmp_path, 40, dead_gauge=True)
        config = write_config(tmp_path, "algorithms = gk\nnormalization = both\nlag = 0\n")
        assert run(tmp_path, "train", config, monkeypatch) == 3
        out, err = capsys.readouterr()
        assert err == ("data error: train_csv: constant column 'rain3' cannot be "
                       "normalised (min == max == 0.0)\n")
        assert "trained" not in out

    def test_rerun_byte_identical(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = fcm\nstrides = 1\n"
                                        "normalization = on\n")
        run(tmp_path, "synth", config, monkeypatch)
        run(tmp_path, "train", config, monkeypatch)
        blob_a = (tmp_path / "out/models/fcm_s1_norm.model.txt").read_bytes()
        run(tmp_path, "train", config, monkeypatch)
        blob_b = (tmp_path / "out/models/fcm_s1_norm.model.txt").read_bytes()
        assert blob_a == blob_b

    def test_missing_train_csv_is_data_error(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = gk\nstrides = 1\n")
        assert run(tmp_path, "train", config, monkeypatch) == 3

    def test_numerical_failure_is_exit_four(self, tmp_path, monkeypatch, capsys):
        # a dead gauge makes the joined data collinear; with gamma = 0 the raw
        # fuzzy covariance GK inverts is singular and clustering fails, at
        # the first combination, which the message names
        write_degenerate_event(tmp_path, 40, dead_gauge=True)
        config = write_config(tmp_path, "algorithms = gk\nstrides = 1,2\n"
                                        "normalization = off\ngamma = 0\n"
                                        "lag = 0\n")
        assert run(tmp_path, "train", config, monkeypatch) == 4
        assert capsys.readouterr().err == (
            "numerical failure: train_csv: gk_s1_dim: clustering: covariance of "
            "cluster 0 is singular after regularisation\n")

    def test_numerical_failure_after_a_fit_writes_nothing(self, tmp_path, monkeypatch):
        # fcm fits the event of the test above; gk then fails on it
        write_degenerate_event(tmp_path, 40, dead_gauge=True)
        config = write_config(tmp_path, "algorithms = fcm,gk\nstrides = 1\n"
                                        "normalization = off\ngamma = 0\n"
                                        "lag = 0\n")
        assert run(tmp_path, "train", config, monkeypatch) == 4
        assert not list((tmp_path / "out").rglob("*.model.txt"))

    def test_fcm_ignores_the_singular_covariance_it_never_inverts(self, tmp_path,
                                                                  monkeypatch):
        write_degenerate_event(tmp_path, 80, dead_gauge=True)
        config = write_config(tmp_path, "algorithms = fcm\nstrides = 1\n"
                                        "normalization = off\ngamma = 0\n"
                                        "lag = 0\nc_max = 4\n")
        assert run(tmp_path, "train", config, monkeypatch) == 0
        assert run(tmp_path, "sweep", config, monkeypatch) == 0

    def test_constant_head_is_data_error(self, tmp_path, monkeypatch, capsys):
        write_degenerate_event(tmp_path, 80, constant_head=True)
        config = write_config(tmp_path, "algorithms = gk,sc\nstrides = 1\n"
                                        "normalization = off\nlag = 0\n")
        assert run(tmp_path, "train", config, monkeypatch) == 3
        assert capsys.readouterr().err == ("data error: train_csv: gk_s1_dim: output column "
                                           "is constant (5.0); there is nothing to fit\n")

    def test_unset_max_lag_searches_the_library_window(self, tmp_path, monkeypatch, capsys):
        # the head follows the rain by one sample; estimate_lag's own window,
        # max(1, 3 // 4), reaches that lag, so the length error names it
        (tmp_path / "short.csv").write_text("timestamp,rain1,rain2,rain3,head\n"
                                            "0,1,0,0,5\n30,0,0,0,6\n60,0,0,0,5\n")
        assert estimate_lag(load_event_csv(str(tmp_path / "short.csv"), 30.0)) == 1
        config = tmp_path / "exp.conf"
        config.write_text("out = out\ntrain_csv = short.csv\nlag = auto\nstrides = 2\n")
        assert run(tmp_path, "train", str(config), monkeypatch) == 3
        assert capsys.readouterr().err == ("data error: train_csv: series of length 3 too "
                                           "short for lag 1 and stride 2; need at least 4 "
                                           "samples\n")

    @pytest.mark.parametrize("clusters, key", [("8", "clusters"), ("sweep", "c_max")])
    def test_more_clusters_than_rows_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                     clusters, key):
        write_degenerate_event(tmp_path, 6)
        config = write_config(tmp_path, "algorithms = gk\nstrides = 1\n"
                                        f"lag = 0\nclusters = {clusters}\nc_max = 8\n")
        assert run(tmp_path, "train", config, monkeypatch) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"config error: {key}=8 must be < supervised rows N=\d+\n", err)

    @pytest.mark.parametrize("algorithm, params", [("gk", 15), ("sc", 30)])
    def test_under_determined_scheme_is_data_error(self, tmp_path, monkeypatch, capsys,
                                                   algorithm, params):
        # 101 samples and lag 14 leave stride 95 six rows; SC finds 6 rules
        config = tmp_path / "exp.conf"
        config.write_text("out = out\nsynth_duration = 3000\nstrides = 1,95\n"
                          f"lag = auto\nclusters = 3\nalgorithms = {algorithm}\n"
                          "train_csv = out/train.csv\nvalidation_csv = out/validation.csv\n")
        run(tmp_path, "synth", str(config), monkeypatch)
        capsys.readouterr()
        assert run(tmp_path, "train", str(config), monkeypatch) == 3
        assert capsys.readouterr().err == (f"data error: train_csv: {algorithm}_s95_dim: 6 rows "
                                           f"cannot determine {params} consequent parameters\n")
        # the s1 combination was fitted first, but nothing is put in place
        assert not list((tmp_path / "out").rglob("*.model.txt"))

    def test_sweep_selected_rule_count(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = fcm\nstrides = 1\n"
                                        "normalization = on\n"
                                        "clusters = sweep\nc_max = 4\n")
        run(tmp_path, "synth", config, monkeypatch)
        assert run(tmp_path, "train", config, monkeypatch) == 0
        report = (tmp_path / "out/reports/fit_fcm_s1_norm.csv").read_text()
        header, values = report.strip().splitlines()
        consensus = values.split(",")[-1]
        n_rules = values.split(",")[1]
        assert consensus != "" and consensus == n_rules


class TestEvaluate:
    def prepare(self, tmp_path, monkeypatch, extra):
        config = write_config(tmp_path, extra)
        run(tmp_path, "synth", config, monkeypatch)
        run(tmp_path, "train", config, monkeypatch)
        return config

    def read_report(self, tmp_path):
        with open(tmp_path / "out/forecast_report.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_row_count_equals_model_count(self, tmp_path, monkeypatch):
        config = self.prepare(tmp_path, monkeypatch,
                              "algorithms = gk,fcm\nstrides = 1,2\n"
                              "normalization = both\n")
        assert run(tmp_path, "evaluate", config, monkeypatch) == 0
        rows = self.read_report(tmp_path)
        models = list((tmp_path / "out/models").glob("*.model.txt"))
        assert len(rows) == len(models) == 8

    def test_dimensional_and_normalized_rows_labelled(self, tmp_path, monkeypatch):
        config = self.prepare(tmp_path, monkeypatch,
                              "algorithms = gk\nstrides = 1\n"
                              "normalization = both\n")
        run(tmp_path, "evaluate", config, monkeypatch)
        labels = {r["algorithm"] for r in self.read_report(tmp_path)}
        assert labels == {"GK", "GK (N)"}

    def test_metrics_are_finite_and_plausible(self, tmp_path, monkeypatch):
        config = self.prepare(tmp_path, monkeypatch,
                              "algorithms = gk\nstrides = 1\n"
                              "normalization = off\n")
        run(tmp_path, "evaluate", config, monkeypatch)
        row = self.read_report(tmp_path)[0]
        assert row["split"] == "validation"
        assert float(row["rmse"]) >= 0
        assert -1.0 <= float(row["r"]) <= 1.0

    def test_series_files_written(self, tmp_path, monkeypatch):
        config = self.prepare(tmp_path, monkeypatch,
                              "algorithms = fcm\nstrides = 1\n"
                              "normalization = on\n")
        run(tmp_path, "evaluate", config, monkeypatch)
        series = tmp_path / "out/series/series_fcm_s1_norm.csv"
        header = series.read_text().splitlines()[0]
        assert header == "index,observed,predicted,observed_mm,predicted_mm"
        assert (tmp_path / "out/extrapolation.csv").exists()

    def test_scheme_mismatch_is_config_error(self, tmp_path, monkeypatch):
        config = self.prepare(tmp_path, monkeypatch,
                              "algorithms = gk\nstrides = 1\n"
                              "normalization = off\n")
        narrowed = tmp_path / "narrow.conf"
        narrowed.write_text((tmp_path / "exp.conf").read_text()
                            .replace("strides = 1", "strides = 2"))
        assert run(tmp_path, "evaluate", str(narrowed), monkeypatch) == 2

    def test_perfect_synthetic_fit(self, tmp_path, monkeypatch):
        # an exponent-1, noise-free reservoir is exactly affine in the four
        # inputs, so the identified model reproduces it on any storm
        config = self.prepare(tmp_path, monkeypatch,
                              "algorithms = gk\nstrides = 1\n"
                              "normalization = off\n"
                              "storm_exponent = 1.0\nstorm_noise = 0\n"
                              "lag = 5\n")  # the configured routing lag
        run(tmp_path, "evaluate", config, monkeypatch)
        row = self.read_report(tmp_path)[0]
        assert float(row["rmse"]) < 1e-6
        assert float(row["ce"]) > 1 - 1e-12

    def test_include_train_adds_rows(self, tmp_path, monkeypatch):
        config = self.prepare(tmp_path, monkeypatch,
                              "algorithms = gk\nstrides = 1\n"
                              "normalization = off\ninclude_train = on\n")
        run(tmp_path, "evaluate", config, monkeypatch)
        rows = self.read_report(tmp_path)
        assert {r["split"] for r in rows} == {"train", "validation"}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Output directory holding the synthesised events and one trained
    dimensional gk model; tests copy it before changing anything."""
    out = tmp_path_factory.mktemp("trained") / "out"
    config = write_model_config(out)
    assert cli.main(["synth", "--config", config, "--out", str(out)]) == 0
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
    return out


def write_model_config(out, extra=""):
    out.mkdir(parents=True, exist_ok=True)
    path = out.parent / "model.conf"
    model = (BASE_CONFIG.replace("out/", f"{out}/")
             + "algorithms = gk\nstrides = 1\nnormalization = off\n")
    path.write_text(config_text(extra, model))
    return str(path)


def narrowed(text):
    """A model file whose model takes three inputs, not four."""
    m = core.parse_model(text)
    return core.dump_model(core.TsModel(m.premise_means[:, :3], m.premise_widths[:, :3],
                                        m.consequents[:, :4], m.scheme))


def scaled(mins, maxs):
    """An edit adding the scaling record ``mins``, ``maxs`` to a model file."""
    def edit(text):
        return text.replace("\nrule 0\n", f"\nnorm_mins {mins}\nnorm_maxs {maxs}\nrule 0\n", 1)
    return edit


class TestModelFile:
    MODEL = "models/gk_s1_dim.model.txt"

    def evaluate_copy(self, trained, tmp_path, edit):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        path = out / self.MODEL
        path.write_text(edit(path.read_text()))
        config = write_model_config(out)
        return cli.main(["evaluate", "--config", config, "--out", str(out)]), path

    def test_model_carries_its_scheme_and_no_sidecar(self, trained):
        model = core.load_model(trained / self.MODEL)
        train = load_event_csv(trained / "train.csv", 30.0)
        tset, = scheme_sets(estimate_lag(train, max_lag=15), 1, False, train)
        assert model.scheme == core.Scheme("gk", 1, tset.lag)
        assert sorted(os.listdir(trained / "models")) == ["gk_s1_dim.model.txt"]

    @pytest.mark.parametrize("pattern,replacement,message", [
        (r"means [^\n]*\n", "", "rule 0: missing 'means' line"),
        (r"widths [^\n]*\n", "", "rule 0: missing 'widths' line"),
        (r"theta [^\n]*\n", "", "rule 0: missing 'theta' line"),
        (r"input_dim [^\n]*\n", "", "missing 'input_dim' line"),
        (r"rule_count \d+", "rule_count x", "line 3: bad rule_count value 'x'"),
        (r"tsmodel-v2", "tsmodel-v9", "unsupported model format: 'tsmodel-v9'"),
        (r"(stride \d+\n)", r"\1\1", "missing 'lag' line, found 'stride' at line 6"),
    ])
    def test_corrupt_model_is_data_error(self, trained, tmp_path, capsys,
                                         pattern, replacement, message):
        rc, path = self.evaluate_copy(
            trained, tmp_path, lambda t: re.sub(pattern, replacement, t, count=1))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ")
        assert message in err

    def test_v1_model_must_be_retrained(self, trained, tmp_path, capsys):
        def to_v1(text):
            text = text.replace("tsmodel-v2", "tsmodel-v1")
            return re.sub(r"(algorithm|stride|lag|norm_mins|norm_maxs) [^\n]*\n", "", text)

        rc, path = self.evaluate_copy(trained, tmp_path, to_v1)
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"data error: {path}: unsupported model format: 'tsmodel-v1'\n"

    def test_model_without_scheme_must_be_retrained(self, trained, tmp_path, capsys):
        def drop_scheme(text):
            return re.sub(r"(algorithm|stride|lag|norm_mins|norm_maxs) [^\n]*\n", "", text)

        rc, path = self.evaluate_copy(trained, tmp_path, drop_scheme)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and "no training scheme" in err
        assert "retrain" in err and "v1" not in err

    def test_wrong_width_is_data_error(self, trained, tmp_path, capsys):
        rc, path = self.evaluate_copy(trained, tmp_path, narrowed)
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: the model takes 3 inputs, a supervised row has 4\n")

    @pytest.mark.parametrize("mins,maxs,message", [
        ("0 0 0 0 0", "0 1 1 1 1",
         "constant column 'y_prev' cannot be normalised (min == max == 0.0)"),
        ("0 0 0", "1 1 1", "normalization record covers exactly 5 columns"),
        ("0 0 0 0 nan", "1 1 1 1 1", "normalization record must be finite"),
        ("0 0 0 0 0", "1 1 inf 1 1", "normalization record must be finite"),
        # finite with max > min, but rain1 / 5e-324 is beyond the largest float
        ("0 0 0 0 0", "100 5e-324 100 100 100",
         "scaling the validation_csv rows by its normalization record overflows"),
    ])
    def test_bad_scaling_record_names_the_model(self, trained, tmp_path, capsys,
                                               mins, maxs, message):
        rc, path = self.evaluate_copy(trained, tmp_path, scaled(mins, maxs))
        assert rc == 3
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"

    def test_event_too_short_for_the_scheme_names_the_model_and_key(self, trained, tmp_path,
                                                                     capsys):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        validation = out / "validation.csv"
        validation.write_text("".join(validation.read_text().splitlines(keepends=True)[:3]))
        config = write_model_config(out)
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 3
        path = out / self.MODEL
        lag = core.load_model(path).scheme.lag  # the model's, shifted by the stride
        assert capsys.readouterr().err == (
            f"data error: {path}: validation_csv: series of length 2 too short for lag {lag} "
            f"and stride 1; need at least {lag + 3} samples\n")


class TestBadModelPrecedence:
    """Of two bad models, evaluate reports the first in name order, whatever
    the kinds of fault; every model is checked before any series is written."""

    FAULTS = {
        "corrupt": (lambda t: re.sub(r"means [^\n]*\n", "", t, count=1), 3,
                    "rule 0: missing 'means' line"),
        "unscheduled": (lambda t: re.sub(r"(algorithm|stride|lag) [^\n]*\n", "", t), 3,
                        "records no training scheme"),
        "stride": (lambda t: t.replace("\nstride 1\n", "\nstride 7\n"), 2,
                   "was trained for stride 7"),
        "width": (narrowed, 3, "the model takes 3 inputs"),
        "scaling": (scaled("0 0 0 0 0", "0 1 1 1 1"), 3, "constant column 'y_prev'"),
    }

    @pytest.mark.parametrize("first,second", list(itertools.permutations(FAULTS, 2)))
    def test_first_bad_model_in_name_order_is_reported(self, trained, tmp_path, capsys,
                                                        first, second):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        good = (out / TestModelFile.MODEL).read_text()
        (out / "models/a_good.model.txt").write_text(good)
        for name, fault in (("b_first", first), ("c_second", second)):
            (out / f"models/{name}.model.txt").write_text(self.FAULTS[fault][0](good))
        config = write_model_config(out)
        _, rc, message = self.FAULTS[first]
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert message in err and "b_first" in err and "c_second" not in err
        assert not list(out.rglob("series_*.csv"))


class TestShortEventPrecedence:
    """Of the schemes a validation event is too short for, evaluate reports
    the one scored first, the schemes in the order of their first model in
    name order, naming that scheme's first model file."""

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("short") / "out"
        config = write_model_config(out, "lag = 1\nstrides = 1,2,5,10\n")
        for command in ("synth", "train"):
            assert cli.main([command, "--config", config, "--out", str(out)]) == 0
        return out

    def evaluate_on(self, models, tmp_path, capsys, n_samples, copy=None):
        out = tmp_path / "out"
        shutil.copytree(models, out)
        if copy is not None:
            shutil.copy(out / "models" / copy[0], out / "models" / copy[1])
        (out / "short.csv").write_text("timestamp,rain1,rain2,rain3,head\n" + "".join(
            f"{30 * k},{k % 3},{k % 2},1,{5 + k}\n" for k in range(n_samples)))
        config = write_model_config(out, f"lag = 1\nstrides = 1,2,5,10\n"
                                         f"validation_csv = {out}/short.csv\n")
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 3
        assert not list(out.rglob("series_*.csv"))
        return capsys.readouterr().err

    def test_first_scheme_in_name_order_is_reported(self, models, tmp_path, capsys):
        # stride 5 and stride 10 both need more than 6 samples; gk_s10_dim
        # sorts before gk_s5_dim
        assert self.evaluate_on(models, tmp_path, capsys, 6) == (
            f"data error: {tmp_path}/out/models/gk_s10_dim.model.txt: validation_csv: "
            "series of length 6 too short for lag 0 and stride 10; need at least 12 "
            "samples\n")

    def test_the_schemes_first_model_file_is_named(self, models, tmp_path, capsys):
        # a_copy, a stride-5 model, puts its scheme before gk_s10_dim's
        assert self.evaluate_on(models, tmp_path, capsys, 4,
                                copy=("gk_s5_dim.model.txt", "a_copy.model.txt")) == (
            f"data error: {tmp_path}/out/models/a_copy.model.txt: validation_csv: "
            "series of length 4 too short for lag 0 and stride 5; need at least 7 "
            "samples\n")


def csv_module_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestSchemeGrouping:
    """evaluate builds and formats what the models of one scheme share once;
    every file it writes is still the csv module's rendering of the rows of
    ``dataio.scheme_sets`` and their forecasts, the models in name order."""

    def test_files_are_the_csv_rendering_of_the_scheme_sets(self, tmp_path):
        out = tmp_path / "out"
        config = write_model_config(out, "algorithms = gk,fcm,sc\nstrides = 1,2\n"
                                         "normalization = both\ninclude_train = on\n")
        for command in ("synth", "train", "evaluate"):
            assert cli.main([command, "--config", config, "--out", str(out)]) == 0
        train = load_event_csv(out / "train.csv", 30.0)
        valid = load_event_csv(out / "validation.csv", 30.0)
        lag = estimate_lag(train, max_lag=15)
        names = sorted(p.name[:-len(".model.txt")] for p in (out / "models").iterdir())
        assert len(names) == 12
        report, extrapolation = [], []
        for name in names:
            model = core.load_model(out / "models" / f"{name}.model.txt")
            scheme = model.scheme
            normalized = scheme.normalization is not None
            tset, vset = scheme_sets(lag, scheme.stride, normalized, train, valid)
            yhat = core.predict_batch(model, vset.x)
            columns = [range(vset.n_rows), vset.y.tolist(), yhat.tolist()]
            header = ["index", "observed", "predicted"]
            label = scheme.algorithm.upper()
            if normalized:
                record = tset.normalization
                columns += [record.denormalize_y(vset.y).tolist(),
                            record.denormalize_y(yhat).tolist()]
                header += ["observed_mm", "predicted_mm"]
                label += " (N)"
                extrapolation.append([name, outside_unit_fraction(
                    np.concatenate([vset.x.ravel(), vset.y]))])
            series = (out / "series" / f"series_{name}.csv").read_bytes()
            assert series == csv_module_text(header, zip(*columns)).encode(), name
            for split, sset in (("validation", vset), ("train", tset)):
                ms = metric_set(sset.y, core.predict_batch(model, sset.x))
                report.append([label, scheme.stride, split, ms.rmse, ms.ve, ms.ce, ms.r])
        assert (out / "forecast_report.csv").read_bytes() == csv_module_text(
            ["algorithm", "scheme", "split", "rmse", "ve", "ce", "r"], report).encode()
        assert (out / "extrapolation.csv").read_bytes() == csv_module_text(
            ["combination", "outside_unit_fraction"], extrapolation).encode()


class TestConstantObserved:
    """A constant observed head leaves the coefficient of efficiency
    undefined: evaluate refuses it as a data error naming the CSV key."""

    @pytest.mark.parametrize("key,extra", [("validation_csv", ""),
                                           ("train_csv", "include_train = on\n")],
                             ids=["validation", "train"])
    def test_constant_head_is_data_error(self, trained, tmp_path, capsys, key, extra):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        csv_path = out / key.replace("_csv", ".csv")
        header, *rows = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join([header] + [r.rsplit(",", 1)[0] + ",5.0"
                                                  for r in rows]) + "\n")
        config = write_model_config(out, extra)
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: {key}: observed series is constant (5.0)")


class TestZeroSumObserved:
    """An observed head that varies but sums to exactly zero leaves the
    volumetric error undefined: a data error naming the CSV key, not a
    config error."""

    @pytest.mark.parametrize("key,extra", [("validation_csv", ""),
                                           ("train_csv", "include_train = on\n")],
                             ids=["validation", "train"])
    def test_zero_sum_head_is_data_error(self, trained, tmp_path, capsys, key, extra):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        scheme = core.load_model(out / TestModelFile.MODEL).scheme
        start = scheme.lag + scheme.stride  # the first target row
        csv_path = out / key.replace("_csv", ".csv")
        header, *rows = csv_path.read_text().splitlines()
        # the targets head[start:] alternate +1, -1 (and end on 0 if odd)
        heads = [0.0] * start + [(-1.0) ** k for k in range(len(rows) - start)]
        if (len(rows) - start) % 2:
            heads[-1] = 0.0
        csv_path.write_text("\n".join([header] + [r.rsplit(",", 1)[0] + f",{h!r}"
                                                  for r, h in zip(rows, heads)]) + "\n")
        config = write_model_config(out, extra)
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {key}: observed series sums to zero\n")


class TestLibraryAgreement:
    """evaluate scores the validation rows of ``dataio.scheme_sets``, so the
    CLI and a study built on the library cannot drift apart."""

    @pytest.mark.parametrize("normalization", ["off", "on"])
    def test_evaluate_scores_the_scheme_sets(self, trained, tmp_path, normalization):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        config = write_model_config(out, f"normalization = {normalization}\n")
        if normalization == "on":
            shutil.rmtree(out / "models")
            assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 0
        train = load_event_csv(out / "train.csv", 30.0)
        valid = load_event_csv(out / "validation.csv", 30.0)
        lag = estimate_lag(train, max_lag=15)
        names = sorted(p.name for p in (out / "models").iterdir())
        assert names == [f"gk_s1_{'norm' if normalization == 'on' else 'dim'}.model.txt"]
        for name in names:
            model = core.load_model(out / "models" / name)
            scheme = model.scheme
            tset, vset = scheme_sets(lag, scheme.stride, scheme.normalization is not None,
                                     train, valid)
            assert tset.lag == scheme.lag
            if scheme.normalization is not None:
                assert scheme.normalization == (tuple(tset.normalization.mins),
                                                tuple(tset.normalization.maxs))
            series = out / "series" / f"series_{name[:-len('.model.txt')]}.csv"
            with open(series, newline="") as fh:
                table = list(csv.DictReader(fh))
            observed = np.array([float(r["observed"]) for r in table])
            predicted = np.array([float(r["predicted"]) for r in table])
            assert observed.tobytes() == vset.y.tobytes()
            assert predicted.tobytes() == core.predict_batch(model, vset.x).tobytes()


class TestAtomicWrites:
    def test_foreign_tmp_untouched_and_no_temp_left(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "train.csv.tmp").write_text("another writer's file")
        assert run(tmp_path, "synth", write_config(tmp_path), monkeypatch) == 0
        assert (out / "train.csv.tmp").read_text() == "another writer's file"
        assert sorted(os.listdir(out)) == ["manifest_synth.txt", "train.csv",
                                           "train.csv.tmp", "validation.csv"]

    def test_failed_write_keeps_target_and_removes_temp(self, tmp_path):
        target = tmp_path / "report.csv"
        write_atomic(target, "old\n")
        with pytest.raises(TypeError):
            write_atomic(target, b"not text")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["report.csv"]


class TestUnwritableOutput:
    """An output path that a plain file or a directory blocks is a config
    error naming it, and leaves every earlier output as it was."""

    @pytest.mark.parametrize("command, blocked, out", [
        ("train", "out/models", "out"), ("train", "out/reports", "out"),
        ("evaluate", "out/series", "out"), ("train", "taken", "taken")])
    def test_blocked_path_is_config_error(self, trained, tmp_path, capsys, command,
                                          blocked, out):
        shutil.copytree(trained, tmp_path / "out")
        path = tmp_path / blocked
        if path.is_dir():
            shutil.rmtree(path)
        path.write_text("")
        config = write_model_config(tmp_path / "out")
        before = snapshot(tmp_path / "out")
        assert cli.main([command, "--config", config, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {path}") and "Traceback" not in err
        # the earlier run's gk_s1_dim.model.txt, which train overwrites, among them
        assert snapshot(tmp_path / "out") == before
        assert not list(tmp_path.rglob("*.pending"))

    def test_directory_in_place_of_a_file_is_refused_before_any_output(
            self, trained, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        (out / "validity_fcm.csv").mkdir()
        config = write_model_config(out, "algorithms = gk,fcm\nc_max = 3\n")
        before = snapshot(out)
        assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {out / 'validity_fcm.csv'}: Is a directory\n")
        assert snapshot(out) == before
        assert not list(tmp_path.rglob("*.pending"))


class TestFailedRunChangesNothing:
    """main puts a subcommand's outputs in place only once it and its
    manifest have succeeded: a failure part-way leaves every earlier file in
    out as it was, and no temporary file behind."""

    def test_evaluate_failing_in_its_last_scheme(self, trained, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        good = (out / TestModelFile.MODEL).read_text()
        # a scaled scheme of its own, scored after gk_s1_dim's
        last = out / "models/gk_s1_norm.model.txt"
        last.write_text(scaled("0 0 0 0 0", " ".join(["5e-324"] * 5))(good))
        config = write_model_config(out)
        before = snapshot(out)
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"data error: {last}: scaling the validation_csv "
                                           "rows by its normalization record overflows\n")
        assert snapshot(out) == before
        assert not list(tmp_path.rglob("*.pending"))

    def test_train_failing_in_its_last_combination(self, tmp_path, monkeypatch, capsys):
        # as in test_under_determined_scheme_is_data_error, stride 95 leaves
        # six rows; the earlier run fitted two rules at stride 1, not three
        config = tmp_path / "exp.conf"
        text = ("out = out\nsynth_duration = 3000\nlag = auto\nalgorithms = gk\n"
                "train_csv = out/train.csv\nvalidation_csv = out/validation.csv\n")
        config.write_text(text + "clusters = 2\nstrides = 1\n")
        assert run(tmp_path, "synth", str(config), monkeypatch) == 0
        assert run(tmp_path, "train", str(config), monkeypatch) == 0
        before = snapshot(tmp_path / "out")
        config.write_text(text + "clusters = 3\nstrides = 1,95\n")
        capsys.readouterr()
        assert run(tmp_path, "train", str(config), monkeypatch) == 3
        assert capsys.readouterr().err == ("data error: train_csv: gk_s95_dim: 6 rows cannot "
                                           "determine 15 consequent parameters\n")
        assert snapshot(tmp_path / "out") == before
        assert not list(tmp_path.rglob("*.pending"))


class TestCompare:
    def test_ranking_and_deltas(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        report = out / "forecast_report.csv"
        report.write_text(
            "algorithm,scheme,split,rmse,ve,ce,r\n"
            "GK,1,validation,1.0,0,0.9,0.9\n"
            "FCM,1,validation,2.0,0,0.8,0.9\n"
            "SC,1,validation,1.5,0,0.85,0.9\n"
        )
        config = write_config(tmp_path)
        assert run(tmp_path, "compare", config, monkeypatch) == 0
        text = (out / "compare.md").read_text()
        lines = [l for l in text.splitlines()
                 if l.startswith("| ") and l[2].isdigit()]
        assert "| 1 | GK |" in lines[0]
        assert "| 2 | SC |" in lines[1]
        assert "| 3 | FCM |" in lines[2]

    def test_tie_breaks_by_name(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "forecast_report.csv").write_text(
            "algorithm,scheme,split,rmse,ve,ce,r\n"
            "SC,1,validation,1.0,0,0.9,0.9\n"
            "GK,1,validation,1.0,0,0.9,0.9\n"
        )
        config = write_config(tmp_path)
        run(tmp_path, "compare", config, monkeypatch)
        lines = [l for l in (out / "compare.md").read_text().splitlines()
                 if l.startswith("| ") and l[2].isdigit()]
        assert "| 1 | GK |" in lines[0]

    def test_markdown_text(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "forecast_report.csv").write_text(
            "algorithm,scheme,split,rmse,ve,ce,r\n"
            "GK,2,validation,0.25,0,0.9,0.9\n"
            "GK,2,train,0.125,0,0.9,0.9\n"
            "FCM (N),1,validation,1e-07,0,0.8,0.9\n"
            "SC,2,validation,0.5,0,0.85,0.9\n"
        )
        assert run(tmp_path, "compare", write_config(tmp_path), monkeypatch) == 0
        assert (out / "compare.md").read_text() == (
            "# Algorithm ranking by validation RMSE\n\n"
            "## Scheme: stride 1\n\n"
            "| rank | algorithm | rmse | delta vs best |\n"
            "|------|-----------|------|---------------|\n"
            "| 1 | FCM (N) | 1e-07 | +0 |\n\n"
            "## Scheme: stride 2\n\n"
            "| rank | algorithm | rmse | delta vs best |\n"
            "|------|-----------|------|---------------|\n"
            "| 1 | GK | 0.25 | +0 |\n"
            "| 2 | SC | 0.5 | +0.25 |\n\n"
        )

    @pytest.mark.parametrize("report, message", [
        ("algorithm,split,rmse\nGK,validation,1.0\n", "the report has no 'scheme' column"),
        ("scheme,split,rmse\n1,validation,1.0\n", "the report has no 'algorithm' column"),
        ("algorithm,scheme,rmse\nGK,1,1.0\n", "the report has no 'split' column"),
        ("", "the report has no 'split' column"),
        ("algorithm,scheme,split,rmse\nGK,1,validation,abc\n",
         "line 2: scheme '1' or rmse 'abc' is not a number"),
        ("algorithm,scheme,split,rmse\nGK,x,validation,1.0\n",
         "line 2: scheme 'x' or rmse '1.0' is not a number"),
        ("algorithm,scheme,split,rmse\nGK,1,train,1.0\nGK,1,validation\n",
         "line 3: scheme '1' or rmse None is not a number"),
        ("algorithm,scheme,split,rmse\nSC,1,validation,1.0\nGK,1,validation,nan\n",
         "line 3: rmse 'nan' is not a finite, non-negative number"),
        ("algorithm,scheme,split,rmse\nGK,1,validation,inf\n",
         "line 2: rmse 'inf' is not a finite, non-negative number"),
        ("algorithm,scheme,split,rmse\nGK,1,validation,-1.0\n",
         "line 2: rmse '-1.0' is not a finite, non-negative number"),
    ], ids=["no-scheme", "no-algorithm", "no-split", "empty-file", "bad-rmse", "bad-scheme", "short-row", "nan-rmse",
            "inf-rmse", "negative-rmse"])
    def test_malformed_report_is_data_error(self, tmp_path, monkeypatch, capsys, report,
                                            message):
        out = tmp_path / "out"
        out.mkdir()
        (out / "forecast_report.csv").write_text(report)
        assert run(tmp_path, "compare", write_config(tmp_path), monkeypatch) == 3
        assert capsys.readouterr().err == f"data error: out/forecast_report.csv: {message}\n"
        assert not (out / "compare.md").exists()

    def test_empty_report_is_data_error(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "forecast_report.csv").write_text("algorithm,scheme,split,rmse,ve,ce,r\n")
        config = write_config(tmp_path)
        assert run(tmp_path, "compare", config, monkeypatch) == 3


class TestSweep:
    def test_writes_validity_and_optima(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = gk\nclusters = sweep\n"
                                        "c_max = 4\n")
        run(tmp_path, "synth", config, monkeypatch)
        assert run(tmp_path, "sweep", config, monkeypatch) == 0
        lines = (tmp_path / "out/validity_gk.csv").read_text().splitlines()
        assert lines[0] == "C,pc,pe,mpc,sc,s,xb"
        assert len(lines) == 4  # C = 2, 3, 4
        optima = (tmp_path / "out/optima_gk.txt").read_text()
        assert optima.startswith("consensus ")

    def test_c_max_at_or_above_n_refused(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = gk\nc_max = 500\n")
        run(tmp_path, "synth", config, monkeypatch)
        assert run(tmp_path, "sweep", config, monkeypatch) == 2

    def test_sc_only_refused(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = sc\n")
        run(tmp_path, "synth", config, monkeypatch)
        assert run(tmp_path, "sweep", config, monkeypatch) == 2

    def test_coincident_centers_at_every_c_are_numerical_failure(self, tmp_path,
                                                                 monkeypatch, capsys):
        import fuzzyrunoff.clustering as clustering_mod

        real = clustering_mod.run_gk

        def collapsed(z, cfg):
            u, centers, trace = real(z, cfg)
            return u, np.zeros_like(centers), trace

        monkeypatch.setattr(clustering_mod, "run_gk", collapsed)
        config = write_config(tmp_path, "algorithms = gk\nc_max = 3\n")
        run(tmp_path, "synth", config, monkeypatch)
        capsys.readouterr()
        assert run(tmp_path, "sweep", config, monkeypatch) == 4
        assert "clustering failed for every C" in capsys.readouterr().err

    def test_numerical_failure_names_the_algorithm(self, tmp_path, monkeypatch, capsys):
        # fcm sweeps the dead gauge of TestTrain's numerical failure; gk
        # fails at every C and the message names it
        write_degenerate_event(tmp_path, 40, dead_gauge=True)
        config = write_config(tmp_path, "algorithms = fcm,gk\nnormalization = off\n"
                                        "gamma = 0\nlag = 0\nc_max = 4\n")
        assert run(tmp_path, "sweep", config, monkeypatch) == 4
        assert capsys.readouterr().err == \
            "numerical failure: gk: clustering failed for every C in [2, 3, 4]\n"

    def test_scores_the_rows_train_fits(self, tmp_path, monkeypatch):
        # at this seed GK's consensus on the rows with the unshifted lag is
        # 2, while the lag-minus-stride rows that train fits give 3; sweep
        # scores the first configured stride, and at stride 15 GK's is 2
        for first, strides in ((1, "1"), (15, "15,1")):
            config = tmp_path / f"exp{first}.conf"
            config.write_text("seed = 3\nbase_interval = 30\nsynth_duration = 9000\n"
                              "storm_exponent = 1.5\nalgorithms = gk,fcm\n"
                              f"clusters = sweep\nc_max = 6\nstrides = {strides}\n"
                              f"lag = auto\nmax_lag = 20\nout = out{first}\n"
                              f"train_csv = out{first}/train.csv\n"
                              f"validation_csv = out{first}/validation.csv\n")
            for command in ("synth", "sweep", "train"):
                assert run(tmp_path, command, str(config), monkeypatch) == 0
            for algorithm in ("gk", "fcm"):
                out = tmp_path / f"out{first}"
                optima = (out / f"optima_{algorithm}.txt").read_text()
                fit = (out / f"reports/fit_{algorithm}_s{first}_dim.csv").read_text()
                consensus = fit.strip().splitlines()[1].split(",")[-1]
                assert optima.splitlines()[0] == f"consensus {consensus}", (first, algorithm)

    def test_deterministic_rerun(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "algorithms = fcm\nc_max = 4\n")
        run(tmp_path, "synth", config, monkeypatch)
        run(tmp_path, "sweep", config, monkeypatch)
        blob_a = (tmp_path / "out/validity_fcm.csv").read_bytes()
        run(tmp_path, "sweep", config, monkeypatch)
        assert (tmp_path / "out/validity_fcm.csv").read_bytes() == blob_a


class TestManifest:
    def test_manifest_contents(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        run(tmp_path, "synth", config, monkeypatch)
        text = (tmp_path / "out/manifest_synth.txt").read_text()
        assert "command synth" in text
        assert "config_sha256 " in text
        assert "seed 11" in text
        assert "numpy " in text

    def test_seed_override_changes_manifest(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        cli.main(["synth", "--config", config, "--seed", "99"])
        assert "seed 99" in (tmp_path / "out/manifest_synth.txt").read_text()
