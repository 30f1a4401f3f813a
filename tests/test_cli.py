import csv
import gc
import os
import re
import shutil
import sys
import warnings

import numpy as np
import pytest

from fuzzyrunoff import cli, core
from fuzzyrunoff.atomicio import write_atomic
from fuzzyrunoff.dataio import estimate_lag, load_event_csv

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


def write_config(tmp_path, extra=""):
    path = tmp_path / "exp.conf"
    path.write_text(BASE_CONFIG + extra)
    return str(path)


def run(tmp_path, command, config, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main([command, "--config", config])


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


class TestSynth:
    def test_writes_loadable_events(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        assert run(tmp_path, "synth", config, monkeypatch) == 0
        train = load_event_csv(tmp_path / "out/train.csv", 30.0)
        valid = load_event_csv(tmp_path / "out/validation.csv", 30.0)
        assert len(train) == len(valid) == 201
        assert (tmp_path / "out/manifest_synth.txt").exists()

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

    def test_numerical_failure_is_exit_four(self, tmp_path, monkeypatch):
        # a dead gauge makes the joined data collinear; with gamma = 0 the raw
        # fuzzy covariance GK inverts is singular and clustering fails
        write_degenerate_event(tmp_path, 40, dead_gauge=True)
        config = write_config(tmp_path, "algorithms = gk\nstrides = 1\n"
                                        "normalization = off\ngamma = 0\n"
                                        "lag = 0\n")
        assert run(tmp_path, "train", config, monkeypatch) == 4

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
        config = write_config(tmp_path, "algorithms = fcm\nstrides = 1\n"
                                        "normalization = off\nlag = 0\n")
        assert run(tmp_path, "train", config, monkeypatch) == 3
        assert capsys.readouterr().err.startswith("data error:")

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


def write_model_config(out):
    out.mkdir(parents=True, exist_ok=True)
    path = out.parent / "model.conf"
    path.write_text(BASE_CONFIG.replace("out/", f"{out}/")
                    + "algorithms = gk\nstrides = 1\nnormalization = off\n")
    return str(path)


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
        lag = int(estimate_lag(load_event_csv(trained / "train.csv", 30.0), max_lag=15))
        assert model.scheme == core.Scheme("gk", 1, max(0, lag - 1))
        assert sorted(os.listdir(trained / "models")) == ["gk_s1_dim.model.txt"]

    @pytest.mark.parametrize("pattern,replacement,message", [
        (r"means [^\n]*\n", "", "rule 0: missing 'means' line"),
        (r"widths [^\n]*\n", "", "rule 0: missing 'widths' line"),
        (r"theta [^\n]*\n", "", "rule 0: missing 'theta' line"),
        (r"input_dim [^\n]*\n", "", "missing 'input_dim' line"),
        (r"rule_count \d+", "rule_count x", "line 3: bad rule_count value 'x'"),
        (r"tsmodel-v2", "tsmodel-v9", "unsupported model format: 'tsmodel-v9'"),
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
        assert err.startswith(f"data error: {path}: ") and "retrain" in err


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
        config = write_model_config(out)
        with open(config, "a") as fh:
            fh.write(extra)
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: {key}: observed series is constant (5.0)")


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
