import math
from dataclasses import replace

import numpy as np
import pytest

from test_acceptance import STORM_REGIME

from fuzzyrunoff import clustering, core, dataio, identify
from fuzzyrunoff.clustering import ClusterConfig, NumericalError
from fuzzyrunoff.identify import (
    build_regressors,
    fit_model,
    normalized_truth,
    premise_means,
    premise_widths,
    solve_consequents,
)


class TestPremiseMeans:
    def test_crisp_single_cluster(self):
        z = np.array([[0.0, 9.0], [2.0, 9.0]])  # one input column + output
        u = np.ones((1, 2))
        assert premise_means(z, u, m=2.0)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_equal_memberships_give_column_mean(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(30, 3))
        u = np.full((2, 30), 0.5)
        means = premise_means(z, u, m=2.0)
        for i in range(2):
            assert np.allclose(means[i], z[:, :2].mean(axis=0), atol=1e-12)

    def test_weighted_arithmetic(self):
        z = np.array([[0.0, 0.0], [4.0, 0.0]])
        u = np.array([[1.0, 0.5]])
        # m=2: (1*0 + 0.25*4) / (1 + 0.25) = 0.8
        assert premise_means(z, u, m=2.0)[0, 0] == pytest.approx(0.8, rel=1e-12)

    def test_zero_mass_cluster_rejected(self):
        z = np.zeros((3, 2))
        u = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NumericalError):
            premise_means(z, u, m=2.0)

    def test_output_column_not_used(self):
        z = np.array([[1.0, 100.0], [3.0, -100.0]])
        u = np.ones((1, 2))
        assert premise_means(z, u, m=2.0)[0, 0] == pytest.approx(2.0, abs=1e-15)


class TestPremiseWidths:
    def test_crisp_cluster_formula(self):
        # points {0, 2}, mean 1: sqrt(2 * 2 / 2) = sqrt(2)
        z = np.array([[0.0, 0.0], [2.0, 0.0]])
        u = np.ones((1, 2))
        widths = premise_widths(z, u, m=2.0, means=np.array([[1.0]]))
        assert widths[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_symmetric_pair(self):
        z = np.array([[-1.0, 0.0], [1.0, 0.0]])
        u = np.ones((1, 2))
        widths = premise_widths(z, u, m=2.0, means=np.array([[0.0]]))
        assert widths[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_degenerate_spread_clamped(self):
        z = np.array([[5.0, 0.0], [5.0, 1.0], [5.0, 2.0]])
        u = np.ones((1, 3))
        widths = premise_widths(z, u, m=2.0, means=np.array([[5.0]]))
        assert widths[0, 0] == 1e-6  # constant column: absolute clamp

    def test_always_positive(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(40, 4))
        u = np.abs(rng.normal(size=(3, 40))) + 1e-6
        u /= u.sum(axis=0)
        means = premise_means(z, u, m=2.0)
        widths = premise_widths(z, u, m=2.0, means=means)
        assert np.all(widths > 0)


class TestNormalizedTruth:
    def test_one_hot_near_a_far_rule(self):
        model = core.TsModel([[0.0], [50.0]], [[1.0], [1.0]], [[0, 0], [0, 0]])
        truth = normalized_truth(model, np.array([[0.0]]))
        assert truth[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_of_symmetric_rules(self):
        model = core.TsModel([[-1.0], [1.0]], [[1.0], [1.0]], [[0, 0], [0, 0]])
        truth = normalized_truth(model, np.array([[0.0]]))
        assert np.allclose(truth[0], [0.5, 0.5], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        model = core.TsModel(rng.normal(size=(3, 2)), rng.random((3, 2)) + 0.2,
                             rng.normal(size=(3, 3)))
        X = rng.normal(size=(25, 2))
        truth = normalized_truth(model, X)
        assert np.allclose(truth.sum(axis=1), 1.0, atol=1e-12)

    def test_degenerate_row_one_hot_at_nearest(self):
        model = core.TsModel([[0.0], [10.0]], [[0.1], [0.1]], [[0, 0], [0, 0]])
        truth = normalized_truth(model, np.array([[-400.0], [402.0]]))
        assert np.array_equal(truth[0], [1.0, 0.0])
        assert np.array_equal(truth[1], [0.0, 1.0])


class TestBuildRegressors:
    def test_single_rule_row(self):
        X = np.array([[2.0, 3.0]])
        truth = np.array([[1.0]])
        pi = build_regressors(X, truth)
        assert np.array_equal(pi, [[1.0, 2.0, 3.0]])

    def test_two_rule_concatenation(self):
        X = np.array([[2.0]])
        truth = np.array([[0.5, 0.5]])
        pi = build_regressors(X, truth)
        assert np.array_equal(pi, [[0.5, 1.0, 0.5, 1.0]])

    def test_zero_input_keeps_truth_entries(self):
        X = np.zeros((1, 2))
        truth = np.array([[0.3, 0.7]])
        pi = build_regressors(X, truth)
        assert np.array_equal(pi, [[0.3, 0.0, 0.0, 0.7, 0.0, 0.0]])

    def test_shape(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(11, 3))
        truth = rng.random((11, 4))
        assert build_regressors(X, truth).shape == (11, 16)

    @pytest.mark.parametrize("x_shape, truth_shape", [
        ((3, 2), (4, 2)), ((3,), (3, 2)), ((3, 2), (3,))])
    def test_shape_mismatch_refused(self, x_shape, truth_shape):
        with pytest.raises(ValueError, match="^shape mismatch: X "):
            build_regressors(np.ones(x_shape), np.ones(truth_shape))


class TestSolveConsequents:
    def test_square_full_rank_exact(self):
        rng = np.random.default_rng(4)
        pi = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        y = rng.normal(size=5)
        zeta, res = solve_consequents(pi, y)
        assert np.allclose(pi @ zeta, y, atol=1e-9)
        assert res == pytest.approx(0.0, abs=1e-9)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(5)
        pi = rng.normal(size=(40, 6))
        zeta_true = rng.normal(size=6)
        y = pi @ zeta_true
        zeta, _ = solve_consequents(pi, y)
        assert np.allclose(zeta, zeta_true, rtol=1e-8)

    def test_rank_deficient_matches_pinv_oracle(self):
        # 5x4 with a duplicated column; oracle is the dense pseudo-inverse
        rng = np.random.default_rng(6)
        base = rng.normal(size=(5, 3))
        pi = np.hstack([base, base[:, [1]]])
        y = rng.normal(size=5)
        zeta, res = solve_consequents(pi, y)
        oracle = np.linalg.pinv(pi) @ y
        res_oracle = float(np.linalg.norm(y - pi @ oracle))
        assert res == pytest.approx(res_oracle, rel=1e-8, abs=1e-12)
        assert np.allclose(zeta, oracle, atol=1e-8)

    def test_unequal_dependent_columns_keep_only_the_pinv_residual(self):
        # pi = [b0, b1, 2*b0]: equilibration makes the scaled coefficients
        # of b0 and 2*b0 equal (zeta0 = 2 zeta2), the pseudo-inverse makes
        # the raw ones proportional to the column norms (2 zeta0 = zeta2)
        rng = np.random.default_rng(6)
        b = rng.normal(size=(6, 2))
        pi = np.column_stack([b[:, 0], b[:, 1], 2.0 * b[:, 0]])
        y = rng.normal(size=6)
        zeta, res = solve_consequents(pi, y)
        oracle = np.linalg.pinv(pi) @ y
        assert res == pytest.approx(float(np.linalg.norm(y - pi @ oracle)), rel=1e-9)
        assert zeta[0] + 2.0 * zeta[2] == pytest.approx(oracle[0] + 2.0 * oracle[2], rel=1e-9)
        assert zeta[0] == pytest.approx(2.0 * zeta[2], rel=1e-9)
        assert oracle[2] == pytest.approx(2.0 * oracle[0], rel=1e-9)
        assert not np.allclose(zeta, oracle, rtol=0, atol=1e-6)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        pi = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        zeta, _ = solve_consequents(pi, y)
        eps = y - pi @ zeta
        bound = 1e-8 * np.linalg.norm(pi) * max(np.linalg.norm(eps), 1e-30)
        assert np.all(np.abs(pi.T @ eps) <= max(bound, 1e-12))

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(8)
        pi = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        zeta, res = solve_consequents(pi, y)
        for _ in range(100):
            other = zeta + rng.normal(size=4) * 0.1
            assert np.linalg.norm(y - pi @ other) >= res - 1e-12

    @pytest.mark.parametrize("pi_shape, y_shape", [((4, 3), (5,)), ((4,), (4,))])
    def test_shape_mismatch_refused(self, pi_shape, y_shape):
        with pytest.raises(ValueError, match="^shape mismatch: pi "):
            solve_consequents(np.ones(pi_shape), np.ones(y_shape))

    def test_all_zero_regressors_rejected(self):
        with pytest.raises(NumericalError, match="regressor matrix is identically zero"):
            solve_consequents(np.zeros((4, 3)), np.ones(4))


def generating_two_rule_model():
    return core.TsModel(
        premise_means=[[0.0], [10.0]],
        premise_widths=[[1.5], [1.5]],
        consequents=[[2.0, 0.5], [-3.0, 1.5]],
    )


def two_rule_samples(n_per_side=120):
    """Inputs concentrated around each premise (the gap is unsampled), so
    both generator and refit behave one-hot where the data lives."""
    return np.concatenate([
        np.linspace(-2.0, 2.0, n_per_side),
        np.linspace(8.0, 12.0, n_per_side),
    ])[:, None]


class TestFitModel:
    def test_self_consistency_on_noise_free_ts_data(self):
        gen = generating_two_rule_model()
        x = two_rule_samples()
        y = core.predict_batch(gen, x)
        z = np.hstack([x, y[:, None]])
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=0)
        model, report = fit_model(z, cfg)
        assert report.train.rmse < 1e-3
        assert model.rule_count == 2

    def test_deterministic_serialisation(self):
        gen = generating_two_rule_model()
        x = two_rule_samples(60)
        y = core.predict_batch(gen, x)
        z = np.hstack([x, y[:, None]])
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=3)
        model_a, _ = fit_model(z, cfg)
        model_b, _ = fit_model(z, cfg)
        assert core.dump_model(model_a) == core.dump_model(model_b)

    def test_single_cluster_reduces_to_affine_least_squares(self):
        # C=1: the truth value is 1 everywhere, so the consequent solve is
        # ordinary affine least squares; oracle = normal equations
        rng = np.random.default_rng(9)
        x = rng.normal(size=(10, 1))
        y = 3.0 * x[:, 0] - 1.5 + rng.normal(size=10) * 0.1
        truth = np.ones((10, 1))
        pi = build_regressors(x, truth)
        zeta, _ = solve_consequents(pi, y)
        a = np.hstack([np.ones((10, 1)), x])
        oracle = np.linalg.solve(a.T @ a, a.T @ y)
        assert np.allclose(zeta, oracle, rtol=1e-8)

    def test_rule_count_from_sweep(self):
        rng = np.random.default_rng(10)
        centers = np.array([[0.0, 0.0], [8.0, 5.0], [16.0, 10.0]])
        z = np.vstack([c + rng.normal(scale=0.5, size=(40, 2)) for c in centers])
        cfg = ClusterConfig(algorithm="gk", seed=0)
        model, report = fit_model(z, cfg, c_range=range(2, 6))
        assert report.consensus_c == 3
        assert model.rule_count == 3

    @pytest.mark.parametrize("algorithm", ["gk", "fcm"])
    def test_swept_fit_equals_the_fixed_count_fit(self, monkeypatch, algorithm):
        rng = np.random.default_rng(10)
        centers = np.array([[0.0, 0.0, 1.0], [8.0, 5.0, 3.0], [16.0, 10.0, -2.0]])
        z = np.vstack([c + rng.normal(scale=0.7, size=(60, 3)) for c in centers])
        cfg = ClusterConfig(algorithm=algorithm, seed=3)
        runs = []
        real = clustering._run_alternating

        def counting(data, run_cfg, adaptive_norm):
            runs.append(run_cfg.n_clusters)
            return real(data, run_cfg, adaptive_norm)

        monkeypatch.setattr(clustering, "_run_alternating", counting)
        swept, swept_report = fit_model(z, cfg, c_range=range(2, 7))
        assert sorted(runs) == [2, 3, 4, 5, 6]  # each C clustered once
        consensus = swept_report.consensus_c
        fixed, fixed_report = fit_model(z, replace(cfg, n_clusters=consensus))
        assert runs[5:] == [consensus]
        assert core.dump_model(swept) == core.dump_model(fixed)
        assert replace(swept_report, consensus_c=None) == fixed_report

    def test_sc_pipeline_produces_model(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 10.0, 80)[:, None]
        y = np.sin(x[:, 0]) + 0.5 * x[:, 0]
        z = np.hstack([x, y[:, None]])
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
        model, report = fit_model(z, cfg)
        assert model.rule_count == report.n_rules >= 1
        assert np.all(np.isfinite(core.predict_batch(model, x)))

    def test_sc_fits_share_a_partition_through_the_dict(self, monkeypatch):
        # a set and its min-max normalised copy cluster once; another cfg,
        # other rows and gk cluster again; each fit equals its fit alone
        rng = np.random.default_rng(14)
        z = rng.normal(size=(60, 3)) * [1.0, 30.0, 1e-3] + [5.0, -2.0, 0.0]
        lo, hi = z.min(axis=0), z.max(axis=0)
        sc = ClusterConfig(algorithm="sc")
        fits = [(z, sc), ((z - lo) / (hi - lo), sc), (z, replace(sc, sc_radius=0.4)),
                (z[:-1], sc), (z, ClusterConfig(algorithm="gk", seed=0))]
        runs = []
        real = clustering.run_sc

        def counting(data, cfg):
            runs.append(cfg)
            return real(data, cfg)

        monkeypatch.setattr(clustering, "run_sc", counting)
        partitions = {}
        shared = [fit_model(data, cfg, partitions=partitions) for data, cfg in fits]
        assert len(runs) == len(partitions) == 3
        for (data, cfg), (model, report) in zip(fits, shared):
            alone, alone_report = fit_model(data, cfg)
            assert core.dump_model(model) == core.dump_model(alone)
            assert report == alone_report

    def test_data_without_an_input_column_refused(self):
        with pytest.raises(ValueError, match="^joined data needs at least one input column$"):
            fit_model(np.arange(10.0)[:, None], ClusterConfig())

    def test_sweep_with_sc_rejected(self):
        z = np.random.default_rng(12).normal(size=(30, 2))
        cfg = ClusterConfig(algorithm="sc")
        with pytest.raises(ValueError):
            fit_model(z, cfg, c_range=range(2, 5))

    def test_stage_label_in_errors(self):
        z = np.random.default_rng(13).normal(size=(4, 2))
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=0)
        with pytest.raises(ValueError, match="sweep"):
            fit_model(z, cfg, c_range=range(2, 6))

    def test_report_csv(self, tmp_path):
        gen = generating_two_rule_model()
        x = two_rule_samples(30)
        y = core.predict_batch(gen, x)
        z = np.hstack([x, y[:, None]])
        cfg = ClusterConfig(algorithm="fcm", n_clusters=2, seed=0)
        _, report = fit_model(z, cfg)
        path = tmp_path / "fit.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("algorithm,n_rules")


class TestCoarseCutoffRefit:
    """A short storm event, 87 supervised rows, on which FCM with 8 rules
    gives an exact consequent solve of cancelling blow-ups (largest
    coefficient about 7.6e6), so the fit refits at CONSEQUENT_COND."""

    @pytest.fixture(scope="class")
    def rows(self):
        event = dataio.synth_storm(5, 3000.0, 30.0, STORM_REGIME)
        lag = dataio.estimate_lag(event, max_lag=20)
        sset, = dataio.scheme_sets(lag, 1, True, event)
        assert (lag, sset.n_rows) == (14, 87)
        return sset.joined()

    def fit_recording_solves(self, rows, c, monkeypatch):
        """The model of an FCM fit with ``c`` rules, and the (cond, largest
        coefficient) of each consequent solve; cond is None for the exact
        solve."""
        solves, solve = [], identify.solve_consequents

        def recording(pi, y, **kwargs):
            zeta, residual_norm = solve(pi, y, **kwargs)
            solves.append((kwargs.get("cond"), float(np.abs(zeta).max())))
            return zeta, residual_norm

        monkeypatch.setattr(identify, "solve_consequents", recording)
        model, _ = fit_model(rows, ClusterConfig(algorithm="fcm", n_clusters=c, seed=42))
        return model, solves

    def test_blow_up_refits_at_the_coarse_cutoff(self, rows, monkeypatch):
        model, solves = self.fit_recording_solves(rows, 8, monkeypatch)
        assert [cond for cond, _ in solves] == [None, identify.CONSEQUENT_COND]
        assert solves[0][1] > 1e6
        assert np.abs(model.consequents).max() == solves[1][1] < 10.0

    def test_well_posed_fit_solves_once(self, rows, monkeypatch):
        model, solves = self.fit_recording_solves(rows, 3, monkeypatch)
        assert [cond for cond, _ in solves] == [None]
        assert np.abs(model.consequents).max() == solves[0][1] < 10.0
