import math
import tracemalloc

import numpy as np
import pytest

from fuzzyrunoff import clustering
from fuzzyrunoff.clustering import (
    ClusterConfig,
    DataMatrix,
    NumericalError,
    PartitionMatrix,
    _minmax_normalise,
    _objective,
    _squared_distances,
    init_partition,
    norm_matrices,
    run_fcm,
    run_gk,
    run_sc,
    sc_partition,
    scatter_matrices,
    update_centers,
    update_covariances,
    update_memberships,
)


def two_blobs(seed=0, n_per=10, spread=0.1, centers=((0.0, 0.0), (10.0, 10.0))):
    rng = np.random.default_rng(seed)
    parts = [c + rng.normal(scale=spread, size=(n_per, 2)) for c in centers]
    return np.vstack(parts)


class TestInitPartition:
    def test_deterministic_per_seed(self):
        a = init_partition(10, 3, seed=42)
        b = init_partition(10, 3, seed=42)
        assert np.array_equal(a.u, b.u)

    def test_columns_sum_to_one(self):
        part = init_partition(25, 4, seed=1)
        assert np.allclose(part.u.sum(axis=0), 1.0, atol=1e-12)

    def test_shape_and_open_interval(self):
        part = init_partition(3, 2, seed=0)
        assert part.u.shape == (2, 3)
        assert np.all(part.u > 0) and np.all(part.u < 1)

    def test_rejects_too_many_clusters(self):
        with pytest.raises(ValueError):
            init_partition(5, 5, seed=0)


class TestUpdateCenters:
    def test_crisp_memberships_give_cluster_means(self):
        z = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0], [12.0, 12.0]])
        u = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        v = update_centers(z, u, m=2.0)
        assert np.allclose(v[0], [0.5, 0.5])
        assert np.allclose(v[1], [11.0, 11.0])

    def test_single_cluster_gives_global_mean(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(20, 3))
        u = np.ones((1, 20))
        v = update_centers(z, u, m=2.0)
        assert np.allclose(v[0], z.mean(axis=0), atol=1e-12)

    def test_two_points_crisp(self):
        z = np.array([[0.0, 0.0], [2.0, 2.0]])
        u = np.eye(2)
        v = update_centers(z, u, m=2.0)
        assert np.allclose(v, z)

    def test_empty_cluster_rejected(self):
        z = np.zeros((3, 2))
        u = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NumericalError, match="cluster 1"):
            update_centers(z, u, m=2.0)


class TestCovariances:
    def test_zero_scatter_becomes_scaled_identity(self):
        z = np.full((6, 2), 3.0)
        u = np.ones((1, 6))
        centers = update_centers(z, u, m=2.0)
        gamma = 1e-3
        covs = update_covariances(z, u, centers, m=2.0, gamma=gamma)
        assert np.allclose(covs[0], gamma * np.eye(2), atol=1e-15)

    def test_crisp_hand_scatter(self):
        z = np.array([[-1.0, 0.0], [1.0, 0.0]])
        u = np.ones((1, 2))
        centers = np.array([[0.0, 0.0]])
        raw = scatter_matrices(z, u, centers, m=2.0)
        assert np.allclose(raw[0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_isotropic_blob_matches_sample_covariance(self):
        # oracle: direct sample covariance of the same draw
        rng = np.random.default_rng(5)
        z = rng.normal(size=(2000, 2))
        u = np.ones((1, 2000))
        centers = update_centers(z, u, m=2.0)
        covs = update_covariances(z, u, centers, m=2.0, gamma=0.0)
        diff = z - z.mean(axis=0)
        oracle = diff.T @ diff / z.shape[0]
        assert np.allclose(covs[0], oracle, atol=1e-12)
        assert np.allclose(oracle, np.eye(2), atol=0.15)

    def test_singular_after_regularisation_rejected(self):
        # gamma = 0 keeps the raw collinear scatter, which is singular
        z = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        u = np.ones((1, 3))
        centers = update_centers(z, u, m=2.0)
        with pytest.raises(NumericalError, match="cluster 0"):
            update_covariances(z, u, centers, m=2.0, gamma=0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(50, 3))
        u = init_partition(50, 2, seed=0).u
        centers = update_centers(z, u, m=2.0)
        covs = update_covariances(z, u, centers, m=2.0, gamma=1e-3)
        for f in covs:
            assert np.allclose(f, f.T, atol=1e-10)


def gk_distance(z_k, v_i, f_i) -> float:
    """Squared GK distance of one sample to one center with covariance f_i."""
    norms = norm_matrices(np.asarray(f_i, dtype=float)[None])
    return float(_squared_distances(np.atleast_2d(z_k), np.atleast_2d(v_i), norms)[0, 0])


class TestGkDistance:
    def test_zero_at_center(self):
        f = np.eye(2)
        assert gk_distance([1.0, 2.0], [1.0, 2.0], f) == 0.0

    def test_identity_norm_is_squared_euclidean(self):
        f = np.eye(2)
        assert gk_distance([3.0, 4.0], [0.0, 0.0], f) == pytest.approx(25.0, rel=1e-12)

    def test_diagonal_hand_value(self):
        # det(diag(4,1))^(1/2) = 2, inverse diag(1/4, 1) -> 2 * (4 * 1/4) = 2
        f = np.diag([4.0, 1.0])
        assert gk_distance([2.0, 0.0], [0.0, 0.0], f) == pytest.approx(2.0, rel=1e-12)

    def test_unit_determinant_of_induced_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            f = a @ a.T + 0.1 * np.eye(3)
            norm = norm_matrices(f[None])[0]
            assert np.linalg.det(norm) == pytest.approx(1.0, abs=1e-8)

    def test_non_positive_definite_rejected(self):
        f = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericalError):
            gk_distance([1.0, 1.0], [0.0, 0.0], f)


class TestKernels:
    """The matrix-product kernels against their einsum definitions."""

    @staticmethod
    def problem(rng):
        n, d, c = int(rng.integers(5, 300)), int(rng.integers(1, 7)), int(rng.integers(2, 6))
        z = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(size=d)
        centers = rng.normal(size=(c, d))
        a = rng.normal(size=(c, d, d))
        spd = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d)
        return z, centers, spd

    @staticmethod
    def einsum_distances(z, centers, norms):
        return np.stack([np.einsum("kd,de,ke->k", z - v, a, z - v)
                         for v, a in zip(centers, norms)])

    def test_scatter_matches_einsum(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            z, centers, _ = self.problem(rng)
            u = init_partition(z.shape[0], centers.shape[0], seed=int(rng.integers(99))).u
            m = float(rng.uniform(1.2, 3.0))
            um = u**m
            expected = np.stack([np.einsum("k,ki,kj->ij", w, z - v, z - v) / w.sum()
                                 for w, v in zip(um, centers)])
            np.testing.assert_allclose(scatter_matrices(z, u, centers, m), expected,
                                       rtol=1e-12)

    def test_distances_match_einsum(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            z, centers, spd = self.problem(rng)
            np.testing.assert_allclose(_squared_distances(z, centers, spd),
                                       self.einsum_distances(z, centers, spd), rtol=1e-12)

    def test_identity_norm_distances_are_bit_identical(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            z, centers, _ = self.problem(rng)
            c, d = centers.shape
            eye = np.broadcast_to(np.eye(d), (c, d, d))
            assert (_squared_distances(z, centers, eye).tobytes()
                    == self.einsum_distances(z, centers, eye).tobytes())

    def test_singular_covariance_names_the_first_cluster(self):
        # crisp partition: cluster 0 spans the plane, clusters 1 and 2 are
        # each a line, so with gamma = 0 both of their scatters are singular
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [5.0, 0.0], [6.0, 0.0], [7.0, 0.0],
                      [0.0, 5.0], [0.0, 6.0], [0.0, 7.0]])
        u = np.zeros((3, 10))
        u[0, :4] = u[1, 4:7] = u[2, 7:] = 1.0
        centers = update_centers(z, u, m=2.0)
        with pytest.raises(NumericalError, match="covariance of cluster 1 is singular"):
            update_covariances(z, u, centers, m=2.0, gamma=0.0)

    def test_non_positive_definite_names_the_first_cluster(self):
        stack = np.array([np.eye(2), np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        with pytest.raises(NumericalError,
                           match="covariance of cluster 1 is not positive definite"):
            norm_matrices(stack)


class TestUpdateMemberships:
    def test_equidistant_splits_evenly(self):
        d2 = np.array([[4.0], [4.0]])
        u = update_memberships(d2, m=2.0).u
        assert np.allclose(u[:, 0], [0.5, 0.5], atol=1e-15)

    def test_zero_distance_one_hot(self):
        d2 = np.array([[0.0], [3.0]])
        u = update_memberships(d2, m=2.0).u
        assert np.array_equal(u[:, 0], [1.0, 0.0])

    def test_zero_distance_tie_splits_equally(self):
        d2 = np.array([[0.0], [0.0], [5.0]])
        u = update_memberships(d2, m=2.0).u
        assert np.array_equal(u[:, 0], [0.5, 0.5, 0.0])

    def test_hand_value(self):
        d2 = np.array([[1.0], [3.0]])
        u = update_memberships(d2, m=2.0).u
        assert np.allclose(u[:, 0], [0.75, 0.25], rtol=1e-12)

    def test_columns_always_sum_to_one(self):
        rng = np.random.default_rng(8)
        d2 = rng.random((4, 50)) * 10
        d2[2, 7] = 0.0
        u = update_memberships(d2, m=1.7).u
        assert np.allclose(u.sum(axis=0), 1.0, atol=1e-9)
        PartitionMatrix(u).validate()


class TestRunGk:
    def test_recovers_separated_blob_centers(self):
        z = two_blobs(seed=0)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=1)
        part, clusters, trace = run_gk(z, cfg)
        got = clusters.centers[np.argsort(clusters.centers[:, 0])]
        assert np.all(np.abs(got[0] - [0.0, 0.0]) < 0.2)
        assert np.all(np.abs(got[1] - [10.0, 10.0]) < 0.2)
        assert trace.converged

    def test_recovers_ellipse_orientation(self):
        # two parallel 5:1 ellipses rotated 30 degrees; the oracle is the
        # generating rotation
        rng = np.random.default_rng(9)
        angle = math.radians(30.0)
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        raw = rng.normal(size=(250, 2)) * [5.0, 1.0]
        cloud = raw @ rot.T
        z = np.vstack([cloud + [0.0, 0.0], cloud + [-10.0, 17.3]])
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=3)
        _, clusters, _ = run_gk(z, cfg)
        major = rot @ np.array([1.0, 0.0])
        for f in clusters.covariances:
            w, vec = np.linalg.eigh(f)
            dominant = vec[:, np.argmax(w)]
            deviation = math.degrees(math.acos(min(1.0, abs(dominant @ major))))
            assert deviation < 5.0

    def test_deterministic_trace(self):
        z = two_blobs(seed=4)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=7)
        part_a, _, trace_a = run_gk(z, cfg)
        part_b, _, trace_b = run_gk(z, cfg)
        assert np.array_equal(part_a.u, part_b.u)
        assert trace_a.objective == trace_b.objective
        assert trace_a.delta_u == trace_b.delta_u

    def test_objective_non_increasing_without_regularisation(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(60, 3)) * [1.0, 3.0, 0.5] + [0.0, 2.0, -1.0]
        cfg = ClusterConfig(algorithm="gk", n_clusters=3, seed=2, gamma=0.0)
        _, _, trace = run_gk(z, cfg)
        obj = np.asarray(trace.objective)
        assert np.all(np.diff(obj) <= 1e-8)

    def test_terminates_with_flag(self):
        z = two_blobs(seed=12)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=0, max_iter=2)
        _, _, trace = run_gk(z, cfg)
        assert trace.converged or trace.delta_u[-1] > cfg.xi

    def test_relabeling_leaves_objective_unchanged(self):
        z = two_blobs(seed=13)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=5)
        part, clusters, _ = run_gk(z, cfg)
        norms = norm_matrices(clusters.covariances)
        d2 = _squared_distances(z, clusters.centers, norms)
        j = _objective(part.u, d2, cfg.m)
        perm = [1, 0]
        d2_perm = _squared_distances(z, clusters.centers[perm], norms[perm])
        j_perm = _objective(part.u[perm], d2_perm, cfg.m)
        assert j == pytest.approx(j_perm, rel=1e-12)

    def test_partition_is_valid(self):
        z = two_blobs(seed=14)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=6)
        part, _, _ = run_gk(z, cfg)
        part.validate()

    def test_centers_inside_bounding_box(self):
        z = two_blobs(seed=15)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=8)
        _, clusters, _ = run_gk(z, cfg)
        assert np.all(clusters.centers >= z.min(axis=0) - 1e-12)
        assert np.all(clusters.centers <= z.max(axis=0) + 1e-12)


class TestRunFcm:
    def test_recovers_separated_blob_centers(self):
        z = two_blobs(seed=20)
        cfg = ClusterConfig(algorithm="fcm", n_clusters=2, seed=1)
        _, clusters, trace = run_fcm(z, cfg)
        got = clusters.centers[np.argsort(clusters.centers[:, 0])]
        assert np.all(np.abs(got[0] - [0.0, 0.0]) < 0.2)
        assert np.all(np.abs(got[1] - [10.0, 10.0]) < 0.2)

    def test_gamma_one_gk_equals_fcm(self):
        # gamma = 1 blends the covariance all the way to a scaled identity,
        # whose induced norm is the identity: GK must then match FCM
        rng = np.random.default_rng(21)
        z = np.vstack([
            rng.normal(size=(30, 2)),
            rng.normal(size=(30, 2)) + [6.0, 6.0],
        ])
        cfg_fcm = ClusterConfig(algorithm="fcm", n_clusters=2, seed=9)
        cfg_gk = ClusterConfig(algorithm="gk", n_clusters=2, seed=9, gamma=1.0)
        u_fcm, _, _ = run_fcm(z, cfg_fcm)
        u_gk, _, _ = run_gk(z, cfg_gk)
        assert np.abs(u_fcm.u - u_gk.u).max() < 1e-3

    def test_outlier_column_still_stochastic(self):
        z = np.vstack([two_blobs(seed=22), [[500.0, -500.0]]])
        cfg = ClusterConfig(algorithm="fcm", n_clusters=2, seed=3)
        part, _, _ = run_fcm(z, cfg)
        part.validate()

    def test_constant_column_without_regularisation(self):
        # FCM never inverts its covariances, so a singular one is no failure;
        # they are the raw fuzzy scatter, while GK still refuses the data
        z = np.hstack([two_blobs(seed=23), np.zeros((20, 1))])
        cfg = ClusterConfig(algorithm="fcm", n_clusters=2, seed=4, gamma=0.0)
        part, clusters, _ = run_fcm(z, cfg)
        part.validate()
        assert np.array_equal(clusters.covariances,
                              scatter_matrices(z, part.u, clusters.centers, cfg.m))
        with pytest.raises(NumericalError, match="singular"):
            run_gk(z, ClusterConfig(algorithm="gk", n_clusters=2, seed=4, gamma=0.0))


class TestRunSc:
    @staticmethod
    def chiu_oracle(z, ra=0.5, squash=1.25, accept=0.5, reject=0.15):
        """Independent brute-force subtractive clustering on normalised data."""
        z = np.asarray(z, dtype=float)
        lo, hi = z.min(axis=0), z.max(axis=0)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        zn = (z - lo) / span
        n = zn.shape[0]
        pot = []
        for i in range(n):
            total = 0.0
            for j in range(n):
                d2 = float(((zn[i] - zn[j]) ** 2).sum())
                total += math.exp(-4.0 * d2 / ra**2)
            pot.append(total)
        pot = np.asarray(pot)
        first = float(pot.max())
        chosen = [int(pot.argmax())]
        rb = squash * ra
        while True:
            last = chosen[-1]
            p_last = float(pot[last])
            for i in range(n):
                d2 = float(((zn[i] - zn[last]) ** 2).sum())
                pot[i] -= p_last * math.exp(-4.0 * d2 / rb**2)
            stop = False
            while True:
                cand = int(pot.argmax())
                p = float(pot[cand])
                if p > accept * first:
                    break
                if p < reject * first:
                    stop = True
                    break
                dmin = min(
                    math.sqrt(float(((zn[cand] - zn[c]) ** 2).sum())) for c in chosen
                )
                if dmin / ra + p / first >= 1.0:
                    break
                pot[cand] = 0.0
            if stop:
                break
            chosen.append(cand)
        return z[np.asarray(chosen)], len(chosen)

    def test_single_tight_blob_gives_one_cluster(self):
        # min-max normalisation stretches a lone blob to the unit box, so
        # the count depends on how concentrated the core is relative to the
        # extremes; this draw's core is tight enough for a single center
        # (value frozen from the brute-force oracle below)
        rng = np.random.default_rng(25)
        z = rng.normal(scale=0.05, size=(15, 2))
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
        centers, count = run_sc(z, cfg)
        oracle_centers, oracle_count = self.chiu_oracle(z)
        assert count == oracle_count == 1
        assert np.allclose(centers, oracle_centers)

    def test_matches_oracle_on_random_draws(self):
        for seed in (0, 3, 8, 14):
            rng = np.random.default_rng(seed)
            z = rng.normal(size=(18, 3))
            cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
            centers, count = run_sc(z, cfg)
            oracle_centers, oracle_count = self.chiu_oracle(z)
            assert count == oracle_count
            assert np.allclose(np.sort(centers, axis=0),
                               np.sort(oracle_centers, axis=0))

    def test_two_far_blobs_give_two_clusters(self):
        rng = np.random.default_rng(31)
        z = np.vstack([
            rng.normal(scale=0.05, size=(10, 2)),
            rng.normal(scale=0.05, size=(10, 2)) + [5.0, 5.0],
        ])
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
        centers, count = run_sc(z, cfg)
        oracle_centers, oracle_count = self.chiu_oracle(z)
        assert count == oracle_count == 2
        assert np.allclose(np.sort(centers, axis=0), np.sort(oracle_centers, axis=0))

    def test_duplicated_rows_leave_result_unchanged(self):
        rng = np.random.default_rng(32)
        z = np.vstack([
            rng.normal(scale=0.05, size=(8, 2)),
            rng.normal(scale=0.05, size=(8, 2)) + [4.0, 0.0],
        ])
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
        centers_a, count_a = run_sc(z, cfg)
        centers_b, count_b = run_sc(np.vstack([z, z]), cfg)
        assert count_a == count_b
        assert np.allclose(np.sort(centers_a, axis=0), np.sort(centers_b, axis=0))

    def test_partition_from_centers_is_valid(self):
        rng = np.random.default_rng(33)
        z = np.vstack([
            rng.normal(scale=0.1, size=(12, 2)),
            rng.normal(scale=0.1, size=(12, 2)) + [3.0, 3.0],
        ])
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
        centers, count = run_sc(z, cfg)
        part, clusters = sc_partition(z, centers)
        assert part.u.shape == (count, z.shape[0])
        assert np.allclose(part.u.sum(axis=0), 1.0, atol=1e-9)


def full_matrix_sc(z, cfg, gray=None):
    """Subtractive clustering over the whole (N, N) distance matrix, as
    run_sc computed it before blocking.  Appends each gray-zone decision
    (True = accepted) to ``gray``."""
    zn, _, _ = _minmax_normalise(np.asarray(z, dtype=float))
    ra = cfg.sc_radius
    alpha = 4.0 / ra**2
    beta = 4.0 / (cfg.sc_squash * ra) ** 2
    d2 = ((zn[:, None, :] - zn[None, :, :]) ** 2).sum(axis=2)
    potential = np.exp(-alpha * d2).sum(axis=1)
    first_peak = float(potential.max())
    accepted = [int(potential.argmax())]
    while True:
        p_star = float(potential[accepted[-1]])
        potential = potential - p_star * np.exp(-beta * d2[accepted[-1]])
        while True:
            idx = int(potential.argmax())
            p_cand = float(potential[idx])
            if p_cand > cfg.sc_accept * first_peak:
                break
            if p_cand < cfg.sc_reject * first_peak:
                return z[np.array(accepted)], len(accepted)
            dmin = np.sqrt(min(d2[idx, j] for j in accepted))
            accept = bool(dmin / ra + p_cand / first_peak >= 1.0)
            if gray is not None:
                gray.append(accept)
            if accept:
                break
            potential[idx] = 0.0
        accepted.append(idx)


def sc_inputs():
    """(data, radius) pairs: a grid-rounded cloud with a third of its rows
    duplicated (tied potentials, gray-zone accepts and rejects), and four
    exactly representable points whose potentials tie exactly."""
    out = []
    for seed in (0, 5, 17):
        z = np.round(np.random.default_rng(seed).normal(size=(60, 2)), 1)
        out += [(np.vstack([z, z[:20]]), 0.3), (np.vstack([z, z[:20]]), 0.5)]
    return out + [(np.array([[0.0], [1.0], [7.0], [8.0]]), 0.1)]


class TestBlockedSc:
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_blocks_match_the_full_matrix(self, monkeypatch, rows):
        gray = []
        for z, ra in sc_inputs():
            if rows is not None:
                monkeypatch.setattr(clustering, "_SC_BLOCK_BYTES", rows * 8 * z.size)
            cfg = ClusterConfig(algorithm="sc", sc_radius=ra)
            expected, expected_count = full_matrix_sc(z, cfg, gray)
            centers, count = run_sc(z, cfg)
            assert count == expected_count
            assert centers.tobytes() == expected.tobytes()
        assert True in gray and False in gray

    def test_ties_go_to_the_lowest_row(self, monkeypatch):
        # all four potentials tie, then rows 2 and 3, then rows 1 and 3
        z = np.array([[0.0], [1.0], [7.0], [8.0]])
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.1)
        monkeypatch.setattr(clustering, "_SC_BLOCK_BYTES", 1)
        centers, count = run_sc(z, cfg)
        assert count == 4
        assert centers.ravel().tolist() == [0.0, 7.0, 1.0, 8.0]

    def test_memory_stays_bounded(self):
        # the full (N, N) distance matrix alone would take 128 MB here
        z = np.random.default_rng(45).random((4000, 2))
        tracemalloc.start()
        try:
            run_sc(z, ClusterConfig(algorithm="sc"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestDispatch:
    def test_run_clustering_covers_all_algorithms(self):
        from fuzzyrunoff.clustering import run_clustering

        z = two_blobs(seed=50)
        for algo in ("gk", "fcm", "sc"):
            cfg = ClusterConfig(algorithm=algo, n_clusters=2, seed=1)
            part, clusters, trace = run_clustering(z, cfg)
            assert part.u.shape[1] == z.shape[0]
            np.testing.assert_allclose(part.u.sum(axis=0), 1.0, atol=1e-9)

    def test_unknown_algorithm_rejected(self):
        from fuzzyrunoff.clustering import run_clustering

        cfg = ClusterConfig(algorithm="gk", n_clusters=2)
        cfg.algorithm = "kmeans"
        with pytest.raises(ValueError, match="kmeans"):
            run_clustering(two_blobs(seed=51), cfg)


class TestDataMatrixType:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, np.nan]]))

    def test_accessors(self):
        d = DataMatrix(np.ones((4, 3)))
        assert d.n_samples == 4
        assert d.dim == 3


class TestTraceExport:
    def test_csv_columns(self, tmp_path):
        z = two_blobs(seed=40)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=0)
        _, _, trace = run_gk(z, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,objective,delta_u,converged"
        assert len(lines) == trace.n_iterations + 1
