import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fuzzyrunoff import clustering
from fuzzyrunoff.clustering import (
    ALGORITHMS,
    TAKES_RULE_COUNT,
    ClusterConfig,
    NumericalError,
    _as_data,
    _minmax_normalise,
    _objective,
    _sq_euclidean,
    _squared_distances,
    blend_scale,
    init_partition,
    norm_matrices,
    run_clustering,
    run_fcm,
    run_gk,
    run_sc,
    scatter_matrices,
    update_centers,
    update_covariances,
    update_memberships,
)
from fuzzyrunoff.identify import fit_model
from fuzzyrunoff.validity import sweep_clusters


def two_blobs(seed=0, n_per=10, spread=0.1, centers=((0.0, 0.0), (10.0, 10.0))):
    rng = np.random.default_rng(seed)
    parts = [c + rng.normal(scale=spread, size=(n_per, 2)) for c in centers]
    return np.vstack(parts)


def gk_covariances(z, u, centers, m, gamma):
    """GK's blended covariances of partition ``u``, formed as the loop forms them."""
    return update_covariances(scatter_matrices(z, u**m, centers), gamma, blend_scale(z))


def assert_partition(u, atol=1e-9):
    """A fuzzy partition: entries in [0, 1], columns summing to 1 and every
    row sum in (0, N)."""
    assert np.all((u >= 0) & (u <= 1))
    np.testing.assert_allclose(u.sum(axis=0), 1.0, rtol=0, atol=atol)
    row = u.sum(axis=1)
    assert np.all((row > 0) & (row < u.shape[1]))


class TestInitPartition:
    def test_deterministic_per_seed(self):
        a = init_partition(10, 3, seed=42)
        b = init_partition(10, 3, seed=42)
        assert np.array_equal(a, b)

    def test_columns_sum_to_one(self):
        u = init_partition(25, 4, seed=1)
        assert np.allclose(u.sum(axis=0), 1.0, atol=1e-12)

    def test_shape_and_open_interval(self):
        u = init_partition(3, 2, seed=0)
        assert u.shape == (2, 3)
        assert np.all(u > 0) and np.all(u < 1)

    def test_rejects_too_many_clusters(self):
        with pytest.raises(ValueError):
            init_partition(5, 5, seed=0)


class TestUpdateCenters:
    def test_crisp_memberships_give_cluster_means(self):
        z = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0], [12.0, 12.0]])
        u = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        v = update_centers(z, u**2.0)
        assert np.allclose(v[0], [0.5, 0.5])
        assert np.allclose(v[1], [11.0, 11.0])

    def test_single_cluster_gives_global_mean(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(20, 3))
        u = np.ones((1, 20))
        v = update_centers(z, u**2.0)
        assert np.allclose(v[0], z.mean(axis=0), atol=1e-12)

    def test_two_points_crisp(self):
        z = np.array([[0.0, 0.0], [2.0, 2.0]])
        u = np.eye(2)
        v = update_centers(z, u**2.0)
        assert np.allclose(v, z)

    def test_empty_cluster_rejected(self):
        z = np.zeros((3, 2))
        u = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NumericalError, match="cluster 1"):
            update_centers(z, u**2.0)

    def test_empty_cluster_has_no_scatter(self):
        z = np.zeros((3, 2))
        u = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NumericalError, match="cluster 1 has zero membership mass"):
            scatter_matrices(z, u**2.0, np.zeros((2, 2)))

    def test_fcm_ending_with_an_empty_cluster_is_refused(self):
        # two distinct points for three clusters: the last update leaves
        # cluster 1 without membership, so the result has no center for it
        z = np.array([[0.3], [0.8], [0.3], [0.8]])
        with pytest.raises(NumericalError, match="cluster 1 has zero membership mass"):
            run_fcm(z, ClusterConfig(n_clusters=3, seed=2, max_iter=50))


class TestCovariances:
    def test_zero_scatter_becomes_scaled_identity(self):
        z = np.full((6, 2), 3.0)
        u = np.ones((1, 6))
        centers = update_centers(z, u**2.0)
        gamma = 1e-3
        covs = gk_covariances(z, u, centers, 2.0, gamma)
        assert np.allclose(covs[0], gamma * np.eye(2), atol=1e-15)

    def test_crisp_hand_scatter(self):
        z = np.array([[-1.0, 0.0], [1.0, 0.0]])
        u = np.ones((1, 2))
        centers = np.array([[0.0, 0.0]])
        raw = scatter_matrices(z, u**2.0, centers)
        assert np.allclose(raw[0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_isotropic_blob_matches_sample_covariance(self):
        # oracle: direct sample covariance of the same draw
        rng = np.random.default_rng(5)
        z = rng.normal(size=(2000, 2))
        u = np.ones((1, 2000))
        centers = update_centers(z, u**2.0)
        covs = gk_covariances(z, u, centers, 2.0, 0.0)
        diff = z - z.mean(axis=0)
        oracle = diff.T @ diff / z.shape[0]
        assert np.allclose(covs[0], oracle, atol=1e-12)
        assert np.allclose(oracle, np.eye(2), atol=0.15)

    def test_total_scatter_rounding_below_zero_uses_unit_scale(self):
        # three points span a plane in 3-D; det of their total scatter
        # rounds to about -6.5e-18, whose cube root is complex
        z = np.array([[1.1, 1.8, -2.6], [-0.1, 1.0, 1.4], [0.7, 1.5, 0.3]])
        u = init_partition(3, 2, seed=0)
        centers = update_centers(z, u**2.0)
        gamma = 1e-3
        assert blend_scale(z) == 1.0
        covs = gk_covariances(z, u, centers, 2.0, gamma)
        raw = scatter_matrices(z, u**2.0, centers)
        assert covs.tobytes() == ((1.0 - gamma) * raw + gamma * 1.0 * np.eye(3)).tobytes()
        assert_partition(run_gk(z, ClusterConfig(n_clusters=2, seed=0, max_iter=50))[0])

    def test_blend_without_scale_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"needs scale = blend_scale\(z\)"):
            update_covariances(np.eye(2)[None], 1e-3, None)

    def test_singular_after_regularisation_rejected(self):
        # gamma = 0 keeps the raw collinear scatter, which is singular
        z = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        u = np.ones((1, 3))
        centers = update_centers(z, u**2.0)
        with pytest.raises(NumericalError, match="cluster 0"):
            gk_covariances(z, u, centers, 2.0, 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(50, 3))
        u = init_partition(50, 2, seed=0)
        centers = update_centers(z, u**2.0)
        covs = gk_covariances(z, u, centers, 2.0, 1e-3)
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
            u = init_partition(z.shape[0], centers.shape[0], seed=int(rng.integers(99)))
            m = float(rng.uniform(1.2, 3.0))
            um = u**m
            expected = np.stack([np.einsum("k,ki,kj->ij", w, z - v, z - v) / w.sum()
                                 for w, v in zip(um, centers)])
            np.testing.assert_allclose(scatter_matrices(z, u**m, centers), expected,
                                       rtol=1e-12)

    def test_scatter_is_the_rows_formula_up_to_round_off(self):
        # the (d, N) layout's GEMM adds the samples in another order than
        # the rows layout's, so the two may differ by round-off only
        rng = np.random.default_rng(43)
        for d in range(1, 8):
            for c in range(1, 9):
                n = int(rng.integers(c + 1, 300))
                points = np.round(rng.normal(size=(int(rng.integers(2, 6)), d)), 1)
                clouds = {
                    "random": rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
                              + rng.normal(size=d),
                    "grid": np.round(rng.normal(size=(n, d)), 1),
                    "clumped": points[rng.integers(0, len(points), size=n)],
                }
                for kind, z in clouds.items():
                    u = rng.random((c, n)) + 1e-3
                    um = (u / u.sum(axis=0)) ** float(rng.uniform(1.2, 3.0))
                    centers = update_centers(z, um)
                    got = scatter_matrices(z, um, centers)
                    mass = um.sum(axis=1)
                    for i, v in enumerate(centers):
                        rows = ((z - v).T * um[i]) @ (z - v) / mass[i]
                        err = np.abs(got[i] - rows).max()
                        assert err <= 1e-13 * np.abs(rows).max(), (d, c, kind, i, err)

    def test_scatter_is_the_columns_formula_bit_for_bit(self):
        # the same operand layouts as the kernel's, so the same GEMM order:
        # the center subtracted from the (d, N) columns, weighted, times the
        # transpose of the centered columns, over the mass (whose sum order
        # follows the layout of the weights given)
        rng = np.random.default_rng(47)
        for d in range(1, 13):
            for _ in range(5):
                n, c = int(rng.integers(d + 2, 300)), int(rng.integers(2, 7))
                z = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
                z[0] = -0.0
                u = rng.random((c, n)) + 1e-3
                um = (u / u.sum(axis=0)) ** float(rng.uniform(1.2, 3.0))
                centers = update_centers(z, um)
                centers[0] = 0.0
                cols = np.ascontiguousarray(z.T)
                for layout in (np.ascontiguousarray, np.asfortranarray):
                    args = tuple(layout(a) for a in (z, um, centers))
                    mass = args[1].sum(axis=1)
                    expected = np.stack([((cols - v[:, None]) * um[i]) @ (cols - v[:, None]).T
                                         / mass[i] for i, v in enumerate(centers)])
                    got = scatter_matrices(*args)
                    assert got.tobytes() == expected.tobytes(), (d, n, c, layout)

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
            expected = self.einsum_distances(z, centers, eye).tobytes()
            assert _squared_distances(z, centers, eye).tobytes() == expected
            assert _squared_distances(z, centers).tobytes() == expected

    @staticmethod
    def wide_problem(rng, d):
        """A problem of width ``d`` whose data repeats one center and holds
        negative zeros, so exact zeros of both signs reach the sums."""
        n, c = int(rng.integers(5, 200)), int(rng.integers(2, 6))
        z = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        centers = rng.normal(size=(c, d))
        centers[0] = 0.0
        z[0] = -0.0
        z[1] = centers[1]
        a = rng.normal(size=(c, d, d))
        return z, centers, a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d)

    @staticmethod
    def column_order_distances(z, centers, norms=None):
        """Per cluster the terms (diff @ A) * diff, added into a zero row one
        column at a time in column order."""
        out = np.zeros((len(centers), len(z)))
        for i, v in enumerate(centers):
            diff = z - v
            terms = (diff if norms is None else diff @ norms[i]) * diff
            for j in range(z.shape[1]):
                out[i] = out[i] + terms[:, j]
        return np.maximum(out, 0.0)

    def test_distances_equal_the_column_order_reference(self):
        rng = np.random.default_rng(44)
        for d in range(1, 13):
            for _ in range(10):
                z, centers, spd = self.wide_problem(rng, d)
                for data in (z, np.asfortranarray(z)):
                    for points, norms in ((centers, spd), (centers, None),
                                          (centers[::-1], None)):
                        expected = self.column_order_distances(data, points, norms)
                        got = _squared_distances(data, points, norms)
                        assert got.tobytes() == expected.tobytes()

    def test_distances_equal_the_short_axis_sum_up_to_seven_columns(self):
        rng = np.random.default_rng(45)
        for d in range(1, 8):
            for _ in range(10):
                z, centers, spd = self.wide_problem(rng, d)
                expected = np.stack([((z - v) @ a * (z - v)).sum(axis=1)
                                     for v, a in zip(centers, spd)])
                np.maximum(expected, 0.0, out=expected)
                assert _squared_distances(z, centers, spd).tobytes() == expected.tobytes()

    def test_singular_covariance_names_the_first_cluster(self):
        # crisp partition: cluster 0 spans the plane, clusters 1 and 2 are
        # each a line, so with gamma = 0 both of their scatters are singular
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [5.0, 0.0], [6.0, 0.0], [7.0, 0.0],
                      [0.0, 5.0], [0.0, 6.0], [0.0, 7.0]])
        u = np.zeros((3, 10))
        u[0, :4] = u[1, 4:7] = u[2, 7:] = 1.0
        centers = update_centers(z, u**2.0)
        with pytest.raises(NumericalError, match="covariance of cluster 1 is singular"):
            gk_covariances(z, u, centers, 2.0, 0.0)

    def test_non_positive_definite_names_the_first_cluster(self):
        stack = np.array([np.eye(2), np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        with pytest.raises(NumericalError,
                           match="covariance of cluster 1 is not positive definite"):
            norm_matrices(stack)


class TestUpdateMemberships:
    def test_equidistant_splits_evenly(self):
        d2 = np.array([[4.0], [4.0]])
        u = update_memberships(d2, m=2.0)
        assert np.allclose(u[:, 0], [0.5, 0.5], atol=1e-15)

    def test_zero_distance_one_hot(self):
        d2 = np.array([[0.0], [3.0]])
        u = update_memberships(d2, m=2.0)
        assert np.array_equal(u[:, 0], [1.0, 0.0])

    def test_zero_distance_tie_splits_equally(self):
        d2 = np.array([[0.0], [0.0], [5.0]])
        u = update_memberships(d2, m=2.0)
        assert np.array_equal(u[:, 0], [0.5, 0.5, 0.0])

    def test_hand_value(self):
        d2 = np.array([[1.0], [3.0]])
        u = update_memberships(d2, m=2.0)
        assert np.allclose(u[:, 0], [0.75, 0.25], rtol=1e-12)

    def test_columns_always_sum_to_one(self):
        rng = np.random.default_rng(8)
        d2 = rng.random((4, 50)) * 10
        d2[2, 7] = 0.0
        u = update_memberships(d2, m=1.7)
        assert np.allclose(u.sum(axis=0), 1.0, atol=1e-9)
        assert_partition(u)

    @staticmethod
    def boolean_pass_memberships(distances, m):
        """The update with full-size boolean passes and fresh arrays."""
        d2 = np.asarray(distances, dtype=float)
        if np.any(d2 < 0):
            raise ValueError("squared distances must be non-negative")
        p = 1.0 / (m - 1.0)
        zero = d2 == 0.0
        hit = zero.any(axis=0)
        safe = np.where(hit, 1.0, d2.min(axis=0))
        ratio = d2 / safe[None, :]
        if hit.any():
            ratio[:, hit] = 1.0
        inv = ratio ** (-p)
        u = inv / inv.sum(axis=0, keepdims=True)
        if hit.any():
            u[:, hit] = zero[:, hit] / zero[:, hit].sum(axis=0)
        return u

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_in_place_update_equals_the_boolean_pass_reference(self, m):
        rng = np.random.default_rng(9)
        for case in range(300):
            c, n = int(rng.integers(1, 9)), int(rng.integers(1, 400))
            d2 = rng.random((c, n)) * 10.0 ** rng.uniform(-3, 3)
            if case % 2:  # exact zeros, ties among them and all-zero columns
                d2 = d2.round(int(rng.integers(0, 2)))
                d2[:, rng.random(n) < 0.1] = 0.0
            expected = self.boolean_pass_memberships(d2, m)
            got = update_memberships(d2, m)
            assert got.tobytes() == expected.tobytes()
            assert got.shape == expected.shape

    def test_distances_are_left_unchanged(self):
        rng = np.random.default_rng(10)
        d2 = rng.random((4, 60)).round(1)
        d2[:, 5] = 0.0
        d2[2, 7] = 0.0
        keep = d2.copy()
        update_memberships(d2, m=2.0)
        assert d2.tobytes() == keep.tobytes()

    def test_negative_distance_refused_beside_a_nan(self):
        d2 = np.array([[1.0, np.nan], [2.0, -1e-300]])
        with pytest.raises(ValueError, match="non-negative"):
            update_memberships(d2, m=2.0)


class TestRunGk:
    def test_recovers_separated_blob_centers(self):
        z = two_blobs(seed=0)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=1)
        _, centers, trace = run_gk(z, cfg)
        got = centers[np.argsort(centers[:, 0])]
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
        u, centers, _ = run_gk(z, cfg)
        major = rot @ np.array([1.0, 0.0])
        for f in gk_covariances(z, u, centers, cfg.m, cfg.gamma):
            w, vec = np.linalg.eigh(f)
            dominant = vec[:, np.argmax(w)]
            deviation = math.degrees(math.acos(min(1.0, abs(dominant @ major))))
            assert deviation < 5.0

    def test_deterministic_trace(self):
        z = two_blobs(seed=4)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=7)
        u_a, _, trace_a = run_gk(z, cfg)
        u_b, _, trace_b = run_gk(z, cfg)
        assert np.array_equal(u_a, u_b)
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
        u, centers, _ = run_gk(z, cfg)
        norms = norm_matrices(gk_covariances(z, u, centers, cfg.m, cfg.gamma))
        d2 = _squared_distances(z, centers, norms)
        j = _objective(u**cfg.m, d2)
        perm = [1, 0]
        d2_perm = _squared_distances(z, centers[perm], norms[perm])
        j_perm = _objective(u[perm]**cfg.m, d2_perm)
        assert j == pytest.approx(j_perm, rel=1e-12)

    def test_partition_is_valid(self):
        z = two_blobs(seed=14)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=6)
        assert_partition(run_gk(z, cfg)[0])

    def test_centers_inside_bounding_box(self):
        z = two_blobs(seed=15)
        cfg = ClusterConfig(algorithm="gk", n_clusters=2, seed=8)
        _, centers, _ = run_gk(z, cfg)
        assert np.all(centers >= z.min(axis=0) - 1e-12)
        assert np.all(centers <= z.max(axis=0) + 1e-12)

    def test_memory_stays_bounded(self):
        # the run holds a few (C, N) arrays (0.77 MB each here) and the
        # scatter's two (d, N) buffers; one more (C, d, N) copy would add 3.8 MB
        z = np.random.default_rng(46).normal(size=(12_000, 5))
        tracemalloc.start()
        try:
            run_gk(z, ClusterConfig(n_clusters=8, seed=0, max_iter=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestRunFcm:
    def test_recovers_separated_blob_centers(self):
        z = two_blobs(seed=20)
        cfg = ClusterConfig(algorithm="fcm", n_clusters=2, seed=1)
        _, centers, trace = run_fcm(z, cfg)
        got = centers[np.argsort(centers[:, 0])]
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
        assert np.abs(u_fcm - u_gk).max() < 1e-3

    def test_outlier_column_still_stochastic(self):
        z = np.vstack([two_blobs(seed=22), [[500.0, -500.0]]])
        cfg = ClusterConfig(algorithm="fcm", n_clusters=2, seed=3)
        assert_partition(run_fcm(z, cfg)[0])

    def test_constant_column_without_regularisation(self):
        # FCM never forms or inverts covariances, so a singular fuzzy
        # scatter is no failure, while GK still refuses the data
        z = np.hstack([two_blobs(seed=23), np.zeros((20, 1))])
        cfg = ClusterConfig(algorithm="fcm", n_clusters=2, seed=4, gamma=0.0)
        u, centers, _ = run_fcm(z, cfg)
        assert_partition(u)
        scatter = scatter_matrices(z, u**cfg.m, centers)
        assert np.all(scatter[:, 2, :] == 0) and np.all(scatter[:, :, 2] == 0)
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
        _, centers, _ = run_sc(z, cfg)
        oracle_centers, oracle_count = self.chiu_oracle(z)
        assert len(centers) == oracle_count == 1
        assert np.allclose(centers, oracle_centers)

    def test_matches_oracle_on_random_draws(self):
        for seed in (0, 3, 8, 14):
            rng = np.random.default_rng(seed)
            z = rng.normal(size=(18, 3))
            cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
            _, centers, _ = run_sc(z, cfg)
            oracle_centers, oracle_count = self.chiu_oracle(z)
            assert len(centers) == oracle_count
            assert np.allclose(np.sort(centers, axis=0),
                               np.sort(oracle_centers, axis=0))

    def test_two_far_blobs_give_two_clusters(self):
        rng = np.random.default_rng(31)
        z = np.vstack([
            rng.normal(scale=0.05, size=(10, 2)),
            rng.normal(scale=0.05, size=(10, 2)) + [5.0, 5.0],
        ])
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
        _, centers, _ = run_sc(z, cfg)
        oracle_centers, oracle_count = self.chiu_oracle(z)
        assert len(centers) == oracle_count == 2
        assert np.allclose(np.sort(centers, axis=0), np.sort(oracle_centers, axis=0))

    def test_duplicated_rows_leave_result_unchanged(self):
        rng = np.random.default_rng(32)
        z = np.vstack([
            rng.normal(scale=0.05, size=(8, 2)),
            rng.normal(scale=0.05, size=(8, 2)) + [4.0, 0.0],
        ])
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.5)
        _, centers_a, _ = run_sc(z, cfg)
        _, centers_b, _ = run_sc(np.vstack([z, z]), cfg)
        assert len(centers_a) == len(centers_b)
        assert np.allclose(np.sort(centers_a, axis=0), np.sort(centers_b, axis=0))


def full_matrix_sc(z, cfg, gray=None):
    """Subtractive clustering over the whole (N, N) distance matrix, as
    run_sc computed it before blocking.  Appends each gray-zone decision
    (True = accepted) to ``gray``."""
    zn = _minmax_normalise(np.asarray(z, dtype=float))
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
    """(data, radius) pairs: grid-rounded clouds at d = 2, 3, 5 and 7 with a
    third of their rows duplicated (tied potentials, gray-zone accepts and
    rejects), four exactly representable points whose potentials tie
    exactly, and five points without coordinates (every potential is N)."""
    out = []
    for seed in (0, 5, 17):
        z = np.round(np.random.default_rng(seed).normal(size=(60, 2)), 1)
        out += [(np.vstack([z, z[:20]]), 0.3), (np.vstack([z, z[:20]]), 0.5)]
    for seed, d in ((3, 3), (4, 5), (6, 7)):
        z = np.round(np.random.default_rng(seed).normal(size=(60, d)), 1)
        out += [(np.vstack([z, z[:20]]), 0.3), (np.vstack([z, z[:20]]), 0.5)]
    return out + [(np.array([[0.0], [1.0], [7.0], [8.0]]), 0.1), (np.zeros((5, 0)), 0.5)]


class TestBlockedSc:
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_blocks_match_the_full_matrix(self, monkeypatch, rows):
        gray = {}  # gray-zone decisions per dimension
        for z, ra in sc_inputs():
            if rows is not None:
                # two (rows, N) float64 buffers per block
                monkeypatch.setattr(clustering, "_SC_BLOCK_BYTES", rows * 2 * 8 * len(z))
            cfg = ClusterConfig(algorithm="sc", sc_radius=ra)
            expected, expected_count = full_matrix_sc(z, cfg, gray.setdefault(z.shape[1], []))
            _, centers, _ = run_sc(z, cfg)
            assert len(centers) == expected_count
            assert centers.tobytes() == expected.tobytes()
        for d in (2, 3, 5, 7):
            assert True in gray[d] and False in gray[d]

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_memberships_are_those_of_the_returned_centers(self, monkeypatch, rows):
        # recomputed from the centers alone: normalise the data and the
        # centers afresh and take the Euclidean distances between them
        for z, ra in sc_inputs():
            if rows is not None:
                monkeypatch.setattr(clustering, "_SC_BLOCK_BYTES", rows * 2 * 8 * len(z))
            cfg = ClusterConfig(algorithm="sc", sc_radius=ra)
            u, centers, trace = run_sc(z, cfg)
            lo = z.min(axis=0)
            span = z.max(axis=0) - lo
            span = np.where(span > 0, span, 1.0)
            expected = update_memberships(
                _squared_distances((z - lo) / span, (centers - lo) / span), cfg.m)
            assert u.shape == (len(centers), len(z))
            assert u.tobytes() == expected.tobytes()
            assert trace.converged and trace.n_iterations == 0

    def test_distances_sum_the_coordinates_in_column_order(self):
        # from d = 8 on numpy sums a short axis pairwise, so the documented
        # order is pinned against an explicit column-by-column sum
        zn = np.random.default_rng(46).random((50, 9))
        points = zn[[9, 3, 7, 4, 8, 5, 6]]
        expected = np.zeros((7, 50))
        for k in range(9):
            expected += (points[:, k, None] - zn[None, :, k]) ** 2
        out, tmp = np.empty((7, 50)), np.empty((7, 50))
        got = _sq_euclidean(np.ascontiguousarray(zn.T), points, out, tmp)
        assert got is out
        assert got.tobytes() == expected.tobytes()

    def test_ties_go_to_the_lowest_row(self, monkeypatch):
        # all four potentials tie, then rows 2 and 3, then rows 1 and 3
        z = np.array([[0.0], [1.0], [7.0], [8.0]])
        cfg = ClusterConfig(algorithm="sc", sc_radius=0.1)
        monkeypatch.setattr(clustering, "_SC_BLOCK_BYTES", 1)
        _, centers, _ = run_sc(z, cfg)
        assert len(centers) == 4
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
        assert peak < 4 * 2**20


class TestDispatch:
    def test_run_clustering_covers_all_algorithms(self):
        from fuzzyrunoff.clustering import run_clustering

        z = two_blobs(seed=50)
        for algo in ("gk", "fcm", "sc"):
            cfg = ClusterConfig(algorithm=algo, n_clusters=2, seed=1)
            u, centers, trace = run_clustering(z, cfg)
            assert u.shape[1] == z.shape[0]
            np.testing.assert_allclose(u.sum(axis=0), 1.0, atol=1e-9)

    def test_unknown_algorithm_rejected(self):
        # refused when the config is built, so run_clustering never sees it
        with pytest.raises(ValueError, match="kmeans"):
            ClusterConfig(algorithm="kmeans", n_clusters=2)


class TestValidate:
    @pytest.mark.parametrize("field, value, message", [
        ("m", math.nan, "fuzziness m"),
        ("m", math.inf, "fuzziness m"),
        ("xi", math.nan, "termination constant xi"),
        ("xi", math.inf, "termination constant xi"),
        ("sc_squash", 0.0, "sc_squash"),
        ("sc_squash", -1.0, "sc_squash"),
        ("sc_squash", math.nan, "sc_squash"),
        ("sc_squash", math.inf, "sc_squash"),
        ("sc_reject", 0.0, "sc_reject"),
        ("sc_reject", -0.5, "sc_reject"),
        ("sc_reject", math.nan, "sc_reject"),
        ("sc_reject", 0.6, "sc_reject"),  # above sc_accept = 0.5
        ("sc_accept", math.nan, "sc_accept"),
        ("sc_accept", 1.5, "sc_accept"),
        ("algorithm", "kmeans", "unknown algorithm 'kmeans'"),
        ("m", 1.0, "fuzziness m"),
        ("xi", 0.0, "termination constant xi"),
        ("n_clusters", 1, "need at least 2 clusters, got 1"),
        ("max_iter", 0, "max_iter must be >= 1"),
        ("gamma", -0.1, "gamma must be in"),
        ("gamma", 1.5, "gamma must be in"),
        ("sc_radius", 0.0, "sc_radius must be in"),
        ("sc_radius", 1.5, "sc_radius must be in"),
        ("sc_radius", 1e-200, r"sc_radius must leave 4 / sc_radius\*\*2 finite, got 1e-200"),
        ("sc_radius", 1e-160, r"sc_radius must leave 4 / sc_radius\*\*2 finite, got 1e-160"),
        ("sc_squash", 1e-200, r"sc_squash must leave 4 / \(sc_squash \* sc_radius\)\*\*2 "
                              "finite, got 1e-200"),
        ("sc_squash", 1e-160, "sc_squash must leave"),
        ("sc_squash", 1e200, "sc_squash must leave"),
    ])
    def test_refuses(self, field, value, message):
        # every refusal, raised when the config is built; unchecked,
        # sc_reject <= 0 or nan lets run_sc pick a zeroed candidate forever,
        # and sc_squash = 0 divides by zero.  So do the sc_radius and
        # sc_squash that leave run_sc's exponent 4 / r**2 or
        # 4 / (sc_squash * r)**2 without a finite value: a square of 0
        # (1e-200) divides by zero, an overflowing one (sc_squash = 1e200)
        # raises OverflowError, and an infinite exponent (1e-160) makes the
        # potentials nan, on which run_sc's center search never ends, so no
        # test runs run_sc on such a value
        with pytest.raises(ValueError, match=message):
            ClusterConfig(**{field: value})

    def test_smallest_radius_gives_finite_memberships(self):
        # the smallest radius whose exponent 4 / r**2 is finite: every
        # point of a tiny set becomes its own center, without a warning
        radius = 1.4916681462400417e-154
        with pytest.raises(ValueError, match="sc_radius must leave"):
            ClusterConfig(algorithm="sc", sc_radius=np.nextafter(radius, 0.0))
        z = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2], [0.3, 0.9]])
        u, centers, _ = run_sc(z, ClusterConfig(algorithm="sc", sc_radius=radius))
        assert np.all(np.isfinite(u))
        np.testing.assert_array_equal(u, np.eye(4))
        np.testing.assert_array_equal(centers, z)

    def test_replace_checks_the_copy(self):
        with pytest.raises(ValueError, match="need at least 2 clusters, got 1"):
            dataclasses.replace(ClusterConfig(), n_clusters=1)

    def test_sc_takes_no_rule_count(self):
        assert ClusterConfig(algorithm="sc", n_clusters=0).n_clusters == 0

    def test_fields_cannot_be_assigned(self):
        cfg = ClusterConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.m = 0.5
        assert cfg.m == 2.0


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_name_clusters_and_only_a_counted_one_sweeps(self, algorithm):
        z = np.random.default_rng(3).random((30, 2))
        cfg = ClusterConfig(algorithm=algorithm, n_clusters=2)
        u, centers, _ = run_clustering(z, cfg)
        assert u.shape == (len(centers), len(z))
        np.testing.assert_allclose(u.sum(axis=0), 1.0)
        if algorithm in TAKES_RULE_COUNT:
            assert sweep_clusters(z, cfg, range(2, 4)).c_values == [2, 3]
        else:
            with pytest.raises(ValueError) as refused:
                sweep_clusters(z, cfg, range(2, 4))
            assert str(refused.value) == f"sweep supports 'gk' and 'fcm', not {algorithm!r}"


ENTRY_POINTS = {
    "run_gk": lambda z: run_gk(z, ClusterConfig(n_clusters=2)),
    "run_fcm": lambda z: run_fcm(z, ClusterConfig(algorithm="fcm", n_clusters=2)),
    "run_sc": lambda z: run_sc(z, ClusterConfig(algorithm="sc")),
    "sweep_clusters": lambda z: sweep_clusters(z, ClusterConfig(), range(2, 4)),
    "fit_model": lambda z: fit_model(z, ClusterConfig(n_clusters=2)),
}


class TestInputCheck:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="data matrix contains non-finite entries"):
            _as_data(np.array([[1.0, np.nan]]))

    def test_run_sc_refuses_an_empty_matrix(self):
        with pytest.raises(ValueError, match="empty data matrix"):
            run_sc(np.empty((0, 3)), ClusterConfig(algorithm="sc"))

    def test_two_d_input_is_kept_as_floats(self):
        z = _as_data(np.ones((4, 3), dtype=int))
        assert z.shape == (4, 3) and z.dtype == float

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_entry_points_reject_one_dimensional_input(self, entry):
        with pytest.raises(ValueError, match=r"data matrix must be 2-d, got shape \(40,\)"):
            ENTRY_POINTS[entry](np.ones(40))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_entry_points_reject_non_finite(self, entry, bad):
        # without the check run_sc never returned, run_fcm gave nan
        # memberships and the others failed late with unrelated messages
        z = np.random.default_rng(3).normal(size=(40, 3))
        z[17, 1] = bad
        with pytest.raises(ValueError, match="data matrix contains non-finite entries"):
            ENTRY_POINTS[entry](z)

