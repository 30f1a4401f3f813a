import gc
import math
import weakref

import numpy as np
import pytest

from fuzzyrunoff import clustering
from fuzzyrunoff.clustering import ClusterConfig, NumericalError, init_partition
from fuzzyrunoff.validity import (
    INDEX_DIRECTIONS,
    _min_separation,
    all_indices,
    consensus_count,
    mpc,
    pc,
    pe,
    sweep_clusters,
)


def crisp_u(c, n, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c, size=n)
    labels[:c] = np.arange(c)  # no empty cluster
    u = np.zeros((c, n))
    u[labels, np.arange(n)] = 1.0
    return u


def three_blobs(seed, n_per=40):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0, 0.0], [8.0, 8.0, 4.0], [16.0, 0.0, 8.0]])
    return np.vstack([c + rng.normal(scale=0.6, size=(n_per, 3)) for c in centers])


class TestPartitionCoefficient:
    def test_crisp_is_one(self):
        assert pc(crisp_u(3, 12)) == 1.0

    def test_uniform_is_one_over_c(self):
        u = np.full((4, 10), 0.25)
        assert pc(u) == pytest.approx(0.25, abs=1e-15)

    def test_hand_value(self):
        u = np.array([[0.5, 1.0], [0.5, 0.0]])
        assert pc(u) == pytest.approx(0.75, abs=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(c + 1, 30))
            u = init_partition(n, c, seed=int(rng.integers(0, 1000)))
            v = pc(u)
            assert 1.0 / c - 1e-12 <= v <= 1.0 + 1e-12


class TestPartitionEntropy:
    def test_crisp_is_zero(self):
        assert pe(crisp_u(3, 9)) == 0.0

    def test_uniform_three_clusters(self):
        u = np.full((3, 7), 1.0 / 3.0)
        assert pe(u) == pytest.approx(math.log(3), rel=1e-12)

    def test_uniform_two_clusters(self):
        u = np.full((2, 5), 0.5)
        assert pe(u) == pytest.approx(math.log(2), rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(c + 1, 30))
            u = init_partition(n, c, seed=int(rng.integers(0, 1000)))
            v = pe(u)
            assert -1e-12 <= v <= math.log(c) + 1e-12


class TestModifiedPartitionCoefficient:
    def test_crisp_is_one(self):
        assert mpc(crisp_u(4, 11)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_is_zero_exactly(self):
        for c in (2, 3, 5):
            u = np.full((c, 8), 1.0 / c)
            assert mpc(u) == pytest.approx(0.0, abs=1e-12)

    def test_arithmetic(self):
        u = np.array([[0.5, 1.0], [0.5, 0.0]])  # pc = 0.75
        assert mpc(u) == pytest.approx(0.5, rel=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            mpc(np.ones((1, 5)))


class TestPartitionIndexSc:
    def test_zero_when_points_sit_on_centers(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0]])
        z = np.repeat(centers, 3, axis=0)
        u = crisp_u(2, 6)
        u[:, :] = 0.0
        u[0, :3] = 1.0
        u[1, 3:] = 1.0
        assert all_indices(u, z, centers)["sc"] == 0.0

    def test_denominator_scaling_two_clusters(self):
        # fixed scatter, doubled center separation -> index divides by 4
        delta = 0.5
        u = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])

        def layout(a):
            centers = np.array([[0.0, 0.0], [a, 0.0]])
            z = np.array([[0.0, delta], [0.0, -delta], [a, delta], [a, -delta]])
            return z, centers

        z1, c1 = layout(2.0)
        z2, c2 = layout(4.0)
        v1 = all_indices(u, z1, c1)["sc"]
        v2 = all_indices(u, z2, c2)["sc"]
        assert v2 == pytest.approx(v1 / 4.0, rel=1e-12)

    def test_coincident_centers_rejected(self):
        centers = np.zeros((2, 2))
        z = np.random.default_rng(0).normal(size=(6, 2))
        u = crisp_u(2, 6)
        with pytest.raises(NumericalError, match="coincident centers"):
            all_indices(u, z, centers)

    def test_cluster_without_members_rejected(self):
        centers = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 4.0]])
        z = np.random.default_rng(2).normal(size=(9, 2))
        u = crisp_u(3, 9)
        u[0] += u[1]
        u[1] = 0.0
        with pytest.raises(NumericalError, match="^cluster 1 has no members$"):
            all_indices(u, z, centers)

    def test_empty_cluster_is_named_before_coincident_centers(self):
        # an empty cluster at a shared center is reported as empty; the same
        # centers with every cluster populated are coincident
        centers = np.zeros((2, 2))
        z = np.random.default_rng(3).normal(size=(6, 2))
        u = np.zeros((2, 6))
        u[1] = 1.0
        with pytest.raises(NumericalError, match="^cluster 0 has no members$"):
            all_indices(u, z, centers)
        with pytest.raises(NumericalError,
                           match="^coincident centers: cluster 0 has zero separation$"):
            all_indices(crisp_u(2, 6), z, centers)

    def test_two_of_three_coincident_centers_rejected(self):
        # every cluster keeps a nonzero summed separation; the minimum is zero
        centers = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0]])
        z = np.random.default_rng(1).normal(size=(9, 2))
        with pytest.raises(NumericalError, match="minimum separation is zero"):
            all_indices(crisp_u(3, 9), z, centers)

    def test_three_blob_sweep_knee_at_three(self):
        # This index keeps creeping down as C grows past the true component
        # count (its compactness numerator shrinks faster than the summed
        # separation denominator), so its argmin sits at C_max on blob data.
        # The reliable signal is the sharp knee at the true C: moving from
        # C=2 to C=3 drops the value by a large factor, after which the
        # curve flattens.
        z = three_blobs(seed=3)
        cfg = ClusterConfig(algorithm="gk", seed=0)
        report = sweep_clusters(z, cfg, range(2, 7))
        col = report.table["sc"]
        assert col[1] < col[0] / 5.0          # knee: big drop into C=3
        assert col[1] < 2.0 * min(col[1:])    # flat afterwards


class TestSeparationIndex:
    def test_zero_when_points_sit_on_centers(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0]])
        z = np.repeat(centers, 2, axis=0)
        u = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        assert all_indices(u, z, centers)["s"] == 0.0

    def test_uniform_scaling_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(30, 2))
        centers = rng.normal(size=(3, 2))
        u = init_partition(30, 3, seed=1)
        base = all_indices(u, z, centers)["s"]
        for s in (0.1, 7.0, 1234.5):
            scaled = all_indices(u, s * z, s * centers)["s"]
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_min_separation_matches_the_pairwise_loop(self):
        def loop(sep):
            best, best_i = None, -1
            for i in range(sep.shape[0]):
                for j in range(sep.shape[0]):
                    if i != j and (best is None or sep[i, j] < best):
                        best, best_i = sep[i, j], i
            return float(best), best_i

        rng = np.random.default_rng(12)
        for trial in range(400):
            c, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            # half the trials on a coarse integer grid: many ties, some
            # coincident centers
            v = rng.integers(0, 3, size=(c, d)) if trial % 2 else rng.normal(size=(c, d))
            sep = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2).astype(float)
            assert _min_separation(sep) == loop(sep)

    def test_tied_closest_pairs_use_the_first(self):
        # pairs (0, 1) and (1, 2) are both 1 apart; the lexicographically
        # first pair normalises by cluster 0's cardinality (1 point), not by
        # cluster 1's (2) or cluster 2's (3)
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        z = np.array([[0.0, 0.5], [1.0, 0.5], [1.0, -0.5],
                      [2.0, 0.5], [2.0, -0.5], [2.0, 0.5]])
        u = np.zeros((3, 6))
        u[[0, 1, 1, 2, 2, 2], np.arange(6)] = 1.0
        scatter = 6 * 0.25
        assert all_indices(u, z, centers)["s"] == scatter / (1.0 * 1.0)

    def test_three_blob_sweep_minimum_at_three(self):
        z = three_blobs(seed=5)
        cfg = ClusterConfig(algorithm="gk", seed=0)
        report = sweep_clusters(z, cfg, range(2, 7))
        assert report.per_index_optimum["s"] == 3


class TestXieBeni:
    def test_zero_when_points_sit_on_centers(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0]])
        z = np.repeat(centers, 2, axis=0)
        u = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        assert all_indices(u, z, centers)["xb"] == 0.0

    def test_uniform_scaling_invariance(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(25, 3))
        centers = rng.normal(size=(4, 3))
        u = init_partition(25, 4, seed=2)
        base = all_indices(u, z, centers)["xb"]
        for s in (0.01, 3.0, 999.0):
            assert all_indices(u, s * z, s * centers)["xb"] == pytest.approx(base, rel=1e-9)

    def test_three_blob_sweep_minimum_at_three(self):
        z = three_blobs(seed=7)
        cfg = ClusterConfig(algorithm="gk", seed=0)
        report = sweep_clusters(z, cfg, range(2, 7))
        assert report.per_index_optimum["xb"] == 3


class TestSweep:
    def test_three_component_consensus(self):
        z = three_blobs(seed=11)
        cfg = ClusterConfig(algorithm="gk", seed=0)
        report = sweep_clusters(z, cfg, range(2, 7))
        assert report.consensus == 3

    def test_single_blob_degenerates_gracefully(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(60, 2))
        cfg = ClusterConfig(algorithm="fcm", seed=0)
        report = sweep_clusters(z, cfg, range(2, 6))
        # PC decreases / PE increases with C on structureless data; the
        # shape-aware indices should settle at the small end
        assert report.per_index_optimum["mpc"] <= 2
        assert report.per_index_optimum["xb"] <= 3
        assert 2 <= report.consensus <= 5

    def test_deterministic_rerun(self):
        z = three_blobs(seed=13)
        cfg = ClusterConfig(algorithm="gk", seed=4)
        a = sweep_clusters(z, cfg, range(2, 6))
        b = sweep_clusters(z, cfg, range(2, 6))
        assert a.consensus == b.consensus
        assert a.per_index_optimum == b.per_index_optimum
        assert a.table == b.table

    def test_directions_respected(self):
        z = three_blobs(seed=14)
        cfg = ClusterConfig(algorithm="gk", seed=1)
        report = sweep_clusters(z, cfg, range(2, 6))
        for name, direction in INDEX_DIRECTIONS.items():
            col = np.asarray(report.table[name])
            c_arr = np.asarray(report.c_values)
            pick = c_arr[np.argmax(col)] if direction == "max" else c_arr[np.argmin(col)]
            assert report.per_index_optimum[name] == pick

    def test_consensus_mode_and_tie_rule(self):
        assert consensus_count([3, 3, 3, 4, 2, 3]) == 3
        assert consensus_count([2, 2, 4, 4, 5, 3]) == 2  # tie -> smaller C
        assert consensus_count([5]) == 5
        with pytest.raises(ValueError, match="^no per-index optima to take a consensus of$"):
            consensus_count([])

    def test_failed_c_excluded_from_consensus(self, monkeypatch):
        import fuzzyrunoff.validity as validity_mod
        from fuzzyrunoff.clustering import NumericalError, run_gk

        def flaky(data, cfg):
            if cfg.n_clusters == 4:
                raise NumericalError("staged failure")
            return run_gk(data, cfg)

        monkeypatch.setattr(clustering, "run_gk", flaky)
        z = three_blobs(seed=21)
        report = validity_mod.sweep_clusters(
            z, ClusterConfig(algorithm="gk", seed=0), range(2, 6))
        assert 4 in report.failures
        assert np.isnan(report.table["pc"][report.c_values.index(4)])
        assert all(opt != 4 for opt in report.per_index_optimum.values())
        assert report.consensus == 3

    def test_records_each_cs_iterations(self, monkeypatch):
        import fuzzyrunoff.validity as validity_mod
        from fuzzyrunoff.clustering import NumericalError, run_gk

        def flaky(data, cfg):
            if cfg.n_clusters == 4:
                raise NumericalError("staged failure")
            return run_gk(data, cfg)

        monkeypatch.setattr(clustering, "run_gk", flaky)
        report = validity_mod.sweep_clusters(
            three_blobs(seed=21), ClusterConfig(algorithm="gk", seed=0, max_iter=30),
            range(2, 6))
        # C = 4 failed and has no entry; C = 5 stopped at max_iter
        assert report.iterations == {2: (29, True), 3: (9, True), 5: (30, False)}

    @pytest.mark.parametrize("algorithm", ["gk", "fcm"])
    def test_holds_only_the_partitions_of_running_optima(self, monkeypatch, algorithm):
        import fuzzyrunoff.validity as validity_mod

        runner = getattr(clustering, f"run_{algorithm}")
        returned, alive = [], []

        def tracked(data, cfg):
            gc.collect()
            alive.append(sum(ref() is not None for ref in returned))
            if cfg.n_clusters == 5:
                raise NumericalError("staged failure")
            partition = runner(data, cfg)
            returned.append(weakref.ref(partition[0]))
            return partition

        monkeypatch.setattr(clustering, f"run_{algorithm}", tracked)
        report = validity_mod.sweep_clusters(
            three_blobs(seed=24), ClusterConfig(algorithm=algorithm, seed=0), range(2, 9))
        for k in range(1, len(report.c_values)):  # the k-th call follows k scored C
            optima = {np.nanargmax(report.table[name][:k]) if direction == "max"
                      else np.nanargmin(report.table[name][:k])
                      for name, direction in INDEX_DIRECTIONS.items()}
            assert alive[k] <= len(optima), (k, alive)
        gc.collect()
        held = [ref() for ref in returned if ref() is not None]
        assert len(held) == 1 and held[0] is report.partition[0]

    def test_all_c_failing_raises(self, monkeypatch):
        import fuzzyrunoff.validity as validity_mod
        from fuzzyrunoff.clustering import NumericalError

        def always_fail(data, cfg):
            raise NumericalError("staged failure")

        monkeypatch.setattr(clustering, "run_gk", always_fail)
        z = three_blobs(seed=22)
        with pytest.raises(NumericalError, match="every C"):
            validity_mod.sweep_clusters(
                z, ClusterConfig(algorithm="gk", seed=0), range(2, 5))

    def test_bad_setting_is_no_clustering_failure(self):
        z = three_blobs(seed=23)
        with pytest.raises(ValueError, match="fuzziness m"):
            sweep_clusters(z, ClusterConfig(algorithm="gk", m=0.5), range(2, 5))

    def test_empty_range_refused(self):
        with pytest.raises(ValueError, match="^empty cluster range$"):
            sweep_clusters(three_blobs(seed=23), ClusterConfig(), range(2, 2))

    def test_count_below_two_refused_before_any_clustering(self, monkeypatch):
        calls = []
        monkeypatch.setattr(clustering, "run_gk", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^need at least 2 clusters, got 1$"):
            sweep_clusters(three_blobs(seed=23), ClusterConfig(), range(1, 4))
        assert not calls

    def test_rejects_subtractive(self):
        z = three_blobs(seed=15)
        cfg = ClusterConfig(algorithm="sc")
        with pytest.raises(ValueError, match="sweep"):
            sweep_clusters(z, cfg, range(2, 5))

    def test_rejects_c_max_at_or_above_n(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=(6, 2))
        cfg = ClusterConfig(algorithm="gk")
        with pytest.raises(ValueError):
            sweep_clusters(z, cfg, range(2, 7))

    def test_csv_export(self, tmp_path):
        z = three_blobs(seed=17)
        cfg = ClusterConfig(algorithm="gk", seed=0)
        report = sweep_clusters(z, cfg, range(2, 5))
        path = tmp_path / "validity.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "C,pc,pe,mpc,sc,s,xb"
        assert len(lines) == 4
        for line in lines[1:]:  # plain numbers, no numpy scalar reprs
            assert all(math.isfinite(float(cell)) for cell in line.split(","))


def test_all_indices_keys():
    z = three_blobs(seed=18)
    cfg = ClusterConfig(algorithm="gk", seed=0, n_clusters=3)
    from fuzzyrunoff.clustering import run_gk

    u, centers, _ = run_gk(z, cfg)
    values = all_indices(u, z, centers)
    assert set(values) == set(INDEX_DIRECTIONS)


def test_center_indices_match_the_per_cluster_loop():
    def loop(u, z, v):
        c = v.shape[0]
        d2 = np.array([((z - v[i]) ** 2).sum(axis=1) for i in range(c)])
        sep = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        sc = 0.0
        for i in range(c):
            sc += float(((u[i] ** 2) * d2[i]).sum()) / (u[i].sum() * sep[i].sum())
        min_sep, p = min((sep[i, j], i) for i in range(c) for j in range(c) if i != j)
        scatter = float(((u**2) * d2).sum())
        return {"sc": sc, "s": scatter / (float(u[p].sum()) * min_sep),
                "xb": scatter / (u.shape[1] * min_sep)}

    rng = np.random.default_rng(24)
    for trial in range(300):
        c, d = int(rng.integers(2, 12)), int(rng.integers(1, 7))
        n = int(rng.integers(c + 1, 300))
        # half the trials on a coarse integer grid: tied separations
        grid = trial % 2
        z = rng.integers(0, 4, size=(n, d)) * 1.0 if grid else rng.normal(size=(n, d))
        v = np.unique(rng.integers(0, 4, size=(c, d)), axis=0) * 1.0 if grid \
            else rng.normal(size=(c, d))
        if v.shape[0] < 2:
            continue
        u = rng.random((v.shape[0], n)) + 1e-3
        u /= u.sum(axis=0)
        values = all_indices(u, z, v)
        for name, expected in loop(u, z, v).items():
            assert np.float64(values[name]).tobytes() == np.float64(expected).tobytes()


def test_all_indices_takes_one_distance_pass(monkeypatch):
    import fuzzyrunoff.validity as validity_mod
    from fuzzyrunoff.clustering import _squared_distances

    calls = []

    def counting(*args):
        calls.append(args)
        return _squared_distances(*args)

    monkeypatch.setattr(validity_mod, "_squared_distances", counting)
    z = three_blobs(seed=19)
    all_indices(init_partition(z.shape[0], 4, seed=0), z, z[:4])
    assert len(calls) == 1
