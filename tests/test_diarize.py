import itertools

import numpy as np
import pytest

from farfield.diarize import (
    UNASSIGNED,
    ClusterSet,
    DiarizeConfig,
    assign_mixed_frames,
    count_speakers,
    diarize_embeddings,
    gmm_cluster,
    merge_reject_clusters,
    reduce_dim,
    select_single_speaker_frames,
)
from farfield.embeddings import EmbeddingEntry, EmbeddingSet


def _entry(t0, t1, vectors):
    return EmbeddingEntry(t0, t1, np.asarray(vectors, dtype=float))


def _blobs(rng, centers, counts, std):
    points, labels = [], []
    for i, (c, n) in enumerate(zip(centers, counts)):
        points.append(c + std * rng.standard_normal((n, len(c))))
        labels += [i] * n
    return np.vstack(points), np.array(labels)


class TestSingleSpeakerSelection:
    def test_one_vector_always_single(self):
        emb = EmbeddingSet((_entry(0, 1, [[1.0, 0.0]]),))
        single, mixed = select_single_speaker_frames(emb, threshold=0.99)
        assert len(single) == 1 and len(mixed) == 0

    def test_identical_pair_is_single_with_mean(self):
        v = np.array([3.0, 4.0])
        emb = EmbeddingSet((_entry(0, 1, [v, v]),))
        single, _ = select_single_speaker_frames(emb, threshold=0.8)
        np.testing.assert_allclose(single.entries[0].vectors[0], v / 5.0)

    def test_orthogonal_pair_is_mixed(self):
        emb = EmbeddingSet((_entry(0, 1, [[1.0, 0.0], [0.0, 1.0]]),))
        single, mixed = select_single_speaker_frames(emb, threshold=0.5)
        assert len(single) == 0 and len(mixed) == 1


class TestReduceDim:
    def test_exact_low_rank_preserves_distances(self):
        rng = np.random.default_rng(0)
        plane = rng.standard_normal((40, 2))
        basis = np.linalg.qr(rng.standard_normal((10, 2)))[0]
        data = plane @ basis.T
        reduced, _ = reduce_dim(data, 2)
        d_in = np.linalg.norm(data[:, None] - data[None], axis=2)
        d_out = np.linalg.norm(reduced[:, None] - reduced[None], axis=2)
        np.testing.assert_allclose(d_out, d_in, atol=1e-9)

    def test_full_dim_is_isometry(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((30, 5))
        reduced, _ = reduce_dim(data, 5)
        d_in = np.linalg.norm(data[:, None] - data[None], axis=2)
        d_out = np.linalg.norm(reduced[:, None] - reduced[None], axis=2)
        np.testing.assert_allclose(d_out, d_in, atol=1e-9)

    def test_blob_separation_survives(self):
        rng = np.random.default_rng(2)
        c1, c2 = rng.standard_normal(50), rng.standard_normal(50) + 4.0
        data, labels = _blobs(rng, [c1, c2], [50, 50], std=0.5)
        reduced, _ = reduce_dim(data, 12)

        def ratio(points):
            a, b = points[labels == 0], points[labels == 1]
            between = np.linalg.norm(a.mean(0) - b.mean(0))
            within = 0.5 * (
                np.mean(np.linalg.norm(a - a.mean(0), axis=1))
                + np.mean(np.linalg.norm(b - b.mean(0), axis=1))
            )
            return between / within

        assert ratio(reduced) > ratio(data) / 2
        assert ratio(reduced) < ratio(data) * 2

    def test_rank_deficient_pads_and_warns(self):
        data = np.zeros((20, 6))
        data[:, 0] = np.arange(20.0)
        with pytest.warns(UserWarning):
            reduced, _ = reduce_dim(data, 3)
        assert np.all(reduced[:, 1:] == 0)

    def test_external_is_passthrough(self):
        data = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(reduce_dim(data, 4, "external")[0], data)


class TestGmmCluster:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(3)
        centers = [20.0 * rng.standard_normal(12) for _ in range(8)]
        data, labels = _blobs(rng, centers, [30] * 8, std=0.5)
        cfg = DiarizeConfig(max_clusters=8)
        clusters = gmm_cluster(data, cfg, seed=0)
        # assignments equal blob identity up to permutation
        for blob in range(8):
            assigned = clusters.assignments[labels == blob]
            assert len(set(assigned.tolist())) == 1
        assert count_speakers(clusters) == 8

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(4)
        data, _ = _blobs(rng, [np.zeros(4), 5 * np.ones(4)], [50, 50], std=1.0)
        clusters = gmm_cluster(data, DiarizeConfig(max_clusters=4), seed=1)
        ll = np.array(clusters.ll_history)
        assert np.all(np.diff(ll) >= -1e-9)

    def test_identical_points_collapse_to_one(self):
        data = np.ones((50, 3))
        clusters = gmm_cluster(data, DiarizeConfig(max_clusters=8, reduced_dim=3), seed=0)
        assert count_speakers(clusters) == 1

    def test_two_blobs_survive_merge_reject(self):
        rng = np.random.default_rng(5)
        data, _ = _blobs(
            rng, [10 * rng.standard_normal(12), 10 * rng.standard_normal(12)], [60, 60], 0.4
        )
        cfg = DiarizeConfig(max_clusters=8)
        clusters = merge_reject_clusters(gmm_cluster(data, cfg, seed=2), cfg)
        assert count_speakers(clusters) == 2


class TestMergeReject:
    def _clusters(self, centroids, sizes):
        assignments = np.concatenate(
            [np.full(s, i, dtype=np.int64) for i, s in enumerate(sizes)]
        )
        return ClusterSet(
            assignments=assignments,
            centroids=np.asarray(centroids, dtype=float),
            sizes=np.asarray(sizes, dtype=np.int64),
        )

    def test_identical_centroids_merge(self):
        clusters = self._clusters([[1.0, 0.0], [1.0, 0.0]], [10, 20])
        out = merge_reject_clusters(clusters, DiarizeConfig(merge_cos_threshold=0.9))
        assert count_speakers(out) == 1
        assert out.sizes[0] == 30

    def test_small_cluster_rejected_footnote_rule(self):
        clusters = self._clusters(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [100, 100, 4]
        )
        out = merge_reject_clusters(
            clusters, DiarizeConfig(merge_cos_threshold=0.9, reject_thr=10.0)
        )
        assert count_speakers(out) == 2
        assert np.sum(out.assignments == UNASSIGNED) == 4

    def test_fixpoint_when_nothing_applies(self):
        clusters = self._clusters([[1.0, 0.0], [0.0, 1.0]], [50, 40])
        out = merge_reject_clusters(
            clusters, DiarizeConfig(merge_cos_threshold=0.9, reject_thr=10.0)
        )
        assert count_speakers(out) == 2
        np.testing.assert_array_equal(out.sizes, [50, 40])
        np.testing.assert_array_equal(out.assignments, clusters.assignments)

    def test_exhaustive_small_cases_match_rule_oracle(self):
        # all size vectors of up to 5 clusters over a small size alphabet
        cfg = DiarizeConfig(merge_cos_threshold=0.99, reject_thr=10.0)
        alphabet = [1, 4, 9, 10, 11, 100]
        for n in range(1, 6):
            for sizes in itertools.product(alphabet, repeat=n):
                # orthogonal centroids so no merging interferes
                centroids = np.eye(max(n, 2))[:n]
                clusters = self._clusters(centroids, list(sizes))
                out = merge_reject_clusters(clusters, cfg)
                n_max = max(sizes)
                expected = [s for s in sizes if not s < n_max / cfg.reject_thr]
                assert sorted(out.sizes.tolist()) == sorted(expected)
                assert all(s >= n_max / cfg.reject_thr for s in out.sizes)


class TestAssignMixedAndPipeline:
    def _speaker_embeddings(self, rng, schedule, centers, std=0.05, step=0.5):
        """Build an EmbeddingSet from (start, end, [speakers]) intervals."""
        entries = []
        t = 0.0
        end_time = max(e for _, e, _ in schedule)
        while t < end_time:
            active = [spk for s, e, spk in schedule for spk in spk if s <= t < e]
            if active:
                vecs = np.vstack(
                    [centers[s] + std * rng.standard_normal(len(centers[0])) for s in active]
                )
                entries.append(EmbeddingEntry(t, t + step, vecs))
            t += step
        return EmbeddingSet(tuple(entries))

    def test_mixed_entry_at_centroids_activates_both(self):
        centroids = np.eye(3)
        clusters = ClusterSet(
            assignments=np.array([0, 1, 2]),
            centroids=centroids,
            sizes=np.array([1, 1, 1]),
        )
        single = EmbeddingSet(
            tuple(_entry(i, i + 1, [centroids[i]]) for i in range(3))
        )
        mixed = EmbeddingSet((_entry(3.0, 3.5, [centroids[0], centroids[1]]),))
        seg = assign_mixed_frames(clusters, single, mixed, DiarizeConfig(), "s")
        active = {t.speaker for t in seg.turns if t.start <= 3.25 < t.end}
        assert active == {"spk00", "spk01"}

    def test_pipeline_recovers_schedule_with_overlap(self):
        rng = np.random.default_rng(6)
        dim = 32
        centers = [c / np.linalg.norm(c) for c in rng.standard_normal((3, dim))]
        schedule = [
            (0.0, 10.0, [0]),
            (10.0, 20.0, [1]),
            (18.0, 25.0, [2]),  # overlapped region 18-20
            (25.0, 35.0, [0]),
        ]
        mixed_schedule = [(s, e, spk) for s, e, spk in schedule]
        emb = self._speaker_embeddings(rng, mixed_schedule, centers)
        cfg = DiarizeConfig(
            max_clusters=8, reduced_dim=12, frame_step=0.5, single_speaker_cos_threshold=0.6
        )
        seg, count, _ = diarize_embeddings(emb, cfg, seed=0)
        assert count == 3
        # each schedule interval matched by exactly one hypothesis speaker
        for s, e, spks in schedule:
            mid = 0.5 * (s + e)
            active = {t.speaker for t in seg.turns if t.start <= mid < t.end}
            assert len(active) == len(spks)

    def test_rotation_invariance_of_assignments(self):
        rng = np.random.default_rng(7)
        dim = 16
        centers = rng.standard_normal((4, dim))
        data, labels = _blobs(rng, list(centers), [40] * 4, std=0.2)
        rotation = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        cfg = DiarizeConfig(max_clusters=8, reduced_dim=8)
        a = merge_reject_clusters(gmm_cluster(reduce_dim(data, 8)[0], cfg, 0), cfg)
        b = merge_reject_clusters(
            gmm_cluster(reduce_dim(data @ rotation.T, 8)[0], cfg, 0), cfg
        )
        # identical up to label permutation
        mapping = {}
        for x, y in zip(a.assignments, b.assignments):
            mapping.setdefault(int(x), int(y))
            assert mapping[int(x)] == int(y)

    def test_assign_never_changes_cluster_count(self):
        rng = np.random.default_rng(8)
        centroids = np.eye(4)
        clusters = ClusterSet(
            assignments=np.arange(4),
            centroids=centroids,
            sizes=np.ones(4, dtype=np.int64),
        )
        single = EmbeddingSet(tuple(_entry(i, i + 1, [centroids[i]]) for i in range(4)))
        mixed = EmbeddingSet(
            tuple(
                _entry(5 + i, 5.5 + i, [rng.standard_normal(4)]) for i in range(10)
            )
        )
        seg = assign_mixed_frames(clusters, single, mixed, DiarizeConfig(), "s")
        assert len(seg.speakers) <= 4
        assert count_speakers(clusters) == 4
