import itertools
from dataclasses import replace

import numpy as np
import pytest

import farfield.diarize
import farfield.pipeline
from farfield.diarize import (
    UNASSIGNED,
    ClusterSet,
    DiarizeConfig,
    _nearest_centroids,
    _unit,
    assign_mixed_frames,
    count_speakers,
    diarize_embeddings,
    gmm_cluster,
    merge_clusters,
    merge_reject_clusters,
    reduce_dim,
    reject_clusters,
    select_single_speaker_frames,
)
from farfield.embeddings import EmbeddingEntry, EmbeddingSet
from farfield.errors import DataError
from farfield.pipeline import load_config, load_manifest, run_diarize_grid
from farfield.segments import Segmentation, Turn


def _entry(t0, t1, vectors):
    return EmbeddingEntry(t0, t1, np.asarray(vectors, dtype=float))


def _blobs(rng, centers, counts, std):
    points, labels = [], []
    for i, (c, n) in enumerate(zip(centers, counts)):
        points.append(c + std * rng.standard_normal((n, len(c))))
        labels += [i] * n
    return np.vstack(points), np.array(labels)


class TestDiarizeConfig:
    def test_thresholds_stored_as_float_tuple(self):
        assert DiarizeConfig(reject_thrs=[8, 10.5]).reject_thrs == (8.0, 10.5)
        assert DiarizeConfig().reject_thrs == (8.0, 10.0, 14.0)

    @pytest.mark.parametrize("thresholds", [(), (0.0,), (8.0, -1.0)],
                             ids=["empty", "zero", "negative"])
    def test_bad_thresholds_rejected(self, thresholds):
        with pytest.raises(DataError, match="reject_thrs"):
            DiarizeConfig(reject_thrs=thresholds)


class TestSingleSpeakerSelection:
    def test_one_vector_always_single(self):
        emb = EmbeddingSet((_entry(0, 1, [[1.0, 0.0]]),))
        single, _, mixed = select_single_speaker_frames(emb, threshold=0.99)
        assert len(single) == 1 and len(mixed) == 0

    def test_identical_pair_is_single_with_mean(self):
        v = np.array([3.0, 4.0])
        emb = EmbeddingSet((_entry(0, 1, [v, v]),))
        _, means, _ = select_single_speaker_frames(emb, threshold=0.8)
        np.testing.assert_allclose(means[0], v / 5.0)

    def test_orthogonal_pair_is_mixed(self):
        emb = EmbeddingSet((_entry(0, 1, [[1.0, 0.0], [0.0, 1.0]]),))
        single, _, mixed = select_single_speaker_frames(emb, threshold=0.5)
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
        clusters = merge_reject_clusters(gmm_cluster(data, cfg, seed=2), cfg, 10.0)
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
        out = merge_reject_clusters(clusters, DiarizeConfig(merge_cos_threshold=0.9), 10.0)
        assert count_speakers(out) == 1
        assert out.sizes[0] == 30

    def test_small_cluster_rejected_footnote_rule(self):
        clusters = self._clusters(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [100, 100, 4]
        )
        out = merge_reject_clusters(clusters, DiarizeConfig(merge_cos_threshold=0.9), 10.0)
        assert count_speakers(out) == 2
        assert np.sum(out.assignments == UNASSIGNED) == 4

    def test_fixpoint_when_nothing_applies(self):
        clusters = self._clusters([[1.0, 0.0], [0.0, 1.0]], [50, 40])
        out = merge_reject_clusters(clusters, DiarizeConfig(merge_cos_threshold=0.9), 10.0)
        assert count_speakers(out) == 2
        np.testing.assert_array_equal(out.sizes, [50, 40])
        np.testing.assert_array_equal(out.assignments, clusters.assignments)

    def test_exhaustive_small_cases_match_rule_oracle(self):
        # all size vectors of up to 5 clusters over a small size alphabet
        cfg, thr = DiarizeConfig(merge_cos_threshold=0.99), 10.0
        alphabet = [1, 4, 9, 10, 11, 100]
        for n in range(1, 6):
            for sizes in itertools.product(alphabet, repeat=n):
                # orthogonal centroids so no merging interferes
                centroids = np.eye(max(n, 2))[:n]
                clusters = self._clusters(centroids, list(sizes))
                out = merge_reject_clusters(clusters, cfg, thr)
                n_max = max(sizes)
                expected = [s for s in sizes if not s < n_max / thr]
                assert sorted(out.sizes.tolist()) == sorted(expected)
                assert all(s >= n_max / thr for s in out.sizes)


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
        emb, single, mixed = _one_set(
            [_entry(i, i + 1, [centroids[i]]) for i in range(3)],
            [_entry(3.0, 3.5, [centroids[0], centroids[1]])],
        )
        seg = assign_mixed_frames(clusters, emb, single, centroids, mixed, emb.rows(mixed),
                                  DiarizeConfig(), "s")
        active = {t.speaker for t in seg.turns if t.start <= 3.25 < t.end}
        assert active == {"spk00", "spk01"}

    def test_turns_keep_the_record_times(self):
        # records of different lengths, far enough apart that no two frames merge
        centroids = np.eye(2)
        clusters = ClusterSet(np.array([0, 1]), centroids, np.array([1, 1]))
        emb, single, mixed = _one_set(
            [_entry(0.0, 0.3, [centroids[0]]), _entry(2.0, 2.7, [centroids[1]])],
            [_entry(5.0, 6.1, [centroids[0], centroids[1]])],
        )
        seg = assign_mixed_frames(clusters, emb, single, centroids, mixed, emb.rows(mixed),
                                  DiarizeConfig(), "s")
        assert [(t.speaker, t.start, t.end) for t in seg.turns] == [
            ("spk00", 0.0, 0.3), ("spk01", 2.0, 2.7), ("spk00", 5.0, 6.1), ("spk01", 5.0, 6.1)]

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
            max_clusters=8, reduced_dim=12, frame_step=0.5, single_speaker_cos_threshold=0.6,
            reject_thrs=(10.0,),
        )
        [(seg, count, _)] = diarize_embeddings(emb, cfg, seed=0)
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
        a = merge_reject_clusters(gmm_cluster(reduce_dim(data, 8)[0], cfg, 0), cfg, 10.0)
        b = merge_reject_clusters(
            gmm_cluster(reduce_dim(data @ rotation.T, 8)[0], cfg, 0), cfg, 10.0
        )
        # identical up to label permutation
        mapping = {}
        for x, y in zip(a.assignments, b.assignments):
            mapping.setdefault(int(x), int(y))
            assert mapping[int(x)] == int(y)

    def test_turns_equal_per_frame_turns_merged(self):
        # the frames' turns merged by Segmentation.merged_per_speaker, as
        # assign_mixed_frames emitted them when it built one Turn per frame
        emb = _three_speaker_stream(np.random.default_rng(4))
        cfg = DiarizeConfig(max_clusters=3, reduction="external")
        single, reduced, mixed = select_single_speaker_frames(emb,
                                                              cfg.single_speaker_cos_threshold)
        clusters = reject_clusters(gmm_cluster(reduced, cfg, 0), 4.0)
        assert np.any(clusters.assignments == UNASSIGNED)
        args = (clusters, emb, single, reduced, mixed, emb.rows(mixed), cfg)
        seg = assign_mixed_frames(*args, "s")
        assert seg.turns == _per_vector_turns(*args)
        assert len(seg.turns) > 1

    def test_assign_never_changes_cluster_count(self):
        rng = np.random.default_rng(8)
        centroids = np.eye(4)
        clusters = ClusterSet(
            assignments=np.arange(4),
            centroids=centroids,
            sizes=np.ones(4, dtype=np.int64),
        )
        emb, single, mixed = _one_set(
            [_entry(i, i + 1, [centroids[i]]) for i in range(4)],
            [_entry(5 + i, 5.5 + i, [rng.standard_normal(4)]) for i in range(10)],
        )
        seg = assign_mixed_frames(clusters, emb, single, centroids, mixed, emb.rows(mixed),
                                  DiarizeConfig(), "s")
        assert len(seg.speakers) <= 4
        assert count_speakers(clusters) == 4


def _nearest_centroid(vector, centroids, sizes) -> int:
    """One vector's nearest centroid, as assign_mixed_frames found it one vector
    at a time: the oracle for _nearest_centroids."""
    sims = _unit(centroids) @ _unit(vector)
    best = np.flatnonzero(sims >= sims.max() - 1e-12)
    if len(best) > 1:
        # tie-break toward the larger cluster, then the lower id
        best = sorted(best, key=lambda i: (-sizes[i], i))
    return int(best[0])


def _per_vector_turns(clusters, emb, single, reduced, mixed, mixed_vectors, cfg):
    """assign_mixed_frames' turns from one Turn per frame and speaker, each
    speaker found one vector at a time, merged by Segmentation.merged_per_speaker."""
    frames = []
    for idx, row in enumerate(single):
        cid = clusters.assignments[idx]
        if cid == UNASSIGNED:
            cid = _nearest_centroid(reduced[idx], clusters.centroids, clusters.sizes)
        frames.append(Turn(f"spk{cid:02d}", float(emb.starts[row]), float(emb.ends[row])))
    for row, vectors in zip(mixed, _record_vectors(emb.counts[mixed], mixed_vectors)):
        for cid in {_nearest_centroid(v, clusters.centroids, clusters.sizes)
                    for v in vectors}:
            frames.append(Turn(f"spk{cid:02d}", float(emb.starts[row]), float(emb.ends[row])))
    merged = Segmentation("s", tuple(frames)).merged_per_speaker(0.5 * cfg.frame_step)
    return tuple(sorted(merged.turns, key=lambda t: (t.start, t.speaker)))


def _per_entry_selection(emb, threshold):
    """Single-speaker selection one entry at a time: the oracle for
    select_single_speaker_frames."""
    single, means, mixed = [], [], []
    for row, vectors in enumerate(_record_vectors(emb.counts, emb.vectors)):
        vecs = _unit(vectors)
        sims = vecs @ vecs.T
        iu = np.triu_indices(len(vecs), k=1)
        if len(iu[0]) == 0 or np.all(sims[iu] > threshold):
            single.append(row)
            means.append(_unit(vectors.mean(axis=0)))
        else:
            mixed.append(row)
    return single, means, mixed


def _record_vectors(counts, vectors):
    """The rows of vectors split into one array per record, counts[i] rows for record i."""
    return [vectors[hi - n : hi] for n, hi in zip(counts.tolist(), np.cumsum(counts).tolist())]


def _one_set(single, mixed):
    """One set of the single and the mixed entries in start order, and the row
    indices of each."""
    entries = [*single, *mixed]
    order = sorted(range(len(entries)), key=lambda i: entries[i].time_start)
    rows = np.argsort(order)  # each entry's row in the set
    return EmbeddingSet(tuple(entries[i] for i in order)), rows[:len(single)], rows[len(single):]


def _broadcast_gmm_cluster(vectors, cfg, seed):
    """gmm_cluster as it was before its sweeps ran on whole planes: distances on
    an (n, k, dim) broadcast, the E-step on (n, k) rows. Its oracle."""
    n, dim = vectors.shape
    k = cfg.max_clusters
    means = farfield.diarize._kmeans_pp_init(vectors, k, np.random.default_rng(seed))
    variances = np.full((k, dim), max(vectors.var(axis=0).mean(), farfield.diarize._VAR_FLOOR))
    weights = np.full(k, 1.0 / k)

    def distances():
        return np.sum((vectors[:, None, :] - means[None]) ** 2 / variances[None], axis=2)

    ll_history = []
    for _ in range(farfield.diarize._GMM_ITERATIONS):
        log_prob = -0.5 * (np.sum(np.log(2.0 * np.pi * variances), axis=1)[None, :]
                           + distances())
        log_joint = log_prob + np.log(np.maximum(weights, 1e-300))[None, :]
        shift = log_joint.max(axis=1, keepdims=True)
        log_norm = shift[:, 0] + np.log(np.exp(log_joint - shift).sum(axis=1))
        ll = float(log_norm.mean())
        resp = np.exp(log_joint - log_norm[:, None])
        converged = bool(ll_history) and ll - ll_history[-1] < farfield.diarize._GMM_TOL
        ll_history.append(ll)
        if converged:
            break
        mass = resp.sum(axis=0)
        nonempty = mass > 1e-12
        weights = np.where(nonempty, mass / n, 0.0)
        safe_mass = np.maximum(mass, 1e-12)
        means = np.where(nonempty[:, None], (resp.T @ vectors) / safe_mass[:, None], means)
        second = (resp.T @ (vectors**2)) / safe_mass[:, None]
        variances = np.where(nonempty[:, None],
                             np.maximum(second - means**2, farfield.diarize._VAR_FLOOR),
                             variances)
    assignments = np.argmax(np.log(np.maximum(weights, 1e-300))[None, :]
                            - 0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)[None, :]
                            - 0.5 * distances(), axis=1)
    occupied = np.unique(assignments)
    assignments = np.searchsorted(occupied, assignments)
    return ClusterSet(assignments, means[occupied],
                      np.bincount(assignments, minlength=len(occupied)), tuple(ll_history))


def _tied_centroids(rng, k, dim):
    """k random centroids, about 40 % of them copies of another, with sizes
    1-3, so that equal cosines and equal sizes both occur."""
    centroids = rng.standard_normal((k, dim))
    copied = rng.random(k) < 0.4
    centroids[copied] = centroids[rng.integers(k, size=k)][copied]
    return centroids, rng.integers(1, 4, size=k)


class TestWholeArraysEqualOneAtATime:
    """The stacked selection, the GMM on whole rows and the stacked attraction
    give the bits of the per-entry, broadcast and per-vector forms."""

    def test_gmm_equals_broadcast_form(self):
        rng = np.random.default_rng(20)
        for case in range(300):
            k, dim = int(rng.integers(1, 9)), int(rng.integers(1, 20))
            n = int(rng.integers(max(k, 8), 701))
            spread = float(rng.choice([1e-4, 1e-3, 0.1, 1.0, 3.0]))
            centers = rng.standard_normal((k, dim))
            data = centers[rng.integers(k, size=n)] + spread * rng.standard_normal((n, dim))
            cfg = DiarizeConfig(max_clusters=k)
            _assert_same_clusters(gmm_cluster(data, cfg, seed=case),
                                  _broadcast_gmm_cluster(data, cfg, seed=case))

    def test_exp_equals_numpy_exp(self):
        # across the underflow bound and the floor below which _exp evaluates nothing
        x = np.concatenate([np.linspace(-760.0, -700.0, 600_001), [-np.inf, -1e300, 0.0]])
        assert farfield.diarize._exp(x).tobytes() == np.exp(x).tobytes()

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 16, 23, 128, 129, 300])
    def test_pairwise_sum_equals_row_sum(self, count):
        # counts on each side of numpy's 8-value unroll and 128-value block
        rng = np.random.default_rng(count)
        rows = rng.standard_normal((50, count)) * 10.0 ** rng.integers(-8, 8, (50, count))
        got = farfield.diarize._pairwise_sum(np.ascontiguousarray(rows.T))
        assert got.tobytes() == rows.sum(axis=1).tobytes()

    def test_selection_equals_per_entry(self):
        rng = np.random.default_rng(21)
        for trial in range(100):
            dim = int(rng.integers(1, 20))
            entries = []
            for i in range(int(rng.integers(0, 60))):
                count = int(rng.integers(1, 5))
                noise = float(rng.choice([0.01, 0.3, 3.0]))
                vectors = rng.standard_normal(dim) + noise * rng.standard_normal((count, dim))
                entries.append(_entry(0.5 * i, 0.5 * i + 0.5, vectors))
            emb = EmbeddingSet(tuple(entries))
            threshold = float(rng.uniform(-0.5, 0.95))
            single, means, mixed = select_single_speaker_frames(emb, threshold)
            want_single, want_means, want_mixed = _per_entry_selection(emb, threshold)
            assert single.tolist() == want_single and mixed.tolist() == want_mixed
            assert len(means) == len(want_means)
            for g, w in zip(means, want_means):
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    def test_nearest_centroids_equal_per_vector(self):
        rng = np.random.default_rng(22)
        ties = 0
        for trial in range(200):
            k, dim = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            centroids, sizes = _tied_centroids(rng, k, dim)
            # scaled copies of centroids have their cosines, so they tie exactly
            on_centroids = centroids[rng.integers(k, size=5)] * rng.uniform(0.5, 2.0, (5, 1))
            vectors = np.vstack([rng.standard_normal((int(rng.integers(0, 20)), dim)),
                                 on_centroids])
            want = [_nearest_centroid(v, centroids, sizes) for v in vectors]
            assert _nearest_centroids(vectors, centroids, sizes).tolist() == want
            ties += sum(np.sum(np.all(centroids == centroids[c], axis=1)) > 1 for c in want)
        assert ties > 100

    def test_tie_goes_to_the_larger_cluster_then_the_lower_id(self):
        centroids = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        vectors = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert _nearest_centroids(vectors, centroids, np.array([1, 5, 3, 3])).tolist() == [2, 1]
        assert _nearest_centroids(vectors, centroids, np.array([4, 5, 3, 4])).tolist() == [0, 1]
        assert _nearest_centroids(np.empty((0, 2)), centroids, np.ones(4)).shape == (0,)

    def test_attraction_equals_per_vector(self):
        rng = np.random.default_rng(23)
        cfg = DiarizeConfig()
        for trial in range(100):
            k, dim = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            centroids, sizes = _tied_centroids(rng, k, dim)
            n_single = int(rng.integers(1, 30))
            reduced = rng.standard_normal((n_single, dim))
            on_centroid = rng.random(n_single) < 0.3
            reduced[on_centroid] = centroids[rng.integers(k, size=n_single)][on_centroid]
            assignments = np.where(rng.random(n_single) < 0.5, UNASSIGNED,
                                   rng.integers(k, size=n_single))
            clusters = ClusterSet(assignments, centroids, sizes)
            singles = [_entry(0.5 * i, 0.5 * i + 0.5, [row]) for i, row in enumerate(reduced)]
            mixed = []
            for i in range(int(rng.integers(0, 20))):
                count = int(rng.integers(1, 5))
                vectors = rng.standard_normal((count, dim))
                vectors[0] = centroids[rng.integers(k)]
                mixed.append(_entry(0.25 * i, 0.25 * i + 0.5, vectors))
            emb, single, mixed = _one_set(singles, mixed)
            args = (clusters, emb, single, reduced, mixed, emb.rows(mixed), cfg)
            seg = assign_mixed_frames(*args, "s")
            assert seg.turns == _per_vector_turns(*args)


def _reference_merge_reject_clusters(clusters, cfg, reject_thr):
    """Merge and reject in one pass, as a single function did before the two
    steps were split: the oracle for reject_clusters(merge_clusters(...))."""
    centroids = [c.copy() for c in clusters.centroids]
    sizes = list(int(s) for s in clusters.sizes)
    assignments = clusters.assignments.copy()
    active = list(range(len(sizes)))
    while len(active) > 1:
        units = _unit(np.array([centroids[i] for i in active]))
        sims = units @ units.T
        np.fill_diagonal(sims, -np.inf)
        i_loc, j_loc = divmod(np.argmax(sims), len(active))
        if sims[i_loc, j_loc] <= cfg.merge_cos_threshold:
            break
        i, j = sorted((active[i_loc], active[j_loc]))
        total = sizes[i] + sizes[j]
        centroids[i] = _unit((sizes[i] * centroids[i] + sizes[j] * centroids[j]) / total)
        sizes[i] = total
        sizes[j] = 0
        assignments[assignments == j] = i
        active.remove(j)
    max_size = max((sizes[i] for i in active), default=0)
    rejected = set(range(len(sizes))) - set(active)
    for i in active:
        if sizes[i] < max_size / reject_thr:
            rejected.add(i)
            assignments[assignments == i] = UNASSIGNED
            sizes[i] = 0
    survivors = [i for i in range(len(sizes)) if i not in rejected]
    remap = {old: new for new, old in enumerate(survivors)}
    return ClusterSet(
        assignments=np.array([remap.get(int(a), UNASSIGNED) for a in assignments],
                             dtype=np.int64),
        centroids=np.array([centroids[i] for i in survivors])
        if survivors
        else np.empty((0, clusters.centroids.shape[1])),
        sizes=np.array([sizes[i] for i in survivors], dtype=np.int64),
        ll_history=clusters.ll_history,
    )


def _assert_same_clusters(got, want):
    np.testing.assert_array_equal(got.assignments, want.assignments)
    np.testing.assert_array_equal(got.centroids, want.centroids)
    np.testing.assert_array_equal(got.sizes, want.sizes)
    assert got.centroids.shape == want.centroids.shape
    assert got.ll_history == want.ll_history


class TestMergeThenReject:
    @pytest.mark.parametrize("n_clusters", [0, 1, 2, 3, 5, 8])
    def test_split_equals_one_pass_reference(self, n_clusters):
        rng = np.random.default_rng(n_clusters)
        for trial in range(40):
            dim = 3
            # near-duplicate directions, so that some pairs merge and others do not
            base = rng.standard_normal((max(n_clusters, 1), dim))
            centroids = base[rng.integers(len(base), size=n_clusters)]
            centroids = centroids + 0.3 * rng.standard_normal((n_clusters, dim))
            sizes = rng.integers(1, 60, size=n_clusters)
            assignments = np.concatenate(
                [np.full(s, i) for i, s in enumerate(sizes)] + [np.full(3, UNASSIGNED)]
            )
            clusters = ClusterSet(rng.permutation(assignments),
                                  centroids.reshape(n_clusters, dim), sizes,
                                  ll_history=(float(trial),))
            cfg = DiarizeConfig(merge_cos_threshold=float(rng.uniform(0.3, 0.95)))
            thr = float(rng.choice([1.5, 4.0, 10.0]))
            want = _reference_merge_reject_clusters(clusters, cfg, thr)
            _assert_same_clusters(reject_clusters(merge_clusters(clusters, cfg), thr), want)
            _assert_same_clusters(merge_reject_clusters(clusters, cfg, thr), want)

    def test_size_at_the_bound_survives(self):
        clusters = ClusterSet(np.repeat([0, 1, 2], [40, 10, 9]), np.eye(3), [40, 10, 9])
        out = reject_clusters(clusters, 4.0)  # 40 / 4 = 10: 10 stays, 9 goes
        np.testing.assert_array_equal(out.sizes, [40, 10])
        assert np.sum(out.assignments == UNASSIGNED) == 9

    def test_nonpositive_threshold_rejected(self):
        clusters = ClusterSet([0], np.eye(1), [1])
        with pytest.raises(DataError):
            reject_clusters(clusters, 0.0)


def _three_speaker_stream(rng, counts=(40, 10, 5), n_mixed=6, dim=6, std=0.01):
    """Single-speaker frames of three orthogonal speakers in the given counts,
    shuffled in time, then mixed frames of speakers 0 and 1."""
    centers = np.eye(dim)[:3]
    speakers = rng.permutation(np.repeat(np.arange(3), counts))
    vectors = [[centers[s] + std * rng.standard_normal(dim)] for s in speakers]
    vectors += [[centers[0] + std * rng.standard_normal(dim),
                 centers[1] + std * rng.standard_normal(dim)] for _ in range(n_mixed)]
    return EmbeddingSet(tuple(_entry(0.5 * i, 0.5 * i + 0.5, v) for i, v in enumerate(vectors)))


class TestDiarizeThresholds:
    CFG = DiarizeConfig(max_clusters=3, reduction="external")
    # 40 / 4 = 10 keeps the 10-frame speaker at the bound; 40 / 2 = 20 rejects
    # it; 40 / 10 = 4 keeps the 5-frame speaker, which 4 and 2 reject
    THRESHOLDS = (10.0, 4.0, 2.0, 4.0)

    def test_each_threshold_equals_diarize_embeddings(self):
        emb = _three_speaker_stream(np.random.default_rng(3))
        cells = diarize_embeddings(emb, replace(self.CFG, reject_thrs=self.THRESHOLDS),
                                   seed=1, session_id="s")
        assert [c[1] for c in cells] == [3, 2, 1, 2]
        assert sorted(cells[0][2].sizes.tolist()) == [5, 10, 40]
        for thr, (seg, count, clusters) in zip(self.THRESHOLDS, cells):
            [(want_seg, want_count, want_clusters)] = diarize_embeddings(
                emb, replace(self.CFG, reject_thrs=(thr,)), seed=1, session_id="s")
            assert seg == want_seg
            assert count == want_count
            _assert_same_clusters(clusters, want_clusters)


class TestGridStreams:
    def test_one_read_and_fit_per_stream(self, demo_manifest, tmp_path, monkeypatch):
        counts = {"gmm_cluster": 0, "read_embeddings": 0, "diarize_embeddings": 0}

        def counted(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        counted(farfield.diarize, "gmm_cluster")
        counted(farfield.pipeline, "read_embeddings")
        # the binding that the benchmark's diarize.cell span wraps
        counted(farfield.pipeline, "diarize_embeddings")
        session = load_manifest(demo_manifest)[0]
        config = load_config()
        run_diarize_grid(session, config, tmp_path)
        streams = len(session["embeddings"])  # 2 channels x 2 VAD sources x 2 variants
        assert streams == 8
        assert counts == {"gmm_cluster": streams, "read_embeddings": streams,
                          "diarize_embeddings": streams}
        cells = sorted(p.name for p in (tmp_path / "diarize" / "demo").glob("ch*.rttm"))
        assert len(cells) == streams * len(config["diarize"]["reject_thrs"])

    def test_no_record_objects_between_read_and_cells(self, demo_manifest, tmp_path,
                                                      monkeypatch):
        built = []
        original = EmbeddingEntry.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(EmbeddingEntry, "__new__", counted)
        EmbeddingEntry(0.0, 0.5, np.ones((1, 2)))
        assert len(built) == 1  # the count sees a construction
        built.clear()
        config = load_config()
        run_diarize_grid(load_manifest(demo_manifest)[0], config, tmp_path)
        assert built == []
        cells = list((tmp_path / "diarize" / "demo").glob("ch*.rttm"))
        assert len(cells) == 8 * len(config["diarize"]["reject_thrs"])
