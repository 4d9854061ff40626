import itertools

import numpy as np
import pytest

from farfield.errors import DataError
from farfield.fusion import (
    FusionInput,
    best_permutation,
    doverlap_fuse,
    map_labels_to_anchor,
    overlap_duration_matrix,
    soft_fuse,
)
from farfield.segments import Segmentation, SoftActivity, Turn, segmentation_to_activity


def _seg(turns, session="s"):
    return Segmentation(session, tuple(Turn(spk, a, b) for spk, a, b in turns))


class TestFusionInput:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            FusionInput(())

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            FusionInput((_seg([("a", 0, 1)]),), (1.0, 2.0))

    def test_mixed_sessions_rejected(self):
        with pytest.raises(DataError):
            FusionInput((_seg([("a", 0, 1)], "s1"), _seg([("a", 0, 1)], "s2")))

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_weight_not_positive_and_finite_rejected(self, weight):
        with pytest.raises(DataError, match="positive and finite"):
            FusionInput((_seg([("a", 0, 1)]), _seg([("b", 0, 1)])), (weight, 1.0))

    def test_default_weights_uniform(self):
        fi = FusionInput((_seg([("a", 0, 1)]), _seg([("b", 0, 1)])))
        assert fi.weights == (1.0, 1.0)


class TestLabelMapping:
    def test_overlap_matrix_hand_computed(self):
        a = _seg([("x", 0, 10), ("y", 10, 20)])
        b = _seg([("p", 0, 8), ("q", 8, 20)])
        matrix, spk_a, spk_b = overlap_duration_matrix(a, b)
        ia, ib = {s: i for i, s in enumerate(spk_a)}, {s: i for i, s in enumerate(spk_b)}
        assert matrix[ia["x"], ib["p"]] == pytest.approx(8.0)
        assert matrix[ia["x"], ib["q"]] == pytest.approx(2.0)
        assert matrix[ia["y"], ib["p"]] == pytest.approx(0.0)
        assert matrix[ia["y"], ib["q"]] == pytest.approx(10.0)

    def test_mapping_picks_max_weight_assignment(self):
        hyp = _seg([("1", 0, 10), ("2", 10, 20)])
        anchor = _seg([("a", 0, 9), ("b", 9, 20)])
        mapped = map_labels_to_anchor(hyp, anchor, "h0")
        assert {t.speaker for t in mapped.turns if t.start == 0} == {"a"}
        assert {t.speaker for t in mapped.turns if t.start == 10} == {"b"}

    def test_zero_overlap_speaker_keeps_unique_label(self):
        hyp = _seg([("1", 0, 10), ("2", 30, 40)])
        anchor = _seg([("a", 0, 10)])
        mapped = map_labels_to_anchor(hyp, anchor, "h3")
        labels = {t.speaker for t in mapped.turns}
        assert labels == {"a", "h3:2"}


def _oracle_fuse(hyps, weights):
    """Independent region-voting oracle: midpoint activity, round-half-up count,
    top-k speakers by accrued weight with lexicographic tie-break."""
    bounds = sorted({x for h in hyps for t in h.turns for x in (t.start, t.end)})
    total = sum(weights)
    speech = {}
    for left, right in zip(bounds[:-1], bounds[1:]):
        mid = (left + right) / 2
        sets = [{t.speaker for t in h.turns if t.start <= mid < t.end} for h in hyps]
        k = int(np.floor(sum(w * len(s) for w, s in zip(weights, sets)) / total + 0.5))
        acc = {}
        for w, s in zip(weights, sets):
            for spk in s:
                acc[spk] = acc.get(spk, 0.0) + w
        for spk in sorted(acc, key=lambda s: (-acc[s], s))[:k]:
            speech.setdefault(spk, []).append((left, right))
    turns = []
    for spk, spans in speech.items():
        start, end = spans[0]
        for left, right in spans[1:]:
            if abs(left - end) < 1e-12:
                end = right
            else:
                turns.append(Turn(spk, start, end))
                start, end = left, right
        turns.append(Turn(spk, start, end))
    return sorted(turns, key=lambda t: (t.start, t.speaker))


class TestDoverlapFuse:
    def test_single_hypothesis_identity(self):
        seg = _seg([("a", 0, 5), ("b", 3, 8)])
        assert doverlap_fuse(FusionInput((seg,))).turns == seg.turns

    def test_identical_hypotheses_fixed_point(self):
        seg = _seg([("a", 0.0, 4.5), ("b", 3.25, 8.0), ("a", 9.0, 12.0)])
        fused = doverlap_fuse(FusionInput((seg, seg, seg)))
        assert fused.merged_per_speaker() == seg.merged_per_speaker()

    def test_majority_outvotes_outlier(self):
        good = _seg([("a", 0, 10)])
        bad = _seg([("z", 0, 10), ("y", 0, 10)])
        fused = doverlap_fuse(FusionInput((good, good, bad)))
        assert fused.num_speakers == 1
        assert fused.total_speech() == pytest.approx(10.0)

    def test_weighted_anchor_wins_label_space(self):
        heavy = _seg([("alpha", 0, 10)])
        light = _seg([("x", 0, 10)])
        fused = doverlap_fuse(FusionInput((light, heavy), (1.0, 5.0)))
        assert list(fused.speakers) == ["alpha"]

    def test_overlap_region_keeps_two_speakers(self):
        seg = _seg([("a", 0, 6), ("b", 4, 10)])
        fused = doverlap_fuse(FusionInput((seg, seg)))
        mid = {t.speaker for t in fused.turns if t.start <= 5 < t.end}
        assert mid == {"a", "b"}

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n_hyp = int(rng.integers(2, 5))
            hyps = []
            for _ in range(n_hyp):
                turns, t = [], 0.0
                for spk in range(int(rng.integers(1, 4))):
                    # continuous times avoid midpoint/boundary ties
                    start = t + rng.uniform(0.1, 1.0)
                    end = start + rng.uniform(0.5, 3.0)
                    turns.append((f"s{spk}", start, end))
                    t = start + rng.uniform(0.0, 2.0)
                hyps.append(_seg(turns))
            weights = tuple(rng.uniform(0.5, 2.0, n_hyp).tolist())
            anchor = int(np.argmax(weights))
            mapped = [
                h if i == anchor else map_labels_to_anchor(h, hyps[anchor], f"h{i}")
                for i, h in enumerate(hyps)
            ]
            fused = doverlap_fuse(FusionInput(tuple(hyps), weights))
            expected = _oracle_fuse(mapped, weights)
            got = sorted(fused.turns, key=lambda t: (t.start, t.speaker))
            assert len(got) == len(expected), f"trial {trial}"
            for a, b in zip(got, expected):
                assert a.speaker == b.speaker
                assert a.start == pytest.approx(b.start)
                assert a.end == pytest.approx(b.end)


def _act(probs, step=0.5, session="s"):
    return SoftActivity(session, np.asarray(probs, dtype=float), step)


class TestBestPermutation:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a = _act(rng.uniform(size=(n, 40)))
            b = _act(rng.uniform(size=(n, 40)))
            perm = best_permutation(a, b)

            def score(p):
                total = 0.0
                for i, j in enumerate(p):
                    x, y = a.probs[i], b.probs[j]
                    x = x - x.mean()
                    y = y - y.mean()
                    total += x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
                return total

            best = max(itertools.permutations(range(n)), key=score)
            assert score(tuple(perm)) == pytest.approx(score(best))

    def test_identity_for_identical(self):
        a = _act([[1, 0, 0, 1], [0, 1, 1, 0]])
        np.testing.assert_array_equal(best_permutation(a, a), [0, 1])

    def test_swapped_rows_detected(self):
        a = _act([[1.0, 0, 0, 1], [0, 1.0, 1, 0]])
        b = _act(a.probs[::-1].copy())
        np.testing.assert_array_equal(best_permutation(a, b), [1, 0])

    def test_constant_rows_correlate_zero(self):
        a = _act([[0.5, 0.5, 0.5], [1.0, 0.0, 1.0]])
        b = _act([[1.0, 0.0, 1.0], [0.3, 0.3, 0.3]])
        perm = best_permutation(a, b)
        assert perm[1] == 0  # the informative pair is matched

    def test_frame_mismatch_rejected(self):
        with pytest.raises(DataError):
            best_permutation(_act([[1.0, 0.0]]), _act([[1.0, 0.0, 1.0]]))


class TestSoftFuse:
    def _ref(self):
        return _seg([("a", 0.0, 2.0), ("b", 2.0, 4.0)])

    def test_count_filter_drops_wrong_count(self):
        ref = self._ref()
        good = segmentation_to_activity(ref, 0.5)
        bad = _act(np.vstack([good.probs, np.ones((1, good.num_frames))]))
        fused = soft_fuse([good, bad], ref)
        np.testing.assert_allclose(fused.probs, good.probs)

    def test_average_of_permuted_copies(self):
        ref = self._ref()
        base = segmentation_to_activity(ref, 0.5)
        swapped = _act(base.probs[::-1].copy())
        fused = soft_fuse([base, swapped], ref)
        np.testing.assert_allclose(fused.probs, base.probs)

    def test_mixed_frame_steps_rejected(self):
        # one 4 s speech at 0.5 s and at 0.25 s steps: averaging the rows
        # would describe 8 s of activity
        ref = _seg([("a", 0.0, 4.0)])
        coarse, fine = (segmentation_to_activity(ref, step) for step in (0.5, 0.25))
        with pytest.raises(DataError, match=r"different frame steps \[0.25, 0.5\]"):
            soft_fuse([coarse, fine], ref)

    def test_fallback_warns_and_uses_reference(self):
        ref = self._ref()
        bad = _act(np.ones((5, 8)))
        with pytest.warns(UserWarning):
            fused = soft_fuse([bad], ref)
        np.testing.assert_allclose(fused.probs, segmentation_to_activity(ref, 0.5).probs)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(9)
        ref = self._ref()
        acts = []
        base = segmentation_to_activity(ref, 0.5).probs
        for _ in range(4):
            noisy = np.clip(base + 0.2 * rng.uniform(-1, 1, base.shape), 0, 1)
            acts.append(_act(noisy))
        acts = [a for a in acts if a.active_speaker_count(0.5) == 2]
        if acts:
            fused = soft_fuse(acts, ref)
            assert np.all(fused.probs >= 0) and np.all(fused.probs <= 1)

