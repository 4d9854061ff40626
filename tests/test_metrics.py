import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield.errors import DataError
from farfield.metrics import (
    SI_SDR_CAP_DB,
    compute_der,
    optimal_speaker_mapping,
    si_sdr,
    speaker_count_accuracy,
)
from farfield.segments import Segmentation, Turn


def _seg(turns, session="s"):
    return Segmentation(session, tuple(Turn(spk, a, b) for spk, a, b in turns))


class TestDer:
    def test_perfect_hypothesis_zero_der(self):
        ref = _seg([("a", 0, 10), ("b", 12, 20)])
        hyp = _seg([("x", 0, 10), ("y", 12, 20)])
        assert compute_der(ref, hyp).der == pytest.approx(0.0)

    def test_empty_hypothesis_all_missed(self):
        ref = _seg([("a", 0, 10)])
        out = compute_der(ref, _seg([]))
        assert out.missed == pytest.approx(10.0)
        assert out.der == pytest.approx(1.0)

    def test_hand_computed_partial_miss(self):
        # hyp covers 6 of 10 seconds -> missed 4, DER 0.4
        ref = _seg([("a", 0, 10)])
        hyp = _seg([("x", 0, 6)])
        out = compute_der(ref, hyp)
        assert out.missed == pytest.approx(4.0)
        assert out.false_alarm == pytest.approx(0.0)
        assert out.confusion == pytest.approx(0.0)
        assert out.der == pytest.approx(0.4)

    def test_hand_computed_false_alarm(self):
        ref = _seg([("a", 0, 10)])
        hyp = _seg([("x", 0, 10), ("y", 10, 13)])
        out = compute_der(ref, hyp)
        assert out.false_alarm == pytest.approx(3.0)
        assert out.der == pytest.approx(0.3)

    def test_hand_computed_confusion(self):
        # second half attributed to the wrong mapped speaker
        ref = _seg([("a", 0, 10), ("b", 10, 20)])
        hyp = _seg([("x", 0, 10), ("x", 10, 15), ("y", 15, 20)])
        out = compute_der(ref, hyp)
        assert out.confusion == pytest.approx(5.0)
        assert out.der == pytest.approx(0.25)

    def test_overlap_counted_per_speaker(self):
        # two simultaneous ref speakers, hyp finds only one -> half missed
        ref = _seg([("a", 0, 10), ("b", 0, 10)])
        hyp = _seg([("x", 0, 10)])
        out = compute_der(ref, hyp)
        assert out.total_ref == pytest.approx(20.0)
        assert out.missed == pytest.approx(10.0)
        assert out.der == pytest.approx(0.5)

    def test_collar_forgives_boundary_jitter(self):
        ref = _seg([("a", 0, 10)])
        hyp = _seg([("x", 0.2, 9.8)])
        assert compute_der(ref, hyp, collar=0.0).der > 0
        assert compute_der(ref, hyp, collar=0.25).der == pytest.approx(0.0)

    def test_collar_shrinks_scored_reference(self):
        ref = _seg([("a", 0, 10)])
        out = compute_der(ref, _seg([("x", 0, 10)]), collar=1.0)
        assert out.total_ref == pytest.approx(8.0)

    def test_label_mapping_is_optimal(self):
        ref = _seg([("a", 0, 10), ("b", 10, 30)])
        hyp = _seg([("p", 0, 10), ("p", 10, 12), ("q", 12, 30)])
        mapping = optimal_speaker_mapping(ref, hyp)
        # q->b (18s) beats p->b (2s); p->a (10s)
        assert mapping == {"p": "a", "q": "b"}

    def test_errors(self):
        with pytest.raises(DataError):
            compute_der(_seg([]), _seg([("x", 0, 1)]))
        with pytest.raises(DataError):
            compute_der(_seg([("a", 0, 1)]), _seg([]), collar=-0.5)
        with pytest.raises(DataError):
            compute_der(_seg([("a", 0, 1)]), _seg([]), collar=5.0)
        for collar in (float("nan"), float("inf")):
            with pytest.raises(DataError, match="finite"):
                compute_der(_seg([("a", 0, 1)]), _seg([("a", 0, 1)]), collar=collar)

    @given(shift=st.floats(-0.2, 0.2), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_der_nonnegative_and_bounded_miss(self, shift, data):
        n = data.draw(st.integers(1, 4))
        turns = []
        t = 0.0
        for i in range(n):
            start = t + data.draw(st.floats(0.5, 1.5))
            end = start + data.draw(st.floats(1.0, 3.0))
            turns.append((f"s{i % 2}", start, end))
            t = end
        ref = _seg(turns)
        hyp = _seg([(s, a + shift, b + shift) for s, a, b in turns])
        out = compute_der(ref, hyp)
        assert out.der >= 0
        assert out.missed <= out.total_ref + 1e-9


class TestSpeakerCountAccuracy:
    def test_all_correct(self):
        assert speaker_count_accuracy([(4, 4), (3, 3)]) == 1.0

    def test_half_correct(self):
        assert speaker_count_accuracy([(4, 4), (3, 5)]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            speaker_count_accuracy([])


class TestSiSdr:
    def test_exact_match_capped(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        assert si_sdr(x, x) == SI_SDR_CAP_DB

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        assert si_sdr(3.7 * x, x) == SI_SDR_CAP_DB

    def test_known_snr_recovered(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal(200000)
        noise = rng.standard_normal(200000)
        noise -= (noise @ ref) / (ref @ ref) * ref  # orthogonalize exactly
        for snr_db in (0.0, 10.0, 20.0):
            sigma = np.linalg.norm(ref) / np.linalg.norm(noise) * 10 ** (-snr_db / 20)
            est = ref + sigma * noise
            assert si_sdr(est, ref) == pytest.approx(snr_db, abs=1e-6)

    def test_orthogonal_estimate_strongly_negative(self):
        ref = np.array([1.0, 0.0, -1.0, 0.0] * 100)
        est = np.array([0.0, 1.0, 0.0, -1.0] * 100)
        assert si_sdr(est, ref) < -SI_SDR_CAP_DB / 2

    def test_errors(self):
        with pytest.raises(DataError):
            si_sdr(np.ones(5), np.ones(6))
        with pytest.raises(DataError):
            si_sdr(np.ones(5), np.zeros(5))
