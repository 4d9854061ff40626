"""segments.sweep and the scores built on it, against a brute-force midpoint scan.

The reference below is the region logic DER and fusion used before the sweep:
every distinct boundary is a cut, and a speaker is active in a region if one of
its turns contains the region's midpoint. Times lie on a 0.25 s grid, so turns
touch and overlap exactly and every sum is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from farfield.errors import DataError
from farfield.fusion import overlap_duration_matrix
from farfield.metrics import compute_der, optimal_speaker_mapping
from farfield.segments import Segmentation, Turn, sweep

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)


def _active_at(seg, mid):
    return {t.speaker for t in seg.turns if t.start <= mid < t.end}


def _midpoint_regions(*segs):
    points = sorted({p for seg in segs for t in seg.turns for p in (t.start, t.end)})
    for left, right in zip(points, points[1:]):
        mid = 0.5 * (left + right)
        yield left, right, tuple(_active_at(seg, mid) for seg in segs)


def _reference_der(ref, hyp, collar):
    """(missed, false alarm, confusion, total ref, mapping) by the midpoint scan."""
    points = {p for seg in (ref, hyp) for t in seg.turns for p in (t.start, t.end)}
    zones = [(b - collar, b + collar) for t in ref.turns for b in (t.start, t.end)]
    if collar > 0:
        points.update(p for zone in zones for p in zone)
    points = sorted(p for p in points if p >= 0.0)
    regions = []
    for left, right in zip(points, points[1:]):
        mid = 0.5 * (left + right)
        if right - left > 1e-12 and not any(lo < mid < hi for lo, hi in zones):
            regions.append((right - left, _active_at(ref, mid), _active_at(hyp, mid)))
    ref_spk, hyp_spk = ref.speakers, hyp.speakers
    matrix = np.zeros((len(hyp_spk), len(ref_spk)))
    for dur, ref_active, hyp_active in regions:
        for h in hyp_active:
            for r in ref_active:
                matrix[hyp_spk.index(h), ref_spk.index(r)] += dur
    rows, cols = linear_sum_assignment(-matrix)
    mapping = {hyp_spk[r]: ref_spk[c] for r, c in zip(rows, cols) if matrix[r, c] > 0}
    sums = np.zeros(4)
    for dur, ref_active, hyp_active in regions:
        hyp_active = {mapping.get(s, f"__unmapped__{s}") for s in hyp_active}
        n_ref, n_hyp, n_correct = len(ref_active), len(hyp_active), len(ref_active & hyp_active)
        sums += dur * np.array([max(0, n_ref - n_hyp), max(0, n_hyp - n_ref),
                                min(n_ref, n_hyp) - n_correct, n_ref])
    return (*sums, mapping)


# turns on a 0.25 s grid from -2 s to 10 s; one speaker's turns may overlap
_turn = st.builds(
    lambda spk, start, length: Turn(spk, 0.25 * start, 0.25 * (start + length)),
    st.sampled_from("abc"), st.integers(-8, 36), st.integers(1, 12),
)
_segmentation = st.lists(_turn, max_size=7).map(lambda turns: Segmentation("s", tuple(turns)))


class TestSweep:
    @FUZZ
    @given(segs=st.lists(_segmentation, min_size=1, max_size=4))
    def test_regions_match_midpoint_scan(self, segs):
        assert list(sweep(*segs)) == list(_midpoint_regions(*segs))

    def test_touching_and_self_overlapping_turns(self):
        a = Segmentation("s", (Turn("x", 0.0, 2.0), Turn("x", 1.0, 3.0), Turn("y", 3.0, 4.0)))
        b = Segmentation("s", (Turn("z", -1.0, 1.0),))
        assert list(sweep(a, b)) == [
            (-1.0, 0.0, (frozenset(), {"z"})),
            (0.0, 1.0, ({"x"}, {"z"})),
            (1.0, 2.0, ({"x"}, set())),
            (2.0, 3.0, ({"x"}, set())),
            (3.0, 4.0, ({"y"}, set())),
        ]

    def test_no_turns_no_regions(self):
        assert list(sweep(Segmentation("s"), Segmentation("s"))) == []


class TestOverlapDurationMatrix:
    @FUZZ
    @given(a=_segmentation, b=_segmentation)
    def test_matches_midpoint_scan(self, a, b):
        expected = np.zeros((len(a.speakers), len(b.speakers)))
        for left, right, (active_a, active_b) in _midpoint_regions(a, b):
            for sa in active_a:
                for sb in active_b:
                    expected[a.speakers.index(sa), b.speakers.index(sb)] += right - left
        np.testing.assert_array_equal(overlap_duration_matrix(a, b)[0], expected)

    def test_self_overlap_counted_once(self):
        a = Segmentation("s", (Turn("x", 0.0, 2.0), Turn("x", 1.0, 3.0)))
        b = Segmentation("s", (Turn("y", 0.0, 3.0),))
        matrix, _, _ = overlap_duration_matrix(a, b)
        assert matrix.tolist() == [[3.0]]


class TestDerAgainstMidpointScan:
    @FUZZ
    @given(ref=_segmentation, hyp=_segmentation, collar=st.sampled_from([0.0, 0.25, 0.5]))
    def test_matches_reference(self, ref, hyp, collar):
        if not ref.turns:
            with pytest.raises(DataError):
                compute_der(ref, hyp, collar)
            return
        *sums, mapping = _reference_der(ref, hyp, collar)
        if sums[3] <= 0:
            with pytest.raises(DataError):
                compute_der(ref, hyp, collar)
            return
        out = compute_der(ref, hyp, collar)
        assert [out.missed, out.false_alarm, out.confusion, out.total_ref] == sums
        assert optimal_speaker_mapping(ref, hyp, collar) == mapping
