"""Fusing diarization hypotheses: hard label voting and soft-activity averaging."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from farfield.errors import DataError
from farfield.segments import (Segmentation, SoftActivity, Turn, check_threshold,
                               coactivity_matrix, linear_sum_assignment, positive_matching,
                               segmentation_to_activity, sweep)


@dataclass(frozen=True)
class FusionInput:
    hypotheses: tuple
    weights: tuple = ()

    def __post_init__(self):
        hypotheses = tuple(self.hypotheses)
        if not hypotheses:
            raise DataError("need at least one hypothesis")
        weights = tuple(self.weights) if self.weights else (1.0,) * len(hypotheses)
        if len(weights) != len(hypotheses):
            raise DataError("one weight per hypothesis required")
        if not all(0 < w < math.inf for w in weights):
            raise DataError(f"weights must be positive and finite, got {weights}")
        sessions = {h.session_id for h in hypotheses}
        if len(sessions) > 1:
            raise DataError(f"hypotheses span multiple sessions: {sorted(sessions)}")
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "weights", weights)


def overlap_duration_matrix(a: Segmentation, b: Segmentation):
    """Total co-active duration for every (speaker of a, speaker of b) pair.

    A speaker's overlapping turns count once, as in the DER and the vote.
    """
    spk_a, spk_b = a.speakers, b.speakers
    regions = ((right - left, *active) for left, right, active in sweep(a, b))
    return coactivity_matrix(regions, spk_a, spk_b), spk_a, spk_b


def map_labels_to_anchor(hyp: Segmentation, anchor: Segmentation, tag: str) -> Segmentation:
    """Relabel hyp speakers into the anchor's label space.

    Max-weight matching on pairwise co-active duration; pairs with zero
    overlap stay unmapped and keep a unique label.
    """
    matrix, spk_h, spk_a = overlap_duration_matrix(hyp, anchor)
    mapping = positive_matching(matrix, spk_h, spk_a)
    for s in spk_h:
        mapping.setdefault(s, f"{tag}:{s}")
    return hyp.relabeled(mapping)


def doverlap_fuse(fusion_input: FusionInput) -> Segmentation:
    """Rank-weighted label mapping and region voting over diarization hypotheses."""
    hyps = list(fusion_input.hypotheses)
    weights = list(fusion_input.weights)
    if len(hyps) == 1:
        return hyps[0]

    anchor_idx = int(np.argmax(weights))
    anchor = hyps[anchor_idx]
    mapped = [hyp if i == anchor_idx else map_labels_to_anchor(hyp, anchor, tag=f"h{i}")
              for i, hyp in enumerate(hyps)]

    total_weight = sum(weights)
    turns = []
    open_spans: dict = {}  # speaker -> start of its current fused turn
    for left, right, active_sets in sweep(*mapped):
        votes = sum(w * len(a) for w, a in zip(weights, active_sets)) / total_weight
        count = math.floor(votes + 0.5)  # round half up
        accrued: dict = {}
        for w, active in zip(weights, active_sets):
            for s in active:
                accrued[s] = accrued.get(s, 0.0) + w
        winners = sorted(accrued, key=lambda s: (-accrued[s], s))[:count]
        for s in [s for s in open_spans if s not in winners]:
            turns.append(Turn(s, open_spans.pop(s), left))
        for s in winners:
            open_spans.setdefault(s, left)
    for s, start in open_spans.items():
        turns.append(Turn(s, start, right))
    return Segmentation(
        hyps[0].session_id, tuple(sorted(turns, key=lambda t: (t.start, t.speaker)))
    )


def _pearson_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations between rows; constant rows correlate 0."""
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    corr = a @ b.T
    denom = np.outer(na, nb)
    return np.divide(corr, denom, out=np.zeros_like(corr), where=denom > 0)


def best_permutation(a: SoftActivity, b: SoftActivity) -> np.ndarray:
    """Speaker permutation pi maximizing sum_s corr(a_s, b_pi(s))."""
    if a.num_frames != b.num_frames:
        raise DataError("activities must have equal frame counts")
    pa, pb = a.probs, b.probs
    n = max(a.num_speakers, b.num_speakers)
    if a.num_speakers < n:
        pa = np.vstack([pa, np.zeros((n - a.num_speakers, a.num_frames))])
    if b.num_speakers < n:
        pb = np.vstack([pb, np.zeros((n - b.num_speakers, b.num_frames))])
    corr = _pearson_matrix(pa, pb)
    rows, cols = linear_sum_assignment(-corr)
    perm = np.empty(n, dtype=np.int64)
    perm[rows] = cols
    return perm


def soft_fuse(activities, reference: Segmentation, threshold: float = 0.5) -> SoftActivity:
    """Average speaker-permuted activities whose speaker count matches the reference.

    Falls back to the reference's own binary activity when every candidate
    is filtered out.
    """
    check_threshold(threshold)
    activities = list(activities)
    if not activities:
        raise DataError("need at least one soft activity")
    steps = sorted({a.frame_step for a in activities})
    if len(steps) > 1:
        raise DataError(f"soft activities have different frame steps {steps}")
    step = steps[0]
    ref_count = reference.num_speakers
    survivors = [a for a in activities if a.active_speaker_count(threshold) == ref_count]
    if not survivors:
        warnings.warn(
            "all soft activities filtered out by speaker count; "
            "falling back to the reference's binary activity",
            stacklevel=2,
        )
        return segmentation_to_activity(reference, step)

    n_frames = max(a.num_frames for a in survivors)
    ref_act = segmentation_to_activity(reference, step, num_frames=n_frames)
    accumulated = np.zeros((max(ref_count, 1), n_frames))
    for act in survivors:
        probs = act.probs
        if act.num_frames < n_frames:
            probs = np.pad(probs, ((0, 0), (0, n_frames - act.num_frames)))
        padded = SoftActivity(act.session_id, probs, step)
        perm = best_permutation(ref_act, padded)
        aligned = np.zeros((max(ref_count, 1), n_frames))
        for s in range(ref_count):
            src = perm[s]
            if src < padded.num_speakers:
                aligned[s] = padded.probs[src]
        accumulated += aligned
    return SoftActivity(reference.session_id, accumulated / len(survivors), step)
