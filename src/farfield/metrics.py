"""Diarization and separation scoring: DER, speaker-count accuracy, SI-SDR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from farfield.errors import DataError
from farfield.segments import Segmentation, coactivity_matrix, positive_matching, sweep

SI_SDR_CAP_DB = 60.0


@dataclass(frozen=True)
class DerBreakdown:
    missed: float
    false_alarm: float
    confusion: float
    total_ref: float

    @property
    def der(self) -> float:
        return (self.missed + self.false_alarm + self.confusion) / self.total_ref


def _scored_regions(ref: Segmentation, hyp: Segmentation, collar: float) -> list:
    """(duration, ref speakers, hyp speakers) of every scored region, in time order.

    Regions before 0, of width <= 1e-12 or inside a collar zone around a
    reference boundary are not scored.
    """
    zones = [("collar", b - collar, b + collar) for t in ref.turns for b in (t.start, t.end)]
    zones = Segmentation(ref.session_id, tuple(zones) if collar > 0 else ())
    return [
        (right - left, ref_active, hyp_active)
        for left, right, (ref_active, hyp_active, in_collar) in sweep(ref, hyp, zones)
        if left >= 0.0 and right - left > 1e-12 and not in_collar
    ]


def _mapping(regions: list, ref: Segmentation, hyp: Segmentation) -> dict:
    ref_spk, hyp_spk = ref.speakers, hyp.speakers
    matrix = coactivity_matrix(((d, h, r) for d, r, h in regions), hyp_spk, ref_spk)
    return positive_matching(matrix, hyp_spk, ref_spk)


def optimal_speaker_mapping(ref: Segmentation, hyp: Segmentation, collar: float = 0.0) -> dict:
    """Hypothesis-to-reference label mapping maximizing correctly attributed time."""
    return _mapping(_scored_regions(ref, hyp, collar), ref, hyp)


def check_collar(collar: float) -> None:
    """A scoring collar is finite and at least 0."""
    if not 0 <= collar < np.inf:  # NaN fails too
        raise DataError(f"collar must be finite and >= 0, got {collar}")


def compute_der(ref: Segmentation, hyp: Segmentation, collar: float = 0.0) -> DerBreakdown:
    """Overlap-aware diarization error rate with optimal label mapping."""
    check_collar(collar)
    if not ref.turns:
        raise DataError("empty reference: DER undefined")
    regions = _scored_regions(ref, hyp, collar)
    mapping = _mapping(regions, ref, hyp)
    missed = false_alarm = confusion = total_ref = 0.0
    for dur, ref_active, hyp_active in regions:
        hyp_active = {mapping.get(s, f"__unmapped__{s}") for s in hyp_active}
        n_ref, n_hyp = len(ref_active), len(hyp_active)
        n_correct = len(ref_active & hyp_active)
        total_ref += dur * n_ref
        missed += dur * max(0, n_ref - n_hyp)
        false_alarm += dur * max(0, n_hyp - n_ref)
        confusion += dur * (min(n_ref, n_hyp) - n_correct)
    if total_ref <= 0:
        raise DataError("reference speech entirely inside collars: DER undefined")
    return DerBreakdown(missed=missed, false_alarm=false_alarm,
                        confusion=confusion, total_ref=total_ref)


def speaker_count_accuracy(pairs) -> float:
    pairs = list(pairs)
    if not pairs:
        raise DataError("need at least one (ref, hyp) count pair")
    return sum(1 for r, h in pairs if r == h) / len(pairs)


def si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Scale-invariant SDR in dB, capped at 60 dB for (near-)exact matches."""
    estimate = np.asarray(estimate, dtype=np.float64).ravel()
    reference = np.asarray(reference, dtype=np.float64).ravel()
    if estimate.shape != reference.shape:
        raise DataError("estimate and reference must have equal lengths")
    ref_energy = float(np.dot(reference, reference))
    if ref_energy == 0.0:
        raise DataError("zero reference signal")
    scale = float(np.dot(estimate, reference)) / ref_energy
    target = scale * reference
    residual = estimate - target
    num = float(np.dot(target, target))
    den = float(np.dot(residual, residual))
    if den <= num * 10.0 ** (-SI_SDR_CAP_DB / 10.0):
        return SI_SDR_CAP_DB
    if num <= den * 10.0 ** (-SI_SDR_CAP_DB / 10.0):
        return -SI_SDR_CAP_DB
    return 10.0 * np.log10(num / den)
