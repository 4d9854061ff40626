"""The benchmark workloads: one repetition each, and its output checks.

Every call into farfield goes through a module attribute looked up at call
time (``farfield.pipeline.run_full``), so the tracer's wrappers see it.
A repetition returns the wall seconds of its first run and of its rerun (None
where the workload has no rerun), and the outputs that ``check`` then
inspects, outside the timed and traced calls. A repetition becomes the
reference for the later ones only once it has passed every check.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np

import farfield.audio
import farfield.metrics
import farfield.pipeline
import farfield.segments
from inputs import FS, HYPOTHESES_SECONDS


class CheckFailed(Exception):
    """An output of a repetition is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _session(inputs: Path) -> dict:
    return farfield.pipeline.load_manifest(inputs / "manifest.json")[0]


def _output_bytes(report: dict):
    """The final RTTM's bytes and the GSS output files' bytes of one run."""
    return (Path(report["final_rttm"]).read_bytes(),
            [Path(p).read_bytes() for p in report["gss_outputs"]])


def _reference(session: dict):
    sid = session["session_id"]
    return farfield.segments.read_rttm(session["reference_rttm"])[sid]


class Meeting:
    """run_full into a fresh run dir, then once more into the same dir."""

    def __init__(self, inputs: Path):
        self.session = _session(inputs)
        self.config = farfield.pipeline.load_config()
        self.reference = _reference(self.session)
        self.images = np.load(inputs / "images.npy")  # (speakers, channels, samples)
        self.audio_s = self.images.shape[2] / FS
        self.baseline = None  # (final RTTM bytes, GSS output bytes)
        self.quality = None

    def repetition(self, run_dir: Path):
        t0 = perf_counter()
        first = farfield.pipeline.run_full(self.session, self.config, run_dir)
        t1 = perf_counter()
        first_outputs = _output_bytes(first)  # the rerun overwrites them
        t2 = perf_counter()
        again = farfield.pipeline.run_full(self.session, self.config, run_dir)
        t3 = perf_counter()
        return t1 - t0, t3 - t2, (first_outputs, again)

    def check(self, outputs) -> None:
        first_outputs, report = outputs
        rerun_outputs = _output_bytes(report)
        _require(rerun_outputs[0] == first_outputs[0],
                 "final RTTM of the rerun differs from the first run")
        _require(rerun_outputs[1] == first_outputs[1],
                 "GSS outputs of the rerun differ from the first run")
        sid = self.session["session_id"]
        final = farfield.segments.read_rttm(report["final_rttm"])[sid]
        turns = final.sorted_turns()
        _require(len(report["gss_outputs"]) == len(turns),
                 f"{len(report['gss_outputs'])} GSS outputs for {len(turns)} final turns")
        waves = [farfield.audio.read_wav(p).samples[0] for p in report["gss_outputs"]]
        _require(all(np.all(np.isfinite(w)) and len(w) for w in waves),
                 "a GSS output is empty or not finite")
        if self.baseline is None:  # the first repetition that passed every check
            quality = {"der": report["der"], "si_sdr_db": self._si_sdr(final, turns, waves)}
            self.baseline, self.quality = rerun_outputs, quality
        _require(rerun_outputs[0] == self.baseline[0], "final RTTM differs between repetitions")
        _require(rerun_outputs[1] == self.baseline[1], "GSS outputs differ between repetitions")
        _require(report["der"] == self.quality["der"], "DER differs between repetitions")

    def _si_sdr(self, final, turns, waves) -> float:
        """Mean SI-SDR of the GSS outputs against the reverberant speaker images.

        The reference channel is the one the output matches best, since the
        MVDR picks its reference channel per turn inside farfield.gss.
        """
        mapping = farfield.metrics.optimal_speaker_mapping(self.reference, final)
        scores = []
        for turn, wave in zip(turns, waves):
            if turn.speaker not in mapping:
                continue  # a hypothesis speaker no reference speaker maps to
            image = self.images[int(mapping[turn.speaker][3:])]
            i0 = int(round(turn.start * FS))
            ref = image[:, i0 : i0 + len(wave)].astype(np.float64)
            if ref.shape[1] != len(wave) or not np.any(ref):
                continue
            scores.append(max(farfield.metrics.si_sdr(wave, ref[ch]) for ch in range(len(ref))))
        _require(bool(scores), "no GSS output maps to a reference speaker")
        return float(np.mean(scores))


class Hypotheses:
    """run_diarize_grid, run_fusion and compute_der into a fresh run dir."""

    def __init__(self, inputs: Path):
        self.session = _session(inputs)
        self.config = farfield.pipeline.load_config()
        self.reference = _reference(self.session)
        self.audio_s = HYPOTHESES_SECONDS
        self.final_rttm = None
        self.quality = None

    def repetition(self, run_dir: Path):
        t0 = perf_counter()
        grid = farfield.pipeline.run_diarize_grid(self.session, self.config, run_dir)
        fusion = farfield.pipeline.run_fusion(self.session, self.config, run_dir,
                                              grid["per_channel"])
        der = farfield.metrics.compute_der(
            self.reference, fusion["final"], self.config["score"]["collar"]).der
        t1 = perf_counter()
        return t1 - t0, None, (Path(fusion["final_path"]).read_bytes(), der)

    def check(self, outputs) -> None:
        rttm, der = outputs
        if self.final_rttm is None:  # the first repetition that passed every check
            self.final_rttm, self.quality = rttm, {"der": der}
        _require(rttm == self.final_rttm and der == self.quality["der"],
                 "final RTTM or DER differs between repetitions")


WORKLOADS = {"meeting": Meeting, "hypotheses": Hypotheses}
