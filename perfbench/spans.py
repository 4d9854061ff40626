"""Spans recorded from outside the package, around the calls into each layer.

``Tracer.install`` replaces a function at the module binding its caller looks
up (``farfield.gss.cacgmm_em``, ``farfield.pipeline.wpe_dereverberate``, ...)
with a wrapper that records a span; ``Tracer.uninstall`` puts the originals
back, so untraced repetitions run the unmodified code. A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import os
import statistics
from time import perf_counter

import numpy as np

from farfield.simulate import SINC_HALF_WIDTH

SINC_TAPS = 2 * SINC_HALF_WIDTH + 1  # taps one image source adds to an RIR


def _size(path) -> int:
    return os.path.getsize(path)


def _wpe_stacked_bytes(args, kwargs, result):
    """Bytes of the largest (F, C*K, T_block) stacked tensor one WPE call builds."""
    tensor, cfg = args[0], args[1] if len(args) > 1 else kwargs["cfg"]
    block = max(cfg.taps + cfg.delay,
                int(round(cfg.block_length * tensor.sample_rate / tensor.frame_shift)))
    frames = min(tensor.num_frames, block)
    return {"stacked_bytes": tensor.num_bins * tensor.num_channels * cfg.taps * frames * 16}


def _turn_frames(args, kwargs, result):
    params = args[5] if len(args) > 5 else kwargs["stft_params"]
    return {"emitted_frames": result.num_samples / params.frame_shift}


def _cache(args, kwargs, result):
    return {"cache_hits": int(result["cached"]), "cache_misses": int(not result["cached"])}


def _rttm_turns(args, kwargs, result):
    segs = args[1]
    segs = [segs] if hasattr(segs, "turns") else list(segs)
    return {"turns_written": sum(len(s.turns) for s in segs)}


# (module, attribute, span name, counter). Each binding is the one the caller
# resolves at call time, e.g. run_preprocess calls farfield.pipeline.stft.
BINDINGS = [
    ("farfield.pipeline", "run_full", "pipeline.run", None),
    ("farfield.pipeline", "run_preprocess", "pipeline.preprocess", _cache),
    ("farfield.pipeline", "run_diarize_grid", "pipeline.diarize", _cache),
    ("farfield.pipeline", "run_fusion", "pipeline.fusion", None),
    ("farfield.pipeline", "run_gss", "pipeline.gss", None),
    ("farfield.pipeline", "compute_der", "pipeline.score", None),
    ("farfield.pipeline", "content_hash", "pipeline.hash",
     lambda a, k, r: {"hashed_bytes": sum(_size(p) for p in a[0])}),
    ("farfield.pipeline", "clip_normalize", "preprocess.clip", None),
    ("farfield.pipeline", "wpe_dereverberate", "preprocess.wpe", _wpe_stacked_bytes),
    ("farfield.pipeline", "envelope_variance_rank", "preprocess.rank", None),
    ("farfield.pipeline", "stft", "stft.stft", None),
    ("farfield.pipeline", "istft", "stft.istft", None),
    ("farfield.preprocess", "stft", "stft.stft", None),
    ("farfield.gss", "stft", "stft.stft",
     lambda a, k, r: {"gss_frames": r.num_frames}),
    ("farfield.gss", "istft", "stft.istft", None),
    ("farfield.pipeline", "read_wav", "audio.read", None),
    ("farfield.pipeline", "stack_channel_files", "audio.read", None),
    ("farfield.audio", "read_wav", "audio.read", None),
    ("farfield.pipeline", "write_wav", "audio.write",
     lambda a, k, r: {"bytes_written": _size(a[0])}),
    ("farfield.pipeline", "extract_speaker_segment", "gss.turn", _turn_frames),
    ("farfield.gss", "cacgmm_em", "gss.cacgmm", None),
    ("farfield.gss", "mvdr_beamform", "gss.mvdr", None),
    ("farfield.gss", "wpe_dereverberate", "gss.wpe", None),
    ("farfield.pipeline", "diarize_embeddings", "diarize.cell", None),
    ("farfield.diarize", "select_single_speaker_frames", "diarize.select", None),
    ("farfield.diarize", "reduce_dim", "diarize.reduce", None),
    ("farfield.diarize", "gmm_cluster", "diarize.gmm",
     lambda a, k, r: {"gmm_iterations": len(r.ll_history)}),
    ("farfield.diarize", "merge_reject_clusters", "diarize.merge", None),
    ("farfield.diarize", "assign_mixed_frames", "diarize.assign", None),
    ("farfield.pipeline", "read_embeddings", "embeddings.read",
     lambda a, k, r: {"bytes_read": _size(a[0])}),
    ("farfield.pipeline", "doverlap_fuse", "fusion.doverlap", None),
    ("farfield.fusion", "map_labels_to_anchor", "fusion.label_map", None),
    ("farfield.pipeline", "soft_fuse", "fusion.soft_fuse", None),
    ("farfield.pipeline", "write_rttm", "segments.io", _rttm_turns),
    ("farfield.pipeline", "read_rttm", "segments.io", None),
    ("farfield.pipeline", "read_activity", "segments.io", None),
    ("farfield.metrics", "compute_der", "metrics.der", None),
    ("farfield.simulate", "render_speaker_images", "simulate.render",
     lambda a, k, r: {"rir_lookups": len(a[0].utterances) * a[0].channels}),
    ("farfield.simulate", "generate_rir", "simulate.rir", None),
    ("farfield.simulate", "accumulate_sinc_taps", "simulate.kernel",
     lambda a, k, r: {"kernel_taps": len(a[1]) * SINC_TAPS}),
    ("farfield.simulate", "fftconvolve", "simulate.convolve", None),
]


# First call in the process of the layers whose cold start matters most.
COLD_METRICS = {
    "preprocess.wpe_cold_s": "preprocess.wpe",
    "gss.cacgmm_cold_s": "gss.cacgmm",
    "diarize.cell_cold_s": "diarize.cell",
    "simulate.rir_cold_s": "simulate.rir",
}


class Tracer:
    """Collects the spans of one repetition; remembers each span's first call."""

    def __init__(self):
        self.spans: list = []  # (name, inclusive_s, self_s, fields)
        self.first_call: dict = {}  # name -> inclusive seconds of its first call
        self._stack: list = []
        self._originals: list = []

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            child_time = [0.0]
            self._stack.append(child_time)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.first_call.setdefault(name, duration)
            fields = counter(args, kwargs, result) if counter else {}
            self.spans.append((name, duration, duration - child_time[0], fields))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _self_s(spans, name):
    return sum(s[2] for s in spans if s[0] == name)


def _incl(spans, name):
    return [s[1] for s in spans if s[0] == name]


def _count(spans, name):
    return len(_incl(spans, name))


def _field(spans, key, how=sum):
    return how([s[3][key] for s in spans if key in s[3]] or [0])


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer numbers of one repetition, from its spans and its wall time."""
    turns = _incl(spans, "gss.turn")
    cells = _incl(spans, "diarize.cell")
    kernel_s = _self_s(spans, "simulate.kernel")
    taps = _field(spans, "kernel_taps")
    lookups = _field(spans, "rir_lookups")
    emitted = _field(spans, "emitted_frames")
    m = {
        "pipeline.run_s": _self_s(spans, "pipeline.run"),
        "pipeline.preprocess_s": _self_s(spans, "pipeline.preprocess"),
        "pipeline.diarize_s": _self_s(spans, "pipeline.diarize"),
        "pipeline.fusion_s": _self_s(spans, "pipeline.fusion"),
        "pipeline.gss_s": _self_s(spans, "pipeline.gss"),
        "pipeline.score_s": _self_s(spans, "pipeline.score"),
        "pipeline.hash_s": _self_s(spans, "pipeline.hash"),
        "pipeline.hashed_bytes": _field(spans, "hashed_bytes"),
        "pipeline.cache_hits": _field(spans, "cache_hits"),
        "pipeline.cache_misses": _field(spans, "cache_misses"),
        "preprocess.wpe_s": _self_s(spans, "preprocess.wpe"),
        "preprocess.wpe_stacked_bytes": _field(spans, "stacked_bytes", max),
        "preprocess.rank_s": _self_s(spans, "preprocess.rank"),
        "preprocess.clip_s": _self_s(spans, "preprocess.clip"),
        "stft.calls": _count(spans, "stft.stft") + _count(spans, "stft.istft"),
        "stft.stft_s": _self_s(spans, "stft.stft"),
        "stft.istft_s": _self_s(spans, "stft.istft"),
        "audio.read_s": _self_s(spans, "audio.read"),
        "audio.write_s": _self_s(spans, "audio.write"),
        "audio.bytes_written": _field(spans, "bytes_written"),
        "gss.turns": len(turns),
        "gss.turn_p50_s": float(np.percentile(turns, 50)) if turns else 0.0,
        "gss.turn_p90_s": float(np.percentile(turns, 90)) if turns else 0.0,
        "gss.cacgmm_s": _self_s(spans, "gss.cacgmm"),
        "gss.mvdr_s": _self_s(spans, "gss.mvdr"),
        "gss.wpe_s": _self_s(spans, "gss.wpe"),
        "gss.context_frame_ratio": _field(spans, "gss_frames") / emitted if emitted else 0.0,
        "diarize.cells": len(cells),
        "diarize.cell_p50_s": float(np.percentile(cells, 50)) if cells else 0.0,
        "diarize.select_s": _self_s(spans, "diarize.select"),
        "diarize.reduce_s": _self_s(spans, "diarize.reduce"),
        "diarize.gmm_s": _self_s(spans, "diarize.gmm"),
        "diarize.gmm_iterations": _field(spans, "gmm_iterations"),
        "diarize.merge_s": _self_s(spans, "diarize.merge"),
        "diarize.assign_s": _self_s(spans, "diarize.assign"),
        "embeddings.read_s": _self_s(spans, "embeddings.read"),
        "embeddings.bytes_read": _field(spans, "bytes_read"),
        "fusion.doverlap_calls": _count(spans, "fusion.doverlap"),
        "fusion.doverlap_s": _self_s(spans, "fusion.doverlap"),
        "fusion.label_map_s": _self_s(spans, "fusion.label_map"),
        "fusion.soft_fuse_s": _self_s(spans, "fusion.soft_fuse"),
        "segments.io_s": _self_s(spans, "segments.io"),
        "segments.turns_written": _field(spans, "turns_written"),
        "metrics.der_s": _self_s(spans, "metrics.der"),
        "simulate.rirs": _count(spans, "simulate.rir"),
        "simulate.rir_s": _self_s(spans, "simulate.rir"),
        "simulate.kernel_s": kernel_s,
        "simulate.kernel_taps": taps,
        "simulate.kernel_taps_per_s": taps / kernel_s if kernel_s else 0.0,
        "simulate.convolve_s": _self_s(spans, "simulate.convolve"),
        "simulate.rir_reuse_ratio":
            1.0 - _count(spans, "simulate.rir") / lookups if lookups else 0.0,
        # share of the repetition's wall time that the self times of the layers
        # cover; run_full's own self time is left out, since it would take in
        # every second that no layer's span covers
        "trace.accounted_share":
            sum(s[2] for s in spans if s[0] != "pipeline.run") / wall_s,
    }
    return m


def median_metrics(per_rep: list) -> dict:
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
