"""Session normalization, block-wise WPE dereverberation and channel ranking."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from farfield.audio import MultichannelAudio
from farfield.errors import DataError, NumericalError
from farfield.stft import SpectralTensor, StftParams, frame_count, stft

_EPS = 1e-30

# Frequency bins per _wpe_block call. Each bin is an independent problem, so
# the output does not depend on this; it bounds the (bins, channels*taps,
# block frames) work arrays, which for 4 channels, 10 taps and a 120 s block
# of 7,500 frames take 9.6 MB each at 2 bins and 2.5 GB at all 513. A slice
# of 2 bins was no slower per bin-frame than one of 8, at 626 and 7,500 frames.
_BINS = 2


@dataclass(frozen=True)
class ClipNormConfig:
    """Clip at a percentile of |x|, then rescale to target_peak.

    The defaults clip only rare extreme samples (claps, knocks) while
    leaving speech peaks intact.
    """

    percentile: float = 0.998
    target_peak: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.percentile <= 1.0:
            raise DataError("percentile must be in (0, 1]")
        if not 0.0 < self.target_peak <= 1.0:
            raise DataError("target_peak must be in (0, 1]")


@dataclass(frozen=True)
class WpeConfig:
    taps: int = 10
    delay: int = 2
    iterations: int = 3
    block_length: float = 120.0  # seconds

    def __post_init__(self):
        if self.taps < 1 or self.delay < 1 or self.iterations < 1:
            raise DataError("taps, delay and iterations must be >= 1")
        if self.block_length <= 0:
            raise DataError("block_length must be positive")


@dataclass(frozen=True)
class ChannelRanking:
    scores: np.ndarray  # per channel
    order: np.ndarray  # channel indices, best first

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        order = np.asarray(self.order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(len(scores))):
            raise DataError("order must be a permutation of channel indices")
        if not np.all(np.isfinite(scores)):
            raise DataError("scores must be finite")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "order", order)


def clip_normalize(audio: MultichannelAudio, cfg: ClipNormConfig = ClipNormConfig()) -> MultichannelAudio:
    """Per channel: clip to the |x| percentile, then scale the peak to target_peak."""
    out = np.empty_like(audio.samples)
    for c in range(audio.num_channels):
        x = audio.samples[c]
        if not np.any(x):
            out[c] = x
            continue
        threshold = np.quantile(np.abs(x), cfg.percentile)
        if threshold <= 0.0:
            # almost-silent channel dominated by zeros; just rescale the peak
            clipped = x
        else:
            clipped = np.clip(x, -threshold, threshold)
        peak = np.max(np.abs(clipped))
        out[c] = clipped * (cfg.target_peak / peak) if peak > 0 else clipped
    return MultichannelAudio(out, audio.sample_rate)


# ---------------------------------------------------------------------------
# WPE


def _wpe_block(values: np.ndarray, taps: int, delay: int, iterations: int) -> np.ndarray:
    """Iterative multichannel WPE on one block; values is (F, C, T). A block of
    fewer than taps + delay frames is returned as it is."""
    n_bins, n_ch, n_frames = values.shape
    if n_frames < taps + delay:
        return values
    # stacked delayed observations, (F, C*K, T)
    stacked = np.zeros((n_bins, n_ch * taps, n_frames), dtype=values.dtype)
    for k in range(taps):
        d = delay + k
        stacked[:, k * n_ch : (k + 1) * n_ch, d:] = values[:, :, : n_frames - d]
    stacked_h = stacked.conj().transpose(0, 2, 1)
    values_h = values.conj().transpose(0, 2, 1)
    weighted = np.empty_like(stacked)  # reused, so the loop holds three arrays of this size
    dereverb = values
    for _ in range(iterations):
        power = np.maximum(np.mean(np.abs(dereverb) ** 2, axis=1), 1e-10)  # (F, T)
        # numpy divides a complex by a real as a product with its reciprocal,
        # so this is the quotient stacked / power, bit for bit
        np.multiply(stacked, (1.0 / power)[:, None, :], out=weighted)
        corr = weighted @ stacked_h  # (F, CK, CK)
        cross = weighted @ values_h  # (F, CK, C)
        load = 1e-10 * np.trace(corr, axis1=1, axis2=2).real / (n_ch * taps)
        corr += (np.maximum(load, 1e-300)[:, None, None]) * np.eye(n_ch * taps)
        try:
            filters = np.linalg.solve(corr, cross)  # (F, CK, C)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("WPE correlation matrix singular after loading") from exc
        prediction = filters.conj().transpose(0, 2, 1) @ stacked
        dereverb = values - prediction
    return dereverb


def wpe_block_frames(cfg: WpeConfig, sample_rate: int, frame_shift: int) -> int:
    """STFT frames per WPE block: block_length seconds, and at least taps + delay."""
    return max(cfg.taps + cfg.delay, int(round(cfg.block_length * sample_rate / frame_shift)))


def wpe_dereverberate(tensor: SpectralTensor, cfg: WpeConfig = WpeConfig()) -> None:
    """Block-wise delayed linear prediction; removes late reverberation per bin,
    in place: the dereverberated values replace tensor.values, and, as list.sort
    does, it returns None.

    Solves _BINS frequency bins of one block at a time, so the work arrays hold
    a few bins of one block rather than every bin of it. Each slice is copied
    before its result is written back, and neither bins nor blocks read each
    other's frames, so the values equal those of a separate output.
    """
    values = tensor.values.transpose(2, 0, 1)  # (F, C, T), a view
    n_bins, _, n_frames = values.shape
    block_frames = wpe_block_frames(cfg, tensor.sample_rate, tensor.frame_shift)
    for lo in range(0, n_bins, _BINS):
        bins = slice(lo, lo + _BINS)
        for start in range(0, n_frames, block_frames):
            frames = slice(start, start + block_frames)
            values[bins, :, frames] = _wpe_block(
                np.ascontiguousarray(values[bins, :, frames]), cfg.taps, cfg.delay,
                cfg.iterations,
            )


# ---------------------------------------------------------------------------
# envelope-variance channel ranking

# ranking's own framing, and its mel bands: how many, and their range in Hz
_RANK_STFT = StftParams(frame_length=512, frame_shift=256)
_RANK_BANDS, _MEL_FMIN, _MEL_FMAX = 40, 20.0, 7600.0


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def mel_filterbank(num_bands: int, num_bins: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters from _MEL_FMIN to _MEL_FMAX or Nyquist, (bands, bins)."""
    fmax = min(_MEL_FMAX, sample_rate / 2.0)
    edges = _mel_to_hz(np.linspace(_hz_to_mel(_MEL_FMIN), _hz_to_mel(fmax), num_bands + 2))
    freqs = np.linspace(0.0, sample_rate / 2.0, num_bins)
    bank = np.zeros((num_bands, num_bins))
    for b in range(num_bands):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - freqs) / max(hi - mid, 1e-12)
        bank[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def envelope_variance_rank(audio: MultichannelAudio) -> ChannelRanking:
    """Rank channels by subband log-envelope variance (higher = cleaner).

    Reverberation and noise smear temporal envelopes, lowering the variance
    of the log-compressed subband energies. Silent channels score 0 and
    rank last.
    """
    if audio.num_channels < 1:
        raise DataError("need at least one channel")
    bank = mel_filterbank(_RANK_BANDS, _RANK_STFT.num_bins, audio.sample_rate)
    envelopes = np.empty((audio.num_channels, frame_count(audio.num_samples, _RANK_STFT),
                          _RANK_BANDS))  # (C, T, B)
    for c in range(audio.num_channels):  # one channel's spectrum at a time
        power = np.abs(stft(audio.channel(c), _RANK_STFT).values[0]) ** 2  # (T, F)
        envelopes[c] = np.log(power @ bank.T + _EPS)
    envelopes -= envelopes.mean(axis=1, keepdims=True)
    band_var = envelopes.var(axis=1)  # (C, B)
    silent = ~np.any(audio.samples, axis=1)
    band_var[silent] = 0.0
    band_max = band_var.max(axis=0)  # (B,)
    normalized = np.divide(
        band_var, band_max[None, :], out=np.zeros_like(band_var), where=band_max > 0
    )
    scores = normalized.mean(axis=1)
    scores[silent] = 0.0
    order = np.argsort(-scores, kind="stable")
    return ChannelRanking(scores=scores, order=order)


def check_fraction(fraction: float) -> None:
    """A channel selection fraction lies in (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")


def select_top_channels(ranking: ChannelRanking, fraction: float) -> list:
    """Keep the ceil(fraction * C) best channels, original indices preserved."""
    check_fraction(fraction)
    count = math.ceil(fraction * len(ranking.scores))
    return sorted(int(c) for c in ranking.order[:count])
