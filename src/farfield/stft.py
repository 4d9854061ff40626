"""STFT analysis/synthesis shared by dereverberation, mask estimation and beamforming."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from farfield.audio import MultichannelAudio
from farfield.errors import DataError

# Frames per FFT call. A framed copy of the signal is frame_length/frame_shift
# times its size, so stft and istft frame, transform and overlap-add a slice
# of frames at a time; every frame is transformed on its own either way.
_FRAMES = 256


@dataclass(frozen=True)
class StftParams:
    """Framing configuration, checked invertible by weighted overlap-add.

    Defaults (1024/256 at 16 kHz) make 300 frames span 4.8 s, so
    gss.chunk_frames = 300 has cacgmm_em fit its EM on 4.8 s runs of frames.
    """

    frame_length: int = 1024
    frame_shift: int = 256
    window: str = "hann"

    def __post_init__(self):
        if not 0 < self.frame_shift <= self.frame_length:
            raise DataError("require 0 < frame_shift <= frame_length")
        if self.window not in ("hann", "sqrt_hann"):
            raise DataError(f"unknown window {self.window!r}")
        _check_cola(_analysis_window(self), self.frame_shift)

    @property
    def num_bins(self) -> int:
        return self.frame_length // 2 + 1

    def frame_step_seconds(self, sample_rate: int) -> float:
        return self.frame_shift / sample_rate


@dataclass(frozen=True)
class SpectralTensor:
    """Complex STFT values, shape (channels, frames, bins), with the framing
    they were analysed with."""

    values: np.ndarray
    params: StftParams
    sample_rate: int
    num_samples: int | None = None  # original length, for exact inverse crop

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 3:
            raise DataError("values must be (channels, frames, bins)")
        if values.shape[2] != self.params.num_bins:
            raise DataError("bin count inconsistent with frame_length")
        object.__setattr__(self, "values", values)

    @property
    def num_channels(self) -> int:
        return self.values.shape[0]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]

    @property
    def num_bins(self) -> int:
        return self.values.shape[2]

    @property
    def frame_shift(self) -> int:
        return self.params.frame_shift

    @property
    def frame_step_seconds(self) -> float:
        return self.params.frame_step_seconds(self.sample_rate)


def _analysis_window(params: StftParams) -> np.ndarray:
    n = np.arange(params.frame_length)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / params.frame_length)
    if params.window == "sqrt_hann":
        return np.sqrt(hann)
    return hann


def _check_cola(window: np.ndarray, shift: int) -> None:
    """Reject a hop whose periodic sum of squared windows comes near zero, where
    weighted overlap-add cannot invert the frames."""
    length = len(window)
    wsq = window * window
    acc = np.zeros(shift)
    for start in range(0, length, shift):
        chunk = wsq[start : start + shift]
        acc[: len(chunk)] += chunk
    if acc.min() < 1e-6 * max(acc.max(), 1e-300):
        raise DataError(
            f"window/shift pair ({len(window)}/{shift}) is not invertible by overlap-add"
        )


def stft(audio: MultichannelAudio, params: StftParams = StftParams()) -> SpectralTensor:
    """Analyze audio into a (channels, frames, bins) complex tensor; half a
    frame of padding on each side centres frame i on sample i * frame_shift."""
    if audio.num_samples == 0:
        raise DataError("empty audio")
    window = _analysis_window(params)
    length, shift = params.frame_length, params.frame_shift
    pad = length // 2
    padded = audio.num_samples + 2 * pad
    n_frames = int(np.ceil((padded - length) / shift)) + 1
    total = (n_frames - 1) * shift + length
    x = np.pad(audio.samples, ((0, 0), (pad, total - padded + pad)))
    framed = np.lib.stride_tricks.sliding_window_view(x, length, axis=-1)[:, ::shift]
    values = np.empty((audio.num_channels, n_frames, params.num_bins), dtype=np.complex128)
    for lo in range(0, n_frames, _FRAMES):
        values[:, lo : lo + _FRAMES] = np.fft.rfft(framed[:, lo : lo + _FRAMES] * window, axis=-1)
    return SpectralTensor(values, params, audio.sample_rate, audio.num_samples)


def istft(tensor: SpectralTensor) -> MultichannelAudio:
    """Invert an STFT by weighted overlap-add with the tensor's own window;
    exact on interior samples."""
    params = tensor.params
    window = _analysis_window(params)
    length, shift = params.frame_length, params.frame_shift
    n_frames = tensor.num_frames
    total = (n_frames - 1) * shift + length
    out = np.zeros((tensor.num_channels, total))
    norm = np.zeros(total)
    wsq = window * window
    for lo in range(0, n_frames, _FRAMES):
        frames = np.fft.irfft(tensor.values[:, lo : lo + _FRAMES], n=length, axis=-1) * window
        for i in range(frames.shape[1]):
            t = (lo + i) * shift
            out[:, t : t + length] += frames[:, i]
            norm[t : t + length] += wsq
    out /= np.maximum(norm, 1e-12)
    out = out[:, length // 2 :]  # the centre padding of stft
    if tensor.num_samples is not None:
        out = out[:, : tensor.num_samples]
    return MultichannelAudio(out, tensor.sample_rate)
