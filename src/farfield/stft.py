"""STFT analysis/synthesis shared by dereverberation, mask estimation and beamforming."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from farfield.audio import MultichannelAudio
from farfield.errors import DataError

# Frames per FFT call. A framed copy of the signal is frame_length/frame_shift
# times its size, so stft and istft frame, transform and overlap-add one
# channel's slice of frames at a time; every frame is transformed on its own
# either way.
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


def frame_count(num_samples: int, params: StftParams) -> int:
    """Frames of stft's framing of num_samples samples."""
    padded = num_samples + 2 * (params.frame_length // 2)
    return int(np.ceil((padded - params.frame_length) / params.frame_shift)) + 1


def frame_span(num_frames: int, params: StftParams) -> int:
    """Samples that num_frames consecutive frames cover."""
    return (num_frames - 1) * params.frame_shift + params.frame_length


def stft_frames(audio: MultichannelAudio, params: StftParams, frames: slice) -> SpectralTensor:
    """A run of stft's frames (a slice of step 1), each equal to the whole
    analysis's; only the run's samples are padded, one channel at a time. The
    tensor has no num_samples, since a run does not invert to the session on
    its own."""
    if audio.num_samples == 0:
        raise DataError("empty audio")
    window = _analysis_window(params)
    length, shift = params.frame_length, params.frame_shift
    lo, hi, step = frames.indices(frame_count(audio.num_samples, params))
    if step != 1 or hi <= lo:
        raise DataError(f"no run of frames in {frames}")
    count, start = hi - lo, lo * shift - length // 2  # start: first sample of frame lo
    x = np.zeros(frame_span(count, params))  # one channel's padded run; the padding stays 0
    a, b = max(start, 0), min(start + len(x), audio.num_samples)
    framed = np.lib.stride_tricks.sliding_window_view(x, length)[::shift]
    values = np.empty((audio.num_channels, count, params.num_bins), dtype=np.complex128)
    windowed = np.empty((min(count, _FRAMES), length))  # reused
    for c in range(audio.num_channels):
        x[a - start : b - start] = audio.samples[c, a:b]
        for i in range(0, count, _FRAMES):
            part = windowed[: min(_FRAMES, count - i)]
            np.multiply(framed[i : i + _FRAMES], window, out=part)
            values[c, i : i + _FRAMES] = np.fft.rfft(part, axis=-1)
    return SpectralTensor(values, params, audio.sample_rate)


def stft(audio: MultichannelAudio, params: StftParams = StftParams()) -> SpectralTensor:
    """Analyze audio into a (channels, frames, bins) complex tensor; half a
    frame of padding on each side centres frame i on sample i * frame_shift."""
    return replace(stft_frames(audio, params, slice(None)), num_samples=audio.num_samples)


def overlap_add(out: np.ndarray, values: np.ndarray, params: StftParams, first: int) -> None:
    """Add the windowed inverse transforms of the (channels, frames, bins) values
    into out, one channel at a time and in frame order, their first frame as
    frame `first` of out."""
    window = _analysis_window(params)
    length, shift = params.frame_length, params.frame_shift
    for row, spectra in zip(out, values):
        for lo in range(0, len(spectra), _FRAMES):
            frames = np.fft.irfft(spectra[lo : lo + _FRAMES], n=length, axis=-1)
            frames *= window
            for i, frame in enumerate(frames):
                t = (first + lo + i) * shift
                row[t : t + length] += frame


def overlap_add_audio(out: np.ndarray, params: StftParams, sample_rate: int,
                      num_samples: int | None) -> MultichannelAudio:
    """The audio of a finished overlap-add: out, divided in place by the sum of
    the squared windows of its frames, without stft's padding and cropped to
    num_samples if given."""
    window = _analysis_window(params)
    length, shift = params.frame_length, params.frame_shift
    norm = np.zeros(out.shape[1])
    wsq = window * window
    for t in range(0, out.shape[1] - length + 1, shift):
        norm[t : t + length] += wsq
    out /= np.maximum(norm, 1e-12)
    out = out[:, length // 2 :]  # the centre padding of stft
    if num_samples is not None:
        out = out[:, :num_samples]
    return MultichannelAudio(out, sample_rate)


def istft(tensor: SpectralTensor) -> MultichannelAudio:
    """Invert an STFT by weighted overlap-add with the tensor's own window;
    exact on interior samples."""
    params = tensor.params
    out = np.zeros((tensor.num_channels, frame_span(tensor.num_frames, params)))
    overlap_add(out, tensor.values, params, 0)
    return overlap_add_audio(out, params, tensor.sample_rate, tensor.num_samples)
