"""Time-domain audio containers and WAV file I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from farfield.errors import DataError


@dataclass(frozen=True)
class MultichannelAudio:
    """Multichannel signal: samples are (channels, time), float64 internally."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if samples.ndim != 2:
            raise DataError("samples must be a (channels, time) matrix")
        if not np.all(np.isfinite(samples)):
            raise DataError("samples contain non-finite values")
        if self.sample_rate <= 0:
            raise DataError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    def channel(self, index: int) -> "MultichannelAudio":
        return MultichannelAudio(self.samples[index : index + 1], self.sample_rate)

    def select_channels(self, indices) -> "MultichannelAudio":
        indices = list(indices)
        return MultichannelAudio(self.samples[indices], self.sample_rate)

    def slice_time(self, start: float, end: float) -> "MultichannelAudio":
        i0 = max(0, int(round(start * self.sample_rate)))
        i1 = min(self.num_samples, int(round(end * self.sample_rate)))
        return MultichannelAudio(self.samples[:, i0:i1], self.sample_rate)


def read_wav(path) -> MultichannelAudio:
    """Read a PCM16 or float32 WAV file into a MultichannelAudio."""
    try:
        rate, data = wavfile.read(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read WAV file {path}: {exc}") from exc
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise DataError(f"unsupported WAV sample format {data.dtype} in {path}")
    return MultichannelAudio(samples.T, int(rate))


def write_wav(path, audio: MultichannelAudio) -> None:
    """Write audio to a float32 WAV file."""
    wavfile.write(path, audio.sample_rate, audio.samples.T.astype(np.float32))


def stack_channel_files(paths, expected_rate: int | None = None) -> MultichannelAudio:
    """Build one session from per-channel WAV files (one channel per file)."""
    channels = []
    rate = expected_rate
    for path in paths:
        audio = read_wav(path)
        if rate is None:
            rate = audio.sample_rate
        elif audio.sample_rate != rate:
            raise DataError(
                f"sample rate mismatch in {path}: {audio.sample_rate} != {rate}"
            )
        channels.append(audio.samples)
    if not channels:
        raise DataError("no channel files to stack")
    lengths = {c.shape[1] for c in channels}
    if len(lengths) > 1:
        raise DataError(f"channel lengths differ across files: {sorted(lengths)}")
    return MultichannelAudio(np.vstack(channels), rate)
