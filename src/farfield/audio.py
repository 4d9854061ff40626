"""Time-domain audio containers and WAV file I/O."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from farfield.errors import DataError
from farfield.segments import open_input, read_exact


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

    def slice_time(self, start: float, end: float) -> "MultichannelAudio":
        i0, i1 = sample_range(start, end, self.sample_rate, self.num_samples)
        return MultichannelAudio(self.samples[:, i0:i1], self.sample_rate)


def sample_range(start: float, end: float, sample_rate: int, num_samples: int) -> tuple:
    """(i0, i1) of the samples from start to end seconds: each time rounded to the
    nearest sample, then clipped to the signal's num_samples, with i0 <= i1."""
    i0 = min(max(0, int(round(start * sample_rate))), num_samples)
    return i0, min(max(i0, int(round(end * sample_rate))), num_samples)


# WAV layout: a RIFF (or, above 4 GiB, RF64) header, then chunks of
# (4-byte id, 32-bit little-endian size, body, a pad byte after an odd body)
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the subformat GUID of WAVE_FORMAT_EXTENSIBLE: a format tag, then this tail
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# PCM container bytes -> (dtype read, full scale); 24-bit samples are widened to 32
_PCM_FORMATS = {2: ("<i2", 2.0**15), 3: ("<i4", 2.0**31), 4: ("<i4", 2.0**31)}


@dataclass(frozen=True)
class WavFile:
    """Where a WAV file's frames lie and how to decode them, from its header; reads
    any range of frames, so that a caller need not hold the whole file."""

    path: object
    num_channels: int
    sample_rate: int
    num_samples: int  # frames
    offset: int  # byte position of the first frame
    width: int  # container bytes per sample
    dtype: str
    scale: float | None  # the full scale of integer samples

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    def read(self, start: int, count: int) -> MultichannelAudio:
        """Frames start to start + count, each decoded as a read of the whole file
        decodes it; a range outside the file is a DataError that names it."""
        if not 0 <= start <= start + count <= self.num_samples:
            raise DataError(f"{self.path}: frames [{start}, {start + count}) lie outside "
                            f"its {self.num_samples} frames")
        values = count * self.num_channels
        with open_input(self.path, "WAV file", "rb") as fh:
            fh.seek(self.offset + start * self.num_channels * self.width)
            if self.width == 3:  # widen to int32: three bytes above a zero low byte
                packed = np.fromfile(fh, dtype=np.uint8, count=3 * values).reshape(-1, 3)
                data = np.zeros((len(packed), 4), dtype=np.uint8)
                data[:, 1:] = packed
                data = data.view(self.dtype)
            else:
                data = np.fromfile(fh, dtype=self.dtype, count=values)
        if data.size != values:  # the file shrank after its header was read
            raise DataError(f"{self.path}: truncated data chunk")
        samples = data.reshape(-1, self.num_channels).astype(np.float64)
        if self.scale is not None:
            samples /= self.scale
        try:
            return MultichannelAudio(samples.T, self.sample_rate)
        except DataError as exc:
            raise DataError(f"{self.path}: {exc}") from None

    def slice_time(self, start: float, end: float) -> MultichannelAudio:
        """MultichannelAudio.slice_time of the whole file, reading only its samples."""
        i0, i1 = sample_range(start, end, self.sample_rate, self.num_samples)
        return self.read(i0, i1 - i0)


def open_wav(path) -> WavFile:
    """Parse a WAV file's header.

    Takes 16-, 24- and 32-bit PCM and 32- and 64-bit float samples, in plain,
    WAVE_FORMAT_EXTENSIBLE and RF64 files; chunks other than fmt and data are
    skipped. 24-bit samples are read left-justified into 32 bits, as scipy's
    reader does. Anything else is a DataError that names the file.
    """
    with open_input(path, "WAV file", "rb") as fh:
        riff = fh.read(12)
        if len(riff) < 12 or riff[:4] not in (b"RIFF", b"RF64") or riff[8:] != b"WAVE":
            raise DataError(f"{path}: not a RIFF WAVE file")
        data_size = None  # an RF64 file keeps its data size in the ds64 chunk
        if riff[:4] == b"RF64":
            ds64 = _chunk(fh, path)
            if ds64[0] != b"ds64" or ds64[1] < 24:
                raise DataError(f"{path}: RF64 file without a ds64 chunk")
            data_size = struct.unpack("<Q", read_exact(fh, ds64[1], path, "ds64 chunk")[8:16])[0]
            fh.seek(ds64[1] % 2, 1)
        fmt = None
        while (chunk := _chunk(fh, path))[0] != b"data":
            chunk_id, size = chunk
            if chunk_id == b"fmt ":
                fmt = _read_fmt(read_exact(fh, size, path, "fmt chunk"), path)
                fh.seek(size % 2, 1)
            else:
                fh.seek(size + size % 2, 1)
        if fmt is None:
            raise DataError(f"{path}: no fmt chunk before the data chunk")
        channels, rate, width, dtype, scale = fmt
        size = chunk[1] if data_size is None else data_size
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise DataError(f"{path}: truncated data chunk")
        if size % (channels * width):
            raise DataError(f"{path}: data chunk of {size} bytes is not whole frames")
        return WavFile(path, channels, rate, size // (channels * width), fh.tell(), width, dtype,
                       scale)


def read_wav(path) -> MultichannelAudio:
    """Read a whole WAV file (see open_wav) into a MultichannelAudio."""
    wav = open_wav(path)
    return wav.read(0, wav.num_samples)


def _chunk(fh, path) -> tuple:
    """(id, size) of the next chunk header."""
    header = fh.read(8)
    if len(header) < 8:
        raise DataError(f"{path}: no data chunk")
    return header[:4], struct.unpack("<I", header[4:])[0]


def _read_fmt(body: bytes, path) -> tuple:
    """(channels, rate, container bytes, numpy dtype, integer scale or None) of a fmt chunk."""
    if len(body) < 16:
        raise DataError(f"{path}: fmt chunk of {len(body)} bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if tag == _EXTENSIBLE and len(body) >= 40 and body[28:40] == _GUID_TAIL:
        tag = struct.unpack("<I", body[24:28])[0]
    if not rate:
        raise DataError(f"{path}: sample rate 0")
    if not channels or block_align % channels:
        raise DataError(f"{path}: {channels} channels in blocks of {block_align} bytes")
    width = block_align // channels
    if tag == _PCM and byte_rate != rate * block_align:
        raise DataError(f"{path}: byte rate {byte_rate} is not {rate} Hz x {block_align} bytes")
    if tag == _PCM and width in _PCM_FORMATS and bits > 8:
        return channels, rate, width, *_PCM_FORMATS[width]
    if tag == _IEEE_FLOAT and bits in (32, 64) and width * 8 == bits:
        return channels, rate, width, f"<f{width}", None
    raise DataError(f"{path}: unsupported WAV sample format (tag {tag:#06x}, "
                    f"{bits} bits in {width} bytes)")


def wav_header(frames: int, channels: int, rate: int) -> bytes:
    """Header of a float32 WAV file, up to the data chunk's size field: scipy's
    layout (an 18-byte fmt chunk and a fact chunk), RF64 above 4 GiB."""
    nbytes = 4 * channels * frames
    fmt = struct.pack("<HHIIHHH", _IEEE_FLOAT, channels, rate, 4 * channels * rate,
                      4 * channels, 32, 0)
    tail = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"fact" + struct.pack("<II", 4, frames)
            + b"data" + struct.pack("<I", min(nbytes, 0xFFFFFFFF)))
    if 4 + len(tail) + nbytes <= 0xFFFFFFFF:
        return b"RIFF" + struct.pack("<I", 4 + len(tail) + nbytes) + b"WAVE" + tail
    ds64 = struct.pack("<IQQQI", 28, 40 + len(tail) + nbytes, nbytes, frames, 0)
    return b"RF64\xff\xff\xff\xffWAVEds64" + ds64 + tail


def write_wav(path, audio: MultichannelAudio) -> None:
    """Write audio to a float32 WAV file."""
    data = np.ascontiguousarray(audio.samples.T, dtype="<f4")  # (time, channels)
    with open(path, "wb") as fh:
        fh.write(wav_header(audio.num_samples, audio.num_channels, audio.sample_rate))
        data.tofile(fh)


def stack_channel_files(paths, expected_rate: int | None = None) -> MultichannelAudio:
    """Build one session from per-channel WAV files, one channel per file, in
    one (files, samples) array filled a file at a time."""
    paths = list(paths)
    if not paths:
        raise DataError("no channel files to stack")
    samples, rate = None, expected_rate
    for row, path in enumerate(paths):
        audio = read_wav(path)
        if audio.num_channels != 1:
            raise DataError(f"{path}: {audio.num_channels} channels, a channel file holds one")
        if rate is None:
            rate = audio.sample_rate
        elif audio.sample_rate != rate:
            raise DataError(
                f"sample rate mismatch in {path}: {audio.sample_rate} != {rate}"
            )
        if samples is None:
            samples = np.empty((len(paths), audio.num_samples))
        elif audio.num_samples != samples.shape[1]:
            raise DataError(f"channel lengths differ across files: {path} has "
                            f"{audio.num_samples} samples, {paths[0]} {samples.shape[1]}")
        samples[row] = audio.samples[0]
        del audio  # before the next file is read
    return MultichannelAudio(samples, rate)
