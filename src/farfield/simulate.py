"""Image-source RIR generation, room sampling and conversation/mixture synthesis."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from farfield.audio import MultichannelAudio
from farfield.errors import ConfigError, DataError
from farfield.kernels import SINC_HALF_WIDTH, accumulate_sinc_taps
from farfield.segments import Segmentation, Turn


@dataclass(frozen=True)
class RoomSpec:
    dimensions: np.ndarray  # (3,) meters
    t60: float
    source_positions: np.ndarray  # (S, 3)
    receiver_positions: np.ndarray  # (R, 3)
    speed_of_sound: float = 343.0

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=np.float64)
        src = np.atleast_2d(np.asarray(self.source_positions, dtype=np.float64))
        rec = np.atleast_2d(np.asarray(self.receiver_positions, dtype=np.float64))
        if dims.shape != (3,) or np.any(dims <= 0):
            raise DataError("room needs three positive dimensions")
        if self.t60 <= 0:
            raise DataError("t60 must be positive")
        for name, pos in (("source", src), ("receiver", rec)):
            if np.any(pos <= 0) or np.any(pos >= dims):
                raise DataError(f"{name} positions must lie strictly inside the room")
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "source_positions", src)
        object.__setattr__(self, "receiver_positions", rec)

    @property
    def absorption(self) -> float:
        """Wall absorption from t60 (Sabine, switching to Eyring when Sabine saturates)."""
        volume = float(np.prod(self.dimensions))
        lx, ly, lz = self.dimensions
        surface = 2.0 * (lx * ly + lx * lz + ly * lz)
        sabine = 0.161 * volume / (surface * self.t60)
        if sabine < 1.0:
            return sabine
        return 1.0 - math.exp(-0.161 * volume / (surface * self.t60))


@dataclass(frozen=True)
class Rir:
    taps: np.ndarray
    sample_rate: int
    direct_path_delay: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if not np.all(np.isfinite(taps)):
            raise DataError("RIR taps must be finite")
        object.__setattr__(self, "taps", taps)


@dataclass(frozen=True)
class RoomRanges:
    """Uniform sampling ranges for rooms plus placement constraints."""

    dim_min: tuple = (4.0, 3.0, 2.4)
    dim_max: tuple = (9.0, 7.0, 3.5)
    t60_min: float = 0.2
    t60_max: float = 0.8
    num_sources: int = 20
    num_receivers: int = 10
    wall_clearance: float = 0.3
    min_spacing: float = 0.5

    def __post_init__(self):
        if not len(self.dim_min) == len(self.dim_max) == 3:
            raise DataError("room dimension ranges need three values each")
        if not np.all(np.isfinite([*self.dim_min, *self.dim_max, self.t60_min, self.t60_max,
                                   self.wall_clearance, self.min_spacing])):
            raise DataError("room ranges must be finite")
        if any(a >= b for a, b in zip(self.dim_min, self.dim_max)):
            raise DataError("dimension minima must be below maxima")
        if not 0 < self.t60_min < self.t60_max:
            raise DataError("invalid t60 range")
        if self.num_sources < 1 or self.num_receivers < 1:
            raise DataError("a room needs at least one source and one receiver")
        if self.wall_clearance < 0 or self.min_spacing < 0:
            raise DataError("wall clearance and source-receiver spacing must be >= 0")


def sample_room(ranges: RoomRanges, seed: int) -> RoomSpec:
    """Sample a room with 20 sources and 10 receivers (defaults), seeded."""
    rng = np.random.default_rng(seed)
    dims = rng.uniform(ranges.dim_min, ranges.dim_max)
    t60 = rng.uniform(ranges.t60_min, ranges.t60_max)
    lo = np.full(3, ranges.wall_clearance)
    hi = dims - ranges.wall_clearance
    if np.any(hi <= lo):
        raise DataError("room too small for the requested wall clearance")
    for _ in range(2000):
        sources = rng.uniform(lo, hi, size=(ranges.num_sources, 3))
        receivers = rng.uniform(lo, hi, size=(ranges.num_receivers, 3))
        dists = np.linalg.norm(sources[:, None, :] - receivers[None, :, :], axis=2)
        if dists.min() >= ranges.min_spacing:
            return RoomSpec(dims, float(t60), sources, receivers)
    raise DataError("could not satisfy placement constraints after bounded retries")


def _axis_images(src: float, length: float, reach: float):
    """Image coordinates and reflection exponents along one axis.

    For image index n and parity q: coordinate (1-2q)*src + 2*n*length with
    exponent |n - q| + |n| reflections.
    """
    n_max = int(math.ceil(reach / (2.0 * length))) + 1
    coords, exponents = [], []
    for n in range(-n_max, n_max + 1):
        for q in (0, 1):
            coords.append((1 - 2 * q) * src + 2.0 * n * length)
            exponents.append(abs(n - q) + abs(n))
    return np.array(coords), np.array(exponents, dtype=np.float64)


def generate_rir(
    room: RoomSpec,
    source: int,
    receiver: int,
    sample_rate: int = 16000,
    max_order: int | None = None,
    highpass_hz: float = 80.0,
) -> Rir:
    """Image-source RIR with windowed-sinc fractional delays.

    All image amplitudes are positive, so the raw tap sum carries a DC
    component that flattens the energy decay; a low-cut filter (highpass_hz,
    0 disables) removes it.
    """
    src = room.source_positions[source]
    rec = room.receiver_positions[receiver]
    c = room.speed_of_sound
    beta = math.sqrt(max(1.0 - room.absorption, 0.0))
    n_taps = int(math.ceil(room.t60 * sample_rate)) + SINC_HALF_WIDTH + 1
    reach = c * room.t60  # images beyond this distance fall outside the RIR
    if max_order is not None:
        reach = min(reach, max_order * float(min(room.dimensions)))

    axes = [_axis_images(src[i], room.dimensions[i], reach) for i in range(3)]
    cy, ey = axes[1]
    cz, ez = axes[2]
    dy2 = (cy - rec[1]) ** 2
    dz2 = (cz - rec[2]) ** 2
    rir = np.zeros(n_taps)
    log_beta = math.log(beta) if beta > 0 else -np.inf
    for cx, ex in zip(*axes[0]):
        dist = np.sqrt((cx - rec[0]) ** 2 + dy2[:, None] + dz2[None, :])
        exponent = ex + ey[:, None] + ez[None, :]
        delays = dist * sample_rate / c
        keep = delays < n_taps - SINC_HALF_WIDTH
        if not np.any(keep):
            continue
        if np.isinf(log_beta):
            amp_keep = np.where(exponent[keep] == 0, 1.0, 0.0) / (4.0 * np.pi * dist[keep])
        else:
            amp_keep = np.exp(exponent[keep] * log_beta) / (4.0 * np.pi * dist[keep])
        accumulate_sinc_taps(rir, np.ascontiguousarray(delays[keep]),
                             np.ascontiguousarray(amp_keep))
    if highpass_hz > 0:
        rir = lfilter_biquad(*butter_highpass(highpass_hz, sample_rate), rir)
    direct = int(round(np.linalg.norm(src - rec) * sample_rate / c))
    return Rir(taps=rir, sample_rate=sample_rate, direct_path_delay=direct)


def butter_highpass(cutoff_hz: float, sample_rate: int) -> tuple:
    """b, a of scipy.signal.butter(2, cutoff_hz / (sample_rate / 2), "highpass").

    Computed by scipy's own steps, so the coefficients have its bytes: the analog
    prototype's poles (buttap), the high-pass transform at the pre-warped cut-off
    (lp2hp_zpk), the bilinear transform at fs = 2 (bilinear_zpk), then np.poly.
    """
    wn = np.float64(cutoff_hz / (sample_rate / 2.0))
    if not 0 < wn < 1:
        raise DataError(f"high-pass cut-off {cutoff_hz} Hz must lie in (0, {sample_rate / 2} Hz)")
    warped = float(4.0 * np.tan(np.pi * wn / 2.0))
    p = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    # lp2hp_zpk: the poles invert about the cut-off, and the two zeros at
    # infinity move to the origin
    k = np.real(1.0 / np.prod(-p))
    p = warped / p
    # bilinear_zpk: the zeros at the origin map to 1
    k = k * np.real(16.0 / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    return k * np.poly([1.0, 1.0]), np.poly(p)


def lfilter_biquad(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x) for three b and three a coefficients, zero state.

    A direct-form-II-transposed loop over Python floats in scipy's order of
    operations, with the coefficients normalised by a[0] first, so the output
    has scipy's bytes.
    """
    b0, b1, b2 = (float(v) / float(a[0]) for v in b)
    _, a1, a2 = (float(v) / float(a[0]) for v in a)
    z0 = z1 = 0.0
    y = []
    append = y.append
    for xn in np.asarray(x, dtype=np.float64).tolist():
        yn = z0 + b0 * xn
        z0 = z1 + xn * b1 - yn * a1
        z1 = xn * b2 - yn * a2
        append(yn)
    return np.array(y)


# ---------------------------------------------------------------------------
# conversation schedules and mixtures


@dataclass(frozen=True)
class OverlapStats:
    """Turn-taking statistics; defaults are configurable stand-ins."""

    p_overlap: float = 0.25
    pause_log_median: float = 0.3  # lognormal median, seconds
    pause_log_sigma: float = 0.6
    overlap_mean: float = 0.7  # exponential mean, seconds
    utterance_log_median: float = 2.0
    utterance_log_sigma: float = 0.5

    def __post_init__(self):
        if not 0 <= self.p_overlap <= 1:  # NaN fails too
            raise DataError(f"p_overlap must lie in [0, 1], got {self.p_overlap}")
        for name in ("pause_log_median", "pause_log_sigma", "overlap_mean",
                     "utterance_log_median", "utterance_log_sigma"):
            if not 0 < getattr(self, name) < math.inf:
                raise DataError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ScheduledUtterance:
    speaker: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


def sample_conversation(
    stats: OverlapStats, speakers: int, duration: float, seed: int
) -> list:
    """Alternating-turn schedule; adjacent turns may overlap, never three deep."""
    if speakers < 1:
        raise DataError("need at least one speaker")
    rng = np.random.default_rng(seed)
    schedule = []
    prev_speaker = None
    prev_start, prev_end = 0.0, 0.0
    earlier_end = 0.0  # latest end among turns before the previous one
    while prev_end < duration:
        if speakers == 1:
            speaker = 0
        else:
            others = [s for s in range(speakers) if s != prev_speaker]
            speaker = int(rng.choice(others))
        utt_dur = float(
            np.exp(rng.normal(np.log(stats.utterance_log_median), stats.utterance_log_sigma))
        )
        if not schedule:
            start = 0.0
        elif speakers > 1 and rng.random() < stats.p_overlap:
            overlap = min(rng.exponential(stats.overlap_mean), prev_end - prev_start)
            # never start while a turn before the previous one is still live,
            # so no instant ever has three simultaneous utterances
            start = max(prev_end - overlap, prev_start, earlier_end)
        else:
            start = prev_end + float(
                np.exp(rng.normal(np.log(stats.pause_log_median), stats.pause_log_sigma))
            )
        if start >= duration:
            break
        schedule.append(ScheduledUtterance(speaker, start, utt_dur))
        earlier_end = max(earlier_end, prev_end)
        prev_speaker, prev_start, prev_end = speaker, start, start + utt_dur
    return schedule


@dataclass(frozen=True)
class MixtureSpec:
    speakers: int
    utterances: tuple  # of (speaker: int, audio_ref: str, start: s)
    duration: float
    channels: int
    noise_ref: str | None = None
    snr_db: float | None = None  # None only without noise_ref; infinite: clean

    def __post_init__(self):
        if self.noise_ref is not None and self.snr_db is None:
            raise DataError(f"noise {self.noise_ref!r} needs an snr_db to be mixed at")
        if self.snr_db is not None and math.isnan(self.snr_db):
            raise DataError("snr_db is NaN: no level to mix the noise at")
        for spk, _, start in self.utterances:
            if not 0 <= start < self.duration:
                raise DataError(f"utterance start {start} outside [0, {self.duration})")
            if not 0 <= spk < self.speakers:
                raise DataError(f"speaker index {spk} out of range")


@dataclass(frozen=True)
class SimulationConfig:
    """`farfield simulate`'s config, apart from its dry_corpus list."""

    sample_rate: int = 16000
    num_sessions: int = 1
    speakers: int = 4
    channels: int = 10
    duration: float = 60.0
    snr_db: float | None = None
    noise_ref: str | None = None
    room_ranges: RoomRanges = RoomRanges()
    overlap_stats: OverlapStats = OverlapStats()

    def __post_init__(self):
        for name in ("sample_rate", "num_sessions", "speakers", "channels", "duration"):
            if not getattr(self, name) > 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        # checks across keys, which name the keys themselves
        if self.channels > self.room_ranges.num_receivers:
            raise ConfigError(f"channels {self.channels} exceed "
                              f"room_ranges.num_receivers {self.room_ranges.num_receivers}")
        if self.speakers > self.room_ranges.num_sources:
            raise ConfigError(f"speakers {self.speakers} exceed "
                              f"room_ranges.num_sources {self.room_ranges.num_sources}")
        if self.noise_ref is not None and self.snr_db is None:
            raise ConfigError(f"snr_db must be set to mix noise_ref {self.noise_ref!r}")


def next_fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: the length scipy.fft.next_fast_len(n, real=True)
    picks, at which a real FFT is fast."""
    if n <= 6:
        return n
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # the smallest f35 * 2^k >= n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-D real arrays by real FFTs at next_fast_len.

    The transform length and steps are scipy.signal.fftconvolve's, so the result
    has its bytes. As there, an empty input gives an empty result, and a
    length-1 input is a plain product.
    """
    if a.size == 0 or b.size == 0:
        return np.array([])
    if a.size == 1 or b.size == 1:
        return a * b
    n = len(a) + len(b) - 1
    size = next_fast_len(n)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def render_speaker_images(spec: MixtureSpec, room: RoomSpec, dry_store, sample_rate: int):
    """Per-speaker reverberant images and the reference segmentation."""
    if spec.channels > room.receiver_positions.shape[0]:
        raise DataError("more channels requested than receivers in the room")
    if spec.speakers > room.source_positions.shape[0]:
        raise DataError("more speakers requested than sources in the room")
    n_samples = int(round(spec.duration * sample_rate))
    images = {s: np.zeros((spec.channels, n_samples)) for s in range(spec.speakers)}
    turns = []
    rir_cache: dict = {}
    for spk, ref, start in spec.utterances:
        if ref not in dry_store:
            raise DataError(f"dry audio {ref!r} missing from store")
        dry = np.asarray(dry_store[ref], dtype=np.float64)
        i0 = int(round(start * sample_rate))
        end = start + len(dry) / sample_rate
        if end > spec.duration:
            warnings.warn(f"utterance {ref!r} exceeds duration; truncated", stacklevel=3)
            end = spec.duration
        for ch in range(spec.channels):
            key = (spk, ch)
            if key not in rir_cache:
                rir_cache[key] = generate_rir(room, spk, ch, sample_rate)
            wet = fftconvolve(dry, rir_cache[key].taps)
            stop = min(i0 + len(wet), n_samples)
            images[spk][ch, i0:stop] += wet[: stop - i0]
        turns.append(Turn(f"spk{spk:02d}", start, end))
    return images, turns


def simulate_mixture(
    spec: MixtureSpec,
    room: RoomSpec,
    dry_store: dict,
    sample_rate: int = 16000,
    noise_seed: int = 0,
    return_components: bool = False,
):
    """Render a multichannel mixture and its exact reference segmentation."""
    images, turns = render_speaker_images(spec, room, dry_store, sample_rate)
    mix = np.zeros((spec.channels, int(round(spec.duration * sample_rate))))
    for img in images.values():
        mix += img
    noise_image = np.zeros_like(mix)
    if spec.noise_ref is not None and np.isfinite(spec.snr_db):
        if spec.noise_ref not in dry_store:
            raise DataError(f"noise audio {spec.noise_ref!r} missing from store")
        noise = np.asarray(dry_store[spec.noise_ref], dtype=np.float64)
        noise = _tile_noise(noise, mix.shape[1], spec.channels, noise_seed)
        noise_image = _snr_gain(mix, noise, spec.snr_db) * noise
        mix = mix + noise_image
    segmentation = Segmentation("sim", tuple(sorted(turns, key=lambda t: (t.start, t.speaker))))
    audio = MultichannelAudio(mix, sample_rate)
    if return_components:
        return audio, segmentation, images, noise_image
    return audio, segmentation


def _snr_gain(speech: np.ndarray, noise: np.ndarray, snr_db: float) -> float:
    """Gain that puts noise snr_db below speech in power; 1.0 if either is silent."""
    speech_power = np.mean(speech**2)
    noise_power = np.mean(noise**2)
    if noise_power > 0 and speech_power > 0:
        return math.sqrt(speech_power / (noise_power * 10.0 ** (snr_db / 10.0)))
    return 1.0


def _tile_noise(noise: np.ndarray, n_samples: int, channels: int, seed: int) -> np.ndarray:
    noise = np.atleast_2d(noise)
    if noise.shape[0] == 1 and channels > 1:
        noise = np.tile(noise, (channels, 1))
    if noise.shape[1] < n_samples:
        reps = int(math.ceil(n_samples / noise.shape[1]))
        noise = np.tile(noise, (1, reps))
    start = np.random.default_rng(seed).integers(0, max(noise.shape[1] - n_samples, 1))
    return noise[:channels, start : start + n_samples]
