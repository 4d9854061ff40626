import math

import numpy as np
import pytest
import scipy.fft
import scipy.signal

from farfield.errors import ConfigError, DataError
from farfield.simulate import (
    SINC_HALF_WIDTH,
    MixtureSpec,
    OverlapStats,
    RoomRanges,
    RoomSpec,
    SimulationConfig,
    butter_highpass,
    fftconvolve,
    generate_rir,
    lfilter_biquad,
    next_fast_len,
    sample_conversation,
    sample_room,
    simulate_mixture,
)

FS = 16000

_FAST_RANGES = RoomRanges(
    dim_min=(4.0, 3.0, 2.4), dim_max=(5.0, 4.0, 3.0), t60_min=0.2, t60_max=0.25,
    num_sources=3, num_receivers=4,
)


def _small_room(t60=0.25):
    return RoomSpec(
        dimensions=np.array([4.0, 3.0, 2.5]),
        t60=t60,
        source_positions=np.array([[1.0, 1.5, 1.2]]),
        receiver_positions=np.array([[2.8, 1.1, 1.3]]),
    )


class TestRoomSpec:
    def test_sabine_absorption_hand_computed(self):
        room = _small_room(t60=0.5)
        volume = 4.0 * 3.0 * 2.5
        surface = 2 * (4 * 3 + 4 * 2.5 + 3 * 2.5)
        expected = 0.161 * volume / (surface * 0.5)
        assert expected < 1.0
        assert room.absorption == pytest.approx(expected)

    def test_eyring_when_sabine_saturates(self):
        room = _small_room(t60=0.05)
        assert 0.0 < room.absorption < 1.0

    def test_positions_must_be_inside(self):
        with pytest.raises(DataError):
            RoomSpec(np.array([4.0, 3.0, 2.5]), 0.3, np.array([[5.0, 1.0, 1.0]]),
                     np.array([[1.0, 1.0, 1.0]]))

    def test_positive_t60_required(self):
        with pytest.raises(DataError):
            RoomSpec(np.array([4.0, 3.0, 2.5]), 0.0, np.array([[1.0, 1.0, 1.0]]),
                     np.array([[2.0, 1.0, 1.0]]))


class TestGenerateRir:
    def test_direct_path_delay_and_amplitude(self):
        room = _small_room()
        rir = generate_rir(room, 0, 0, FS, highpass_hz=0.0)
        src, rec = room.source_positions[0], room.receiver_positions[0]
        dist = np.linalg.norm(src - rec)
        expected_delay = int(round(dist * FS / room.speed_of_sound))
        assert rir.direct_path_delay == expected_delay
        # windowed-sinc taps around the direct delay sum to the 1/(4 pi d) amplitude
        lo = expected_delay - SINC_HALF_WIDTH
        hi = expected_delay + SINC_HALF_WIDTH + 1
        direct_mass = rir.taps[max(lo, 0) : hi].sum()
        first_reflection = 2.0 * min(src[2], rec[2])  # floor bounce lower bound
        assert first_reflection > dist  # direct region is uncontaminated enough
        assert direct_mass == pytest.approx(1.0 / (4 * np.pi * dist), rel=0.1)

    def test_rir_length_covers_t60(self):
        room = _small_room(t60=0.2)
        rir = generate_rir(room, 0, 0, FS)
        assert len(rir.taps) == int(np.ceil(0.2 * FS)) + SINC_HALF_WIDTH + 1

    def test_reciprocity(self):
        # swapping source and receiver positions yields the same RIR
        a = _small_room()
        b = RoomSpec(a.dimensions, a.t60, a.receiver_positions, a.source_positions)
        np.testing.assert_allclose(
            generate_rir(a, 0, 0, FS).taps, generate_rir(b, 0, 0, FS).taps, atol=1e-12
        )

    def test_schroeder_decay_matches_nominal_t60(self):
        room = _small_room(t60=0.25)
        rir = generate_rir(room, 0, 0, FS)
        energy = rir.taps**2
        edc = np.cumsum(energy[::-1])[::-1]
        edc_db = 10 * np.log10(np.maximum(edc / edc[0], 1e-30))
        # regress the -5..-25 dB slope, extrapolate to -60 dB
        idx = np.where((edc_db <= -5) & (edc_db >= -25))[0]
        slope = np.polyfit(idx / FS, edc_db[idx], 1)[0]
        t60_est = -60.0 / slope
        assert t60_est == pytest.approx(0.25, rel=0.35)

    def test_max_order_zero_keeps_only_direct_neighborhood(self):
        room = _small_room()
        full = generate_rir(room, 0, 0, FS)
        trunc = generate_rir(room, 0, 0, FS, max_order=1)
        # truncation never adds energy
        assert np.sum(trunc.taps**2) <= np.sum(full.taps**2) + 1e-12

    def test_energy_decays_with_absorption(self):
        live = _small_room(t60=0.4)
        dead = _small_room(t60=0.2)
        tail = slice(int(0.05 * FS), int(0.2 * FS))
        e_live = np.sum(generate_rir(live, 0, 0, FS).taps[tail] ** 2)
        e_dead = np.sum(generate_rir(dead, 0, 0, FS).taps[tail] ** 2)
        assert e_live > e_dead


def _per_tap_sinc_taps(rir, delays, amps, half_width):
    """One tap at a time, straight from the windowed-sinc definition."""
    for d, a in zip(delays, amps):
        base = math.floor(d)
        for j in range(-half_width, half_width + 1):
            pos = base + j
            if not 0 <= pos < len(rir):
                continue
            arg = j - (d - base)
            sinc = 1.0 if arg == 0 else math.sin(math.pi * arg) / (math.pi * arg)
            window = 0.5 * (1.0 + math.cos(math.pi * arg / (half_width + 1)))
            rir[pos] += a * sinc * window
    return rir


_N_TAPS = 400
_WHOLE = np.floor(np.random.default_rng(1).uniform(0, _N_TAPS, 10))


class TestKernels:
    @pytest.mark.parametrize(
        "delays",
        [
            np.random.default_rng(2).uniform(-2 * SINC_HALF_WIDTH, 0, 40),
            np.random.default_rng(3).uniform(_N_TAPS - 1, _N_TAPS + 2 * SINC_HALF_WIDTH, 40),
            np.array([-SINC_HALF_WIDTH - 5.0, 0.0, 17.0, _N_TAPS - 1.0, _N_TAPS + 3.0]),
            np.concatenate([_WHOLE + 1e-9, _WHOLE + 1.0 - 1e-9]),
            np.random.default_rng(4).uniform(0, _N_TAPS, 500),
        ],
        ids=["below-0", "past-end", "integer", "next-to-integer", "random"],
    )
    def test_matches_per_tap_oracle(self, delays):
        from farfield.kernels import accumulate_sinc_taps

        amps = np.random.default_rng(0).standard_normal(len(delays))
        got = accumulate_sinc_taps(np.zeros(_N_TAPS), delays, amps)
        want = _per_tap_sinc_taps(np.zeros(_N_TAPS), delays, amps, SINC_HALF_WIDTH)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_integer_delay_is_exact_impulse(self):
        from farfield.kernels import accumulate_sinc_taps

        rir = np.zeros(200)
        accumulate_sinc_taps(rir, np.array([100.0]), np.array([0.5]))
        assert rir[100] == pytest.approx(0.5)
        mask = np.ones(200, dtype=bool)
        mask[100] = False
        assert np.max(np.abs(rir[mask])) < 1e-12


class TestScipyOracle:
    """The simulator's numpy filter and convolution give scipy.signal's bytes.

    scipy is the oracle here only; farfield itself imports no scipy module.
    """

    @pytest.mark.parametrize("sample_rate", [8000, 11025, 16000, 22050, 44100, 48000])
    def test_butter_highpass_coefficients(self, sample_rate):
        for cutoff in (20.0, 50.0, 80.0, 125.0, 300.0, 1000.0, 3500.0):
            b, a = butter_highpass(cutoff, sample_rate)
            want_b, want_a = scipy.signal.butter(2, cutoff / (sample_rate / 2.0),
                                                 btype="highpass")
            assert b.dtype == want_b.dtype and a.dtype == want_a.dtype
            assert np.array_equal(b, want_b) and np.array_equal(a, want_a), cutoff

    @pytest.mark.parametrize("cutoff", [0.0, -80.0, 8000.0, 9000.0])
    def test_butter_highpass_cutoff_outside_band_rejected(self, cutoff):
        with pytest.raises(DataError):
            butter_highpass(cutoff, 16000)

    def test_lfilter_biquad(self):
        rng = np.random.default_rng(5)
        lengths = [*range(1, 20), *rng.integers(20, 40_000, 25), 40_000]
        for cutoff, n in zip(rng.uniform(20.0, 4000.0, len(lengths)), lengths):
            b, a = scipy.signal.butter(2, cutoff / 8000.0, btype="highpass")
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 2)
            assert np.array_equal(lfilter_biquad(b, a, x), scipy.signal.lfilter(b, a, x)), n

    def test_lfilter_biquad_normalises_by_a0(self):
        b, a = scipy.signal.butter(2, 0.01, btype="highpass")
        x = np.random.default_rng(6).standard_normal(1000)
        assert np.array_equal(lfilter_biquad(3.0 * b, 3.0 * a, x),
                              scipy.signal.lfilter(3.0 * b, 3.0 * a, x))

    def test_fftconvolve(self):
        rng = np.random.default_rng(7)
        shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 700), (700, 1), (2, 2),
                  *rng.integers(0, 3000, (300, 2)), (200_000, 9_000)]
        for n_a, n_b in shapes:
            a, b = rng.standard_normal(n_a), rng.standard_normal(n_b)
            got, want = fftconvolve(a, b), scipy.signal.fftconvolve(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype, (n_a, n_b)
            assert np.array_equal(got, want), (n_a, n_b)

    def test_next_fast_len(self):
        assert [next_fast_len(n) for n in range(10_001)] == [
            scipy.fft.next_fast_len(n, real=True) for n in range(10_001)]

    def test_generate_rir_high_pass(self):
        room = _small_room(0.4)
        raw = generate_rir(room, 0, 0, FS, highpass_hz=0.0).taps
        b, a = scipy.signal.butter(2, 80.0 / (FS / 2.0), btype="highpass")
        assert np.array_equal(generate_rir(room, 0, 0, FS).taps, scipy.signal.lfilter(b, a, raw))


class TestSampleRoom:
    def test_deterministic_per_seed(self):
        a = sample_room(_FAST_RANGES, seed=3)
        b = sample_room(_FAST_RANGES, seed=3)
        np.testing.assert_array_equal(a.source_positions, b.source_positions)
        assert a.t60 == b.t60

    def test_counts_and_constraints(self):
        room = sample_room(_FAST_RANGES, seed=1)
        assert room.source_positions.shape == (3, 3)
        assert room.receiver_positions.shape == (4, 3)
        for pos in (room.source_positions, room.receiver_positions):
            assert np.all(pos >= _FAST_RANGES.wall_clearance - 1e-12)
            assert np.all(pos <= room.dimensions - _FAST_RANGES.wall_clearance + 1e-12)
        dists = np.linalg.norm(
            room.source_positions[:, None] - room.receiver_positions[None], axis=2
        )
        assert dists.min() >= _FAST_RANGES.min_spacing

    def test_default_ranges_counts(self):
        room = sample_room(RoomRanges(), seed=0)
        assert room.source_positions.shape == (20, 3)
        assert room.receiver_positions.shape == (10, 3)

    @pytest.mark.parametrize("seed", [604, 2359])
    def test_default_ranges_seeds_needing_many_tries(self, seed):
        # these seeds place all 30 points only after 295 and 207 tries
        ranges = RoomRanges()
        room = sample_room(ranges, seed=seed)
        dists = np.linalg.norm(
            room.source_positions[:, None] - room.receiver_positions[None], axis=2
        )
        assert dists.min() >= ranges.min_spacing


class TestRangeChecks:
    @pytest.mark.parametrize("values", [
        {"dim_min": (4.0, 3.0)}, {"dim_max": (9.0, 7.0, math.inf)}, {"num_sources": 0},
        {"num_receivers": 0}, {"wall_clearance": -0.1}, {"min_spacing": -1.0},
    ])
    def test_room_ranges_rejected(self, values):
        with pytest.raises(DataError):
            RoomRanges(**values)

    @pytest.mark.parametrize("values", [
        {"p_overlap": 1.5}, {"p_overlap": -0.1}, {"p_overlap": math.nan},
        {"overlap_mean": 0.0}, {"overlap_mean": math.nan}, {"pause_log_sigma": -1.0},
        {"utterance_log_median": math.inf}, {"pause_log_median": 0.0},
        {"utterance_log_sigma": 0.0},
    ])
    def test_overlap_stats_rejected(self, values):
        with pytest.raises(DataError):
            OverlapStats(**values)

    def test_overlap_stats_bounds_accepted(self):
        OverlapStats(p_overlap=0.0)
        OverlapStats(p_overlap=1.0)


class TestSampleConversation:
    def test_deterministic(self):
        a = sample_conversation(OverlapStats(), 4, 60.0, seed=5)
        b = sample_conversation(OverlapStats(), 4, 60.0, seed=5)
        assert a == b

    def test_no_triple_overlap_and_no_self_follow(self):
        for seed in range(10):
            schedule = sample_conversation(OverlapStats(p_overlap=0.6), 3, 120.0, seed=seed)
            events = []
            for u in schedule:
                events.append((u.start, 1))
                events.append((u.end, -1))
            depth = peak = 0
            for _, delta in sorted(events):
                depth += delta
                peak = max(peak, depth)
            assert peak <= 2
            for prev, cur in zip(schedule, schedule[1:]):
                assert cur.speaker != prev.speaker

    def test_starts_sorted_and_in_range(self):
        schedule = sample_conversation(OverlapStats(), 4, 30.0, seed=2)
        starts = [u.start for u in schedule]
        assert starts == sorted(starts)
        assert all(0 <= s < 30.0 for s in starts)

    def test_single_speaker_never_overlaps(self):
        schedule = sample_conversation(OverlapStats(p_overlap=0.9), 1, 60.0, seed=0)
        for prev, cur in zip(schedule, schedule[1:]):
            assert cur.start >= prev.end


class TestSimulateMixture:
    def _setup(self):
        rng = np.random.default_rng(11)
        room = sample_room(_FAST_RANGES, seed=7)
        dry = {
            "u0": 0.1 * rng.standard_normal(int(0.5 * FS)),
            "u1": 0.1 * rng.standard_normal(int(0.4 * FS)),
            "noise": 0.05 * rng.standard_normal(2 * FS),
        }
        spec = MixtureSpec(
            speakers=2,
            utterances=((0, "u0", 0.2), (1, "u1", 1.0)),
            duration=2.0,
            channels=2,
            noise_ref="noise",
            snr_db=10.0,
        )
        return spec, room, dry

    def test_mixture_is_sum_of_components(self):
        spec, room, dry = self._setup()
        audio, seg, images, noise = simulate_mixture(
            spec, room, dry, FS, return_components=True
        )
        total = sum(images.values()) + noise
        np.testing.assert_allclose(audio.samples, total, atol=1e-12)

    def test_snr_target_met(self):
        spec, room, dry = self._setup()
        audio, seg, images, noise = simulate_mixture(
            spec, room, dry, FS, return_components=True
        )
        speech = sum(images.values())
        snr = 10 * np.log10(np.mean(speech**2) / np.mean(noise**2))
        assert snr == pytest.approx(10.0, abs=1e-6)

    def test_segmentation_matches_utterances(self):
        spec, room, dry = self._setup()
        _, seg = simulate_mixture(spec, room, dry, FS)
        assert len(seg.turns) == 2
        assert seg.turns[0].speaker == "spk00"
        assert seg.turns[0].start == pytest.approx(0.2)
        assert seg.turns[0].end == pytest.approx(0.2 + 0.5)
        assert seg.turns[1].speaker == "spk01"

    def test_missing_dry_ref_rejected(self):
        spec, room, dry = self._setup()
        del dry["u1"]
        with pytest.raises(DataError):
            simulate_mixture(spec, room, dry, FS)

    def test_too_many_channels_rejected(self):
        _, room, dry = self._setup()
        spec = MixtureSpec(1, ((0, "u0", 0.0),), 1.0, channels=99)
        with pytest.raises(DataError):
            simulate_mixture(spec, room, dry, FS)

    def test_more_speakers_than_sources_rejected(self):
        # _FAST_RANGES places 3 sources, so a fourth speaker has no position of its own
        _, room, dry = self._setup()
        spec = MixtureSpec(4, ((3, "u0", 0.0),), 1.0, channels=2)
        with pytest.raises(DataError, match="more speakers requested than sources"):
            simulate_mixture(spec, room, dry, FS)
        with pytest.raises(ConfigError, match="speakers 4 exceed room_ranges.num_sources 3"):
            SimulationConfig(speakers=4, channels=2, room_ranges=_FAST_RANGES)

    def test_noise_ref_without_snr_rejected(self):
        # a named noise with no level to mix it at would give a clean session
        with pytest.raises(DataError, match="snr_db"):
            MixtureSpec(1, ((0, "u0", 0.0),), 1.0, channels=2, noise_ref="noise")
        assert MixtureSpec(1, (), 1.0, channels=2, noise_ref="noise", snr_db=np.inf)

    def test_nan_snr_rejected(self):
        # np.isfinite(nan) is False, which would mix no noise at all
        for noise_ref in ("noise", None):
            with pytest.raises(DataError, match="snr_db"):
                MixtureSpec(1, ((0, "u0", 0.0),), 1.0, channels=2, noise_ref=noise_ref,
                            snr_db=float("nan"))

    def test_silent_speech_gets_noise_at_unit_gain(self):
        _, room, dry = self._setup()
        spec = MixtureSpec(1, (), 2.0, channels=2, noise_ref="noise", snr_db=10.0)
        audio, seg, images, noise = simulate_mixture(spec, room, dry, FS, return_components=True)
        # 2 s of mono noise fill the 2 s session once: tiled over channels, no offset
        expected = np.tile(dry["noise"], (2, 1))
        np.testing.assert_array_equal(noise, expected)
        np.testing.assert_array_equal(audio.samples, expected)
        assert not seg.turns and not np.any(images[0])
