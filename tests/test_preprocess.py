import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import preprocess
from farfield.audio import MultichannelAudio
from farfield.errors import DataError
from farfield.preprocess import (
    ChannelRanking,
    ClipNormConfig,
    WpeConfig,
    clip_normalize,
    envelope_variance_rank,
    select_top_channels,
    wpe_dereverberate,
)
from farfield.stft import SpectralTensor, StftParams, stft

FS = 16000


def _audio(samples):
    return MultichannelAudio(np.atleast_2d(np.asarray(samples, dtype=float)), FS)


class TestClipNormalize:
    def test_hand_computed_two_step_rule(self):
        # median |x| = 0.2 is the threshold; clip then scale peak to 1.0 (factor 5)
        x = _audio([0.1, -0.2, 5.0])
        out = clip_normalize(x, ClipNormConfig(percentile=0.5, target_peak=1.0))
        np.testing.assert_allclose(out.samples[0], [0.5, -1.0, 1.0])

    def test_zero_channel_passes_through(self):
        x = _audio(np.zeros(100))
        out = clip_normalize(x)
        assert np.all(out.samples == 0)

    def test_below_threshold_is_pure_rescale(self):
        rng = np.random.default_rng(0)
        sig = 0.1 * rng.standard_normal(1000)
        out = clip_normalize(_audio(sig), ClipNormConfig(percentile=1.0, target_peak=0.5))
        scale = 0.5 / np.max(np.abs(sig))
        np.testing.assert_allclose(out.samples[0], sig * scale)

    def test_idempotent_at_full_percentile_and_matching_peak(self):
        rng = np.random.default_rng(1)
        sig = rng.standard_normal(500)
        cfg = ClipNormConfig(percentile=1.0, target_peak=0.95)
        once = clip_normalize(_audio(sig), cfg)
        twice = clip_normalize(once, cfg)
        np.testing.assert_allclose(twice.samples, once.samples)


def _am_noise(rng, n, rate=4.0):
    # amplitude-modulated noise: speech-like envelope dynamics
    t = np.arange(n) / FS
    envelope = 1.0 + 0.9 * np.sin(2 * np.pi * rate * t)
    return envelope * rng.standard_normal(n)


class TestEnvelopeVariance:
    def test_identical_channels_tie_with_identity_order(self):
        rng = np.random.default_rng(2)
        sig = _am_noise(rng, FS)
        ranking = envelope_variance_rank(MultichannelAudio(np.vstack([sig, sig]), FS))
        assert ranking.scores[0] == pytest.approx(ranking.scores[1])
        np.testing.assert_array_equal(ranking.order, [0, 1])

    def test_reverberant_channel_ranks_below_dry(self):
        rng = np.random.default_rng(3)
        dry = _am_noise(rng, 2 * FS)
        # long exponentially decaying tail smears the envelope
        tail = np.exp(-np.arange(int(0.6 * FS)) / (0.15 * FS))
        tail *= rng.standard_normal(len(tail))
        tail[0] = 1.0
        wet = np.convolve(dry, tail)[: len(dry)]
        ranking = envelope_variance_rank(MultichannelAudio(np.vstack([dry, wet]), FS))
        assert ranking.scores[0] > ranking.scores[1]
        assert list(ranking.order) == [0, 1]

    def test_silent_channel_scores_zero_and_ranks_last(self):
        rng = np.random.default_rng(4)
        sigs = np.vstack([_am_noise(rng, FS), _am_noise(rng, FS), np.zeros(FS)])
        ranking = envelope_variance_rank(MultichannelAudio(sigs, FS))
        assert ranking.scores[2] == 0.0
        assert ranking.order[-1] == 2

    def test_gain_invariance_of_order(self):
        rng = np.random.default_rng(5)
        sigs = np.vstack([_am_noise(rng, FS, r) for r in (2.0, 5.0, 9.0)])
        base = envelope_variance_rank(MultichannelAudio(sigs, FS))
        scaled = sigs.copy()
        scaled[1] *= 37.5
        after = envelope_variance_rank(MultichannelAudio(scaled, FS))
        np.testing.assert_array_equal(base.order, after.order)


class TestSelectTopChannels:
    def _ranking(self, n):
        scores = np.linspace(1.0, 0.1, n)
        return ChannelRanking(scores=scores, order=np.arange(n))

    def test_eighty_percent_of_ten(self):
        assert select_top_channels(self._ranking(10), 0.8) == list(range(8))

    def test_full_fraction_keeps_all(self):
        assert select_top_channels(self._ranking(7), 1.0) == list(range(7))

    def test_ceiling_rule(self):
        assert len(select_top_channels(self._ranking(5), 0.5)) == 3

    @given(n=st.integers(1, 32), frac=st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_size_is_exactly_ceil(self, n, frac):
        out = select_top_channels(self._ranking(n), frac)
        assert len(out) == int(np.ceil(frac * n))


class TestWpe:
    def test_anechoic_noise_nearly_unchanged(self):
        # delay * shift >= frame_length so delayed frames share no samples;
        # long signal keeps the regression from fitting noise correlations
        rng = np.random.default_rng(6)
        x = MultichannelAudio(rng.standard_normal((2, 60 * FS)), FS)
        params = StftParams(256, 128, "hann")
        tensor = stft(x, params)
        out = wpe_dereverberate(tensor, WpeConfig(taps=2, delay=2, iterations=2))
        num = np.linalg.norm(out.values - tensor.values, axis=(0, 1))
        den = np.linalg.norm(tensor.values, axis=(0, 1))
        assert np.all(num <= 0.05 * den)

    def test_reverberant_tail_energy_reduced(self):
        rng = np.random.default_rng(7)
        dry = np.zeros(3 * FS)
        dry[:: FS // 10] = rng.standard_normal(len(dry[:: FS // 10]))  # impulse train
        dry += 0.1 * rng.standard_normal(len(dry))
        t60 = 0.6
        rir_len = int(t60 * FS)
        rir = np.exp(-3.0 * np.log(10) * np.arange(rir_len) / rir_len)
        rir *= rng.standard_normal(rir_len)
        rir[0] = 1.0
        channels = []
        for c in range(3):
            shift_rir = np.roll(rir, c)  # slightly different paths per channel
            channels.append(np.convolve(dry, shift_rir)[: len(dry)])
        wet = MultichannelAudio(np.vstack(channels), FS)
        params = StftParams(512, 128, "hann")
        tensor = stft(wet, params)
        out = wpe_dereverberate(tensor, WpeConfig(taps=10, delay=2, iterations=3))
        from farfield.stft import istft

        processed = istft(out, params)
        # tail energy via deconvolution against the known dry source
        def tail_energy(sig):
            n = len(dry)
            spec_ratio = np.fft.rfft(sig, 2 * n) / np.maximum(
                np.abs(np.fft.rfft(dry, 2 * n)), 1e-6
            ) * np.exp(-1j * np.angle(np.fft.rfft(dry, 2 * n)))
            equiv = np.fft.irfft(spec_ratio)[:rir_len]
            cut = int(0.05 * FS)
            return np.sum(equiv[cut:] ** 2)

        assert tail_energy(processed.samples[0]) < tail_energy(wet.samples[0])

    def test_zero_input_zero_output_and_shape(self):
        x = MultichannelAudio(np.zeros((2, FS)), FS)
        tensor = stft(x)
        out = wpe_dereverberate(tensor)
        assert out.values.shape == tensor.values.shape
        assert np.all(out.values == 0)

    def test_short_segment_passthrough(self):
        # fewer frames than taps + delay: prediction impossible, identity
        rng = np.random.default_rng(8)
        x = MultichannelAudio(rng.standard_normal((2, 2048)), FS)
        tensor = stft(x, StftParams(1024, 512, "hann"))
        out = wpe_dereverberate(tensor, WpeConfig(taps=10, delay=2))
        np.testing.assert_array_equal(out.values, tensor.values)


def _wpe_all_bins(values, taps, delay, iterations, block_frames):
    """One-shot reference: every bin of a (F, C, T) block in one solve."""
    out = np.empty_like(values)
    n_bins, n_ch, n_frames = values.shape
    for start in range(0, n_frames, block_frames):
        block = values[:, :, start : start + block_frames]
        width = block.shape[2]
        if width < taps + delay:
            out[:, :, start : start + width] = block
            continue
        stacked = np.zeros((n_bins, n_ch * taps, width), dtype=block.dtype)
        for k in range(taps):
            d = delay + k
            stacked[:, k * n_ch : (k + 1) * n_ch, d:] = block[:, :, : width - d]
        dereverb = block
        for _ in range(iterations):
            power = np.maximum(np.mean(np.abs(dereverb) ** 2, axis=1), 1e-10)
            weighted = stacked / power[:, None, :]
            corr = weighted @ stacked.conj().transpose(0, 2, 1)
            cross = weighted @ block.conj().transpose(0, 2, 1)
            load = 1e-10 * np.trace(corr, axis1=1, axis2=2).real / (n_ch * taps)
            corr += (np.maximum(load, 1e-300)[:, None, None]) * np.eye(n_ch * taps)
            filters = np.linalg.solve(corr, cross)
            dereverb = block - filters.conj().transpose(0, 2, 1) @ stacked
        out[:, :, start : start + width] = dereverb
    return out


class TestWpeByBins:
    def _tensor(self, n_bins, n_frames, shift=16, channels=3, seed=9):
        rng = np.random.default_rng(seed)
        shape = (channels, n_frames, n_bins)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return SpectralTensor(values, shift, 2 * (n_bins - 1), FS)

    def test_equals_one_shot_reference(self):
        # more bins than one slice and not a multiple of it; four time blocks,
        # the last shorter than taps + delay
        n_bins = 4 * preprocess._BINS + 3
        tensor = self._tensor(n_bins, 123)
        block_frames = 40
        cfg = WpeConfig(taps=3, delay=2, iterations=2,
                        block_length=block_frames * tensor.frame_shift / FS)
        out = wpe_dereverberate(tensor, cfg)
        ref = _wpe_all_bins(tensor.values.transpose(2, 0, 1), 3, 2, 2, block_frames)
        assert np.array_equal(out.values, ref.transpose(1, 2, 0))

    def test_peak_memory_bounded_by_bin_slice(self):
        channels, n_frames, n_bins = 4, 625, 513
        tensor = self._tensor(n_bins, n_frames, shift=256, channels=channels)
        cfg = WpeConfig()  # one 120 s block holds all 625 frames
        tracemalloc.start()
        try:
            out = wpe_dereverberate(tensor, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output plus four (bins, channels*taps, frames) work arrays of one slice
        work = 4 * preprocess._BINS * channels * cfg.taps * n_frames * 16
        assert peak < out.values.nbytes + work
