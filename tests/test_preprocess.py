import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import preprocess
from farfield.audio import MultichannelAudio, stack_channel_files, write_wav
from farfield.config import PipelineConfig, from_json
from farfield.errors import DataError
import farfield.pipeline
from farfield.pipeline import load_config, load_manifest, run_preprocess
from farfield.preprocess import (
    ChannelRanking,
    ClipNormConfig,
    WpeConfig,
    clip_normalize,
    envelope_variance_rank,
    mel_filterbank,
    select_top_channels,
    wpe_block_frames,
    wpe_dereverberate,
)
from farfield.stft import (_FRAMES, SpectralTensor, StftParams, frame_count, frame_span, istft,
                           stft)

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


def _whole_session_rank(audio):
    """envelope_variance_rank as it was, on every channel's spectrum at once."""
    spec = stft(audio, StftParams(frame_length=512, frame_shift=256))
    power = np.abs(spec.values) ** 2  # (C, T, F)
    bank = mel_filterbank(40, spec.num_bins, audio.sample_rate)
    envelopes = np.log(power @ bank.T + 1e-30)  # (C, T, B)
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


class TestRankByChannel:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_whole_session_rank(self, seed):
        # 1-8 channels of 0.1-6 s at gains up to a thousand apart, with a
        # silent channel in every fourth session
        rng = np.random.default_rng(300 + seed)
        channels, n = int(rng.integers(1, 9)), int(rng.integers(FS // 10, 6 * FS))
        x = np.vstack([rng.uniform(1e-3, 1.0) * _am_noise(rng, n, rate=rng.uniform(1.0, 9.0))
                       for _ in range(channels)])
        if seed % 4 == 0:
            x[int(rng.integers(channels))] = 0.0
        audio = MultichannelAudio(x, FS)
        got, want = envelope_variance_rank(audio), _whole_session_rank(audio)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert np.array_equal(got.order, want.order)


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
        before = tensor.values.copy()
        wpe_dereverberate(tensor, WpeConfig(taps=2, delay=2, iterations=2))
        num = np.linalg.norm(tensor.values - before, axis=(0, 1))
        den = np.linalg.norm(before, axis=(0, 1))
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
        wpe_dereverberate(tensor, WpeConfig(taps=10, delay=2, iterations=3))
        processed = istft(tensor)
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
        shape = tensor.values.shape
        wpe_dereverberate(tensor)
        assert tensor.values.shape == shape
        assert np.all(tensor.values == 0)

    def test_short_segment_passthrough(self):
        # fewer frames than taps + delay: prediction impossible, identity
        rng = np.random.default_rng(8)
        x = MultichannelAudio(rng.standard_normal((2, 2048)), FS)
        tensor = stft(x, StftParams(1024, 512, "hann"))
        before = tensor.values.copy()
        wpe_dereverberate(tensor, WpeConfig(taps=10, delay=2))
        np.testing.assert_array_equal(tensor.values, before)

    def test_in_place_returns_none(self):
        # like list.sort: a caller that expects a fresh tensor fails at once
        rng = np.random.default_rng(10)
        tensor = stft(MultichannelAudio(rng.standard_normal((2, FS)), FS), StftParams(256, 128))
        buffer, before = tensor.values, tensor.values.copy()
        assert wpe_dereverberate(tensor, WpeConfig(taps=2, delay=2, iterations=1)) is None
        assert tensor.values is buffer and np.shares_memory(tensor.values, buffer)
        assert not np.array_equal(tensor.values, before)


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
        return SpectralTensor(values, StftParams(2 * (n_bins - 1), shift), FS)

    def test_equals_one_shot_reference(self):
        # more bins than one slice and not a multiple of it; four time blocks,
        # the last shorter than taps + delay
        n_bins = 4 * preprocess._BINS + 3
        tensor = self._tensor(n_bins, 123)
        block_frames = 40
        cfg = WpeConfig(taps=3, delay=2, iterations=2,
                        block_length=block_frames * tensor.frame_shift / FS)
        ref = _wpe_all_bins(tensor.values.transpose(2, 0, 1).copy(), 3, 2, 2, block_frames)
        wpe_dereverberate(tensor, cfg)
        assert np.array_equal(tensor.values, ref.transpose(1, 2, 0))

    def test_peak_memory_bounded_by_bin_slice(self):
        channels, n_frames, n_bins = 4, 625, 513
        tensor = self._tensor(n_bins, n_frames, shift=256, channels=channels)
        cfg = WpeConfig()  # one 120 s block holds all 625 frames
        tracemalloc.start()
        try:
            wpe_dereverberate(tensor, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # four (bins, channels*taps, frames) work arrays of one slice; the result
        # goes back into the input, so no output of the tensor's size is made
        work = 4 * preprocess._BINS * channels * cfg.taps * n_frames * 16
        assert peak < work < tensor.values.nbytes


def _whole_session_files(session, config, out):
    """run_preprocess's four files as the whole-session expression wrote them."""
    cfg = from_json(PipelineConfig, config)
    normalized = clip_normalize(stack_channel_files(session["channels"]),
                                cfg.preprocess.clip_config)
    spec = stft(normalized, cfg.stft)
    wpe_dereverberate(spec, cfg.preprocess.wpe_config)
    dereverbed = istft(spec)
    ranking = _whole_session_rank(dereverbed)
    out.mkdir()
    write_wav(out / "normalized.wav", normalized)
    write_wav(out / "wpe.wav", dereverbed)
    lines = ["channel\tscore\trank"] + [f"{int(ch)}\t{ranking.scores[ch]:.6f}\t{rank}"
                                         for rank, ch in enumerate(ranking.order)]
    (out / "ranking.txt").write_text("\n".join(lines) + "\n")
    (out / "selected.json").write_text(
        json.dumps(select_top_channels(ranking, cfg.preprocess.selection_fraction)))


class TestPreprocessByBlocks:
    @pytest.mark.parametrize("block_seconds", [1.9, WpeConfig.block_length])
    def test_demo_equals_whole_session(self, demo_manifest, tmp_path, monkeypatch,
                                       block_seconds):
        # 1.9 s is 119 frames: the 16 s demo's 1,001 frames are 8 whole blocks and
        # one of 49 frames; the default is one block
        session = load_manifest(demo_manifest)[0]
        config = load_config(None, {"preprocess.block_seconds": block_seconds})
        cfg = from_json(PipelineConfig, config)
        n_frames = frame_count(16 * FS, cfg.stft)
        block = wpe_block_frames(cfg.preprocess.wpe_config, FS, cfg.stft.frame_shift)
        blocks = -(-n_frames // block)
        assert blocks == 1 or (blocks >= 9 and n_frames % block)
        calls = []

        def wpe(tensor, wpe_cfg):
            calls.append(tensor.num_frames)
            return wpe_dereverberate(tensor, wpe_cfg)

        monkeypatch.setattr(farfield.pipeline, "wpe_dereverberate", wpe)
        result = run_preprocess(session, config, tmp_path / "run")
        assert len(calls) == blocks and sum(calls) == n_frames
        _whole_session_files(session, config, tmp_path / "whole")
        for key in ("orig", "wpe", "ranking", "selected"):
            assert result[key].read_bytes() == (tmp_path / "whole" / result[key].name).read_bytes()

    @pytest.mark.parametrize("seconds", [12, 36])
    def test_peak_memory_bounded_by_blocks(self, tmp_path, seconds):
        # 4 channels at 8 kHz in 4 s blocks of 125 frames: 3 and 9 blocks, and a
        # last one of a frame. The block loop holds the normalized audio, the
        # overlap-add output, one block's spectrum (dereverberated in place) and
        # one slice of work, one channel's FFT slice or WPE's bin slice; clipping
        # holds the audio and one channel's temporaries, which is less. Neither a
        # second block spectrum nor the whole session's is ever held
        rate, channels, n = 8000, 4, seconds * 8000
        rng = np.random.default_rng(seconds)
        paths = []
        for c in range(channels):
            paths.append(tmp_path / f"ch{c}.wav")
            write_wav(paths[-1], MultichannelAudio(_am_noise(rng, n), rate))
        config = load_config(None, {"preprocess.block_seconds": 4.0})
        cfg = from_json(PipelineConfig, config)
        params = cfg.stft
        frames = wpe_block_frames(cfg.preprocess.wpe_config, rate, params.frame_shift)
        audio = channels * n * 8  # the normalized audio, float64
        output = channels * frame_span(frame_count(n, params), params) * 8  # audio and padding
        spectrum = channels * frames * params.num_bins * 16  # one block's
        # one channel's padded run of samples, its windowed frames and their transforms
        fft_slice = (frame_span(frames, params) * 8
                     + min(frames, _FRAMES) * (params.frame_length * 8 + params.num_bins * 16))
        wpe_slice = 4 * preprocess._BINS * channels * cfg.preprocess.wpe_taps * frames * 16
        small = 256 * 1024  # the window, views and Python objects
        tracemalloc.start()
        try:
            run_preprocess({"session_id": "s", "channels": paths}, config, tmp_path / "run")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < audio + output + spectrum + max(fft_slice, wpe_slice) + small

    def test_one_block_wpe_holds_only_its_spectrum(self, tmp_path, monkeypatch):
        # on the last block the clipped audio is released before WPE runs, and
        # the output buffer is made after WPE returns: what WPE gets is about
        # all that is held
        rate, channels, n = 8000, 4, 12 * 8000
        rng = np.random.default_rng(5)
        paths = []
        for c in range(channels):
            paths.append(tmp_path / f"ch{c}.wav")
            write_wav(paths[-1], MultichannelAudio(_am_noise(rng, n), rate))
        held = []

        def wpe(tensor, wpe_cfg):
            held.append(tracemalloc.get_traced_memory()[0] - tensor.values.nbytes)
            return wpe_dereverberate(tensor, wpe_cfg)

        session, config = {"session_id": "s", "channels": paths}, load_config()
        run_preprocess(session, config, tmp_path / "warm")  # modules numpy imports lazily
        monkeypatch.setattr(farfield.pipeline, "wpe_dereverberate", wpe)
        tracemalloc.start()
        try:
            run_preprocess(session, config, tmp_path / "run")
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] < channels * n * 8 // 4
