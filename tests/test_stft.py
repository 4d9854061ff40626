import numpy as np
import pytest

from farfield.audio import MultichannelAudio
from farfield.errors import DataError
from farfield.stft import (_FRAMES, StftParams, frame_count, frame_span, istft, overlap_add,
                           overlap_add_audio, stft, stft_frames)

FS = 16000


def _audio(samples):
    return MultichannelAudio(np.atleast_2d(samples), FS)


def test_zero_signal_gives_zero_tensor():
    tensor = stft(_audio(np.zeros(4000)))
    assert np.all(tensor.values == 0)


def test_linearity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(5000)
    b = rng.standard_normal(5000)
    sa = stft(_audio(a)).values
    sb = stft(_audio(b)).values
    sab = stft(_audio(a + b)).values
    np.testing.assert_allclose(sab, sa + sb, atol=1e-12)


def test_sinusoid_energy_concentrates_in_bin():
    # bin-center frequency: k * fs / frame_length, frame >= 4 periods
    params = StftParams(1024, 256, "hann")
    k = 32
    freq = k * FS / params.frame_length
    t = np.arange(FS) / FS
    tensor = stft(_audio(np.sin(2 * np.pi * freq * t)), params)
    # interior frame, away from padding edges
    frame = np.abs(tensor.values[0, tensor.num_frames // 2]) ** 2
    # reference: brute-force DFT of the windowed sinusoid frame
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(1024) / 1024)
    start = (tensor.num_frames // 2) * 256 - 512  # center-padding offset
    seg = np.sin(2 * np.pi * freq * (np.arange(start, start + 1024) / FS)) * window
    n = np.arange(1024)
    dft = np.array([np.sum(seg * np.exp(-2j * np.pi * kk * n / 1024)) for kk in range(513)])
    np.testing.assert_allclose(tensor.values[0, tensor.num_frames // 2], dft, atol=1e-9)
    assert frame[k] / frame.sum() >= 0.49  # k plus leakage into k+-1 only
    assert (frame[k - 1 : k + 2].sum()) / frame.sum() >= 0.99


@pytest.mark.parametrize("window", ["hann", "sqrt_hann"])
@pytest.mark.parametrize("shift", [256, 512])
def test_round_trip_all_cola_configs(window, shift):
    params = StftParams(1024, shift, window)
    rng = np.random.default_rng(7)
    x = _audio(rng.standard_normal((3, 12345)))
    y = istft(stft(x, params))
    assert y.samples.shape == x.samples.shape
    err = np.linalg.norm(y.samples - x.samples) / np.linalg.norm(x.samples)
    assert err < 1e-6


def test_round_trip_sqrt_hann_half_overlap_multichannel():
    params = StftParams(512, 256, "sqrt_hann")
    rng = np.random.default_rng(3)
    x = _audio(rng.standard_normal((3, 8000)))
    y = istft(stft(x, params))
    err = np.linalg.norm(y.samples - x.samples) / np.linalg.norm(x.samples)
    assert err < 1e-6


def test_zero_tensor_inverts_to_zero():
    tensor = stft(_audio(np.zeros(4000)))
    y = istft(tensor)
    assert np.all(y.samples == 0)


def test_parseval_per_frame():
    params = StftParams(512, 128, "hann")
    rng = np.random.default_rng(11)
    x = _audio(rng.standard_normal(4000))
    tensor = stft(x, params)
    # windowed-frame time energy equals spectral energy (onesided doubling)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(512) / 512)
    padded = np.pad(x.samples[0], (256, 256))
    t = tensor.num_frames // 2
    frame = padded[t * 128 : t * 128 + 512] * window
    spec = tensor.values[0, t]
    spectral = (np.abs(spec[0]) ** 2 + 2 * np.sum(np.abs(spec[1:-1]) ** 2)
                + np.abs(spec[-1]) ** 2) / 512
    assert abs(np.sum(frame**2) - spectral) <= 1e-6 * max(spectral, 1.0)


def test_channel_order_preserved_and_deterministic():
    rng = np.random.default_rng(5)
    x = _audio(rng.standard_normal((4, 5000)))
    t1 = stft(x)
    t2 = stft(x)
    np.testing.assert_array_equal(t1.values, t2.values)
    single = stft(x.channel(2))
    np.testing.assert_allclose(t1.values[2], single.values[0])


def test_errors():
    with pytest.raises(DataError):
        stft(MultichannelAudio(np.empty((1, 0)), FS))
    with pytest.raises(DataError):
        StftParams(256, 512)
    # non-invertible overlap: hann with shift == frame_length
    with pytest.raises(DataError, match="not invertible"):
        StftParams(512, 512, "hann")


def _window(params):
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(params.frame_length) / params.frame_length)
    return np.sqrt(hann) if params.window == "sqrt_hann" else hann


def _stft_one_shot(samples, params):
    """Reference: every frame gathered, windowed and transformed in one call."""
    length, shift = params.frame_length, params.frame_shift
    x = np.pad(samples, ((0, 0), (length // 2, length // 2)))
    n_frames = max(1, int(np.ceil((x.shape[1] - length) / shift)) + 1)
    x = np.pad(x, ((0, 0), (0, (n_frames - 1) * shift + length - x.shape[1])))
    idx = np.arange(length)[None, :] + shift * np.arange(n_frames)[:, None]
    return np.fft.rfft(x[:, idx] * _window(params), axis=-1)


def _istft_one_shot(values, params, num_samples):
    """Reference: every frame inverted in one call, then overlap-added in frame order."""
    length, shift = params.frame_length, params.frame_shift
    window = _window(params)
    frames = np.fft.irfft(values, n=length, axis=-1) * window
    total = (frames.shape[1] - 1) * shift + length
    out = np.zeros((frames.shape[0], total))
    norm = np.zeros(total)
    for t in range(frames.shape[1]):
        out[:, t * shift : t * shift + length] += frames[:, t]
        norm[t * shift : t * shift + length] += window * window
    out /= np.maximum(norm, 1e-12)
    return out[:, length // 2 : length // 2 + num_samples]


@pytest.mark.parametrize("window", ["hann", "sqrt_hann"])
def test_frame_slices_equal_one_shot(window):
    # more frames than one slice and not a multiple of it
    params = StftParams(64, 16, window)
    frames = 2 * _FRAMES + 37
    n = (frames - 1) * 16 - 5
    x = np.random.default_rng(13).standard_normal((3, n))
    tensor = stft(_audio(x), params)
    assert tensor.num_frames == frames
    assert np.array_equal(tensor.values, _stft_one_shot(x, params))
    back = istft(tensor)
    assert np.array_equal(back.samples, _istft_one_shot(tensor.values, params, n))


@pytest.mark.parametrize("window, shift", [("hann", 16), ("sqrt_hann", 32), ("hann", 48)])
def test_frame_runs_equal_whole_analysis(window, shift):
    # runs of frames, the first and last reaching into the padding and one
    # longer than a slice, give the whole analysis's frames; overlap-added run
    # by run in frame order they give istft's samples
    params = StftParams(64, shift, window)
    n = 3 * _FRAMES * shift // 2 + 11
    x = np.random.default_rng(14).standard_normal((2, n))
    whole = stft(_audio(x), params)
    n_frames = frame_count(n, params)
    assert whole.num_frames == n_frames
    out = np.zeros((2, frame_span(n_frames, params)))
    edges = [0, 1, 7, _FRAMES + 9, n_frames - 2, n_frames]
    for lo, hi in zip(edges, edges[1:]):
        run = stft_frames(_audio(x), params, slice(lo, hi))
        assert run.num_samples is None
        assert np.array_equal(run.values, whole.values[:, lo:hi])
        overlap_add(out, run.values, params, lo)
    assert np.array_equal(overlap_add_audio(out, params, FS, n).samples, istft(whole).samples)


@pytest.mark.parametrize("frames", [slice(5, 5), slice(0, 10, 2), slice(10**6, None)])
def test_empty_or_strided_frame_run_rejected(frames):
    with pytest.raises(DataError, match="no run of frames"):
        stft_frames(_audio(np.ones((1, 1000))), StftParams(64, 16), frames)
