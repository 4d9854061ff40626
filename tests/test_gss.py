import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from farfield import gss
from farfield.audio import MultichannelAudio, open_wav, read_wav, write_wav
from farfield.errors import DataError, NumericalError
from farfield.gss import (
    GssConfig,
    MaskTensor,
    _check_steps,
    _em_sweeps,
    _log_det,
    apply_vad_mask,
    build_priors,
    cacgmm_em,
    extract_speaker_segment,
    mvdr_beamform,
    resample_activities,
)
from farfield.segments import SoftActivity, Turn
from farfield.stft import SpectralTensor, StftParams

FS = 16000


def _tensor(values, sample_rate=FS):
    """values framed by the half-overlapping STFT of their bin count (64/32 for 33 bins)."""
    values = np.asarray(values, dtype=np.complex128)
    n_bins = values.shape[2]
    return SpectralTensor(
        values=values,
        params=StftParams(2 * (n_bins - 1), max(1, n_bins - 1)),
        sample_rate=sample_rate,
    )


def _activity(probs, step):
    return SoftActivity("s", np.asarray(probs, dtype=float), step)


def _rank1_scene(rng, n_ch=4, n_frames=60, n_bins=33, noise=1e-3):
    """Two rank-1 sources with partly exclusive activity plus weak white noise."""
    d1 = rng.standard_normal(n_ch) + 1j * rng.standard_normal(n_ch)
    d2 = rng.standard_normal(n_ch) + 1j * rng.standard_normal(n_ch)
    d1 /= np.linalg.norm(d1)
    d2 /= np.linalg.norm(d2)
    act = np.zeros((2, n_frames))
    act[0, :40] = 1.0
    act[1, 20:] = 1.0
    s1 = (rng.standard_normal((n_frames, n_bins))
          + 1j * rng.standard_normal((n_frames, n_bins))) * act[0][:, None]
    s2 = (rng.standard_normal((n_frames, n_bins))
          + 1j * rng.standard_normal((n_frames, n_bins))) * act[1][:, None]
    x = (d1[:, None, None] * s1[None] + d2[:, None, None] * s2[None]
         + noise * (rng.standard_normal((n_ch, n_frames, n_bins))
                    + 1j * rng.standard_normal((n_ch, n_frames, n_bins))))
    tensor = _tensor(x)
    activities = _activity(act, tensor.frame_step_seconds)
    return tensor, activities, (d1, d2), (s1, s2)


class TestPriors:
    def test_resample_nearest_frame(self):
        act = _activity([[0.0, 1.0, 0.5]], step=0.5)
        tensor = _tensor(np.zeros((2, 4, 33)), sample_rate=128)
        # a 32-sample hop at 128 Hz: frame times 0, 0.25, 0.5, 0.75 -> nearest
        # activity frames 0, 1, 1, 2
        out = resample_activities(act, tensor)
        np.testing.assert_allclose(out[0], [0.0, 1.0, 1.0, 0.5])

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(size=(3, 50))
        priors = build_priors(probs, GssConfig())
        np.testing.assert_allclose(priors.sum(axis=0), 1.0)
        assert priors.shape == (4, 50)  # noise source appended

    def test_noise_floor_in_fully_active_frames(self):
        probs = np.ones((2, 10))
        cfg = GssConfig(noise_floor=0.01)
        priors = build_priors(probs, cfg)
        np.testing.assert_allclose(priors[-1], 0.01 / 2.01)

    def test_silent_frames_get_uniform_without_noise_source(self):
        probs = np.zeros((3, 5))
        priors = build_priors(probs, GssConfig(add_noise_source=False))
        np.testing.assert_allclose(priors, 1.0 / 3.0)

    def test_no_noise_source_keeps_row_count(self):
        priors = build_priors(np.ones((2, 4)), GssConfig(add_noise_source=False))
        assert priors.shape == (2, 4)


class TestCacgmm:
    def test_masks_identify_exclusive_regions(self):
        rng = np.random.default_rng(1)
        tensor, activities, _, _ = _rank1_scene(rng)
        masks = cacgmm_em(tensor, activities, GssConfig(iterations=5))
        assert masks.gammas.shape == (3, 60, 33)  # 2 speakers + noise
        np.testing.assert_allclose(masks.gammas.sum(axis=0), 1.0, atol=1e-9)
        # exclusive regions: frames 5..15 belong to source 0, 45..55 to source 1
        assert masks.gammas[0, 5:15].mean() > 0.9
        assert masks.gammas[1, 5:15].mean() < 0.05
        assert masks.gammas[1, 45:55].mean() > 0.9
        assert masks.gammas[0, 45:55].mean() < 0.05
        # overlapped region splits between the two speakers, not the noise source
        assert masks.gammas[2, 25:35].mean() < 0.2

    def test_log_likelihood_improves(self):
        rng = np.random.default_rng(2)
        tensor, activities, _, _ = _rank1_scene(rng)
        masks = cacgmm_em(tensor, activities, GssConfig(iterations=5))
        assert masks.ll_history.shape == (33, 6)
        mean_ll = masks.ll_history.mean(axis=0)
        assert mean_ll[-1] > mean_ll[0]
        assert np.all(np.diff(mean_ll) >= -1e-6)

    def test_zero_energy_cells_inherit_prior(self):
        rng = np.random.default_rng(3)
        tensor, activities, _, _ = _rank1_scene(rng, noise=0.0)
        values = tensor.values.copy()
        values[:, 10, :] = 0.0  # kill one frame entirely
        tensor = _tensor(values)
        masks = cacgmm_em(tensor, activities, GssConfig(iterations=2, noise_floor=0.01))
        priors = build_priors(resample_activities(activities, tensor), GssConfig())
        expected = np.broadcast_to(priors[:, 10][:, None], (3, 33))
        np.testing.assert_allclose(masks.gammas[:, 10, :], expected, atol=1e-12)

    def test_single_channel_rejected(self):
        tensor = _tensor(np.zeros((1, 10, 33)))
        with pytest.raises(DataError):
            cacgmm_em(tensor, _activity(np.ones((1, 10)), tensor.frame_step_seconds))


def _reference_em_sweeps(z, valid, priors, iterations):
    """cACGMM EM written with einsum, inv and slogdet: the oracle for _em_sweeps."""
    n_bins, n_frames, n_ch = z.shape
    n_src = priors.shape[0]
    shape_mats = np.broadcast_to(
        np.eye(n_ch, dtype=np.complex128), (n_src, n_bins, n_ch, n_ch)
    ).copy()
    log_priors = np.log(np.maximum(priors, 1e-300))
    ll_history = np.empty((n_bins, iterations + 1))
    valid_count = np.maximum(valid.sum(axis=1), 1)

    def e_step(mats):
        loaded = mats + 1e-12 * np.eye(n_ch)
        inv = np.linalg.inv(loaded)
        sign, logdet = np.linalg.slogdet(loaded)
        assert np.all(sign.real > 0)
        quad = np.maximum(np.einsum("ftc,sfcd,ftd->sft", z.conj(), inv, z).real, 1e-10)
        log_joint = log_priors[:, None, :] - logdet[:, :, None] - n_ch * np.log(quad)
        shift = log_joint.max(axis=0, keepdims=True)
        log_norm = shift[0] + np.log(np.exp(log_joint - shift).sum(axis=0))
        post = np.exp(log_joint - log_norm[None])
        post = np.where(valid[None, :, :], post, priors[:, None, :])
        ll = np.where(valid, log_norm, 0.0).sum(axis=1) / valid_count
        return post, quad, ll

    for it in range(iterations):
        gammas, quad, ll_history[:, it] = e_step(shape_mats)
        weights = gammas * valid[None, :, :] / quad
        mass = np.maximum((gammas * valid[None, :, :]).sum(axis=2), 1e-300)
        numer = np.einsum("sft,ftc,ftd->sfcd", weights, z, z.conj())
        shape_mats = n_ch * numer / mass[:, :, None, None]
        shape_mats = 0.5 * (shape_mats + shape_mats.conj().transpose(0, 1, 3, 2))
        trace = np.einsum("sfcc->sf", shape_mats).real
        shape_mats *= (n_ch / np.maximum(trace, 1e-300))[:, :, None, None]
        shape_mats += 1e-10 * np.eye(n_ch)

    gammas, _, ll_history[:, iterations] = e_step(shape_mats)
    return gammas, shape_mats, ll_history


def _em_inputs(rng, n_bins=17, n_frames=50, n_ch=4, n_src=3):
    """Unit-norm cells as cacgmm_em builds them, with a silent frame and a silent bin."""
    x = rng.standard_normal((n_bins, n_frames, n_ch)) + 1j * rng.standard_normal(
        (n_bins, n_frames, n_ch)
    )
    x[:, 7] = 0.0
    x[3] = 0.0
    norms = np.linalg.norm(x, axis=2)
    valid = norms > 0
    z = np.where(valid[:, :, None], x / np.maximum(norms, 1e-300)[:, :, None], n_ch**-0.5)
    priors = rng.uniform(size=(n_src, n_frames))
    return z, valid, priors / priors.sum(axis=0)


class TestEmSweeps:
    @pytest.mark.parametrize("seed,n_ch", [(0, 4), (1, 2), (2, 3)])
    def test_matches_einsum_reference(self, seed, n_ch):
        z, valid, priors = _em_inputs(np.random.default_rng(seed), n_ch=n_ch)
        got = _em_sweeps(z, valid, priors, 4)
        want = _reference_em_sweeps(z, valid, priors, 4)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-10, rtol=0)

    def test_not_positive_definite_rejected(self):
        # two negative eigenvalues: the determinant is positive, the matrix is not PD
        mats = np.array([np.eye(4), np.diag([-1.0, -1.0, 1.0, 1.0])], dtype=np.complex128)
        with pytest.raises(NumericalError, match="positive definiteness"):
            _log_det(mats)

    def test_likelihood_drop_raises(self, monkeypatch):
        # a quadratic-form floor above 1/C clamps the density, so the sweeps
        # stop being EM steps and the likelihood falls
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 40, 3)) + 1j * rng.standard_normal((9, 40, 3))
        z = x / np.linalg.norm(x, axis=2, keepdims=True)
        priors = rng.uniform(size=(2, 40))
        monkeypatch.setattr("farfield.gss._QUAD_FLOOR", 1.0)
        _, _, ll_history = _em_sweeps(
            z, np.ones((9, 40), dtype=bool), priors / priors.sum(axis=0), 5
        )
        with pytest.raises(NumericalError, match=r"bin \d+ .* iteration \d+"):
            _check_steps(ll_history)


def _reference_chunked_cacgmm(tensor, activities, cfg):
    """Chunked EM as a wrapper that calls cacgmm_em once per chunk: the oracle
    for cacgmm_em with chunk_frames set."""
    n_frames = tensor.num_frames
    size = cfg.chunk_frames
    if n_frames <= size:
        return cacgmm_em(tensor, activities, replace(cfg, chunk_frames=None))
    starts = list(range(0, n_frames, size))
    if n_frames - starts[-1] < 2 * tensor.num_channels:
        starts.pop()
    speaker_probs = resample_activities(activities, tensor)
    pieces, lls = [], []
    for i, start in enumerate(starts):
        stop = starts[i + 1] if i + 1 < len(starts) else n_frames
        sub = replace(tensor, values=tensor.values[:, start:stop])
        sub_act = SoftActivity(
            activities.session_id,
            speaker_probs[:, start:stop],
            tensor.frame_step_seconds,
        )
        mask = cacgmm_em(sub, sub_act, replace(cfg, chunk_frames=None))
        pieces.append(mask.gammas)
        lls.append(mask.ll_history)
    return MaskTensor(gammas=np.concatenate(pieces, axis=1), ll_history=np.hstack(lls))


class TestChunked:
    @pytest.mark.parametrize("n_frames,chunk_frames", [
        (60, 60),  # one chunk as long as the input
        (40, 500),  # one chunk longer than the input
        (60, 20),  # an exact multiple of the chunk length
        (61, 20),  # a 1-frame trailing run joins the run before it
        (65, 20),  # a 5-frame trailing run, under 2 frames per channel, joins too
        (68, 20),  # an 8-frame trailing run stands alone
        (25, 8),  # three chunks and a 1-frame trailing run
    ])
    @pytest.mark.parametrize("add_noise_source", [True, False])
    def test_equals_per_chunk_reference(self, n_frames, chunk_frames, add_noise_source):
        rng = np.random.default_rng(n_frames + chunk_frames)
        tensor, activities, _, _ = _rank1_scene(rng, n_frames=n_frames)
        values = tensor.values.copy()
        values[:, 3, :] = 0.0  # a silent frame passes its prior through
        tensor = _tensor(values)
        cfg = GssConfig(iterations=3, chunk_frames=chunk_frames,
                        add_noise_source=add_noise_source)
        got = cacgmm_em(tensor, activities, cfg)
        want = _reference_chunked_cacgmm(tensor, activities, cfg)
        np.testing.assert_array_equal(got.gammas, want.gammas)
        np.testing.assert_array_equal(got.ll_history, want.ll_history)

    def test_equals_reference_on_another_activity_step(self):
        # activities on a coarser grid than the STFT frames are resampled once
        rng = np.random.default_rng(11)
        tensor, _, _, _ = _rank1_scene(rng, n_frames=50)
        step = 3.7 * tensor.frame_step_seconds
        probs = rng.uniform(size=(2, int(np.ceil(50 / 3.7))))
        activities = _activity(probs, step)
        cfg = GssConfig(iterations=2, chunk_frames=15)
        got = cacgmm_em(tensor, activities, cfg)
        want = _reference_chunked_cacgmm(tensor, activities, cfg)
        np.testing.assert_array_equal(got.gammas, want.gammas)
        np.testing.assert_array_equal(got.ll_history, want.ll_history)

    def test_single_chunk_equals_full(self):
        rng = np.random.default_rng(4)
        tensor, activities, _, _ = _rank1_scene(rng)
        full = cacgmm_em(tensor, activities, GssConfig(iterations=3))
        one = cacgmm_em(tensor, activities, GssConfig(iterations=3, chunk_frames=500))
        np.testing.assert_array_equal(one.gammas, full.gammas)

    def test_chunked_shapes_and_boundaries(self):
        rng = np.random.default_rng(5)
        tensor, activities, _, _ = _rank1_scene(rng, n_frames=60)
        masks = cacgmm_em(tensor, activities, GssConfig(iterations=2, chunk_frames=25))
        assert masks.gammas.shape == (3, 60, 33)
        assert masks.ll_history.shape == (33, 3 * 3)  # 3 chunks x (iters + 1)
        np.testing.assert_allclose(masks.gammas.sum(axis=0), 1.0, atol=1e-9)

    def test_chunked_close_to_full_on_exclusive_regions(self):
        rng = np.random.default_rng(6)
        tensor, activities, _, _ = _rank1_scene(rng)
        cfg = GssConfig(iterations=5)
        full = cacgmm_em(tensor, activities, cfg)
        chunked = cacgmm_em(tensor, activities, GssConfig(iterations=5, chunk_frames=20))
        # both recover the same exclusive-region decisions
        diff = np.abs(full.gammas[:, 5:15] - chunked.gammas[:, 5:15]).mean()
        assert diff < 0.05

    def test_bad_chunk_config_rejected(self):
        with pytest.raises(DataError):
            GssConfig(chunk_frames=1)

    def test_short_trailing_run_completes(self):
        # a 2-frame trailing run of 4-channel frames stopped the EM on its
        # likelihood guard; it now joins the run before it
        tensor, activities, _, _ = _rank1_scene(np.random.default_rng(82), n_frames=62)
        values = tensor.values.copy()
        values[:, 3, :] = 0.0
        masks = cacgmm_em(_tensor(values), activities, GssConfig(iterations=3, chunk_frames=20))
        assert masks.gammas.shape == (3, 62, 33)
        assert masks.ll_history.shape == (33, 3 * 4)  # runs of 20, 20 and 22 frames

    @pytest.mark.parametrize("n_ch", [2, 3, 4, 6])
    def test_runs_of_two_frames_per_channel_complete(self, n_ch):
        for seed in range(4):
            rng = np.random.default_rng(100 * n_ch + seed)
            n_frames = 7 * n_ch  # runs of 2, 2 and 3 frames per channel
            tensor, activities, _, _ = _rank1_scene(rng, n_ch=n_ch, n_frames=n_frames)
            masks = cacgmm_em(tensor, activities, GssConfig(chunk_frames=2 * n_ch))
            assert masks.ll_history.shape == (33, 3 * 6)


def _whole_window_cacgmm(tensor, activities, cfg):
    """cacgmm_em with every bin of the window in one _em_sweeps call per run and
    the likelihood guard inline: the oracle for cacgmm_em's bin slices."""
    n_ch = tensor.num_channels
    min_run = 2 * n_ch
    x = tensor.values.transpose(2, 1, 0)  # (F, T, C)
    norms = np.linalg.norm(x, axis=2)
    valid = norms > 0
    z = x / np.maximum(norms, 1e-300)[:, :, None]
    z = np.where(valid[:, :, None], z, 1.0 / np.sqrt(n_ch))
    priors = build_priors(resample_activities(activities, tensor), cfg)
    n_frames = tensor.num_frames
    size = cfg.chunk_frames
    inner = [] if size is None else range(size, n_frames - min_run + 1, size)
    bounds = [0, *inner, n_frames]
    gammas, lls = [], []
    for start, stop in zip(bounds, bounds[1:]):
        run = slice(start, stop)
        g, _, ll = _em_sweeps(z[:, run], valid[:, run], priors[:, run], cfg.iterations)
        steps = np.diff(ll, axis=1)
        if np.any(steps < -1e-8):
            f, it = np.unravel_index(np.argmin(steps), steps.shape)
            raise NumericalError(
                f"cACGMM log-likelihood of bin {f} fell by {-steps[f, it]:.3g} "
                f"at iteration {it + 1}"
            )
        gammas.append(g)
        lls.append(ll)
    return MaskTensor(
        gammas=np.concatenate(gammas, axis=2).transpose(0, 2, 1), ll_history=np.hstack(lls)
    )


def _silent_cells(tensor, n_bins):
    """The first n_bins bins of tensor, with a silent frame, a silent bin and
    scattered silent cells. No framing gives one bin, so one bin comes as a
    stand-in with the fields that cacgmm_em reads."""
    values = tensor.values[:, :, :n_bins].copy()
    values[:, 3, :] = 0.0
    values[:, :, n_bins // 2] = 0.0
    values[:, 10:50:7, 5:300:11] = 0.0
    if n_bins > 1:
        return _tensor(values)
    return SimpleNamespace(values=values, num_channels=values.shape[0],
                           num_frames=values.shape[1],
                           frame_step_seconds=tensor.frame_step_seconds)


class TestBinSlices:
    @pytest.mark.parametrize("n_bins", [1, 2, 257, 513])
    @pytest.mark.parametrize("cells", ["one bin", "short last slice", "default"])
    @pytest.mark.parametrize("chunk_frames", [None, 20])  # runs of 20, 20 and 22 frames
    def test_equals_whole_window(self, monkeypatch, n_bins, cells, chunk_frames):
        rng = np.random.default_rng(n_bins)
        tensor, activities, _, _ = _rank1_scene(rng, n_frames=62, n_bins=max(n_bins, 2))
        tensor = _silent_cells(tensor, n_bins)
        if cells == "one bin":
            monkeypatch.setattr("farfield.gss._CELLS", 1)
        elif cells == "short last slice":
            # 7 bins per slice of the whole window, 21 per slice of a 20-frame run
            monkeypatch.setattr("farfield.gss._CELLS", 7 * 62)
        cfg = GssConfig(iterations=3, chunk_frames=chunk_frames)
        got = cacgmm_em(tensor, activities, cfg)
        want = _whole_window_cacgmm(tensor, activities, cfg)
        assert got.gammas.base.flags.c_contiguous
        assert got.gammas.base.shape == (3, n_bins, 62)
        assert np.array_equal(got.gammas, want.gammas)
        assert np.array_equal(got.ll_history, want.ll_history)

    @pytest.mark.parametrize("chunk_frames", [None, 20])
    def test_guard_names_the_window_bin(self, monkeypatch, chunk_frames):
        # a quadratic-form floor above 1/C stops the sweeps being EM steps;
        # the bin whose likelihood fell most lies beyond the first slice
        rng = np.random.default_rng(9)
        n_ch, n_frames, n_bins = 3, 40, 12
        values = rng.standard_normal((n_ch, n_frames, n_bins)) + 1j * rng.standard_normal(
            (n_ch, n_frames, n_bins)
        )
        tensor = _tensor(values)
        activities = _activity(rng.uniform(size=(2, n_frames)), tensor.frame_step_seconds)
        cfg = GssConfig(chunk_frames=chunk_frames)
        monkeypatch.setattr("farfield.gss._QUAD_FLOOR", 1.0)
        # 2 bins per slice of the whole window, 4 per slice of a 20-frame run
        monkeypatch.setattr("farfield.gss._CELLS", 80)
        with pytest.raises(NumericalError) as want:
            _whole_window_cacgmm(tensor, activities, cfg)
        assert int(str(want.value).split()[4]) >= 4  # "... of bin <f> fell ..."
        with pytest.raises(NumericalError) as got:
            cacgmm_em(tensor, activities, cfg)
        assert str(got.value) == str(want.value)

    def test_peak_memory_bounded_by_one_slice(self):
        n_ch, n_frames, n_bins = 4, 1000, 513
        rng = np.random.default_rng(0)
        values = rng.standard_normal((n_ch, n_frames, n_bins)) + 1j * rng.standard_normal(
            (n_ch, n_frames, n_bins)
        )
        tensor = _tensor(values)
        activities = _activity(rng.uniform(size=(4, n_frames)), tensor.frame_step_seconds)
        tracemalloc.start()
        try:
            masks = cacgmm_em(tensor, activities, GssConfig(iterations=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the masks plus four (cells, 2C^2) float tables of one slice
        slice_table = gss._CELLS * 2 * n_ch * n_ch * 8
        bound = masks.gammas.nbytes + masks.ll_history.nbytes + 4 * slice_table
        # a table of every bin of the window would not fit under the bound
        assert n_bins * n_frames * 2 * n_ch * n_ch * 8 > bound
        assert peak < bound


class TestVadMask:
    def test_elementwise_product(self):
        act = _activity([[0.5, 0.8], [1.0, 0.2]], 0.5)
        out = apply_vad_mask(act, np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out.probs, [[0.5, 0.0], [0.0, 0.2]])

    def test_shape_mismatch_rejected(self):
        act = _activity([[1.0, 1.0]], 0.5)
        with pytest.raises(DataError):
            apply_vad_mask(act, np.ones((2, 2)))


class TestMvdr:
    def test_rank1_distortionless_response(self):
        # oracle masks, rank-1 target in white noise: output equals the
        # reference channel's clean image
        rng = np.random.default_rng(8)
        n_ch, n_frames, n_bins = 4, 200, 33
        d = rng.standard_normal(n_ch) + 1j * rng.standard_normal(n_ch)
        d /= np.linalg.norm(d)
        s = rng.standard_normal((n_frames, n_bins)) + 1j * rng.standard_normal((n_frames, n_bins))
        s[100:] = 0.0  # target silent in second half
        noise = 0.02 * (rng.standard_normal((n_ch, n_frames, n_bins))
                        + 1j * rng.standard_normal((n_ch, n_frames, n_bins)))
        tensor = _tensor(d[:, None, None] * s[None] + noise)
        gammas = np.zeros((2, n_frames, n_bins))
        gammas[0, :100] = 1.0
        gammas[1] = 1.0 - gammas[0]
        out = mvdr_beamform(tensor, MaskTensor(gammas), target=0, ref_channel=2)
        clean_ref = d[2] * s
        err = np.linalg.norm(out.values[0, :100] - clean_ref[:100])
        assert err / np.linalg.norm(clean_ref[:100]) < 0.05

    def test_interferer_suppressed(self):
        rng = np.random.default_rng(9)
        tensor, activities, (d1, d2), (s1, s2) = _rank1_scene(rng, noise=0.01)
        masks = cacgmm_em(tensor, activities, GssConfig(iterations=5))
        out = mvdr_beamform(tensor, masks, target=0)
        y = out.values[0]  # (T, F)
        # projections onto each source signal over the overlapped region
        region = slice(25, 35)
        def proj(sig):
            num = np.abs(np.vdot(sig[region], y[region]))
            return num / (np.linalg.norm(sig[region]) * np.linalg.norm(y[region]))
        assert proj(s1) > 0.9
        assert proj(s2) < 0.3

    @pytest.mark.parametrize("cells", [1, 4 * 60, 10**9],
                             ids=["one bin", "short last chunk", "one chunk"])
    def test_chunks_equal_whole_window(self, monkeypatch, cells):
        # 33 bins of 60 frames: chunks of 1 bin, of 4 bins (the last of 1), and of all 33
        tensor, activities, _, _ = _rank1_scene(np.random.default_rng(12), noise=0.01)
        masks = cacgmm_em(tensor, activities, GssConfig(iterations=2))
        with monkeypatch.context() as m:
            m.setattr("farfield.gss._CELLS", 10**9)
            want = mvdr_beamform(tensor, masks, target=1)
        monkeypatch.setattr("farfield.gss._CELLS", cells)
        got = mvdr_beamform(tensor, masks, target=1)
        assert got.values.tobytes() == want.values.tobytes()

    def test_peak_memory_bounded_by_one_chunk(self):
        n_ch, n_frames, n_bins = 4, 1000, 513
        rng = np.random.default_rng(13)
        values = rng.standard_normal((n_ch, n_frames, n_bins)) + 1j * rng.standard_normal(
            (n_ch, n_frames, n_bins)
        )
        tensor = _tensor(values)
        masks = MaskTensor(rng.uniform(size=(2, n_frames, n_bins)))
        tracemalloc.start()
        try:
            out = mvdr_beamform(tensor, masks, target=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output, or a (bins, frames) weight plus one chunk's weighted and
        # conjugated copies, whichever is larger; both stay under the output
        # plus the chunk, which no full-window copy of the tensor fits under
        chunk = 2 * (gss._CELLS // n_frames) * n_ch * n_frames * 16
        bound = out.values.nbytes + chunk
        assert n_bins * n_frames * 8 < out.values.nbytes < bound < tensor.values.nbytes
        assert peak < bound

    def test_target_out_of_range(self):
        tensor = _tensor(np.ones((2, 5, 33)))
        with pytest.raises(DataError):
            mvdr_beamform(tensor, MaskTensor(np.ones((1, 5, 33))), target=3)


class TestExtractSegment:
    @staticmethod
    def _separate_first_speaker(chunk_frames):
        rng = np.random.default_rng(10)
        n = 3 * FS
        t = np.arange(n) / FS
        env_a = (t < 1.8).astype(float)
        env_b = (t >= 1.2).astype(float)
        src_a = env_a * rng.standard_normal(n) * (1 + 0.8 * np.sin(2 * np.pi * 3 * t))
        src_b = env_b * rng.standard_normal(n) * (1 + 0.8 * np.sin(2 * np.pi * 5 * t))
        gains_a = rng.uniform(0.5, 1.5, 4)
        gains_b = rng.uniform(0.5, 1.5, 4)
        mix = (np.outer(gains_a, src_a) + np.outer(gains_b, src_b)
               + 0.01 * rng.standard_normal((4, n)))
        audio = MultichannelAudio(mix, FS)
        step = 256 / FS
        n_frames = int(np.ceil(3.0 / step))
        frames_t = np.arange(n_frames) * step
        probs = np.vstack([(frames_t < 1.8).astype(float), (frames_t >= 1.2).astype(float)])
        activities = SoftActivity("s", probs, step)
        cfg = GssConfig(iterations=3, context_margin=0.2, chunk_frames=chunk_frames)
        out = extract_speaker_segment(
            audio, Turn("a", 0.0, 1.8), 0, activities, cfg, StftParams(1024, 256)
        )
        assert out.num_channels == 1
        assert out.num_samples == int(round(1.8 * FS))
        y = out.samples[0]
        seg_a, seg_b = src_a[: len(y)], src_b[: len(y)]
        corr_a = abs(np.dot(y, seg_a)) / (np.linalg.norm(y) * np.linalg.norm(seg_a))
        corr_b = abs(np.dot(y, seg_b)) / (np.linalg.norm(y) * np.linalg.norm(seg_b) + 1e-12)
        assert corr_a > 0.8
        assert corr_b < 0.3

    def test_end_to_end_separation(self):
        self._separate_first_speaker(chunk_frames=None)

    def test_separation_across_chunks(self):
        # the 2.0 s window holds 126 frames of 256 samples: four chunks of 40
        self._separate_first_speaker(chunk_frames=40)

    def test_negative_context_margin_rejected(self):
        with pytest.raises(DataError, match="context_margin"):
            GssConfig(context_margin=-0.1)

    def test_window_read_from_file_equals_whole_audio(self, tmp_path):
        # a WavFile reads only the turn's window; the result keeps every byte
        rng = np.random.default_rng(14)
        path = tmp_path / "wpe.wav"
        write_wav(path, MultichannelAudio(0.1 * rng.standard_normal((3, 4 * FS)), FS))
        step = 256 / FS
        activities = SoftActivity("s", rng.uniform(size=(2, int(4 / step) + 1)), step)
        cfg = GssConfig(iterations=2, context_margin=0.3)
        for turn in (Turn("a", 0.1, 1.0), Turn("b", 1.7123, 2.4567), Turn("a", 3.5, 4.0)):
            want = extract_speaker_segment(read_wav(path), turn, 0, activities, cfg)
            got = extract_speaker_segment(open_wav(path), turn, 0, activities, cfg)
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_turn_outside_session_rejected(self):
        audio = MultichannelAudio(np.zeros((2, FS)), FS)
        act = SoftActivity("s", np.ones((1, 10)), 0.1)
        with pytest.raises(DataError):
            extract_speaker_segment(audio, Turn("a", 0.5, 2.0), 0, act)
