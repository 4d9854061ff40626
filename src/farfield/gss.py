"""Guided source separation: activity-guided cACGMM masks and MVDR beamforming."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from farfield.audio import MultichannelAudio, WavFile
from farfield.errors import ConfigError, DataError, NumericalError
# not called here (GSS separates the preprocess stage's WPE output); the binding
# stays because the benchmark's tracer wraps farfield.gss.wpe_dereverberate
from farfield.preprocess import wpe_dereverberate  # noqa: F401
from farfield.segments import SoftActivity, Turn
from farfield.stft import SpectralTensor, StftParams, istft, stft

_QUAD_FLOOR = 1e-10
# Shortest EM run, in frames per channel. A run of fewer frames than channels
# gives rank-deficient shape matrices; on runs of 1 to 2 frames per channel,
# the likelihood guard stopped the EM in about one case in five.
_RUN_FRAMES_PER_CHANNEL = 2
# Bin-frame cells per EM slice. The EM runs one slice of bins at a time, so
# its outer-product table and its (sources, bins, frames) temporaries hold
# about this many cells whatever the window's length. Bins are independent in
# the cACGMM and each bin's arithmetic does not depend on the slice, so the
# masks do not depend on this value either.
_CELLS = 16384


@dataclass(frozen=True)
class GssConfig:
    iterations: int = 5
    context_margin: float = 0.5
    chunk_frames: int | None = None
    # no config key: a run always models residual noise; only a numeric test turns it off
    add_noise_source: bool = field(default=True, metadata={"config_key": False})
    noise_floor: float = 0.01

    def __post_init__(self):
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")
        if self.context_margin < 0:
            raise DataError("context_margin must be >= 0")
        if self.chunk_frames is not None and self.chunk_frames < 2:
            raise DataError("chunk_frames must be >= 2")
        if not 0 <= self.noise_floor <= 1:
            raise DataError(f"noise_floor must be in [0, 1], got {self.noise_floor}")


@dataclass(frozen=True)
class MaskTensor:
    """Posterior source masks, (sources, frames, bins); rows sum to one per (t, f)."""

    gammas: np.ndarray
    ll_history: np.ndarray | None = None  # (bins, evaluations)

    def __post_init__(self):
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=np.float64))

    @property
    def num_sources(self) -> int:
        return self.gammas.shape[0]


def resample_activities(
    activities: SoftActivity, tensor: SpectralTensor, start: float = 0.0
) -> np.ndarray:
    """Nearest-frame resampling of activity rows onto the STFT frame grid.

    start is the session time, in seconds, of the tensor's first frame.
    """
    frame_times = start + np.arange(tensor.num_frames) * tensor.frame_step_seconds
    idx = np.clip(
        np.floor(frame_times / activities.frame_step + 0.5).astype(int),
        0,
        activities.num_frames - 1,
    )
    return activities.probs[:, idx]


def build_priors(speaker_probs: np.ndarray, cfg: GssConfig) -> np.ndarray:
    """Stack speaker activities (+ residual noise source) into normalized priors."""
    if cfg.add_noise_source:
        residual = np.maximum(1.0 - speaker_probs.sum(axis=0), cfg.noise_floor)
        priors = np.vstack([speaker_probs, residual[None, :]])
    else:
        priors = speaker_probs.copy()
    sums = priors.sum(axis=0)
    uniform = np.full(priors.shape[0], 1.0 / priors.shape[0])
    priors = np.where(sums > 0, priors / np.maximum(sums, 1e-300), uniform[:, None])
    return priors


def _log_det(mats):
    """Log-determinants of Hermitian positive definite matrices, from Cholesky."""
    try:
        chol = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("cACGMM shape matrix lost positive definiteness") from exc
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum(axis=-1)


def _em_sweeps(z, valid, priors, iterations):
    """Run cACGMM EM; z is (F, T, C), valid (F, T), priors (S, T).

    Both steps contract against one real table of the outer products z z^H,
    viewed as interleaved (Re, Im) pairs, (F, T, 2C^2): the quadratic form
    z^H B^-1 z is Re sum(B^-1 * conj(z z^H)), one matmul of the table with
    B^-1 viewed the same way, and the M-step numerator is weights @ table.
    The likelihood guard is the caller's: _check_steps on the run's ll_history.
    """
    n_bins, n_frames, n_ch = z.shape
    n_src = priors.shape[0]
    # C order, so that the complex products can be viewed as float pairs
    outer = np.multiply(z[:, :, :, None], z.conj()[:, :, None, :], order="C")  # (F, T, C, C)
    table = outer.view(np.float64).reshape(n_bins, n_frames, 2 * n_ch * n_ch)
    shape_mats = np.broadcast_to(
        np.eye(n_ch, dtype=np.complex128), (n_src, n_bins, n_ch, n_ch)
    ).copy()
    log_priors = np.log(np.maximum(priors, 1e-300))  # (S, T)
    ll_history = np.empty((n_bins, iterations + 1))
    valid_count = np.maximum(valid.sum(axis=1), 1)  # per bin
    gammas = None

    def e_step(mats):
        loaded = mats + 1e-12 * np.eye(n_ch)
        logdet = _log_det(loaded)  # (S, F)
        inv = np.ascontiguousarray(np.linalg.inv(loaded)).view(np.float64)
        inv = inv.reshape(n_src, n_bins, -1)
        # quadratic form z^H B^-1 z, (F, S, T) -> (S, F, T)
        quad = (inv.transpose(1, 0, 2) @ table.transpose(0, 2, 1)).transpose(1, 0, 2)
        quad = np.maximum(quad, _QUAD_FLOOR)
        log_density = -logdet[:, :, None] - n_ch * np.log(quad)
        log_joint = log_priors[:, None, :] + log_density  # (S, F, T)
        shift = log_joint.max(axis=0, keepdims=True)
        log_norm = shift[0] + np.log(np.exp(log_joint - shift).sum(axis=0))  # (F, T)
        post = np.exp(log_joint - log_norm[None])
        # zero-energy cells fall back to the prior
        post = np.where(valid[None, :, :], post, priors[:, None, :])
        ll = np.where(valid, log_norm, 0.0).sum(axis=1) / valid_count
        return post, quad, ll

    for it in range(iterations):
        gammas, quad, ll_history[:, it] = e_step(shape_mats)
        weights = gammas * valid[None, :, :] / quad  # (S, F, T)
        mass = np.maximum((gammas * valid[None, :, :]).sum(axis=2), 1e-300)
        numer = (weights.transpose(1, 0, 2) @ table).view(np.complex128)  # (F, S, C^2)
        numer = numer.reshape(n_bins, n_src, n_ch, n_ch).transpose(1, 0, 2, 3)
        shape_mats = n_ch * numer / mass[:, :, None, None]
        shape_mats = 0.5 * (shape_mats + shape_mats.conj().transpose(0, 1, 3, 2))
        trace = np.einsum("sfcc->sf", shape_mats).real
        shape_mats *= (n_ch / np.maximum(trace, 1e-300))[:, :, None, None]
        shape_mats += 1e-10 * np.eye(n_ch)

    gammas, _, ll_history[:, iterations] = e_step(shape_mats)
    return gammas, shape_mats, ll_history


def _check_steps(ll_history):
    """Raise NumericalError if a bin's log-likelihood fell during one EM run.

    ll_history is (F, iterations + 1) for every bin of the window, so the
    message names the window's bin. Each sweep is a generalized EM step, so
    no bin's likelihood may fall.
    """
    steps = np.diff(ll_history, axis=1)
    if np.any(steps < -1e-8):
        f, it = np.unravel_index(np.argmin(steps), steps.shape)
        raise NumericalError(
            f"cACGMM log-likelihood of bin {f} fell by {-steps[f, it]:.3g} "
            f"at iteration {it + 1}"
        )


def cacgmm_em(
    tensor: SpectralTensor, activities: SoftActivity, cfg: GssConfig = GssConfig()
) -> MaskTensor:
    """Estimate per-source time-frequency masks guided by speaker activities.

    Priors come from the activities (plus a residual noise source) and stay
    frozen across EM sweeps; only the spatial shape matrices are re-estimated.
    With cfg.chunk_frames set, the EM runs independently on runs of that many
    frames, so that the shape matrices follow moving speakers; masks are
    concatenated along frames and ll_history holds each run's columns in
    turn. A run needs _RUN_FRAMES_PER_CHANNEL frames per channel: a
    chunk_frames below that is a ConfigError, and a shorter trailing run joins
    the one before it. Activity guidance pins source identity, so no
    permutation handling is needed across run boundaries.

    Each run's EM works on slices of max(1, _CELLS // run frames) bins, one
    at a time, and writes into the whole window's masks; the likelihood guard
    then checks the run's bins together, before the next run starts.
    """
    n_ch = tensor.num_channels
    if n_ch < 2:
        raise DataError("cACGMM needs at least 2 channels")
    size = cfg.chunk_frames
    min_run = _RUN_FRAMES_PER_CHANNEL * n_ch
    if size is not None and size < min_run:
        raise ConfigError(
            f"gss.chunk_frames {size} is below {_RUN_FRAMES_PER_CHANNEL} frames per channel "
            f"for the channel count {n_ch}: set it to at least {min_run}"
        )
    x = tensor.values.transpose(2, 1, 0)  # (F, T, C)
    speaker_probs = resample_activities(activities, tensor)
    priors = build_priors(speaker_probs, cfg)
    n_bins, n_frames = x.shape[:2]
    # a trailing run shorter than min_run frames joins the one before it
    inner = [] if size is None else range(size, n_frames - min_run + 1, size)
    bounds = [0, *inner, n_frames]
    evals = cfg.iterations + 1
    gammas = np.empty((priors.shape[0], n_bins, n_frames))  # (S, F, T)
    ll_history = np.empty((n_bins, (len(bounds) - 1) * evals))
    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        run = slice(start, stop)
        cols = slice(i * evals, (i + 1) * evals)
        step = max(1, _CELLS // (stop - start))
        for lo in range(0, n_bins, step):
            bins = slice(lo, lo + step)
            cells = x[bins, run]
            norms = np.linalg.norm(cells, axis=2)
            valid = norms > 0  # zero-energy cells pass the prior through
            z = cells / np.maximum(norms, 1e-300)[:, :, None]
            z = np.where(valid[:, :, None], z, 1.0 / np.sqrt(n_ch))
            gammas[:, bins, run], _, ll_history[bins, cols] = _em_sweeps(
                z, valid, priors[:, run], cfg.iterations
            )
        _check_steps(ll_history[:, cols])
    # (S, F, T) -> (S, T, F)
    return MaskTensor(gammas=gammas.transpose(0, 2, 1), ll_history=ll_history)


def apply_vad_mask(activities: SoftActivity, vad: np.ndarray) -> SoftActivity:
    """Multiply activities elementwise by a binary per-speaker VAD mask."""
    vad = np.asarray(vad, dtype=np.float64)
    if vad.shape != activities.probs.shape:
        raise DataError(
            f"VAD mask shape {vad.shape} does not match activities {activities.probs.shape}"
        )
    return replace(activities, probs=activities.probs * vad)


def mvdr_beamform(
    tensor: SpectralTensor, masks: MaskTensor, target: int, ref_channel: int | None = None
) -> SpectralTensor:
    """Rank-1 Souden MVDR from mask-weighted spatial covariances.

    The reference channel, unless given, maximizes a per-channel output
    SNR proxy summed over bins.
    """
    if not 0 <= target < masks.num_sources:
        raise DataError(f"target source {target} out of range")
    x = tensor.values.transpose(2, 1, 0)  # (F, T, C)
    xt = x.transpose(0, 2, 1)  # (F, C, T)
    gamma = masks.gammas[target].T  # (F, T)
    n_bins, n_frames, n_ch = x.shape
    step = max(1, _CELLS // n_frames)  # bins per product, as in cacgmm_em

    def psd(weights):
        # one (C, T) @ (T, C) product per bin, taken step bins at a time so that
        # the weighted and conjugated copies hold about _CELLS cells of the window
        mat = np.empty((n_bins, n_ch, n_ch), dtype=np.complex128)
        for lo in range(0, n_bins, step):
            b = slice(lo, lo + step)
            mat[b] = (xt[b] * weights[b, None, :]) @ x[b].conj()
        mat /= np.maximum(weights.sum(axis=1), 1e-300)[:, None, None]
        return 0.5 * (mat + mat.conj().transpose(0, 2, 1))

    phi_target = psd(gamma)
    phi_noise = psd(1.0 - gamma)
    load = 1e-8 * np.einsum("fcc->f", phi_noise).real / n_ch
    phi_noise = phi_noise + np.maximum(load, 1e-300)[:, None, None] * np.eye(n_ch)
    try:
        ratio = np.linalg.solve(phi_noise, phi_target)  # (F, C, C)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("noise covariance singular after diagonal loading") from exc
    trace = np.maximum(np.einsum("fcc->f", ratio).real, 1e-300)
    w_all = ratio / trace[:, None, None]  # column r is the beamformer for ref r

    if ref_channel is None:
        snr = np.empty(n_ch)
        for r in range(n_ch):
            w = w_all[:, :, r]
            sig = np.einsum("fc,fcd,fd->f", w.conj(), phi_target, w).real
            noi = np.maximum(np.einsum("fc,fcd,fd->f", w.conj(), phi_noise, w).real, 1e-300)
            snr[r] = float(np.sum(sig / noi))
        ref_channel = int(np.argmax(snr))
    w = w_all[:, :, ref_channel]  # (F, C)
    return replace(tensor, values=np.einsum("fc,ftc->tf", w.conj(), x)[None])


def extract_speaker_segment(
    audio: MultichannelAudio | WavFile,
    turn: Turn,
    target: int,
    activities: SoftActivity,
    cfg: GssConfig = GssConfig(),
    stft_params: StftParams = StftParams(),
) -> MultichannelAudio:
    """Extract one speaker's turn: context extension, guided masks, MVDR.

    target indexes the speaker's row in the session-level activities. Only
    the window of the turn and its context is taken from audio, through its
    duration, sample_rate and slice_time, so a WavFile reads just that window.
    The audio is separated as given; dereverberate it beforehand (run_gss
    passes the preprocess stage's WPE output).
    """
    session_end = audio.duration
    if not (0.0 <= turn.start < turn.end <= session_end + 1e-9):
        raise DataError("turn must lie within the session")
    ext_start = max(0.0, turn.start - cfg.context_margin)
    ext_end = min(session_end, turn.end + cfg.context_margin)
    window = audio.slice_time(ext_start, ext_end)
    tensor = stft(window, stft_params)
    # activities for the window, on the window's own frame grid
    window_act = SoftActivity(
        activities.session_id,
        resample_activities(activities, tensor, ext_start),
        tensor.frame_step_seconds,
    )
    masks = cacgmm_em(tensor, window_act, cfg)
    beamformed = mvdr_beamform(tensor, masks, target)
    wave = istft(beamformed)
    offset = turn.start - ext_start
    return wave.slice_time(offset, offset + turn.duration)
