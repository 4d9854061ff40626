"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test is independent and prints one pass/fail line via pytest. The
criteria exercise the public API end to end on synthetic material with
known ground truth.
"""

import itertools
import time

import numpy as np
import pytest

from farfield.diarize import (
    ClusterSet,
    DiarizeConfig,
    count_speakers,
    diarize_embeddings,
    merge_reject_clusters,
)
from farfield.embeddings import EmbeddingEntry, EmbeddingSet
from farfield.fusion import (
    FusionInput,
    best_permutation,
    doverlap_fuse,
    overlap_duration_matrix,
)
from farfield.gss import (
    GssConfig,
    MaskTensor,
    cacgmm_em,
    extract_speaker_segment,
    mvdr_beamform,
)
from farfield.metrics import compute_der, optimal_speaker_mapping, si_sdr
from farfield.preprocess import WpeConfig, wpe_dereverberate
from farfield.segments import (
    Segmentation,
    SoftActivity,
    Turn,
    erode_bounds,
    extend_segments,
    segmentation_to_activity,
)
from farfield.simulate import (
    MixtureSpec,
    OverlapStats,
    RoomRanges,
    RoomSpec,
    generate_rir,
    sample_conversation,
    sample_room,
    simulate_mixture,
)
from farfield.stft import SpectralTensor, StftParams, istft, stft

from farfield.audio import MultichannelAudio

FS = 16000


def _seg(turns, session="s"):
    return Segmentation(session, tuple(Turn(spk, a, b) for spk, a, b in turns))


# ---------------------------------------------------------------------------
# criterion 1: published corpus-scale error rates are out of desk-scale reach;
# the synthetic end-to-end and numeric criteria below substitute for them.


def test_c01_property_based_substitution_documented():
    """Corpus-scale DER targets need external corpora and neural front ends;
    this suite substitutes seeded synthetic end-to-end checks (c02, c04)."""
    assert True


# ---------------------------------------------------------------------------
# criterion 2: synthetic diarization end-to-end


def _grid_schedule(seed, speakers=4, duration=600.0, step=0.5):
    """Conversation schedule with all boundaries snapped to the frame grid."""
    turns = []
    for utt in sample_conversation(OverlapStats(), speakers, duration, seed=seed):
        start = round(utt.start / step) * step
        dur = max(step, round(utt.duration / step) * step)
        turns.append((f"spk{utt.speaker:02d}", start, min(start + dur, duration)))
    return turns


def _blob_embeddings(rng, turns, duration, dim=32, std=0.04, step=0.5):
    speakers = sorted({s for s, _, _ in turns})
    centers = {
        s: c / np.linalg.norm(c)
        for s, c in zip(speakers, rng.standard_normal((len(speakers), dim)))
    }
    entries = []
    t = 0.0
    while t < duration:
        mid = t + step / 2
        active = sorted({s for s, a, b in turns if a <= mid < b})
        if active:
            vectors = np.vstack(
                [centers[s] + std * rng.standard_normal(dim) for s in active]
            )
            entries.append(EmbeddingEntry(t, t + step, vectors))
        t += step
    return EmbeddingSet(tuple(entries))


def test_c02_synthetic_diarization_end_to_end():
    """20 seeded 4-speaker 10-minute sessions: count accuracy 1.0, DER <= 5%."""
    t_start = time.monotonic()
    cfg = DiarizeConfig(reject_thrs=(10.0,))
    ders, counts = [], []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        turns = _grid_schedule(seed)
        ref = _seg(turns)
        emb = _blob_embeddings(rng, turns, duration=600.0)
        [(hyp, count, _)] = diarize_embeddings(emb, cfg, seed=seed, session_id="s")
        counts.append(count)
        ders.append(compute_der(ref, hyp, collar=0.0).der)
    assert counts == [4] * 20, f"speaker counts off: {counts}"
    assert max(ders) <= 0.05, f"worst DER {max(ders):.4f}"
    assert time.monotonic() - t_start < 300.0


# ---------------------------------------------------------------------------
# criterion 3: cluster rejection rule


def _clusters(centroids, sizes):
    assignments = np.concatenate(
        [np.full(s, i, dtype=np.int64) for i, s in enumerate(sizes)]
    )
    return ClusterSet(
        assignments=assignments,
        centroids=np.asarray(centroids, dtype=float),
        sizes=np.asarray(sizes, dtype=np.int64),
    )


def test_c03_cluster_rejection_rule():
    """{100, 100, 4} with thr 10 rejects exactly the size-4 cluster; exhaustive
    small cases match the direct rule oracle."""
    cfg, thr = DiarizeConfig(merge_cos_threshold=0.99), 10.0
    out = merge_reject_clusters(
        _clusters(np.eye(3), [100, 100, 4]), cfg, thr
    )
    assert sorted(out.sizes.tolist()) == [100, 100]

    alphabet = [1, 4, 9, 10, 11, 40, 100]
    for n in range(1, 6):
        for sizes in itertools.product(alphabet, repeat=n):
            out = merge_reject_clusters(_clusters(np.eye(max(n, 2))[:n], list(sizes)), cfg, thr)
            n_max = max(sizes)
            expected = sorted(s for s in sizes if not s < n_max / thr)
            assert sorted(out.sizes.tolist()) == expected, sizes


# ---------------------------------------------------------------------------
# criteria 4-5: GSS numeric suite and chunked-vs-full behavior


def _gss_scene(room, seed):
    """2-speaker 4-channel reverberant scene at 10 dB SNR with known images."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(3.0 * FS)) / FS

    def utterance(length, rate):
        n = int(length * FS)
        envelope = 1.0 + 0.8 * np.sin(2 * np.pi * rate * t[:n])
        return 0.1 * envelope * rng.standard_normal(n)

    dry = {
        "target": utterance(2.4, 3.0),
        "interferer": utterance(1.5, 5.0),
        "noise": rng.standard_normal(3 * FS),
    }
    spec = MixtureSpec(
        speakers=2,
        utterances=((0, "target", 0.3), (1, "interferer", 1.5)),
        duration=3.0,
        channels=4,
        noise_ref="noise",
        snr_db=10.0,
    )
    audio, seg, images, _ = simulate_mixture(
        spec, room, dry, FS, noise_seed=seed, return_components=True
    )
    return audio, seg, images


def _scene_activities(seg, duration, step):
    return segmentation_to_activity(
        seg, step, num_frames=int(np.ceil(duration / step)),
        speakers=["spk00", "spk01"],
    )


def test_c04_gss_numeric_suite():
    """100 seeded reverberant segments: SI-SDR beats the best raw channel on
    >= 95%, and the EM log-likelihood never decreases on any bin."""
    t_start = time.monotonic()
    ranges = RoomRanges(
        dim_min=(4.0, 3.0, 2.4), dim_max=(5.5, 4.5, 3.0),
        t60_min=0.29, t60_max=0.31, num_sources=2, num_receivers=4,
    )
    rooms = [sample_room(ranges, seed=r) for r in range(20)]
    params = StftParams(1024, 256, "hann")
    cfg = GssConfig(iterations=5)
    step = params.frame_step_seconds(FS)
    improved = 0
    min_ll_step = np.inf
    for index in range(100):
        audio, seg, images = _gss_scene(rooms[index % 20], seed=5000 + index)
        activities = _scene_activities(seg, audio.duration, step)
        turn = seg.sorted_turns()[0]  # the target speaker's turn
        target_img = images[0]
        i0, i1 = int(round(turn.start * FS)), int(round(turn.end * FS))

        baseline = max(
            si_sdr(audio.samples[ch, i0:i1], target_img[ch, i0:i1])
            for ch in range(audio.num_channels)
        )
        out = extract_speaker_segment(audio, turn, 0, activities, cfg, params)
        enhanced = max(
            si_sdr(out.samples[0], target_img[ch, i0 : i0 + out.num_samples])
            for ch in range(audio.num_channels)
        )
        if enhanced > baseline:
            improved += 1

        masks = cacgmm_em(stft(audio, params), activities, cfg)
        min_ll_step = min(min_ll_step, float(np.diff(masks.ll_history, axis=1).min()))
    assert improved >= 95, f"improved on only {improved}/100 segments"
    assert min_ll_step >= -1e-8, f"log-likelihood dropped by {-min_ll_step:.2e}"
    assert time.monotonic() - t_start < 600.0


def _rotating_scene(rotate, n_frames=900, n_bins=65, block=30, seed=0):
    """Two always-alternating sources whose steering rotates inside one plane."""
    rng = np.random.default_rng(seed)
    theta = (np.pi / 2) * np.arange(n_frames) / n_frames if rotate else np.zeros(n_frames)
    d1 = np.zeros((n_frames, 4), dtype=complex)
    d2 = np.zeros((n_frames, 4), dtype=complex)
    d1[:, 0], d1[:, 1] = np.cos(theta), np.sin(theta)
    d2[:, 0], d2[:, 1] = -np.sin(theta), np.cos(theta)
    active1 = (np.arange(n_frames) // block) % 2 == 0
    s1 = (rng.standard_normal((n_frames, n_bins))
          + 1j * rng.standard_normal((n_frames, n_bins))) * active1[:, None]
    s2 = (rng.standard_normal((n_frames, n_bins))
          + 1j * rng.standard_normal((n_frames, n_bins))) * (~active1)[:, None]
    x = d1.T[:, :, None] * s1[None] + d2.T[:, :, None] * s2[None]
    x += 1e-4 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    tensor = SpectralTensor(values=x, frame_shift=32, frame_length=128, sample_rate=FS)
    # mildly informative priors: 0.7 toward the active source
    probs = np.vstack([np.where(active1, 0.7, 0.3), np.where(active1, 0.3, 0.7)])
    activities = SoftActivity("s", probs, tensor.frame_step_seconds)
    oracle = np.zeros((2, n_frames, n_bins))
    oracle[0, active1] = 1.0
    oracle[1, ~active1] = 1.0
    return tensor, activities, oracle


def test_c05_chunked_vs_full_gss():
    """Stationary: chunked and full masks agree within 0.05 mean deviation.
    Rotating steering: 300-frame chunked masks strictly closer to oracle."""
    full_cfg = GssConfig(iterations=5, add_noise_source=False)
    chunk_cfg = GssConfig(iterations=5, add_noise_source=False, chunk_frames=300)

    tensor, activities, _ = _rotating_scene(rotate=False)
    full = cacgmm_em(tensor, activities, full_cfg)
    chunked = cacgmm_em(tensor, activities, chunk_cfg)
    assert np.abs(full.gammas - chunked.gammas).mean() <= 0.05

    tensor, activities, oracle = _rotating_scene(rotate=True)
    full = cacgmm_em(tensor, activities, full_cfg)
    chunked = cacgmm_em(tensor, activities, chunk_cfg)
    err_full = np.abs(full.gammas - oracle).mean()
    err_chunked = np.abs(chunked.gammas - oracle).mean()
    assert err_chunked < err_full, f"chunked {err_chunked:.4f} vs full {err_full:.4f}"


# ---------------------------------------------------------------------------
# criterion 6: MVDR rank-1 behavior


def test_c06_mvdr_distortionless_and_suppression():
    """Rank-1 distortionless response within 1e-6; >= 20 dB interferer
    suppression with orthogonal steering and oracle masks."""
    rng = np.random.default_rng(0)
    n_ch, n_frames, n_bins = 4, 200, 33
    d = rng.standard_normal(n_ch) + 1j * rng.standard_normal(n_ch)
    d /= np.linalg.norm(d)
    s = rng.standard_normal((n_frames, n_bins)) + 1j * rng.standard_normal((n_frames, n_bins))
    s[100:] = 0.0
    x = d[:, None, None] * s[None]
    x[:, 100:] += 0.1 * (rng.standard_normal((n_ch, 100, n_bins))
                         + 1j * rng.standard_normal((n_ch, 100, n_bins)))
    tensor = SpectralTensor(values=x, frame_shift=32, frame_length=64, sample_rate=FS)
    gammas = np.zeros((2, n_frames, n_bins))
    gammas[0, :100] = 1.0
    gammas[1] = 1.0 - gammas[0]
    out = mvdr_beamform(tensor, MaskTensor(gammas), target=0, ref_channel=1)
    clean = d[1] * s[:100]
    rel = np.linalg.norm(out.values[0, :100] - clean) / np.linalg.norm(clean)
    assert rel < 1e-6, f"distortion {rel:.2e}"

    # orthogonal interferer with oracle masks
    basis = np.linalg.qr(rng.standard_normal((n_ch, 2))
                         + 1j * rng.standard_normal((n_ch, 2)))[0]
    d1, d2 = basis[:, 0], basis[:, 1]
    s1 = rng.standard_normal((n_frames, n_bins)) + 1j * rng.standard_normal((n_frames, n_bins))
    s2 = rng.standard_normal((n_frames, n_bins)) + 1j * rng.standard_normal((n_frames, n_bins))
    s1[100:] = 0.0
    s2[:100] = 0.0
    x = d1[:, None, None] * s1[None] + d2[:, None, None] * s2[None]
    tensor = SpectralTensor(values=x, frame_shift=32, frame_length=64, sample_rate=FS)
    out = mvdr_beamform(tensor, MaskTensor(gammas), target=0, ref_channel=0)
    # interferer power at the reference channel vs in the beamformed output
    in_power = np.mean(np.abs(d2[0] * s2[100:]) ** 2)
    out_power = np.mean(np.abs(out.values[0, 100:]) ** 2)
    suppression_db = 10 * np.log10(in_power / max(out_power, 1e-300))
    assert suppression_db >= 20.0, f"suppression {suppression_db:.1f} dB"


# ---------------------------------------------------------------------------
# criterion 7: hard-fusion oracle equivalence


def _brute_force_map(hyp, anchor, tag):
    matrix, spk_h, spk_a = overlap_duration_matrix(hyp, anchor)
    n_h, n_a = len(spk_h), len(spk_a)
    padded = np.hstack([matrix, np.zeros((n_h, n_h))])
    best_total, best_perm = -1.0, None
    for perm in itertools.permutations(range(n_a + n_h), n_h):
        total = sum(padded[i, j] for i, j in enumerate(perm))
        if total > best_total:
            best_total, best_perm = total, perm
    mapping = {}
    for i, j in enumerate(best_perm):
        if j < n_a and matrix[i, j] > 0:
            mapping[spk_h[i]] = spk_a[j]
    for s in spk_h:
        mapping.setdefault(s, f"{tag}:{s}")
    return hyp.relabeled(mapping)


def _vote_oracle(hyps, weights):
    bounds = sorted({x for h in hyps for t in h.turns for x in (t.start, t.end)})
    total = sum(weights)
    speech = {}
    for left, right in zip(bounds[:-1], bounds[1:]):
        mid = (left + right) / 2
        sets = [{t.speaker for t in h.turns if t.start <= mid < t.end} for h in hyps]
        k = int(np.floor(sum(w * len(s) for w, s in zip(weights, sets)) / total + 0.5))
        acc = {}
        for w, s in zip(weights, sets):
            for spk in s:
                acc[spk] = acc.get(spk, 0.0) + w
        for spk in sorted(acc, key=lambda s: (-acc[s], s))[:k]:
            speech.setdefault(spk, []).append((left, right))
    turns = []
    for spk, spans in speech.items():
        start, end = spans[0]
        for left, right in spans[1:]:
            if abs(left - end) < 1e-12:
                end = right
            else:
                turns.append(Turn(spk, start, end))
                start, end = left, right
        turns.append(Turn(spk, start, end))
    return sorted(turns, key=lambda t: (t.start, t.speaker))


def test_c07_hard_fusion_matches_exhaustive_oracle():
    """1,000 random instances match brute-force mapping + voting; identity and
    unanimity hold."""
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n_hyp = int(rng.integers(1, 4))
        hyps = []
        for _ in range(n_hyp):
            turns, t = [], 0.0
            for spk in range(int(rng.integers(1, 5))):
                start = t + rng.uniform(0.1, 1.0)
                end = start + rng.uniform(0.5, 3.0)
                turns.append((f"s{spk}", start, end))
                t = start + rng.uniform(0.0, 2.0)
            hyps.append(_seg(turns[: int(rng.integers(1, 7))]))
        weights = tuple(rng.uniform(0.5, 2.0, n_hyp).tolist())
        fused = doverlap_fuse(FusionInput(tuple(hyps), weights))

        if n_hyp == 1:
            assert fused.turns == hyps[0].turns  # identity
            continue
        anchor = int(np.argmax(weights))
        mapped = [
            h if i == anchor else _brute_force_map(h, hyps[anchor], f"h{i}")
            for i, h in enumerate(hyps)
        ]
        expected = _vote_oracle(mapped, weights)
        got = sorted(fused.turns, key=lambda t: (t.start, t.speaker))
        assert len(got) == len(expected), f"trial {trial}"
        for a, b in zip(got, expected):
            assert a.speaker == b.speaker and abs(a.start - b.start) < 1e-9 \
                and abs(a.end - b.end) < 1e-9, f"trial {trial}"

    # unanimity: identical hypotheses reproduce their own coverage
    seg = _seg([("a", 0.0, 4.0), ("b", 3.0, 7.0)])
    fused = doverlap_fuse(FusionInput((seg, seg, seg)))
    assert fused.merged_per_speaker() == seg.merged_per_speaker()


# ---------------------------------------------------------------------------
# criterion 8: best_permutation equals brute force


def test_c08_best_permutation_brute_force():
    """1,000 random SoftActivity pairs with up to 6 speakers."""
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        frames = int(rng.integers(10, 30))
        a = SoftActivity("s", rng.uniform(size=(n, frames)), 0.5)
        b = SoftActivity("s", rng.uniform(size=(n, frames)), 0.5)
        perm = best_permutation(a, b)

        def score(p):
            total = 0.0
            for i, j in enumerate(p):
                x = a.probs[i] - a.probs[i].mean()
                y = b.probs[j] - b.probs[j].mean()
                total += x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
            return total

        best = max(score(p) for p in itertools.permutations(range(n)))
        assert score(tuple(perm)) == pytest.approx(best)


# ---------------------------------------------------------------------------
# criterion 9: DER scorer


def test_c09_der_scorer():
    """Self-score zero; permutation invariance; hand-computed exact value;
    Hungarian mapping matches brute force for <= 6 speakers."""
    rng = np.random.default_rng(9)
    ref = _seg([("a", 0, 4), ("b", 3, 8), ("c", 9, 12)])
    assert compute_der(ref, ref).der == 0.0

    relabeled = ref.relabeled({"a": "z9", "b": "z1", "c": "z5"})
    hyp = _seg([("a", 0.5, 4), ("b", 3, 7.5), ("c", 9, 12)])
    assert compute_der(ref, hyp).der == pytest.approx(
        compute_der(relabeled, hyp.relabeled({"a": "q", "b": "r", "c": "t"})).der
    )

    # hand-computed: 2 s of 10 s missed -> 0.2
    out = compute_der(_seg([("a", 0, 10)]), _seg([("x", 0, 8)]))
    assert out.missed == pytest.approx(2.0)
    assert out.der == pytest.approx(0.2)

    for _ in range(200):
        n_ref, n_hyp = int(rng.integers(1, 7)), int(rng.integers(1, 7))

        def random_seg(n, prefix):
            turns, t = [], 0.0
            for i in range(n):
                start = t + rng.uniform(0.0, 1.0)
                end = start + rng.uniform(0.5, 2.0)
                turns.append((f"{prefix}{i}", start, end))
                t = start + rng.uniform(0.0, 1.5)
            return _seg(turns)

        ref = random_seg(n_ref, "r")
        hyp = random_seg(n_hyp, "h")
        matrix, spk_h, spk_r = overlap_duration_matrix(hyp, ref)
        padded = np.hstack([matrix, np.zeros((len(spk_h), len(spk_h)))])
        brute = max(
            sum(padded[i, j] for i, j in enumerate(perm))
            for perm in itertools.permutations(range(padded.shape[1]), len(spk_h))
        )
        mapping = optimal_speaker_mapping(ref, hyp)
        ih = {s: i for i, s in enumerate(spk_h)}
        ir = {s: i for i, s in enumerate(spk_r)}
        attributed = sum(matrix[ih[h], ir[r]] for h, r in mapping.items())
        assert attributed == pytest.approx(brute)


# ---------------------------------------------------------------------------
# criterion 10: RIR generator


def test_c10_rir_direct_path_and_t60():
    """Direct-path delay within 1 sample on 1,000 triples; Schroeder T60
    within 20% of nominal for t60 in {0.2, 0.5, 0.8}."""
    ranges = RoomRanges(
        dim_min=(4.0, 3.0, 2.4), dim_max=(8.0, 6.0, 3.4),
        t60_min=0.25, t60_max=0.35, num_sources=10, num_receivers=10,
    )
    checked = 0
    for room_seed in range(10):
        room = sample_room(ranges, seed=room_seed)
        for src in range(10):
            for rec in range(10):
                rir = generate_rir(room, src, rec, FS, max_order=1)
                dist = np.linalg.norm(
                    room.source_positions[src] - room.receiver_positions[rec]
                )
                exact = dist * FS / room.speed_of_sound
                assert abs(rir.direct_path_delay - exact) <= 1.0
                assert np.any(rir.taps[: rir.direct_path_delay + 41] != 0.0)
                checked += 1
    assert checked == 1000

    room_dims = np.array([6.0, 5.0, 3.0])
    for t60 in (0.2, 0.5, 0.8):
        room = RoomSpec(
            dimensions=room_dims,
            t60=t60,
            source_positions=np.array([[1.3, 1.9, 1.4]]),
            receiver_positions=np.array([[4.2, 3.1, 1.6]]),
        )
        rir = generate_rir(room, 0, 0, FS)
        energy = rir.taps**2
        edc = np.cumsum(energy[::-1])[::-1]
        edc_db = 10 * np.log10(np.maximum(edc / edc[0], 1e-30))
        idx = np.where((edc_db <= -5) & (edc_db >= -25))[0]
        slope = np.polyfit(idx / FS, edc_db[idx], 1)[0]
        t60_est = -60.0 / slope
        assert abs(t60_est - t60) <= 0.2 * t60, f"nominal {t60}, got {t60_est:.3f}"


# ---------------------------------------------------------------------------
# criterion 11: bounds erosion and extension


def test_c11_erode_extend():
    """erode(extend(S, m), m) = S for interior turns; short turns dropped."""
    margin = 0.5
    seg = _seg([("a", 2.0, 5.0), ("b", 6.0, 9.5)])
    out = erode_bounds(extend_segments(seg, margin, session_end=100.0), margin)
    for got, want in zip(out.sorted_turns(), seg.sorted_turns()):
        assert got.speaker == want.speaker
        assert got.start == pytest.approx(want.start)
        assert got.end == pytest.approx(want.end)

    short = _seg([("a", 1.0, 1.9), ("b", 3.0, 5.0)])
    eroded = erode_bounds(short, margin)
    assert [t.speaker for t in eroded.turns] == ["b"]


# ---------------------------------------------------------------------------
# criterion 12: WPE behavior


def test_c12_wpe():
    """Tail-energy reduction on reverberant input, <= 5% change on anechoic
    noise, and shape preservation."""
    rng = np.random.default_rng(12)
    # anechoic: output nearly identical
    x = MultichannelAudio(rng.standard_normal((2, 60 * FS)), FS)
    params = StftParams(256, 128, "hann")
    tensor = stft(x, params)
    out = wpe_dereverberate(tensor, WpeConfig(taps=2, delay=2, iterations=2))
    assert out.values.shape == tensor.values.shape
    change = np.linalg.norm(out.values - tensor.values) / np.linalg.norm(tensor.values)
    assert change <= 0.05, f"anechoic change {change:.4f}"

    # reverberant: late energy drops
    dry = np.zeros(3 * FS)
    dry[:: FS // 10] = rng.standard_normal(len(dry[:: FS // 10]))
    dry += 0.1 * rng.standard_normal(len(dry))
    rir_len = int(0.6 * FS)
    rir = np.exp(-3.0 * np.log(10) * np.arange(rir_len) / rir_len)
    rir *= rng.standard_normal(rir_len)
    rir[0] = 1.0
    wet = MultichannelAudio(
        np.vstack([np.convolve(dry, np.roll(rir, c))[: len(dry)] for c in range(3)]), FS
    )
    params = StftParams(512, 128, "hann")
    tensor = stft(wet, params)
    processed = istft(wpe_dereverberate(tensor, WpeConfig(taps=10, delay=2, iterations=3)), params)
    assert processed.samples.shape == wet.samples.shape

    def tail_energy(sig):
        n = len(dry)
        spec = np.fft.rfft(sig, 2 * n) / np.maximum(np.abs(np.fft.rfft(dry, 2 * n)), 1e-6)
        spec *= np.exp(-1j * np.angle(np.fft.rfft(dry, 2 * n)))
        equiv = np.fft.irfft(spec)[:rir_len]
        return np.sum(equiv[int(0.05 * FS) :] ** 2)

    assert tail_energy(processed.samples[0]) < tail_energy(wet.samples[0])


# ---------------------------------------------------------------------------
# criterion 13: STFT round trip


def test_c13_stft_round_trip():
    """Relative L2 error within 1e-6 for every shipped COLA configuration."""
    rng = np.random.default_rng(13)
    x = MultichannelAudio(rng.standard_normal((3, 20000)), FS)
    configs = [
        StftParams(1024, 256, "hann"),
        StftParams(1024, 512, "hann"),
        StftParams(1024, 256, "sqrt_hann"),
        StftParams(1024, 512, "sqrt_hann"),
        StftParams(512, 128, "hann"),
        StftParams(512, 256, "sqrt_hann"),
    ]
    for params in configs:
        y = istft(stft(x, params), params)
        err = np.linalg.norm(y.samples - x.samples) / np.linalg.norm(x.samples)
        assert err <= 1e-6, f"{params}: {err:.2e}"


# ---------------------------------------------------------------------------
# criterion 14: determinism of the full pipeline


def test_c14_run_determinism(demo_manifest, tmp_path):
    """Two seeded executions produce bit-identical RTTM artifacts."""
    from farfield.pipeline import load_config, load_manifest, run_full

    sessions = load_manifest(demo_manifest)
    config = load_config(None, overrides={"gss.iterations": 2})
    payloads = []
    for name in ("det-a", "det-b"):
        run_dir = tmp_path / name
        run_full(sessions[0], config, run_dir)
        session_dir = run_dir / "diarize" / "demo"
        blob = b"".join(
            p.read_bytes() for p in sorted(session_dir.glob("*.rttm"))
        ) + (run_dir / "fusion" / "demo" / "final.rttm").read_bytes()
        payloads.append(blob)
    assert payloads[0] == payloads[1]
