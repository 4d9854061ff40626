"""Shared synthetic session fixture: audio, embeddings, activities, manifest."""

import json
import zlib

import numpy as np
import pytest

from farfield.audio import MultichannelAudio, write_wav
from farfield.embeddings import EmbeddingEntry, EmbeddingSet, write_embeddings
from farfield.segments import Segmentation, SoftActivity, Turn, write_activity, write_rttm
from farfield.simulate import MixtureSpec, RoomRanges, sample_room, simulate_mixture

FS = 16000

# short reverb keeps RIR generation cheap in tests
FAST_RANGES = RoomRanges(
    dim_min=(4.0, 3.0, 2.4),
    dim_max=(5.5, 4.5, 3.0),
    t60_min=0.2,
    t60_max=0.25,
    num_sources=4,
    num_receivers=4,
)

# alternating two-speaker schedule with one overlapped stretch
SCHEDULE = [
    ("spk00", 0.5, 3.5),
    ("spk01", 4.0, 7.0),
    ("spk00", 6.5, 9.5),  # overlaps the tail of spk01
    ("spk01", 10.0, 12.5),
    ("spk00", 13.0, 15.5),
]
DURATION = 16.0
FRAME_STEP = 0.5


def _speech(rng, duration, rate):
    t = np.arange(int(duration * FS)) / FS
    envelope = 1.0 + 0.8 * np.sin(2 * np.pi * rate * t)
    return 0.1 * envelope * rng.standard_normal(len(t))


def _reference():
    return Segmentation("demo", tuple(Turn(s, a, b) for s, a, b in SCHEDULE))


def _active_speakers(t, step):
    return sorted({s for s, a, b in SCHEDULE if a <= t + step / 2 < b})


def _make_embeddings(rng, centers, step, dim=16):
    entries = []
    t = 0.0
    while t < DURATION:
        active = _active_speakers(t, step)
        if active:
            vectors = np.vstack(
                [centers[s] + 0.05 * rng.standard_normal(dim) for s in active]
            )
            entries.append(EmbeddingEntry(t, t + step, vectors))
        t += step
    return EmbeddingSet(tuple(entries))


def build_demo_session(root, seed=0, embedding_step=FRAME_STEP):
    """Write a complete synthetic session under root; returns the manifest path.

    embedding_step is the length of the embedding frames, which places the
    diarized turn boundaries.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    room = sample_room(FAST_RANGES, seed=seed)
    dry = {}
    utterances = []
    for i, (spk, start, end) in enumerate(SCHEDULE):
        ref = f"utt{i}"
        dry[ref] = _speech(rng, end - start, rate=3.0 + 2.0 * int(spk[-1]))
        utterances.append((int(spk[-1]), ref, start))
    dry["noise"] = 0.05 * rng.standard_normal(int(DURATION * FS))
    spec = MixtureSpec(
        speakers=2,
        utterances=tuple(utterances),
        duration=DURATION,
        channels=2,
        noise_ref="noise",
        snr_db=15.0,
    )
    audio, _ = simulate_mixture(spec, room, dry, FS, noise_seed=seed)

    channel_paths = []
    for ch in range(audio.num_channels):
        path = root / f"demo_ch{ch}.wav"
        write_wav(path, MultichannelAudio(audio.samples[ch], FS))
        channel_paths.append(path.name)

    reference = _reference()
    write_rttm(root / "demo.rttm", reference)

    # well-separated unit embedding centers, one per speaker
    basis = np.linalg.qr(np.random.default_rng(seed + 100).standard_normal((16, 2)))[0]
    centers = {"spk00": basis[:, 0], "spk01": basis[:, 1]}
    embeddings = []
    for ch in range(audio.num_channels):
        for vad_source in ("vadA", "vadB"):
            for variant in ("orig", "wpe"):
                name = f"emb_ch{ch}_{vad_source}_{variant}.emb"
                tag = zlib.crc32(f"{vad_source}/{variant}".encode())
                emb_rng = np.random.default_rng(seed + 7 * ch + 31 * tag % 1000)
                write_embeddings(root / name, _make_embeddings(emb_rng, centers, embedding_step))
                embeddings.append(
                    {"path": name, "channel": ch, "vad_source": vad_source,
                     "variant": variant}
                )

    # slightly-soft reference activities, one per channel
    n_frames = int(np.ceil(DURATION / FRAME_STEP))
    soft_activities = []
    for ch in range(audio.num_channels):
        probs = np.full((2, n_frames), 0.02)
        for spk, a, b in SCHEDULE:
            row = int(spk[-1])
            probs[row, int(round(a / FRAME_STEP)) : int(round(b / FRAME_STEP))] = 0.95
        name = f"act_ch{ch}.act"
        write_activity(root / name, SoftActivity("demo", probs, FRAME_STEP))
        soft_activities.append({"path": name, "channel": ch, "tag": f"nd_ch{ch}"})

    manifest = {
        "sessions": [
            {
                "session_id": "demo",
                "channels": channel_paths,
                "embeddings": embeddings,
                "soft_activities": soft_activities,
                "reference_rttm": "demo.rttm",
            }
        ]
    }
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


@pytest.fixture(scope="session")
def demo_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo-session")
    return build_demo_session(root, seed=0)


@pytest.fixture(scope="session")
def offgrid_manifest(tmp_path_factory):
    """The demo session on 0.4996 s embedding frames: its turn boundaries fall
    between the milliseconds that RTTM files hold."""
    root = tmp_path_factory.mktemp("offgrid-session")
    return build_demo_session(root, seed=0, embedding_step=0.4996)


@pytest.fixture(scope="session")
def demo_reference():
    return _reference()
