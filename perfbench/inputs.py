"""Seeded synthetic inputs for the farfield benchmark workloads.

Every random draw comes from a sub-seed that ``sub_seed`` derives from the
workload seed with ``zlib.crc32``, never from Python's salted ``hash()``, so
the same seed writes byte-identical files in every process.

Run as a script, it writes one workload's inputs into a directory and prints
one JSON line with the set-up time (import plus generation plus writing) and
a digest of the written files:

    PYTHONPATH=src python3 perfbench/inputs.py --workload meeting --seed 1 --out DIR
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import farfield.pipeline  # noqa: E402,F401  (import cost belongs to set-up)
import farfield.metrics  # noqa: E402,F401
from farfield.audio import write_wav  # noqa: E402
from farfield.embeddings import EmbeddingEntry, EmbeddingSet, write_embeddings  # noqa: E402
from farfield.segments import (  # noqa: E402
    Segmentation,
    SoftActivity,
    Turn,
    write_activity,
    write_rttm,
)
from farfield.simulate import (  # noqa: E402
    MixtureSpec,
    OverlapStats,
    RoomRanges,
    sample_conversation,
    sample_room,
    simulate_mixture,
)

FS = 16000
FRAME_STEP = 0.5  # embedding and activity frame step, seconds
EMB_DIM = 32
VAD_SOURCES = ("vadA", "vadB")
VARIANTS = ("orig", "wpe")  # the pipeline's default diarize.variants

# Workload sizes. Meeting and hypotheses share the session layout: 4 speakers,
# 4 channels, EMB1 files for 2 VAD sources x 2 variants per channel, one ACT1
# activity per channel and one reference RTTM.
MEETING_SPEAKERS = 4
MEETING_CHANNELS = 4
MEETING_TURN_SECONDS = 2.2
# Short reverb in a mid-sized room keeps the 16 RIRs of set-up cheap. The room
# is part of the workload, not of the seed: how hard separation is, and what
# set-up costs, depend on the room far more than on anything else drawn.
MEETING_ROOM_SEED = 0
MEETING_RANGES = RoomRanges(
    dim_min=(6.0, 5.0, 2.8), dim_max=(8.0, 6.0, 3.2),
    t60_min=0.2, t60_max=0.25, num_sources=4, num_receivers=4,
)
HYPOTHESES_SPEAKERS = 4
HYPOTHESES_CHANNELS = 4
HYPOTHESES_SECONDS = 300.0


def sub_seed(seed: int, *names) -> int:
    """Stable 32-bit sub-seed for one named draw of one workload seed."""
    return zlib.crc32(":".join([str(seed), *map(str, names)]).encode())


def _speech(rng, seconds, rate):
    """Amplitude-modulated noise: a cheap stand-in for one utterance."""
    t = np.arange(int(round(seconds * FS))) / FS
    envelope = 1.0 + 0.8 * np.sin(2 * np.pi * rate * t)
    return 0.1 * envelope * rng.standard_normal(len(t))


def meeting_schedule(seed: int):
    """Four 2.2 s turns, one per speaker, with a pause, an overlap and a pause.

    Only the order of the speakers depends on the seed. Every turn starts
    0.15 s after and ends 0.35 s after a point of the 0.5 s embedding grid, so
    each boundary costs the same 0.15 s of DER whatever the seed, and DER is
    never 0.
    """
    order = np.random.default_rng(sub_seed(seed, "schedule")).permutation(MEETING_SPEAKERS)
    turns, start = [], 0.15
    for i, spk in enumerate(order):
        end = start + MEETING_TURN_SECONDS
        turns.append((f"spk{spk:02d}", round(start, 3), round(end, 3)))
        start = end + (0.3 if i % 2 == 0 else -0.2)  # a pause, then an overlap
    duration = float(np.ceil(turns[-1][2] + 0.4))
    return turns, duration


def hypotheses_schedule(seed: int):
    """A long 4-speaker conversation from the library's own turn sampler."""
    sched = sample_conversation(
        OverlapStats(), HYPOTHESES_SPEAKERS, HYPOTHESES_SECONDS,
        seed=sub_seed(seed, "schedule"),
    )
    turns = [
        (f"spk{u.speaker:02d}", round(u.start, 3), round(min(u.end, HYPOTHESES_SECONDS), 3))
        for u in sched
    ]
    return [t for t in turns if t[2] > t[1]], HYPOTHESES_SECONDS


def _embeddings(rng, centers, turns, duration):
    """One entry per 0.5 s frame, one noisy vector per speaker active mid-frame."""
    entries = []
    starts = np.array([a for _, a, _ in turns])
    ends = np.array([b for _, _, b in turns])
    names = [s for s, _, _ in turns]
    for k in range(int(np.ceil(duration / FRAME_STEP))):
        t = k * FRAME_STEP
        mid = t + FRAME_STEP / 2
        live = np.flatnonzero((starts <= mid) & (mid < ends))
        active = sorted({names[i] for i in live})
        if active:
            vectors = np.vstack(
                [centers[s] + 0.05 * rng.standard_normal(EMB_DIM) for s in active]
            )
            entries.append(EmbeddingEntry(t, t + FRAME_STEP, vectors))
    return EmbeddingSet(tuple(entries))


def _activity(turns, speakers, duration):
    n_frames = int(np.ceil(duration / FRAME_STEP))
    probs = np.full((speakers, n_frames), 0.02)
    for spk, a, b in turns:
        probs[int(spk[3:]), int(round(a / FRAME_STEP)) : int(round(b / FRAME_STEP))] = 0.95
    return probs


def write_session_layers(out: Path, seed: int, session_id: str, turns, duration,
                         speakers: int, channels: int) -> dict:
    """Write embeddings, activities and the reference RTTM; returns the manifest entry."""
    write_rttm(out / "reference.rttm", Segmentation(session_id, tuple(Turn(*t) for t in turns)))
    basis = np.linalg.qr(
        np.random.default_rng(sub_seed(seed, "centers")).standard_normal((EMB_DIM, speakers))
    )[0]
    centers = {f"spk{s:02d}": basis[:, s] for s in range(speakers)}
    embeddings, activities = [], []
    probs = _activity(turns, speakers, duration)
    for ch in range(channels):
        for vad_source in VAD_SOURCES:
            for variant in VARIANTS:
                name = f"emb_ch{ch}_{vad_source}_{variant}.emb"
                rng = np.random.default_rng(sub_seed(seed, "emb", ch, vad_source, variant))
                write_embeddings(out / name, _embeddings(rng, centers, turns, duration))
                embeddings.append({"path": name, "channel": ch,
                                   "vad_source": vad_source, "variant": variant})
        name = f"act_ch{ch}.act"
        write_activity(out / name, SoftActivity(session_id, probs, FRAME_STEP))
        activities.append({"path": name, "channel": ch, "tag": f"nd_ch{ch}"})
    return {
        "session_id": session_id,
        "channels": [],
        "embeddings": embeddings,
        "soft_activities": activities,
        "reference_rttm": "reference.rttm",
    }


def make_meeting(out: Path, seed: int) -> None:
    turns, duration = meeting_schedule(seed)
    entry = write_session_layers(out, seed, "meeting", turns, duration,
                                 MEETING_SPEAKERS, MEETING_CHANNELS)
    rng = np.random.default_rng(sub_seed(seed, "audio"))
    dry, utterances = {}, []
    for i, (spk, a, b) in enumerate(turns):
        dry[f"utt{i}"] = _speech(rng, b - a, rate=3.0 + 1.5 * int(spk[3:]))
        utterances.append((int(spk[3:]), f"utt{i}", a))
    dry["noise"] = 0.05 * rng.standard_normal(int(duration * FS))
    spec = MixtureSpec(speakers=MEETING_SPEAKERS, utterances=tuple(utterances),
                       duration=duration, channels=MEETING_CHANNELS,
                       noise_ref="noise", snr_db=15.0)
    room = sample_room(MEETING_RANGES, seed=MEETING_ROOM_SEED)
    audio, _, images, _ = simulate_mixture(spec, room, dry, FS, noise_seed=sub_seed(seed, "noise"),
                                           return_components=True)
    for ch in range(audio.num_channels):
        write_wav(out / f"ch{ch}.wav", audio.channel(ch))
        entry["channels"].append(f"ch{ch}.wav")
    # reverberant speaker images: the SI-SDR references, not a pipeline input
    np.save(out / "images.npy",
            np.stack([images[s] for s in range(MEETING_SPEAKERS)]).astype(np.float32))
    _write_manifest(out, entry)


def make_hypotheses(out: Path, seed: int) -> None:
    turns, duration = hypotheses_schedule(seed)
    entry = write_session_layers(out, seed, "hypotheses", turns, duration,
                                 HYPOTHESES_SPEAKERS, HYPOTHESES_CHANNELS)
    _write_manifest(out, entry)


def _write_manifest(out: Path, entry: dict) -> None:
    (out / "manifest.json").write_text(json.dumps({"sessions": [entry]}, indent=1))


MAKERS = {"meeting": make_meeting, "hypotheses": make_hypotheses}


def digest(directory: Path) -> str:
    """sha256 over the relative names and bytes of every file, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=False)
    MAKERS[args.workload](out, args.seed)
    setup_s = time.perf_counter() - _T_START
    print(json.dumps({"setup_s": setup_s, "digest": digest(out)}))


if __name__ == "__main__":
    main()
