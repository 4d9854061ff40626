"""Write a long 4-channel meeting session and run run_full on it in a fresh process.

The session is the benchmark meeting's, made long: a 4-speaker conversation
drawn by sample_conversation(OverlapStats(), 4, seconds) with seed 11, the
meeting room of perfbench/inputs.py (MEETING_RANGES, MEETING_ROOM_SEED), its
stand-in speech and noise, and its embedding, activity and reference layers
(inputs.write_session_layers). At the default 600 s it has 246 reference
turns. One child process writes the inputs, and another runs run_full on them
with the default config, so that its ru_maxrss is the peak resident memory of
the run alone. Prints one JSON line with the turn count, the set-up time, the
peak, the wall time of each stage, the peak as it stood after each stage, and
the DER:

    PYTHONPATH=src python3 tools/long_session.py --seconds 600
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import farfield.pipeline as pipeline  # noqa: E402
import inputs  # noqa: E402  (the checkout's perfbench/inputs.py)
from farfield.audio import write_wav  # noqa: E402
from farfield.simulate import (MixtureSpec, OverlapStats, sample_conversation,  # noqa: E402
                               sample_room, simulate_mixture)

SEED = 11
SPEAKERS = CHANNELS = 4
# the stages of run_full, timed at their farfield.pipeline bindings
STAGES = ("run_preprocess", "run_diarize_grid", "run_fusion", "run_gss", "compute_der")


def write_session(out: Path, seconds: float) -> int:
    """Write the session's inputs and manifest.json into out; returns the turn count."""
    schedule = sample_conversation(OverlapStats(), SPEAKERS, seconds, seed=SEED)
    turns = [(f"spk{u.speaker:02d}", round(u.start, 3), round(min(u.end, seconds), 3))
             for u in schedule]
    turns = [t for t in turns if t[2] > t[1]]
    entry = inputs.write_session_layers(out, SEED, "long", turns, seconds, SPEAKERS, CHANNELS)
    rng = np.random.default_rng(inputs.sub_seed(SEED, "audio"))
    dry, utterances = {}, []
    for i, (spk, start, end) in enumerate(turns):
        dry[f"utt{i}"] = inputs._speech(rng, end - start, rate=3.0 + 1.5 * int(spk[3:]))
        utterances.append((int(spk[3:]), f"utt{i}", start))
    dry["noise"] = 0.05 * rng.standard_normal(int(seconds * inputs.FS))
    spec = MixtureSpec(speakers=SPEAKERS, utterances=tuple(utterances), duration=seconds,
                       channels=CHANNELS, noise_ref="noise", snr_db=15.0)
    room = sample_room(inputs.MEETING_RANGES, seed=inputs.MEETING_ROOM_SEED)
    audio, _ = simulate_mixture(spec, room, dry, inputs.FS,
                                noise_seed=inputs.sub_seed(SEED, "noise"))
    for ch in range(audio.num_channels):
        write_wav(out / f"ch{ch}.wav", audio.channel(ch))
        entry["channels"].append(f"ch{ch}.wav")
    (out / "manifest.json").write_text(json.dumps({"sessions": [entry]}, indent=1))
    return len(turns)


def run(manifest: Path) -> dict:
    """run_full on the manifest's session; the peak RSS of this process and stage times."""
    stage_s, rss_after_mb = {}, {}

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - t0
                rss_after_mb[name] = _peak_rss_mb()
        return wrapper

    for name in STAGES:
        setattr(pipeline, name, timed(name, getattr(pipeline, name)))
    t0 = time.perf_counter()
    report = pipeline.run_full(pipeline.load_manifest(manifest)[0], pipeline.load_config(),
                               manifest.parent.parent / "run")
    return {"run_full_s": time.perf_counter() - t0, "stage_s": stage_s,
            "peak_rss_mb": _peak_rss_mb(), "peak_rss_after_stage_mb": rss_after_mb,
            "der": report.get("der")}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child(*args) -> str:
    """The last stdout line of this script run with args in a new process."""
    out = subprocess.run([sys.executable, __file__, *args], check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return out.splitlines()[-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=600.0)
    # the two children: one writes the session into a directory, one runs it
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write is not None:
        print(write_session(args.write, args.seconds))
    elif args.run is not None:
        print(json.dumps(run(args.run)))
    else:
        # both in children: on Linux a process's ru_maxrss starts from the peak of
        # the process that started it, so this one must stay small
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "inputs"
            data.mkdir()
            t0 = time.perf_counter()
            turns = int(_child("--write", str(data), "--seconds", str(args.seconds)))
            setup_s = time.perf_counter() - t0
            result = json.loads(_child("--run", str(data / "manifest.json")))
        print(json.dumps({"seconds": args.seconds, "turns": turns, "setup_s": setup_s,
                          **result}))


if __name__ == "__main__":
    main()
