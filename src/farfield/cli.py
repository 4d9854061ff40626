"""Command-line entry points for the pipeline stages."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from farfield.errors import ConfigError, DataError, FarfieldError


def _add_common(parser):
    parser.add_argument("--manifest", required=True, help="session manifest (JSON)")
    parser.add_argument("--config", default=None, help="pipeline config (JSON)")
    parser.add_argument("--run-dir", default="runs/default", help="artifact directory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a dotted config key (seed, gss.iterations); VALUE is JSON "
             "or else a string; repeatable",
    )


def _overrides(items) -> dict:
    overrides = {}
    for item in items:
        key, sep, text = item.partition("=")
        if not (key and sep):
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        try:
            overrides[key] = json.loads(text)
        except ValueError:
            overrides[key] = text
    return overrides


def _load(args):
    from farfield.pipeline import load_config, load_manifest

    config = load_config(args.config, _overrides(args.set))
    sessions = load_manifest(args.manifest)
    for session in sessions:  # every command that reads a manifest preprocesses its audio
        if not session["channels"]:
            raise DataError(f"manifest {args.manifest}: session {session['session_id']!r} "
                            "lists no channels")
    return sessions, config


def _map_sessions(fn, sessions, workers):
    if workers <= 1:
        return [fn(s) for s in sessions]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, sessions))


def cmd_preprocess(args):
    from farfield.pipeline import run_preprocess

    sessions, config = _load(args)
    results = _map_sessions(
        lambda s: run_preprocess(s, config, Path(args.run_dir)), sessions, args.workers
    )
    for session, result in zip(sessions, results):
        state = "cached" if result["cached"] else "done"
        print(f"{session['session_id']}: {state} -> {result['ranking']}")
    return 0


def cmd_diarize(args):
    from farfield.pipeline import run_diarize_grid, run_preprocess

    sessions, config = _load(args)

    def diarize(session):
        run_preprocess(session, config, Path(args.run_dir))
        return run_diarize_grid(session, config, Path(args.run_dir))

    results = _map_sessions(diarize, sessions, args.workers)
    for session, result in zip(sessions, results):
        for ch, path in sorted(result["fused"].items()):
            print(f"{session['session_id']} channel {ch}: {path}")
    return 0


def cmd_fuse(args):
    from farfield.fusion import FusionInput, doverlap_fuse
    from farfield.config import has_type
    from farfield.pipeline import objects_with, read_json
    from farfield.segments import read_rttm, write_rttm

    spec = read_json(args.inputs, DataError, "fusion inputs")
    items = spec.get("hypotheses") if isinstance(spec, dict) else None
    if not (items and objects_with(items, "path")):
        raise DataError(f"fusion inputs {args.inputs}: 'hypotheses' must be a non-empty "
                        "list of objects with a path")
    base = Path(args.inputs).parent
    hypotheses = []
    for item in items:
        segs = read_rttm(base / item["path"])
        if len(segs) != 1:
            raise DataError(f"{base / item['path']}: expected exactly one session per file")
        hypotheses.append(next(iter(segs.values())))
    weights = tuple(item.get("weight", 1.0) for item in items)
    try:
        if not all(has_type(w, "number") for w in weights):
            raise DataError(f"weights must be JSON numbers, got {weights}")
        fusion_input = FusionInput(tuple(hypotheses), tuple(map(float, weights)))
    except DataError as exc:
        raise DataError(f"fusion inputs {args.inputs}: {exc}") from exc
    fused = doverlap_fuse(fusion_input)
    write_rttm(args.output, fused)
    print(f"fused {len(hypotheses)} hypotheses -> {args.output}")
    return 0


def cmd_gss(args):
    import numpy as np

    from farfield.gss import apply_vad_mask
    from farfield.pipeline import read_session_rttm, run_gss, run_preprocess
    from farfield.segments import read_activity

    if args.vad_mask and not args.activity:
        raise ConfigError("--vad-mask needs --activity: the mask multiplies its activities")
    sessions, config = _load(args)
    vad = None
    if args.vad_mask:
        try:
            vad = np.load(args.vad_mask)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read VAD mask {args.vad_mask}: {exc}") from exc
    jobs = []  # every input is read before any stage runs
    for session in sessions:
        sid = session["session_id"]
        activity = read_activity(args.activity, sid) if args.activity else None
        if activity is not None and vad is not None:
            activity = apply_vad_mask(activity, vad)
        jobs.append((session, read_session_rttm(args.rttm, sid), activity))

    def separate(job):
        session, seg, activity = job
        run_preprocess(session, config, Path(args.run_dir))  # a cache hit after preprocess/run
        return run_gss(session, config, Path(args.run_dir), seg, activity)

    for (session, _, _), result in zip(jobs, _map_sessions(separate, jobs, args.workers)):
        state = "cached" if result["cached"] else "done"
        print(f"{session['session_id']}: {state}, {len(result['outputs'])} segment WAVs")
    return 0


def cmd_simulate(args):
    import numpy as np

    from farfield.audio import read_wav, write_wav
    from farfield.config import PipelineConfig, from_json
    from farfield.pipeline import atomic_write_bytes, objects_with, read_json
    from farfield.segments import write_rttm
    from farfield.simulate import (MixtureSpec, SimulationConfig, sample_conversation,
                                   sample_room, simulate_mixture)

    from_json(PipelineConfig, {"seed": args.seed}, "--")
    spec = read_json(args.config, ConfigError, "simulation config")
    corpus = spec.pop("dry_corpus", None) if isinstance(spec, dict) else None
    if not (corpus and objects_with(corpus, "ref", "path")):
        raise ConfigError(f"simulation config {args.config}: 'dry_corpus' must be a "
                          "non-empty list of objects with ref and path")
    try:
        config = from_json(SimulationConfig, spec)
    except ConfigError as exc:
        raise ConfigError(f"simulation config {args.config}: {exc}") from exc
    base = Path(args.config).parent
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dry_store = {}
    for item in corpus:
        dry = read_wav(base / item["path"])
        if dry.sample_rate != config.sample_rate or dry.num_channels != 1:
            raise DataError(f"dry WAV {base / item['path']}: {dry.num_channels} channels at "
                            f"{dry.sample_rate} Hz, need 1 channel at {config.sample_rate} Hz")
        dry_store[item["ref"]] = dry.samples[0]
    speech_refs = [r for r in dry_store if r != config.noise_ref]
    if not speech_refs:
        raise ConfigError(f"simulation config {args.config}: 'dry_corpus' has only the noise_ref")
    rng = np.random.default_rng(args.seed)
    for index in range(config.num_sessions):
        session_id, seed = f"sim{index:03d}", args.seed * 1000 + index
        room = sample_room(config.room_ranges, seed=seed)
        schedule = sample_conversation(config.overlap_stats, config.speakers, config.duration,
                                       seed=seed)
        utterances = tuple(
            (u.speaker, speech_refs[int(rng.integers(len(speech_refs)))], u.start)
            for u in schedule
        )
        mix_spec = MixtureSpec(speakers=config.speakers, utterances=utterances,
                               duration=config.duration, channels=config.channels,
                               noise_ref=config.noise_ref, snr_db=config.snr_db)
        audio, seg = simulate_mixture(mix_spec, room, dry_store, config.sample_rate,
                                      noise_seed=index)
        seg = type(seg)(session_id, seg.turns)
        write_wav(out_dir / f"{session_id}.wav", audio)
        write_rttm(out_dir / f"{session_id}.rttm", seg)
        metadata = {
            "session_id": session_id,
            "room": {
                "dimensions": room.dimensions.tolist(),
                "t60": room.t60,
                "sources": room.source_positions.tolist(),
                "receivers": room.receiver_positions.tolist(),
            },
            "seed": seed,
            "snr_db": config.snr_db,
            "schedule": [(u.speaker, u.start, u.duration) for u in schedule],
        }
        atomic_write_bytes(
            out_dir / f"{session_id}.json", json.dumps(metadata, indent=2).encode()
        )
        print(f"{session_id}: {audio.num_channels}ch {audio.duration:.1f}s, "
              f"{len(seg.turns)} turns")
    return 0


def cmd_score(args):
    from farfield.config import ScoreConfig, from_json
    from farfield.pipeline import format_score_report, score_directories

    from_json(ScoreConfig, {"collar": args.collar}, "--")
    for directory in (args.ref_dir, args.hyp_dir):
        if not any(Path(directory).glob("*.rttm")):
            raise DataError(f"{directory}: not a directory that holds *.rttm files")
    result = score_directories(args.ref_dir, args.hyp_dir, args.collar)
    if all(row["der"] is None for row in result["sessions"]):
        raise DataError(f"{args.ref_dir}: no reference session has a hypothesis in "
                        f"{args.hyp_dir}")
    print(format_score_report(result))
    return 0


def cmd_run(args):
    from farfield.pipeline import run_full

    sessions, config = _load(args)
    reports = _map_sessions(
        lambda s: run_full(s, config, Path(args.run_dir)), sessions, args.workers
    )
    for report in reports:
        der = f"DER {report['der']:.4f}" if "der" in report else "no reference"
        cached = ", ".join(stage for stage, hit in report["cached"].items() if hit) or "none"
        print(f"{report['session_id']}: {der}, {len(report['gss_outputs'])} segments, "
              f"cached: {cached}")
    return 0


def build_parser():
    from farfield.pipeline import DEFAULT_CONFIG

    parser = argparse.ArgumentParser(prog="farfield")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="normalize, dereverberate, rank channels")
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("diarize", help="clustering grid + per-channel fusion")
    _add_common(p)
    p.set_defaults(func=cmd_diarize)

    p = sub.add_parser("fuse", help="fuse hypothesis RTTMs listed in a manifest")
    p.add_argument("--inputs", required=True, help="JSON manifest: hypotheses + weights")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("gss", help="guided source separation over a segmentation")
    _add_common(p)
    p.add_argument("--rttm", required=True)
    p.add_argument("--activity", default=None, help="soft-activity file")
    p.add_argument("--vad-mask", default=None,
                   help="binary VAD mask (.npy) applied to --activity")
    p.set_defaults(func=cmd_gss)

    p = sub.add_parser("simulate", help="generate synthetic sessions")
    p.add_argument("--config", required=True, help="simulation config (JSON)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("score", help="DER + speaker count over RTTM directories")
    p.add_argument("--ref-dir", required=True)
    p.add_argument("--hyp-dir", required=True)
    p.add_argument("--collar", type=float, default=DEFAULT_CONFIG["score"]["collar"])
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("run", help="full pipeline")
    _add_common(p)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FarfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
