"""Manifest-driven orchestration of the full pipeline with artifact caching."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from farfield.audio import read_wav, stack_channel_files, write_wav
from farfield.config import PipelineConfig, ScoreConfig, from_json, to_json
from farfield.diarize import diarize_embeddings
from farfield.embeddings import read_embeddings
from farfield.errors import ConfigError, DataError
from farfield.fusion import FusionInput, doverlap_fuse, soft_fuse
from farfield.gss import extract_speaker_segment
from farfield.metrics import compute_der, speaker_count_accuracy
from farfield.preprocess import (clip_normalize, envelope_variance_rank, select_top_channels,
                                 wpe_dereverberate)
from farfield.segments import (Segmentation, SoftActivity, binarize, read_activity, read_rttm,
                               segmentation_to_activity, write_rttm)
from farfield.stft import istft, stft

DEFAULT_CONFIG = to_json(PipelineConfig())


def read_json(path, error: type = DataError, what: str = "file"):
    """Parse the JSON file at path; any failure raises `error` naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid by the JSON file at path, then by overrides, as the JSON
    object of a PipelineConfig.

    overrides map dotted keys ("seed", "gss.iterations") to values. The
    merged config is checked by config.from_json: an unknown key, a value of
    another JSON type than its field's, or a value that its section's
    dataclass rejects raises a ConfigError naming section.key.
    """
    raw = {} if path is None else read_json(path, ConfigError, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    for dotted, value in (overrides or {}).items():
        *sections, key = dotted.split(".")
        node = raw
        for section in sections:
            node = node.setdefault(section, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{dotted}: {section} is not a mapping")
        node[key] = value
    return to_json(from_json(PipelineConfig, raw))


def read_session_rttm(path, session_id: str) -> Segmentation:
    """The turns of one session in an RTTM file."""
    by_session = read_rttm(path)
    if session_id not in by_session:
        raise DataError(f"{path}: no turns of session {session_id!r}")
    return by_session[session_id]


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def objects_with(value, *keys) -> bool:
    """value is a list of objects whose entries at keys are strings."""
    return _list_of(value, dict) and all(_list_of([v.get(k) for v in value], str) for k in keys)


def load_manifest(path) -> list:
    """Read a session manifest file; returns a list of session dicts.

    Paths resolve relative to the manifest. A session_id is unique and a
    single path component, since it names a directory of the run dir; a
    sample_rate is a positive integer; an embedding or activity entry's
    channel is an integer and its vad_source and variant are strings. A
    breach raises a DataError naming the manifest. channels may be empty for
    a session that is only diarized.
    """
    raw = read_json(path, DataError, "manifest")
    if isinstance(raw, dict) and "sessions" not in raw:
        raise DataError(f"manifest {path}: missing 'sessions'")
    sessions = raw["sessions"] if isinstance(raw, dict) else raw
    if not _list_of(sessions, dict):
        raise DataError(f"manifest {path}: 'sessions' must be a list of objects")
    base = Path(path).parent
    out = []
    for entry in sessions:
        if "session_id" not in entry or "channels" not in entry:
            raise DataError(f"manifest {path}: sessions need session_id and channels")
        entry, sid, rate = dict(entry), entry["session_id"], entry.get("sample_rate")
        if not (isinstance(sid, str) and "\0" not in sid
                and os.path.basename(sid) == sid not in ("", ".", "..")):
            raise DataError(f"manifest {path}: session_id {sid!r} is not a file name")
        if sid in (s["session_id"] for s in out):
            raise DataError(f"manifest {path}: session_id {sid!r} appears twice")
        if not _list_of(entry["channels"], str):
            raise DataError(f"manifest {path}: 'channels' must be a list of paths")
        if rate is not None and not (type(rate) is int and rate > 0):
            raise DataError(f"manifest {path}: 'sample_rate' {rate!r} is not a positive integer")
        entry["channels"] = [str(base / p) for p in entry["channels"]]
        for key in ("embeddings", "soft_activities"):
            items = entry.get(key, [])
            if not objects_with(items, "path"):
                raise DataError(f"manifest {path}: '{key}' must be a list of objects with a path")
            if not all(type(ch) is int and _list_of(names, str)
                       for ch, *names in map(_labels, items)):
                raise DataError(f"manifest {path}: each of '{key}' needs an integer channel "
                                "and string vad_source and variant")
            for item in items:
                item["path"] = str(base / item["path"])
        if not isinstance(entry.get("reference_rttm") or "", str):
            raise DataError(f"manifest {path}: 'reference_rttm' must be a path")
        if entry.get("reference_rttm"):
            entry["reference_rttm"] = str(base / entry["reference_rttm"])
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# atomic writes and content-hash caching


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.cache
def code_digest() -> str:
    """sha256 of the package's source files; part of every cache key."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


# bytes read per step when a file is hashed, so a large input is never held whole
_HASH_BLOCK = 1 << 20


def content_hash(paths, config_blob) -> str:
    """sha256 over code_digest(), the JSON of config_blob, then each file's
    sha256 in the order of paths.

    A file counts by its bytes and position, never by its path, so moving the
    inputs or the run dir keeps the key; config_blob names what a position
    does not. It must hold no arrays: it is written with default=str, and
    numpy abbreviates an array of more than 1,000 elements with "...".
    """
    digest = hashlib.sha256(code_digest().encode())
    digest.update(json.dumps(config_blob, sort_keys=True, default=str).encode())
    for p in paths:
        file_digest = hashlib.sha256()
        try:
            with open(p, "rb") as fh:
                while block := fh.read(_HASH_BLOCK):
                    file_digest.update(block)
        except OSError as exc:
            raise DataError(f"missing input file {p}") from exc
        digest.update(file_digest.digest())
    return digest.hexdigest()


def _cache_hit(stage_dir: Path, key: str, outputs) -> bool:
    """Whether stage_dir holds the outputs of key; a miss empties stage_dir.

    A hit needs the stored key to equal key and every path in outputs to
    exist. A miss removes the stored key first, so that a run interrupted
    later still misses, then every other file of stage_dir, which then holds
    only the outputs of the key that _cache_store stores next.
    """
    marker = stage_dir / ".cache-key"
    if marker.is_file() and marker.read_text() == key and all(p.exists() for p in outputs):
        return True
    marker.unlink(missing_ok=True)
    for stale in stage_dir.glob("*"):  # dot files too; a stage writes no directories
        if stale.is_file():
            stale.unlink()
    return False


def _cache_store(stage_dir: Path, key: str) -> None:
    atomic_write_bytes(stage_dir / ".cache-key", key.encode())


# ---------------------------------------------------------------------------
# stages


def run_preprocess(session: dict, config: dict, run_dir: Path) -> dict:
    """Normalize, dereverberate and rank channels; returns artifact paths."""
    stage_dir = Path(run_dir) / "preprocess" / session["session_id"]
    pc = config["preprocess"]
    key = content_hash(session["channels"], {"preprocess": pc, "stft": config["stft"],
                                             "sample_rate": session.get("sample_rate")})
    result = {
        "orig": stage_dir / "normalized.wav",
        "wpe": stage_dir / "wpe.wav",
        "ranking": stage_dir / "ranking.txt",
        "selected": stage_dir / "selected.json",
    }
    result["cached"] = _cache_hit(stage_dir, key, list(result.values()))
    if result["cached"]:
        return result

    cfg = from_json(PipelineConfig, config)
    normalized = clip_normalize(
        stack_channel_files(session["channels"], session.get("sample_rate")),
        cfg.preprocess.clip_config,
    )
    if cfg.preprocess.wpe:
        dereverbed = istft(wpe_dereverberate(stft(normalized, cfg.stft),
                                             cfg.preprocess.wpe_config), cfg.stft)
    else:
        dereverbed = normalized
    ranking = envelope_variance_rank(dereverbed)
    selected = select_top_channels(ranking, cfg.preprocess.selection_fraction)

    stage_dir.mkdir(parents=True, exist_ok=True)
    write_wav(result["orig"], normalized)
    write_wav(result["wpe"], dereverbed)
    lines = ["channel\tscore\trank"]
    for rank, ch in enumerate(ranking.order):
        lines.append(f"{int(ch)}\t{ranking.scores[ch]:.6f}\t{rank}")
    atomic_write_bytes(result["ranking"], ("\n".join(lines) + "\n").encode())
    atomic_write_bytes(result["selected"], json.dumps(selected).encode())
    _cache_store(stage_dir, key)
    return result


def _labels(entry: dict) -> tuple:
    """A manifest entry's (channel, VAD source, recording variant)."""
    return (entry.get("channel", 0), entry.get("vad_source", "default"),
            entry.get("variant", "orig"))


def run_diarize_grid(session: dict, config: dict, run_dir: Path) -> dict:
    """Run the clustering grid per channel and fuse each channel's hypotheses.

    per_channel holds the fused turns as read back from their RTTMs, on a
    miss as on a hit, so that a cached rerun hands fusion the same turns.
    """
    run_dir = Path(run_dir)
    stage_dir = run_dir / "diarize" / session["session_id"]
    dc = config["diarize"]
    entries = session.get("embeddings", [])
    # the first file the manifest lists for each (channel, VAD source, variant)
    emb_paths = {_labels(e): e["path"] for e in reversed(entries)}
    selected_path = run_dir / "preprocess" / session["session_id"] / "selected.json"
    if selected_path.exists():
        channels = json.loads(selected_path.read_text())
    else:
        channels = sorted({ch for ch, _, _ in emb_paths})
    key = content_hash([e["path"] for e in entries], {
        "diarize": dc, "seed": config["seed"], "channels": channels,
        "entries": [_labels(e) for e in entries]})
    fused_paths = {ch: stage_dir / f"fused_ch{ch}.rttm" for ch in channels}
    cached = _cache_hit(stage_dir, key, fused_paths.values())
    if not cached:
        cfg = from_json(PipelineConfig, config).diarize
        # grid streams: activity-segment source x recording variant; each
        # stream gives one cell per rejection threshold
        streams = list(itertools.product(sorted({v for _, v, _ in emb_paths}), cfg.variants))
        for ch in channels:
            hypotheses = []
            for vad_source, variant in streams:
                emb_path = emb_paths.get((ch, vad_source, variant))
                if emb_path is None:
                    warnings.warn(f"no embeddings for channel {ch} / {vad_source} / {variant}; "
                                  f"{len(cfg.reject_thrs)} cells skipped", stacklevel=2)
                    continue
                cells = diarize_embeddings(read_embeddings(emb_path), cfg,
                                           seed=config["seed"], session_id=session["session_id"])
                stage_dir.mkdir(parents=True, exist_ok=True)
                for thr, (seg, _, _) in zip(cfg.reject_thrs, cells):
                    write_rttm(stage_dir / f"ch{ch}_{vad_source}_{variant}_thr{thr:g}.rttm", seg)
                    hypotheses.append(seg)
            if not hypotheses:
                raise DataError(
                    f"session {session['session_id']}: no diarization hypotheses for channel "
                    f"{ch}: no embedding file of the manifest matches diarize.variants "
                    f"{dc['variants']}"
                )
            write_rttm(fused_paths[ch], doverlap_fuse(FusionInput(tuple(hypotheses))))
        _cache_store(stage_dir, key)
    per_channel = {ch: read_session_rttm(path, session["session_id"])
                   for ch, path in fused_paths.items()}
    return {"fused": fused_paths, "per_channel": per_channel, "cached": cached}


def run_fusion(session: dict, config: dict, run_dir: Path, per_channel: dict) -> dict:
    """Per-channel soft fusion of ND activities, then cross-channel hard fusion."""
    run_dir = Path(run_dir)
    stage_dir = run_dir / "fusion" / session["session_id"]
    stage_dir.mkdir(parents=True, exist_ok=True)
    fc = config["fusion"]
    entries = session.get("soft_activities", [])

    def fuse(activities, reference):
        try:
            return soft_fuse(activities, reference, fc["count_match_threshold"])
        except DataError as exc:
            raise DataError(f"session {session['session_id']}, soft activities "
                            f"{', '.join(a['path'] for a in entries)}: {exc}") from exc

    channel_segs, channel_acts = [], []
    for ch, clustering_seg in sorted(per_channel.items()):
        activities = [read_activity(a["path"], session["session_id"])
                      for a in entries if a.get("channel", ch) == ch]
        if activities:
            fused_act = fuse(activities, clustering_seg)
            seg = binarize(fused_act, fc["binarize_threshold"])
            seg = Segmentation(session["session_id"], seg.turns)
            channel_acts.append(fused_act)
        else:
            seg = clustering_seg
        channel_segs.append(seg)
    final = doverlap_fuse(FusionInput(tuple(channel_segs)))
    final_path = stage_dir / "final.rttm"
    write_rttm(final_path, final)
    final_act = None
    if channel_acts:
        final_act = fuse(channel_acts, final)
    return {"final": final, "final_path": final_path, "activity": final_act}


def run_gss(session: dict, config: dict, run_dir: Path, seg: Segmentation,
            activity: SoftActivity | None) -> dict:
    """Extract one enhanced WAV per (speaker, turn) from the preprocess stage's audio.

    Separation reads preprocess/<session>/wpe.wav, so run_preprocess must
    have run into the same run_dir. The stage is cached like preprocess and
    diarize: its key covers the bytes of wpe.wav, the turns and speakers, the
    guiding activity (None when GSS derives it from the turns), the gss and
    stft config sections and the code digest.
    """
    run_dir = Path(run_dir)
    sid = session["session_id"]
    stage_dir = run_dir / "gss" / sid
    wpe_path = run_dir / "preprocess" / sid / "wpe.wav"
    turns, speakers = seg.sorted_turns(), seg.speakers
    guide = None
    if activity is not None:  # by digest: content_hash's JSON would abbreviate the array
        probs = np.ascontiguousarray(activity.probs, dtype=np.float64)
        guide = {"sha256": hashlib.sha256(probs.tobytes()).hexdigest(),
                 "shape": list(probs.shape), "frame_step": activity.frame_step}
    key = content_hash([wpe_path], {
        "turns": [[t.speaker, t.start, t.end] for t in turns], "speakers": speakers,
        "activity": guide, "gss": config["gss"], "stft": config["stft"],
    })
    outputs = [stage_dir / (f"{sid}-{t.speaker}-{int(round(t.start * 1000))}-"
                            f"{int(round(t.end * 1000))}.wav") for t in turns]
    if _cache_hit(stage_dir, key, outputs):
        return {"outputs": outputs, "cached": True}

    cfg = from_json(PipelineConfig, config)
    gss_cfg, params = cfg.gss, cfg.stft
    audio = read_wav(wpe_path)
    stage_dir.mkdir(parents=True, exist_ok=True)
    if activity is None:
        frame_step = params.frame_step_seconds(audio.sample_rate)
        activity = segmentation_to_activity(
            seg, frame_step, num_frames=int(np.ceil(audio.duration / frame_step))
        )
    for turn, out_path in zip(turns, outputs):
        target = speakers.index(turn.speaker)
        wave = extract_speaker_segment(audio, turn, target, activity, gss_cfg, params)
        write_wav(out_path, wave)
    _cache_store(stage_dir, key)
    return {"outputs": outputs, "cached": False}


def run_full(session: dict, config: dict, run_dir) -> dict:
    """preprocess -> diarize grid -> fusion -> GSS -> scoring."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(run_dir / "config.json", json.dumps(config, indent=2).encode())
    sid = session["session_id"]
    report: dict = {"session_id": sid}
    # read before any stage runs, so that a bad reference fails the run early
    ref = None
    if session.get("reference_rttm"):
        ref = read_session_rttm(session["reference_rttm"], sid)
    preprocess = run_preprocess(session, config, run_dir)
    grid = run_diarize_grid(session, config, run_dir)
    fusion = run_fusion(session, config, run_dir, grid["per_channel"])
    report["final_rttm"] = str(fusion["final_path"])
    gss = run_gss(session, config, run_dir, fusion["final"], fusion["activity"])
    report["gss_outputs"] = [str(p) for p in gss["outputs"]]
    report["cached"] = {"preprocess": preprocess["cached"], "diarize": grid["cached"],
                        "gss": gss["cached"]}
    if ref is not None:
        breakdown = compute_der(ref, fusion["final"], config["score"]["collar"])
        report["der"] = breakdown.der
        report["ref_speakers"] = ref.num_speakers
        report["hyp_speakers"] = fusion["final"].num_speakers
    atomic_write_bytes(
        run_dir / "report" / f"{sid}.json",
        json.dumps(report, indent=2).encode(),
    )
    return report


def score_directories(ref_dir, hyp_dir, collar: float = ScoreConfig.collar) -> dict:
    """Per-session DER/count table plus macro averages over two RTTM directories."""
    ref_dir, hyp_dir = Path(ref_dir), Path(hyp_dir)
    refs: dict = {}
    for path in sorted(ref_dir.glob("*.rttm")):
        refs.update(read_rttm(path))
    hyps: dict = {}
    for path in sorted(hyp_dir.glob("*.rttm")):
        hyps.update(read_rttm(path))
    rows, counts = [], []
    for sid in sorted(refs):
        counts.append((refs[sid].num_speakers, hyps[sid].num_speakers if sid in hyps else None))
        if sid not in hyps:
            rows.append({"session": sid, "der": None, "count_match": False})
            continue
        breakdown = compute_der(refs[sid], hyps[sid], collar)
        rows.append(
            {
                "session": sid,
                "der": breakdown.der,
                "ref_count": refs[sid].num_speakers,
                "hyp_count": hyps[sid].num_speakers,
                "count_match": refs[sid].num_speakers == hyps[sid].num_speakers,
            }
        )
    scored = [r for r in rows if r["der"] is not None]
    macro_der = float(np.mean([r["der"] for r in scored])) if scored else float("nan")
    count_acc = speaker_count_accuracy(counts) if counts else float("nan")
    return {"sessions": rows, "macro_der": macro_der, "count_accuracy": count_acc}


def format_score_report(result: dict) -> str:
    lines = [f"{'session':<24}{'DER':>8}  {'ref#':>4}{'hyp#':>5}  match"]
    for row in result["sessions"]:
        der = f"{row['der']:.4f}" if row["der"] is not None else "  n/a"
        lines.append(
            f"{row['session']:<24}{der:>8}  {row.get('ref_count', '-'):>4}"
            f"{row.get('hyp_count', '-'):>5}  {'yes' if row['count_match'] else 'no'}"
        )
    lines.append(
        f"{'AVG':<24}{result['macro_der']:>8.4f}  count accuracy "
        f"{result['count_accuracy']:.3f}"
    )
    return "\n".join(lines)
