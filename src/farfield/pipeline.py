"""Manifest-driven orchestration of the full pipeline with artifact caching."""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from farfield.audio import read_wav, stack_channel_files, write_wav
from farfield.diarize import DiarizeConfig, diarize_thresholds
# not called here (the grid calls diarize_thresholds); the binding stays
# because the benchmark's tracer wraps farfield.pipeline.diarize_embeddings
from farfield.diarize import diarize_embeddings  # noqa: F401
from farfield.embeddings import read_embeddings
from farfield.errors import ConfigError, DataError
from farfield.fusion import FusionInput, doverlap_fuse, soft_fuse
from farfield.gss import GssConfig, extract_speaker_segment
from farfield.metrics import compute_der, speaker_count_accuracy
from farfield.preprocess import (
    ClipNormConfig,
    WpeConfig,
    clip_normalize,
    envelope_variance_rank,
    select_top_channels,
    wpe_dereverberate,
)
from farfield.segments import (
    Segmentation,
    SoftActivity,
    binarize,
    read_activity,
    read_rttm,
    segmentation_to_activity,
    write_rttm,
)
from farfield.stft import StftParams, istft, stft

# each stage config object: its config section, its dataclass, and the config
# keys that name a field differently (config key -> field)
_STAGES = {
    "stft": ("stft", StftParams, {}),
    "clip": ("preprocess", ClipNormConfig, {}),
    "wpe": ("preprocess", WpeConfig, {"wpe_taps": "taps", "wpe_delay": "delay",
                                      "wpe_iterations": "iterations",
                                      "block_seconds": "block_length"}),
    "diarize": ("diarize", DiarizeConfig, {"reject_thrs": "reject_thr"}),
    "gss": ("gss", GssConfig, {}),
}

# dataclass fields that no config key sets, so a run always takes their
# defaults: the stages place STFT frame i at i * frame_shift, which holds only
# with centre padding, and GSS always models residual noise
_UNKEYED = {(StftParams, "padding"), (GssConfig, "add_noise_source")}


def _stage_defaults(stage: str) -> dict:
    """The stage dataclass's defaults under their config keys, in field order."""
    _, cls, rename = _STAGES[stage]
    key_of = {f: k for k, f in rename.items()}
    return {key_of.get(f.name, f.name): f.default for f in fields(cls)
            if (cls, f.name) not in _UNKEYED}


# the stage defaults live in the dataclasses; written out here are only the
# keys that no dataclass field has, and the list that replaces reject_thr
DEFAULT_CONFIG = {
    "seed": 0,
    "stft": _stage_defaults("stft"),
    "preprocess": {**_stage_defaults("clip"), "wpe": True, **_stage_defaults("wpe"),
                   "selection_fraction": 0.8},
    "diarize": {**_stage_defaults("diarize"), "reject_thrs": [8.0, 10.0, 14.0],
                "variants": ["orig", "wpe"]},
    "fusion": {"binarize_threshold": 0.5, "count_match_threshold": 0.5},
    "gss": _stage_defaults("gss"),
    "score": {"collar": 0.0},
}


# keys whose default is null, and the JSON type of their other values
_NULL_DEFAULT_TYPES = {"gss.chunk_frames": "integer"}


def _json_type(value) -> str:
    for name, kind in (("boolean", bool), ("integer", int), ("number", float),
                       ("string", str), ("array", list), ("object", dict)):
        if isinstance(value, kind):  # bool before int: True is an int in Python
            return name
    return "null" if value is None else type(value).__name__


def _has_type(value, want: str) -> bool:
    got = _json_type(value)
    return got == want or (want, got) == ("number", "integer")


def _check_type(where: str, value, default) -> None:
    """Reject a value whose JSON type differs from its default's."""
    if default is None:
        want = f"null or {_NULL_DEFAULT_TYPES[where]}"
        ok = value is None or _has_type(value, _NULL_DEFAULT_TYPES[where])
    elif isinstance(default, list):
        want = f"a non-empty array of {_json_type(default[0])}s"
        ok = (isinstance(value, list) and bool(value)
              and all(_has_type(v, _json_type(default[0])) for v in value))
    else:
        want = _json_type(default)
        ok = _has_type(value, want)
    if not ok:
        raise ConfigError(f"{where}: expected {want}, got {value!r}")


def _validate(config: dict, defaults: dict, path: str = "") -> dict:
    """Recursively apply defaults; reject unknown keys and mistyped values."""
    for key in config:
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key}")
    merged = {}
    for key, default in defaults.items():
        where = path + key
        if key not in config:
            merged[key] = copy.deepcopy(default)  # callers edit their config in place
        elif isinstance(default, dict):
            if not isinstance(config[key], dict):
                raise ConfigError(f"{where}: expected a mapping")
            merged[key] = _validate(config[key], default, where + ".")
        else:
            _check_type(where, config[key], default)
            merged[key] = config[key]
    return merged


def read_json(path, error: type = DataError, what: str = "file"):
    """Parse the JSON file at path; any failure raises `error` naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid by the JSON file at path, then by overrides.

    overrides map dotted keys ("seed", "gss.iterations") to values. The
    merged config is checked before it is returned: an unknown key, a value
    of another JSON type than the default's, or a value a stage config
    rejects raises a ConfigError naming section.key.
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
    config = _validate(raw, DEFAULT_CONFIG)
    stage_configs(config)
    return config


class StageConfigs(NamedTuple):
    stft: StftParams
    clip: ClipNormConfig
    wpe: WpeConfig
    diarize: tuple  # one DiarizeConfig per diarize.reject_thrs entry
    gss: GssConfig


def _build(cls, section: str, values: dict, rename: dict | None = None):
    """cls from config values; rename maps a config key to its field where they differ.

    A value that cls rejects raises a ConfigError naming section.key.
    """
    rename = rename or {}

    def make(items):
        return cls(**{rename.get(key, key): value for key, value in items})

    def rejects(key) -> bool:
        try:
            make([(key, values[key])])
        except (DataError, TypeError):
            return True
        return False

    try:
        return make(values.items())
    except (DataError, TypeError) as exc:
        keys = [key for key in values if rejects(key)] or list(values)  # else a combination
        raise ConfigError(", ".join(f"{section}.{k}" for k in keys) + f": {exc}") from exc


def stage_configs(config: dict) -> StageConfigs:
    """The stages' config objects, built from a config that load_config returned."""

    def build(stage: str, **values):
        section, cls, rename = _STAGES[stage]
        keyed = {key: config[section][key] for key in _stage_defaults(stage)}
        return _build(cls, section, {**keyed, **values}, rename)

    return StageConfigs(
        stft=build("stft"),
        clip=build("clip"),
        wpe=build("wpe"),
        diarize=tuple(build("diarize", reject_thrs=float(thr))
                      for thr in config["diarize"]["reject_thrs"]),
        gss=build("gss"),
    )


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
    """Read a session manifest file; returns a list of session dicts."""
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
        entry = dict(entry)
        if not _list_of(entry["channels"], str):
            raise DataError(f"manifest {path}: 'channels' must be a list of paths")
        entry["channels"] = [str(base / p) for p in entry["channels"]]
        for key in ("embeddings", "soft_activities"):
            items = entry.get(key, [])
            if not objects_with(items, "path"):
                raise DataError(f"manifest {path}: '{key}' must be a list of objects with a path")
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


def content_hash(paths, config_blob) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(config_blob, sort_keys=True, default=str).encode())
    for p in sorted(str(p) for p in paths):
        digest.update(p.encode())
        try:
            digest.update(hashlib.sha256(Path(p).read_bytes()).digest())
        except OSError as exc:
            raise DataError(f"missing input file {p}") from exc
    return digest.hexdigest()


def _cache_valid(stage_dir: Path, key: str) -> bool:
    marker = stage_dir / ".cache-key"
    return marker.exists() and marker.read_text().strip() == key


def _cache_store(stage_dir: Path, key: str) -> None:
    atomic_write_bytes(stage_dir / ".cache-key", key.encode())


def _cache_drop(stage_dir: Path) -> None:
    """Remove the stored key, so that outputs a miss leaves half written never hit."""
    (stage_dir / ".cache-key").unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# stages


def run_preprocess(session: dict, config: dict, run_dir: Path) -> dict:
    """Normalize, dereverberate and rank channels; returns artifact paths."""
    stage_dir = Path(run_dir) / "preprocess" / session["session_id"]
    pc = config["preprocess"]
    cfgs = stage_configs(config)
    key = content_hash(session["channels"], {"stage": "preprocess", **pc,
                                             "stft": config["stft"], "code": code_digest()})
    result = {
        "orig": stage_dir / "normalized.wav",
        "wpe": stage_dir / "wpe.wav",
        "ranking": stage_dir / "ranking.txt",
        "selected": stage_dir / "selected.json",
        "cached": False,
    }
    if _cache_valid(stage_dir, key):
        result["cached"] = True
        return result
    _cache_drop(stage_dir)

    normalized = clip_normalize(
        stack_channel_files(session["channels"], session.get("sample_rate")), cfgs.clip
    )
    if pc["wpe"]:
        dereverbed = istft(wpe_dereverberate(stft(normalized, cfgs.stft), cfgs.wpe), cfgs.stft)
    else:
        dereverbed = normalized
    ranking = envelope_variance_rank(dereverbed)
    selected = select_top_channels(ranking, pc["selection_fraction"])

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


def _grid_streams(session: dict, config: dict):
    """Grid streams: activity-segment source x recording variant; each stream
    gives one cell per rejection threshold."""
    vad_sources = sorted({e.get("vad_source", "default") for e in session.get("embeddings", [])})
    for vad_source in vad_sources:
        for variant in config["diarize"]["variants"]:
            yield vad_source, variant


def _find_embedding(session, channel, vad_source, variant):
    for item in session.get("embeddings", []):
        if (
            item.get("channel", 0) == channel
            and item.get("vad_source", "default") == vad_source
            and item.get("variant", "orig") == variant
        ):
            return item["path"]
    return None


def run_diarize_grid(session: dict, config: dict, run_dir: Path) -> dict:
    """Run the clustering grid per channel and fuse each channel's hypotheses.

    per_channel holds the fused turns as read back from their RTTMs, on a
    miss as on a hit, so that a cached rerun hands fusion the same turns.
    """
    run_dir = Path(run_dir)
    stage_dir = run_dir / "diarize" / session["session_id"]
    dc = config["diarize"]
    selected_path = run_dir / "preprocess" / session["session_id"] / "selected.json"
    if selected_path.exists():
        channels = json.loads(selected_path.read_text())
    else:
        channels = sorted({e.get("channel", 0) for e in session.get("embeddings", [])})

    inputs = [p["path"] for p in session.get("embeddings", [])]
    key = content_hash(inputs, {"stage": "diarize", **dc, "seed": config["seed"],
                                "code": code_digest()})
    fused_paths = {ch: stage_dir / f"fused_ch{ch}.rttm" for ch in channels}
    cached = _cache_valid(stage_dir, key) and all(p.exists() for p in fused_paths.values())
    if not cached:
        _cache_drop(stage_dir)
        cfgs = stage_configs(config).diarize  # one per threshold, otherwise equal
        thresholds = [cfg.reject_thr for cfg in cfgs]
        for ch in channels:
            hypotheses = []
            for vad_source, variant in _grid_streams(session, config):
                emb_path = _find_embedding(session, ch, vad_source, variant)
                if emb_path is None:
                    warnings.warn(
                        f"no embeddings for channel {ch} / {vad_source} / {variant}; "
                        f"{len(thresholds)} cells skipped",
                        stacklevel=2,
                    )
                    continue
                cells = diarize_thresholds(
                    read_embeddings(emb_path), cfgs[0], thresholds, seed=config["seed"],
                    session_id=session["session_id"],
                )
                stage_dir.mkdir(parents=True, exist_ok=True)
                for thr, (seg, _, _) in zip(thresholds, cells):
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


def _channel_activities(session: dict, channel) -> list:
    acts = []
    for item in session.get("soft_activities", []):
        if item.get("channel", channel) == channel:
            acts.append(
                read_activity(
                    item["path"],
                    session_id=session["session_id"],
                    source_tag=item.get("tag", item["path"]),
                )
            )
    return acts


def run_fusion(session: dict, config: dict, run_dir: Path, per_channel: dict) -> dict:
    """Per-channel soft fusion of ND activities, then cross-channel hard fusion."""
    run_dir = Path(run_dir)
    stage_dir = run_dir / "fusion" / session["session_id"]
    stage_dir.mkdir(parents=True, exist_ok=True)
    fc = config["fusion"]
    channel_segs, channel_acts = [], []
    for ch, clustering_seg in sorted(per_channel.items()):
        activities = _channel_activities(session, ch)
        if activities:
            fused_act = soft_fuse(activities, clustering_seg, fc["count_match_threshold"])
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
        final_act = soft_fuse(channel_acts, final, fc["count_match_threshold"])
    return {"final": final, "final_path": final_path, "activity": final_act}


def run_gss(session: dict, config: dict, run_dir: Path, seg: Segmentation,
            activity: SoftActivity | None) -> list:
    """Extract one enhanced WAV per (speaker, turn) from the preprocess stage's audio.

    Separation reads preprocess/<session>/wpe.wav, so run_preprocess must
    have run into the same run_dir.
    """
    run_dir = Path(run_dir)
    stage_dir = run_dir / "gss" / session["session_id"]
    cfgs = stage_configs(config)
    gss_cfg, params = cfgs.gss, cfgs.stft
    audio = read_wav(run_dir / "preprocess" / session["session_id"] / "wpe.wav")
    stage_dir.mkdir(parents=True, exist_ok=True)
    speakers = seg.speakers
    if activity is None:
        frame_step = params.frame_step_seconds(audio.sample_rate)
        activity = segmentation_to_activity(
            seg, frame_step, num_frames=int(np.ceil(audio.duration / frame_step))
        )
    outputs = []
    for turn in seg.sorted_turns():
        target = speakers.index(turn.speaker)
        wave = extract_speaker_segment(audio, turn, target, activity, gss_cfg, params)
        name = (
            f"{session['session_id']}-{turn.speaker}-"
            f"{int(round(turn.start * 1000))}-{int(round(turn.end * 1000))}.wav"
        )
        out_path = stage_dir / name
        write_wav(out_path, wave)
        outputs.append(out_path)
    return outputs


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
    run_preprocess(session, config, run_dir)
    grid = run_diarize_grid(session, config, run_dir)
    fusion = run_fusion(session, config, run_dir, grid["per_channel"])
    report["final_rttm"] = str(fusion["final_path"])
    outputs = run_gss(session, config, run_dir, fusion["final"], fusion["activity"])
    report["gss_outputs"] = [str(p) for p in outputs]
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


def score_directories(ref_dir, hyp_dir,
                      collar: float = DEFAULT_CONFIG["score"]["collar"]) -> dict:
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
