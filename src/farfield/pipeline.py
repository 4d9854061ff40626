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

from farfield.audio import MultichannelAudio, open_wav, stack_channel_files, write_wav
from farfield.audio import read_wav  # noqa: F401  (not called here; perfbench/spans.py times it)
from farfield.config import PipelineConfig, ScoreConfig, from_json, to_json
from farfield.diarize import diarize_embeddings
from farfield.embeddings import read_embeddings
from farfield.errors import ConfigError, DataError
from farfield.fusion import FusionInput, doverlap_fuse, soft_fuse
from farfield.gss import extract_speaker_segment
from farfield.metrics import compute_der, speaker_count_accuracy
from farfield.preprocess import (clip_normalize, envelope_variance_rank, select_top_channels,
                                 wpe_block_frames, wpe_dereverberate)
from farfield.segments import (Segmentation, SoftActivity, binarize, read_activity, read_rttm,
                               segmentation_to_activity, write_rttm)
from farfield.stft import frame_count, frame_span, overlap_add, overlap_add_audio, stft_frames
from farfield.stft import istft, stft  # noqa: F401  (not called here; perfbench/spans.py times them)

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


def is_file_name(name) -> bool:
    """name is a string that can name one file of a directory: no separator, no
    NUL byte, and not "", "." or ".."."""
    return (isinstance(name, str) and "\0" not in name
            and os.path.basename(name) == name not in ("", ".", ".."))


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
        if not is_file_name(sid):
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
# atomic writes, content hashes and the stage cache


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


def stage_dir(run_dir, stage: str, session_id: str) -> Path:
    """The directory of one stage's files for one session."""
    return Path(run_dir) / stage / session_id


def preprocess_outputs(run_dir, session_id: str) -> dict:
    """The preprocess stage's files by result key; diarize reads "selected", GSS "wpe"."""
    directory = stage_dir(run_dir, "preprocess", session_id)
    return {"orig": directory / "normalized.wav", "wpe": directory / "wpe.wav",
            "ranking": directory / "ranking.txt", "selected": directory / "selected.json"}


def run_cached(directory: Path, inputs, blob, outputs, config: dict, build) -> bool:
    """Call build unless directory holds the outputs of content_hash(inputs, blob);
    returns whether it did (a hit).

    A hit needs directory/.cache-key to hold the key and every path in outputs
    to exist; it parses no config and writes nothing. A miss removes the stored
    key first, so that a run interrupted later still misses, then every other
    file of directory. It calls build with the PipelineConfig of config and
    stores the key last, after the outputs, as the commit point.
    """
    key = content_hash(inputs, blob)
    marker = directory / ".cache-key"
    if marker.is_file() and marker.read_text() == key and all(p.exists() for p in outputs):
        return True
    marker.unlink(missing_ok=True)
    for stale in directory.glob("*"):  # dot files too; a stage writes no directories
        if stale.is_file():
            stale.unlink()
    directory.mkdir(parents=True, exist_ok=True)
    build(from_json(PipelineConfig, config))
    atomic_write_bytes(marker, key.encode())
    return False


# ---------------------------------------------------------------------------
# stages


def _dereverberated(session: dict, cfg: PipelineConfig, orig_path: Path) -> MultichannelAudio:
    """Read the session, clip-normalize it in place one channel at a time, write
    it to orig_path, and return it dereverberated one WPE block at a time (as
    it is when WPE is off).

    Each block's frames are those of the whole session's STFT, dereverberated
    in place, and their inverse transforms are overlap-added in frame order, so
    the samples equal istft of the whole session's dereverberated STFT. This
    function holds the only reference to the normalized audio, and drops it
    once the last block's frames are taken: the block loop then holds one
    block spectrum, the output, and one channel's slice of work.
    """
    normalized = stack_channel_files(session["channels"], session.get("sample_rate"))
    for c in range(normalized.num_channels):  # one channel's temporaries at a time
        normalized.samples[c] = clip_normalize(normalized.channel(c),
                                               cfg.preprocess.clip_config).samples[0]
    write_wav(orig_path, normalized)
    if not cfg.preprocess.wpe:
        return normalized
    params, wpe_cfg = cfg.stft, cfg.preprocess.wpe_config
    rate, num_samples = normalized.sample_rate, normalized.num_samples
    n_frames = frame_count(num_samples, params)
    block = wpe_block_frames(wpe_cfg, rate, params.frame_shift)
    out = None  # the session's overlap-add, made once the first block is dereverberated
    for lo in range(0, n_frames, block):
        spec = stft_frames(normalized, params, slice(lo, lo + block))
        if lo + block >= n_frames:
            del normalized
        wpe_dereverberate(spec, wpe_cfg)
        if out is None:
            out = np.zeros((spec.num_channels, frame_span(n_frames, params)))
        overlap_add(out, spec.values, params, lo)
        del spec
    return overlap_add_audio(out, params, rate, num_samples)


def run_preprocess(session: dict, config: dict, run_dir: Path) -> dict:
    """Normalize, dereverberate and rank channels; returns artifact paths."""
    result = preprocess_outputs(run_dir, session["session_id"])

    def build(cfg):
        dereverbed = _dereverberated(session, cfg, result["orig"])
        write_wav(result["wpe"], dereverbed)
        ranking = envelope_variance_rank(dereverbed)
        selected = select_top_channels(ranking, cfg.preprocess.selection_fraction)
        lines = ["channel\tscore\trank"]
        for rank, ch in enumerate(ranking.order):
            lines.append(f"{int(ch)}\t{ranking.scores[ch]:.6f}\t{rank}")
        atomic_write_bytes(result["ranking"], ("\n".join(lines) + "\n").encode())
        atomic_write_bytes(result["selected"], json.dumps(selected).encode())

    blob = {"preprocess": config["preprocess"], "stft": config["stft"],
            "sample_rate": session.get("sample_rate")}
    result["cached"] = run_cached(stage_dir(run_dir, "preprocess", session["session_id"]),
                                  session["channels"], blob, list(result.values()), config, build)
    return result


def _labels(entry: dict) -> tuple:
    """A manifest entry's (channel, VAD source, recording variant)."""
    return (entry.get("channel", 0), entry.get("vad_source", "default"),
            entry.get("variant", "orig"))


def run_diarize_grid(session: dict, config: dict, run_dir: Path) -> dict:
    """Run the clustering grid per channel and fuse each channel's hypotheses.

    The channels are those of the preprocess stage's selection when run_dir
    holds one, else every channel of the embedding entries. per_channel holds
    the fused turns as read back from their RTTMs, on a miss as on a hit, so
    that a cached rerun hands fusion the same turns.
    """
    sid = session["session_id"]
    directory = stage_dir(run_dir, "diarize", sid)
    entries = session.get("embeddings", [])
    # the first file the manifest lists for each (channel, VAD source, variant)
    emb_paths = {_labels(e): e["path"] for e in reversed(entries)}
    selected = preprocess_outputs(run_dir, sid)["selected"]
    if selected.exists():
        channels = read_json(selected, DataError, "channel selection")
        if not (isinstance(channels, list) and channels and all(type(c) is int for c in channels)
                and len(set(channels)) == len(channels)):
            raise DataError(f"channel selection {selected}: expected a non-empty list of "
                            f"distinct integers, got {channels!r}")
    else:
        channels = sorted({ch for ch, _, _ in emb_paths})
    fused_paths = {ch: directory / f"fused_ch{ch}.rttm" for ch in channels}
    # grid streams: activity-segment source x recording variant; each stream
    # with an embedding file gives one cell RTTM per rejection threshold
    streams = list(itertools.product(sorted({v for _, v, _ in emb_paths}),
                                     config["diarize"]["variants"]))
    cell_paths = {(ch, vad_source, variant): [
        directory / f"ch{ch}_{vad_source}_{variant}_thr{thr:g}.rttm"
        for thr in config["diarize"]["reject_thrs"]]
        for ch in channels for vad_source, variant in streams
        if (ch, vad_source, variant) in emb_paths}

    def build(cfg):
        cfg = cfg.diarize
        for ch in channels:
            hypotheses = []
            for vad_source, variant in streams:
                stream = (ch, vad_source, variant)
                if stream not in cell_paths:
                    # past build, run_cached and run_diarize_grid: the stage's caller
                    warnings.warn(f"no embeddings for channel {ch} / {vad_source} / {variant}; "
                                  f"{len(cfg.reject_thrs)} cells skipped", stacklevel=4)
                    continue
                emb_path = emb_paths[stream]
                emb = read_embeddings(emb_path)
                try:
                    cells = diarize_embeddings(emb, cfg, seed=config["seed"], session_id=sid)
                except DataError as exc:
                    raise DataError(f"session {sid}, embeddings {emb_path}: {exc}") from exc
                for path, (seg, _, _) in zip(cell_paths[stream], cells):
                    write_rttm(path, seg)
                    hypotheses.append(seg)
            if not hypotheses:
                raise DataError(
                    f"session {sid}: no diarization hypotheses for channel {ch}: no embedding "
                    f"file of the manifest matches diarize.variants "
                    f"{config['diarize']['variants']}"
                )
            write_rttm(fused_paths[ch], doverlap_fuse(FusionInput(tuple(hypotheses))))

    blob = {"diarize": config["diarize"], "seed": config["seed"], "channels": channels,
            "entries": [_labels(e) for e in entries]}
    outputs = [*fused_paths.values(), *itertools.chain.from_iterable(cell_paths.values())]
    cached = run_cached(directory, [e["path"] for e in entries], blob, outputs, config, build)
    per_channel = {ch: read_session_rttm(path, sid) for ch, path in fused_paths.items()}
    return {"fused": fused_paths, "per_channel": per_channel, "cached": cached}


def run_fusion(session: dict, config: dict, run_dir: Path, per_channel: dict) -> dict:
    """Per-channel soft fusion of ND activities, then cross-channel hard fusion."""
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
            channel_segs.append(binarize(fused_act, fc["binarize_threshold"]))
            channel_acts.append(fused_act)
        else:
            channel_segs.append(clustering_seg)
    final = doverlap_fuse(FusionInput(tuple(channel_segs)))
    final_path = stage_dir(run_dir, "fusion", session["session_id"]) / "final.rttm"
    final_path.parent.mkdir(parents=True, exist_ok=True)
    write_rttm(final_path, final)
    final_act = None
    if channel_acts:
        final_act = fuse(channel_acts, final)
    return {"final": final, "final_path": final_path, "activity": final_act}


def run_gss(session: dict, config: dict, run_dir: Path, seg: Segmentation,
            activity: SoftActivity | None) -> dict:
    """Extract one enhanced WAV per (speaker, turn) from the preprocess stage's audio.

    Separation reads each turn's context window from the preprocess stage's
    wpe.wav, so run_preprocess must have run into the same run_dir. The key
    covers the bytes of wpe.wav, the turns and speakers, the guiding activity
    (None when GSS derives it from the turns), the gss and stft config
    sections and the code digest. A speaker label that cannot be part of a
    file name, and a turn that does not lie within wpe.wav, are DataErrors,
    raised before any turn is separated.
    """
    sid = session["session_id"]
    directory = stage_dir(run_dir, "gss", sid)
    wpe_path = preprocess_outputs(run_dir, sid)["wpe"]
    turns, speakers = seg.sorted_turns(), seg.speakers
    for speaker in speakers:  # each names output files
        if not is_file_name(speaker):
            raise DataError(f"session {sid!r}: speaker label {speaker!r} is not a file name")
    outputs = [directory / (f"{sid}-{t.speaker}-{int(round(t.start * 1000))}-"
                            f"{int(round(t.end * 1000))}.wav") for t in turns]

    def build(cfg):
        audio = open_wav(wpe_path)  # its header; each turn reads its own window
        for t in turns:  # all of them, before any turn is separated
            if not 0.0 <= t.start < t.end <= audio.duration + 1e-9:
                raise DataError(f"session {sid!r}: turn {t.speaker} [{t.start}, {t.end}) "
                                f"lies outside the session's {audio.duration} s")
        guide = activity
        if guide is None:
            frame_step = cfg.stft.frame_step_seconds(audio.sample_rate)
            guide = segmentation_to_activity(
                seg, frame_step, num_frames=int(np.ceil(audio.duration / frame_step))
            )
        for turn, out_path in zip(turns, outputs):
            target = speakers.index(turn.speaker)
            wave = extract_speaker_segment(audio, turn, target, guide, cfg.gss, cfg.stft)
            write_wav(out_path, wave)

    digest = None
    if activity is not None:  # by digest: content_hash's JSON would abbreviate the array
        probs = np.ascontiguousarray(activity.probs, dtype=np.float64)
        digest = {"sha256": hashlib.sha256(probs.tobytes()).hexdigest(),
                  "shape": list(probs.shape), "frame_step": activity.frame_step}
    blob = {"turns": [[t.speaker, t.start, t.end] for t in turns], "speakers": speakers,
            "activity": digest, "gss": config["gss"], "stft": config["stft"]}
    cached = run_cached(directory, [wpe_path], blob, outputs, config, build)
    return {"outputs": outputs, "cached": cached}


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
