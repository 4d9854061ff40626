import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from farfield.audio import MultichannelAudio, write_wav
import farfield.cli
from farfield.cli import build_parser, main
from farfield.config import (
    FusionConfig,
    PipelineConfig,
    PreprocessConfig,
    ScoreConfig,
    from_json,
    to_json,
)
from farfield.diarize import DiarizeConfig
from farfield.errors import ConfigError, DataError, FarfieldError, NumericalError
from farfield.gss import GssConfig
import farfield.pipeline
from farfield.pipeline import (
    atomic_write_bytes,
    content_hash,
    load_config,
    load_manifest,
    run_diarize_grid,
    run_full,
    run_fusion,
    run_gss,
    run_preprocess,
    score_directories,
)
from farfield.preprocess import ClipNormConfig, WpeConfig
from farfield.embeddings import EmbeddingEntry, EmbeddingSet, write_embeddings
from farfield.segments import (
    Segmentation,
    Turn,
    read_rttm,
    segmentation_to_activity,
    write_activity,
)
from farfield.simulate import OverlapStats, RoomRanges, SimulationConfig
from farfield.stft import StftParams

# The defaults, key order included: run_full writes them to config.json.
DEFAULTS = {
    "seed": 0,
    "stft": {"frame_length": 1024, "frame_shift": 256, "window": "hann"},
    "preprocess": {
        "percentile": 0.998,
        "target_peak": 0.95,
        "wpe": True,
        "wpe_taps": 10,
        "wpe_delay": 2,
        "wpe_iterations": 3,
        "block_seconds": 120.0,
        "selection_fraction": 0.8,
    },
    "diarize": {
        "merge_cos_threshold": 0.75,
        "reject_thrs": [8.0, 10.0, 14.0],
        "max_clusters": 8,
        "reduced_dim": 12,
        "frame_step": 0.5,
        "single_speaker_cos_threshold": 0.6,
        "reduction": "linear",
        "variants": ["orig", "wpe"],
    },
    "fusion": {"binarize_threshold": 0.5, "count_match_threshold": 0.5},
    "gss": {
        "iterations": 5,
        "context_margin": 0.5,
        "chunk_frames": None,
        "noise_floor": 0.01,
    },
    "score": {"collar": 0.0},
}


class _Interrupted(Exception):
    pass


def _write_then_interrupt(write):
    def wrapped(path, value):
        write(path, value)
        raise _Interrupted(path)

    return wrapped


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _outputs(root: Path) -> dict:
    """_files of a run dir without report/, whose files name the run dir."""
    return {name: data for name, data in _files(root).items() if not name.startswith("report/")}


class TestConfig:
    def test_defaults_when_no_file(self):
        config = load_config(None)
        assert config == DEFAULTS
        assert json.dumps(config, indent=2) == json.dumps(DEFAULTS, indent=2)

    def test_every_stage_field_has_a_key(self):
        # every keyed field comes back through its key, and the defaults through the loader
        sections = (PipelineConfig, StftParams, PreprocessConfig, DiarizeConfig, FusionConfig,
                    GssConfig, ScoreConfig, SimulationConfig, RoomRanges, OverlapStats)
        for cls in sections:
            assert from_json(cls, to_json(cls())) == cls(), cls.__name__
        assert [(cls, f.name) for cls in sections for f in fields(cls)
                if f.name not in to_json(cls())] == [(GssConfig, "add_noise_source")]
        config = load_config()
        assert json.dumps(config) == json.dumps(DEFAULTS)  # key order included
        built = from_json(PipelineConfig, config)
        assert (built.stft, built.preprocess.clip_config, built.preprocess.wpe_config,
                built.diarize, built.gss) == (StftParams(), ClipNormConfig(), WpeConfig(),
                                              DiarizeConfig(), GssConfig())

    def test_partial_file_merges_with_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gss": {"iterations": 2}}))
        config = load_config(path)
        assert config["gss"]["iterations"] == 2
        assert config["gss"]["context_margin"] == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gss": {"iteratoins": 2}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"mystery": {}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides(self):
        config = load_config(None, overrides={"gss.iterations": 7})
        assert config["gss"]["iterations"] == 7
        config["preprocess"]["wpe"] = False
        assert load_config(None)["gss"]["iterations"] == 5  # defaults left untouched
        assert load_config(None)["preprocess"]["wpe"] is True
        assert load_config(None, overrides={"seed": 3})["seed"] == 3
        assert load_config(None, overrides={"gss.chunk_frames": 300})["gss"]["chunk_frames"] == 300
        assert load_config(None, overrides={"gss.noise_floor": 0})["gss"]["noise_floor"] == 0
        for dotted, value in [
            ("nosuch.key", 1), ("gss.bogus", 1), ("gss.wpe", False), ("gss.iterations", 2.0),
            ("seed", True), ("gss.chunk_frames", "300"), ("gss.chunk_frames", 1),
            ("diarize.reject_thrs", [8.0, -1.0]), ("diarize.variants", []),
            ("stft.frame_shift", 2048), ("preprocess.wpe_taps", 0), ("diarize.reduction", "pca"),
        ]:
            with pytest.raises(ConfigError, match=dotted.split(".")[-1]):
                load_config(None, overrides={dotted: value})

    def test_file_values_checked(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gss": {"context_margin": -1}}))
        with pytest.raises(ConfigError, match="gss.context_margin"):
            load_config(path)

    def test_exit_codes(self):
        assert ConfigError("x").exit_code == 2
        assert DataError("x").exit_code == 3
        assert NumericalError("x").exit_code == 4
        assert FarfieldError("x").exit_code == 1


class TestManifest:
    def test_paths_resolved_relative_to_manifest(self, demo_manifest):
        sessions = load_manifest(demo_manifest)
        assert len(sessions) == 1
        base = Path(demo_manifest).parent
        for channel in sessions[0]["channels"]:
            assert Path(channel).is_absolute() or Path(channel).exists()
            assert str(base) in channel
        assert str(base) in sessions[0]["reference_rttm"]

    def test_missing_required_fields(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sessions": [{"session_id": "x"}]}))
        with pytest.raises(DataError):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_manifest(tmp_path / "nope.json")


class TestCaching:
    def test_atomic_write_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "c.txt"
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_content_hash_sensitive_to_file_and_config(self, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(b"aaa")
        h1 = content_hash([f], {"k": 1})
        h2 = content_hash([f], {"k": 2})
        f.write_bytes(b"bbb")
        h3 = content_hash([f], {"k": 1})
        assert len({h1, h2, h3}) == 3

    def test_content_hash_missing_file(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(str(tmp_path / "gone"))):
            content_hash([tmp_path / "gone"], {})

    def test_content_hash_equals_whole_file_formula(self, tmp_path):
        # the code digest, then the blob's JSON, then each file's sha256 in the
        # given order, with every file read whole
        def whole_file_hash(paths, blob):
            digest = hashlib.sha256(farfield.pipeline.code_digest().encode())
            digest.update(json.dumps(blob, sort_keys=True, default=str).encode())
            for p in paths:
                digest.update(hashlib.sha256(Path(p).read_bytes()).digest())
            return digest.hexdigest()

        block = farfield.pipeline._HASH_BLOCK
        rng = np.random.default_rng(0)
        paths = []
        for name, size in (("empty", 0), ("one_block", block), ("blocks", 2 * block + 3)):
            paths.append(tmp_path / name)
            paths[-1].write_bytes(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            blob = {"stage": name, "values": [1, 2.5, None]}
            assert content_hash([paths[-1]], blob) == whole_file_hash([paths[-1]], blob)
        assert content_hash(paths, {}) == whole_file_hash(paths, {})
        # two orders of the same files give two keys; a file's path counts for nothing
        assert content_hash(paths[::-1], {}) != content_hash(paths, {})
        moved = tmp_path / "moved"
        moved.write_bytes(paths[-1].read_bytes())
        assert content_hash([moved], {}) == content_hash([paths[-1]], {})

    def test_code_change_misses_cache(self, demo_manifest, tmp_path, monkeypatch):
        sessions = load_manifest(demo_manifest)
        config = load_config(None)
        run_dir = tmp_path / "run"
        assert run_preprocess(sessions[0], config, run_dir)["cached"] is False
        assert run_preprocess(sessions[0], config, run_dir)["cached"] is True
        monkeypatch.setattr(farfield.pipeline, "code_digest", lambda: "changed")
        assert run_preprocess(sessions[0], config, run_dir)["cached"] is False

    def test_interrupted_preprocess_misses_cache(self, demo_manifest, tmp_path, monkeypatch):
        session = load_manifest(demo_manifest)[0]
        run_dir = tmp_path / "run"
        config_a = load_config(None, overrides={"preprocess.wpe": False})
        config_b = load_config(None, overrides={"preprocess.wpe": False,
                                                "preprocess.target_peak": 0.5})
        run_preprocess(session, config_a, run_dir)
        written = _files(run_dir)
        with monkeypatch.context() as m:  # B stops after its first WAV
            m.setattr(farfield.pipeline, "write_wav",
                      _write_then_interrupt(farfield.pipeline.write_wav))
            with pytest.raises(_Interrupted):
                run_preprocess(session, config_b, run_dir)
        assert _files(run_dir) != written
        assert run_preprocess(session, config_a, run_dir)["cached"] is False
        assert _files(run_dir) == written

    def test_interrupted_diarize_misses_cache(self, demo_manifest, tmp_path, monkeypatch):
        session = load_manifest(demo_manifest)[0]
        run_dir = tmp_path / "run"
        config_a = load_config(None)
        config_b = load_config(None, overrides={"diarize.max_clusters": 1})
        run_diarize_grid(session, config_a, run_dir)
        written = _files(run_dir)
        with monkeypatch.context() as m:  # B stops after its first cell RTTM
            m.setattr(farfield.pipeline, "write_rttm",
                      _write_then_interrupt(farfield.pipeline.write_rttm))
            with pytest.raises(_Interrupted):
                run_diarize_grid(session, config_b, run_dir)
        assert _files(run_dir) != written
        assert run_diarize_grid(session, config_a, run_dir)["cached"] is False
        assert _files(run_dir) == written

    def test_preprocess_cache_hit_and_invalidation(self, demo_manifest, tmp_path):
        sessions = load_manifest(demo_manifest)
        config = load_config(None)
        run_dir = tmp_path / "run"
        first = run_preprocess(sessions[0], config, run_dir)
        assert first["cached"] is False
        second = run_preprocess(sessions[0], config, run_dir)
        assert second["cached"] is True
        changed = load_config(None, overrides={"preprocess.percentile": 0.9})
        third = run_preprocess(sessions[0], changed, run_dir)
        assert third["cached"] is False

    def test_reversed_channels_miss(self, demo_manifest, tmp_path):
        session = load_manifest(demo_manifest)[0]
        config = load_config(None, overrides={"preprocess.wpe": False})
        run_preprocess(session, config, tmp_path / "run")
        written = _files(tmp_path / "run")
        session["channels"].reverse()
        assert run_preprocess(session, config, tmp_path / "run")["cached"] is False
        run_preprocess(session, config, tmp_path / "fresh")
        rerun = _files(tmp_path / "run")
        assert rerun == _files(tmp_path / "fresh")
        name = "preprocess/demo/normalized.wav"
        assert rerun[name] != written[name]

    def test_relabelled_embeddings_miss(self, demo_manifest, offgrid_manifest, tmp_path):
        session = load_manifest(demo_manifest)[0]
        offgrid = load_manifest(offgrid_manifest)[0]["embeddings"]
        # channel 1 reads the off-grid session's files, so the channels' turns differ
        session["embeddings"] = [other if mine["channel"] == 1 else mine
                                 for mine, other in zip(session["embeddings"], offgrid)]
        config = load_config(None)
        run_diarize_grid(session, config, tmp_path / "run")
        written = _files(tmp_path / "run")
        for entry in session["embeddings"]:
            entry["channel"] = 1 - entry["channel"]
        assert run_diarize_grid(session, config, tmp_path / "run")["cached"] is False
        run_diarize_grid(session, config, tmp_path / "fresh")
        rerun = _files(tmp_path / "run")
        assert rerun == _files(tmp_path / "fresh")
        assert rerun != written

    def test_deleted_wpe_output_reruns_preprocess_only(self, demo_manifest, tmp_path):
        session = load_manifest(demo_manifest)[0]
        config = load_config(None, overrides={"gss.iterations": 1})
        run_dir = tmp_path / "run"
        run_full(session, config, run_dir)
        written = _outputs(run_dir)
        (run_dir / "preprocess" / "demo" / "wpe.wav").unlink()
        report = run_full(session, config, run_dir)
        assert report["cached"] == {"preprocess": False, "diarize": True, "gss": True}
        assert _outputs(run_dir) == written

    def test_variants_change_keeps_only_new_outputs(self, demo_manifest, tmp_path):
        session = load_manifest(demo_manifest)[0]
        run_diarize_grid(session, load_config(None), tmp_path / "run")
        config = load_config(None, overrides={"diarize.variants": ["wpe"]})
        assert run_diarize_grid(session, config, tmp_path / "run")["cached"] is False
        run_diarize_grid(session, config, tmp_path / "fresh")
        assert _files(tmp_path / "run") == _files(tmp_path / "fresh")


# two turns of the demo session, and an activity of 3,200 values that guides them
GSS_SEG = Segmentation("demo", (Turn("spk00", 0.5, 2.0), Turn("spk01", 4.0, 5.5)))
GSS_ACTIVITY = segmentation_to_activity(GSS_SEG, 0.01, num_frames=1600)


def _gss_session(manifest, run_dir):
    """The demo session preprocessed into run_dir, and a config for a quick GSS."""
    session = load_manifest(manifest)[0]
    config = load_config(None, overrides={"preprocess.wpe": False, "gss.iterations": 1})
    run_preprocess(session, config, run_dir)
    return session, config


class TestGssCache:
    def test_hit_on_unchanged_rerun(self, demo_manifest, tmp_path):
        run_dir = tmp_path / "run"
        session, config = _gss_session(demo_manifest, run_dir)
        first = run_gss(session, config, run_dir, GSS_SEG, GSS_ACTIVITY)
        written = _files(run_dir / "gss")
        second = run_gss(session, config, run_dir, GSS_SEG, GSS_ACTIVITY)
        assert (first["cached"], second["cached"]) == (False, True)
        assert second["outputs"] == first["outputs"]
        assert len(first["outputs"]) == 2
        assert _files(run_dir / "gss") == written
        first["outputs"][1].unlink()  # a key whose outputs are not all there is a miss
        assert run_gss(session, config, run_dir, GSS_SEG, GSS_ACTIVITY)["cached"] is False
        assert _files(run_dir / "gss") == written

    def test_each_input_change_misses(self, demo_manifest, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        session, config = _gss_session(demo_manifest, run_dir)
        seg, activity = GSS_SEG, GSS_ACTIVITY

        def separate():
            return run_gss(session, config, run_dir, seg, activity)

        def misses_then_hits() -> bool:
            return separate()["cached"] is False and separate()["cached"] is True

        assert misses_then_hits()
        wpe = run_dir / "preprocess" / "demo" / "wpe.wav"
        data = bytearray(wpe.read_bytes())
        data[-4] ^= 1  # the lowest mantissa bit of the last float32 sample
        wpe.write_bytes(bytes(data))
        assert misses_then_hits()
        names = [p.name for p in separate()["outputs"]]
        seg = Segmentation("demo", (GSS_SEG.turns[0], Turn("spk01", 4.0, 5.5004)))
        assert misses_then_hits()
        assert [p.name for p in separate()["outputs"]] == names  # same millisecond names
        probs = activity.probs.copy()
        probs[0, 800] = 0.5  # inside what numpy abbreviates when it prints the array
        activity = replace(activity, probs=probs)
        assert misses_then_hits()
        config = load_config(None, overrides={"preprocess.wpe": False, "gss.iterations": 2})
        assert misses_then_hits()
        config["stft"]["window"] = "sqrt_hann"
        assert misses_then_hits()
        monkeypatch.setattr(farfield.pipeline, "code_digest", lambda: "changed")
        assert misses_then_hits()

    def test_interrupted_gss_misses_cache(self, demo_manifest, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        session, config_a = _gss_session(demo_manifest, run_dir)
        config_b = load_config(None, overrides={"preprocess.wpe": False, "gss.iterations": 2})
        run_gss(session, config_a, run_dir, GSS_SEG, None)
        written = _files(run_dir)
        with monkeypatch.context() as m:  # B stops after its first WAV
            m.setattr(farfield.pipeline, "write_wav",
                      _write_then_interrupt(farfield.pipeline.write_wav))
            with pytest.raises(_Interrupted):
                run_gss(session, config_b, run_dir, GSS_SEG, None)
        assert _files(run_dir) != written
        assert run_gss(session, config_a, run_dir, GSS_SEG, None)["cached"] is False
        assert _files(run_dir) == written


class TestFullPipeline:
    def test_run_full_produces_report_and_outputs(self, demo_manifest, tmp_path):
        sessions = load_manifest(demo_manifest)
        config = load_config(None, overrides={"gss.iterations": 3})
        run_dir = tmp_path / "run"
        report = run_full(sessions[0], config, run_dir)
        assert report["session_id"] == "demo"
        assert report["ref_speakers"] == 2
        assert report["hyp_speakers"] == 2
        assert report["der"] < 0.25
        assert len(report["gss_outputs"]) == 5  # one WAV per reference-style turn
        for path in report["gss_outputs"]:
            assert Path(path).exists()
        assert (run_dir / "fusion" / "demo" / "final.rttm").exists()
        assert json.loads((run_dir / "report" / "demo.json").read_text())["der"] == report["der"]

    def test_two_runs_bit_identical(self, demo_manifest, tmp_path):
        sessions = load_manifest(demo_manifest)
        config = load_config(None, overrides={"gss.iterations": 2})
        reports = []
        finals = []
        for name in ("run-a", "run-b"):
            run_dir = tmp_path / name
            reports.append(run_full(sessions[0], config, run_dir))
            finals.append((run_dir / "fusion" / "demo" / "final.rttm").read_bytes())
        assert finals[0] == finals[1]
        assert reports[0]["der"] == reports[1]["der"]

    def test_cached_rerun_separates_the_same_turns(self, offgrid_manifest, tmp_path):
        # without soft activities GSS is guided by the fused turns, and on this
        # grid their boundaries hold more than the 3 decimals of the fused RTTMs
        session = dict(load_manifest(offgrid_manifest)[0])
        del session["soft_activities"]
        config = load_config(None, overrides={"gss.iterations": 2})
        run_dir = tmp_path / "run"
        first = run_full(session, config, run_dir)
        first_gss = _files(run_dir / "gss")
        second = run_full(session, config, run_dir)
        assert _files(run_dir / "gss") == first_gss
        assert second["der"] == first["der"]
        assert first["cached"] == {"preprocess": False, "diarize": False, "gss": False}
        assert second["cached"] == {"preprocess": True, "diarize": True, "gss": True}

    def test_fusion_names_activity_files_of_mixed_steps(self, tmp_path):
        seg = Segmentation("s", (Turn("a", 0.0, 4.0),))
        entries = []
        for step in (0.5, 0.25):
            path = tmp_path / f"act_{step}.act"
            write_activity(path, segmentation_to_activity(seg, step))
            entries.append({"path": str(path), "channel": 0})
        session = {"session_id": "s", "channels": [], "soft_activities": entries}
        with pytest.raises(DataError, match="frame steps") as info:
            run_fusion(session, load_config(None), tmp_path / "run", {0: seg})
        assert all(e["path"] in str(info.value) for e in entries)

    def test_gss_reads_preprocess_output(self, demo_manifest, tmp_path):
        sessions = load_manifest(demo_manifest)
        seg = read_rttm(Path(demo_manifest).parent / "demo.rttm")["demo"]
        with pytest.raises(DataError, match="wpe.wav"):
            run_gss(sessions[0], load_config(None), tmp_path / "run", seg, None)


class TestScoring:
    def test_score_directories(self, demo_manifest, tmp_path):
        base = Path(demo_manifest).parent
        ref_dir = tmp_path / "ref"
        hyp_dir = tmp_path / "hyp"
        ref_dir.mkdir()
        hyp_dir.mkdir()
        (ref_dir / "demo.rttm").write_bytes((base / "demo.rttm").read_bytes())
        (hyp_dir / "demo.rttm").write_bytes((base / "demo.rttm").read_bytes())
        result = score_directories(ref_dir, hyp_dir)
        assert result["macro_der"] == pytest.approx(0.0)
        assert result["count_accuracy"] == 1.0

    def test_missing_hypothesis_marked(self, demo_manifest, tmp_path):
        base = Path(demo_manifest).parent
        ref_dir = tmp_path / "ref"
        hyp_dir = tmp_path / "hyp"
        ref_dir.mkdir()
        hyp_dir.mkdir()
        (ref_dir / "demo.rttm").write_bytes((base / "demo.rttm").read_bytes())
        result = score_directories(ref_dir, hyp_dir)
        assert result["sessions"][0]["der"] is None
        assert result["count_accuracy"] == 0.0

    def test_count_accuracy(self, demo_manifest, tmp_path):
        base = Path(demo_manifest).parent
        ref_dir, hyp_dir, empty = tmp_path / "ref", tmp_path / "hyp", tmp_path / "empty"
        for d in (ref_dir, hyp_dir, empty):
            d.mkdir()
        for d in (ref_dir, hyp_dir):
            (d / "demo.rttm").write_bytes((base / "demo.rttm").read_bytes())
        (ref_dir / "one.rttm").write_text("SPEAKER one 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n")
        (hyp_dir / "one.rttm").write_text(
            "SPEAKER one 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n"
            "SPEAKER one 1 1.0 1.0 <NA> <NA> b <NA> <NA>\n"
        )
        assert score_directories(ref_dir, hyp_dir)["count_accuracy"] == 0.5
        # no reference session: nothing to count
        result = score_directories(empty, hyp_dir)
        assert result["sessions"] == [] and np.isnan(result["count_accuracy"])


# simulation configs that are valid JSON but that the checker rejects: each
# adds its entries to a one-utterance corpus, and the error names the key
_SIM_CONFIG_ERRORS = {
    "sim_unknown_key": ({"durration": 5.0}, "unknown config key durration"),
    "sim_log_median_infinite": ({"overlap_stats": {"utterance_log_median": float("inf")}},
                                "overlap_stats.utterance_log_median"),
    "sim_sources_float": ({"room_ranges": {"num_sources": 2.5}}, "room_ranges.num_sources"),
    "sim_receivers_string": ({"room_ranges": {"num_receivers": "3"}},
                             "room_ranges.num_receivers"),
    "sim_p_overlap_string": ({"overlap_stats": {"p_overlap": "x"}}, "overlap_stats.p_overlap"),
    "sim_overlap_nan": ({"overlap_stats": {"overlap_mean": float("nan")}},
                        "overlap_stats.overlap_mean"),
    "sim_p_overlap_above_1": ({"overlap_stats": {"p_overlap": 1.5}}, "overlap_stats.p_overlap"),
    "sim_sample_rate_zero": ({"sample_rate": 0}, "sample_rate"),
    "sim_duration_negative": ({"duration": -1.0}, "duration"),
    "sim_dim_min_short": ({"room_ranges": {"dim_min": [4.0, 3.0]}}, "room_ranges.dim_min"),
    "sim_channels_zero": ({"channels": 0}, "channels"),
    "sim_sessions_negative": ({"num_sessions": -1}, "num_sessions"),
    "sim_spacing_negative": ({"room_ranges": {"min_spacing": -1.0}}, "room_ranges.min_spacing"),
    "sim_speakers_zero": ({"speakers": 0}, "speakers"),
    "sim_channels_above_receivers": ({"channels": 3, "room_ranges": {"num_receivers": 2}},
                                     "channels"),
    "sim_noise_without_snr": ({"noise_ref": "u"}, "snr_db"),
}


def _write_malformed_inputs(root):
    """A tiny session whose embedding, activity, manifest and RTTM files are broken."""
    noise = 0.1 * np.random.default_rng(0).standard_normal(8000)
    write_wav(root / "ch0.wav", MultichannelAudio(noise, 16000))
    (root / "bad.emb").write_bytes(b"EMB1\x10\x00\x00")
    (root / "bad.act").write_bytes(b"ACT1" + b"\x00" * 10)
    (root / "ok.rttm").write_text("SPEAKER s 1 0.0 0.5 <NA> <NA> a <NA> <NA>\n")
    (root / "refs").mkdir()
    (root / "refs" / "bad.rttm").write_text("SPEAKER s 1 0.0 half <NA> <NA> a <NA> <NA>\n")
    (root / "empty").mkdir()
    write_wav(root / "ch0_8k.wav", MultichannelAudio(noise, 8000))
    write_wav(root / "stereo.wav", MultichannelAudio(np.stack([noise, noise]), 16000))
    for name, wav in (("sim_rate_8k", "ch0_8k.wav"), ("sim_stereo", "stereo.wav")):
        (root / f"{name}.json").write_text(json.dumps(
            {"dry_corpus": [{"ref": "u", "path": "ch0.wav"}, {"ref": "v", "path": wav}]}))
    for sid in ("s", "t"):  # a reference of session s, a hypothesis of session t
        (root / f"only_{sid}").mkdir()
        (root / f"only_{sid}" / f"{sid}.rttm").write_text(
            f"SPEAKER {sid} 1 0.0 0.5 <NA> <NA> a <NA> <NA>\n")
    (root / "negative").mkdir()
    (root / "negative" / "neg.rttm").write_text("SPEAKER s 1 2.0 -1.0 <NA> <NA> a <NA> <NA>\n")
    session = {"session_id": "s", "channels": ["ch0.wav"],
               "embeddings": [{"path": "bad.emb", "channel": 0}]}
    (root / "manifest.json").write_text(json.dumps({"sessions": [session]}))
    (root / "no_sessions.json").write_text(json.dumps({"session": [session]}))
    (root / "int_sessions.json").write_text(json.dumps({"sessions": 5}))
    (root / "int_entry.json").write_text(json.dumps({"sessions": [5]}))
    (root / "int_channels.json").write_text(
        json.dumps({"sessions": [dict(session, channels=5)]}))
    (root / "str_embedding.json").write_text(
        json.dumps({"sessions": [dict(session, embeddings=["x.emb"])]}))
    (root / "no_wpe.json").write_text(json.dumps({"preprocess": {"wpe": False}}))
    (root / "two.rttm").write_text("SPEAKER s 1 0.0 0.5 <NA> <NA> a <NA> <NA>\n"
                                   "SPEAKER t 1 0.0 0.5 <NA> <NA> a <NA> <NA>\n")
    (root / "other.rttm").write_text("SPEAKER t 1 0.0 0.5 <NA> <NA> a <NA> <NA>\n")
    (root / "no_reference.json").write_text(
        json.dumps({"sessions": [dict(session, reference_rttm="gone.rttm")]}))
    (root / "bad.json").write_text("{not json")
    (root / "fuse_empty.json").write_text(json.dumps({}))
    (root / "fuse_no_path.json").write_text(json.dumps({"hypotheses": [{"weight": 1.0}]}))
    (root / "fuse_two.json").write_text(json.dumps({"hypotheses": [{"path": "two.rttm"}]}))
    (root / "fuse_gone.json").write_text(json.dumps({"hypotheses": [{"path": "gone.rttm"}]}))
    (root / "fuse_weight.json").write_text(
        json.dumps({"hypotheses": [{"path": "ok.rttm", "weight": "heavy"}]}))
    (root / "sim_rooms.json").write_text(json.dumps(
        {"room_ranges": {"t60": 0.3}, "dry_corpus": [{"ref": "u", "path": "ch0.wav"}]}))
    (root / "sim_no_corpus.json").write_text(json.dumps({"speakers": 2}))
    (root / "sim_ok.json").write_text(json.dumps({"dry_corpus": [{"ref": "u", "path": "ch0.wav"}]}))
    (root / "sim_noise_only.json").write_text(json.dumps(
        {"dry_corpus": [{"ref": "n", "path": "ch0.wav"}], "noise_ref": "n"}))
    (root / "sim_snr_word.json").write_text(json.dumps(
        {"dry_corpus": [{"ref": "u", "path": "ch0.wav"}, {"ref": "n", "path": "ch0.wav"}],
         "noise_ref": "n", "snr_db": "loud"}))
    (root / "sim_speakers_float.json").write_text(json.dumps(
        {"dry_corpus": [{"ref": "u", "path": "ch0.wav"}], "speakers": 2.7}))
    (root / "sim_room_infinite.json").write_text(json.dumps(
        {"dry_corpus": [{"ref": "u", "path": "ch0.wav"}],
         "room_ranges": {"dim_max": [9.0, 7.0, float("inf")]}}))
    # json writes an infinite float as Infinity, which json reads back
    (root / "fuse_inf_weight.json").write_text(json.dumps(
        {"hypotheses": [{"path": "ok.rttm", "weight": float("inf")}, {"path": "ok.rttm"}]}))
    for name, weight in (("fuse_string_weight", "3"), ("fuse_bool_weight", True)):
        (root / f"{name}.json").write_text(json.dumps(
            {"hypotheses": [{"path": "ok.rttm", "weight": weight}, {"path": "ok.rttm"}]}))
    for name, (entries, _) in _SIM_CONFIG_ERRORS.items():
        (root / f"{name}.json").write_text(json.dumps(
            {"dry_corpus": [{"ref": "u", "path": "ch0.wav"}], **entries}))
    vectors = np.random.default_rng(1).standard_normal((20, 16))
    vectors[7, 3] = np.nan
    write_embeddings(root / "nan.emb", EmbeddingSet(tuple(
        EmbeddingEntry(0.5 * i, 0.5 * i + 0.5, v) for i, v in enumerate(vectors))))
    (root / "nan_emb.json").write_text(json.dumps(
        {"sessions": [dict(session, embeddings=[{"path": "nan.emb", "channel": 0}])]}))


class TestCli:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["preprocess", "--manifest", "no_sessions.json"], "no_sessions.json"),
            (["diarize", "--manifest", "manifest.json", "--config", "no_wpe.json"], "bad.emb"),
            (["gss", "--manifest", "manifest.json", "--rttm", "ok.rttm",
              "--activity", "bad.act"], "bad.act"),
            (["score", "--ref-dir", "refs", "--hyp-dir", "refs"], "bad.rttm:1"),
            (["preprocess", "--manifest", "int_sessions.json"], "int_sessions.json"),
            (["preprocess", "--manifest", "int_entry.json"], "int_entry.json"),
            (["score", "--ref-dir", "negative", "--hyp-dir", "negative"], "neg.rttm:1"),
            (["preprocess", "--manifest", "int_channels.json"], "int_channels.json"),
            (["preprocess", "--manifest", "str_embedding.json"], "str_embedding.json"),
            (["fuse", "--inputs", "gone.json", "--output", "o.rttm"], "gone.json"),
            (["fuse", "--inputs", "bad.json", "--output", "o.rttm"], "bad.json"),
            (["fuse", "--inputs", "fuse_empty.json", "--output", "o.rttm"], "fuse_empty.json"),
            (["fuse", "--inputs", "fuse_no_path.json", "--output", "o.rttm"],
             "fuse_no_path.json"),
            (["fuse", "--inputs", "fuse_two.json", "--output", "o.rttm"], "two.rttm"),
            (["fuse", "--inputs", "fuse_gone.json", "--output", "o.rttm"], "gone.rttm"),
            (["fuse", "--inputs", "fuse_weight.json", "--output", "o.rttm"],
             "fuse_weight.json"),
            (["gss", "--manifest", "manifest.json", "--rttm", "other.rttm"],
             "other.rttm: no turns of session 's'"),
            (["gss", "--manifest", "manifest.json", "--rttm", "gone.rttm"], "gone.rttm"),
            (["gss", "--manifest", "manifest.json", "--rttm", "ok.rttm",
              "--activity", "gone.act"], "gone.act"),
            (["run", "--manifest", "no_reference.json"], "gone.rttm"),
            (["fuse", "--inputs", "fuse_inf_weight.json", "--output", "o.rttm"],
             "fuse_inf_weight.json"),
            (["diarize", "--manifest", "nan_emb.json", "--config", "no_wpe.json"],
             "nan.emb: embedding vectors must be finite"),
            (["fuse", "--inputs", "fuse_string_weight.json", "--output", "o.rttm"],
             "fuse_string_weight.json"),
            (["fuse", "--inputs", "fuse_bool_weight.json", "--output", "o.rttm"],
             "fuse_bool_weight.json"),
            (["score", "--ref-dir", "ok.rttm", "--hyp-dir", "refs"], "ok.rttm"),
            (["score", "--ref-dir", "refs", "--hyp-dir", "two.rttm"], "two.rttm"),
            (["score", "--ref-dir", "refs", "--hyp-dir", "empty"], "empty"),
            (["score", "--ref-dir", "gone", "--hyp-dir", "refs"], "gone"),
            (["simulate", "--config", "sim_rate_8k.json", "--output-dir", "out"],
             "dry WAV ch0_8k.wav"),
            (["simulate", "--config", "sim_stereo.json", "--output-dir", "out"],
             "dry WAV stereo.wav"),
            (["score", "--ref-dir", "only_s", "--hyp-dir", "only_t"],
             "only_s: no reference session has a hypothesis in only_t"),
        ],
        ids=["manifest-sessions", "emb-header", "act-header", "rttm-onset",
             "manifest-sessions-type", "manifest-entry-type", "rttm-negative-duration",
             "manifest-channels-type", "manifest-embeddings-item",
             "fuse-missing", "fuse-bad-json", "fuse-no-hypotheses", "fuse-item-no-path",
             "fuse-multi-session", "fuse-missing-rttm", "fuse-bad-weight",
             "gss-rttm-session", "gss-missing-rttm", "gss-missing-activity",
             "run-missing-reference", "fuse-infinite-weight", "emb-nan-vector",
             "fuse-string-weight", "fuse-bool-weight", "score-ref-is-file",
             "score-hyp-is-file", "score-hyp-no-rttm", "score-ref-missing",
             "sim-dry-8khz", "sim-dry-stereo", "score-nothing-scored"],
    )
    def test_malformed_input_exits_3(self, tmp_path, monkeypatch, capsys, argv, named):
        _write_malformed_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["simulate", "--config", "gone.json", "--output-dir", "out"], "gone.json"),
            (["simulate", "--config", "bad.json", "--output-dir", "out"], "bad.json"),
            (["simulate", "--config", "sim_rooms.json", "--output-dir", "out"],
             "sim_rooms.json"),
            (["simulate", "--config", "sim_no_corpus.json", "--output-dir", "out"],
             "sim_no_corpus.json"),
            (["simulate", "--config", "sim_noise_only.json", "--output-dir", "out"],
             "sim_noise_only.json"),
            (["run", "--set", "gss.iterations"], "gss.iterations"),
            (["run", "--set", 'gss.iterations="2"'], "gss.iterations"),
            (["run", "--set", "gss.noise_floor=x"], "gss.noise_floor"),
            (["run", "--set", "diarize.reject_thrs=8.0"], "diarize.reject_thrs"),
            (["run", "--set", "seed=a"], "seed"),
            (["run", "--set", "gss.iterations=0"], "gss.iterations"),
            (["run", "--set", 'diarize.variants="orig"'], "diarize.variants"),
            (["run", "--set", "nosuch.key=1"], "nosuch"),
            (["run", "--set", "gss.bogus=1"], "gss.bogus"),
            (["run", "--set", "gss.wpe=false"], "gss.wpe"),
            (["run", "--set", "preprocess.percentile=1.5"], "preprocess.percentile"),
            (["gss", "--manifest", "manifest.json", "--rttm", "ok.rttm",
              "--vad-mask", "mask.npy"], "--vad-mask needs --activity"),
            (["preprocess", "--manifest", "manifest.json",
              "--set", "preprocess.block_seconds=Infinity"], "preprocess.block_seconds"),
            (["run", "--set", "gss.context_margin=NaN"], "gss.context_margin"),
            (["run", "--set", "gss.noise_floor=-Infinity"], "gss.noise_floor"),
            (["run", "--set", "score.collar=NaN"], "score.collar"),
            (["run", "--set", "diarize.reject_thrs=[NaN]"], "diarize.reject_thrs"),
            (["simulate", "--config", "sim_snr_word.json", "--output-dir", "out"],
             "sim_snr_word.json: snr_db"),
            (["simulate", "--config", "sim_speakers_float.json", "--output-dir", "out"],
             "sim_speakers_float.json: speakers"),
            (["simulate", "--config", "sim_room_infinite.json", "--output-dir", "out"],
             "sim_room_infinite.json: room_ranges.dim_max"),
            *((["simulate", "--config", f"{name}.json", "--output-dir", "out"],
               f"simulation config {name}.json: {named}")
              for name, (_, named) in _SIM_CONFIG_ERRORS.items()),
            (["run", "--set", "seed=-1"], "seed"),
            (["run", "--set", "preprocess.selection_fraction=0"],
             "preprocess.selection_fraction"),
            (["run", "--set", "preprocess.selection_fraction=1.5"],
             "preprocess.selection_fraction"),
            (["run", "--set", "fusion.binarize_threshold=1"], "fusion.binarize_threshold"),
            (["run", "--set", "fusion.binarize_threshold=0"], "fusion.binarize_threshold"),
            (["run", "--set", "score.collar=-0.25"], "score.collar"),
            (["run", "--set", "fusion.count_match_threshold=-3"],
             "fusion.count_match_threshold"),
            (["simulate", "--config", "sim_ok.json", "--output-dir", "out", "--seed", "-1"],
             "--seed"),
            (["score", "--ref-dir", "refs", "--hyp-dir", "refs", "--collar", "-1"], "--collar"),
            (["run", "--set", "diarize.frame_step=0"], "diarize.frame_step"),
            (["run", "--set", "diarize.single_speaker_cos_threshold=5.0"],
             "diarize.single_speaker_cos_threshold"),
            (["run", "--set", "gss.noise_floor=-0.5"], "gss.noise_floor"),
            (["run", "--set", "gss.noise_floor=2.0"], "gss.noise_floor"),
        ],
        ids=["sim-missing", "sim-bad-json", "sim-room-key", "sim-no-corpus", "sim-noise-only",
             "set-no-value",
             "set-string-int", "set-string-float", "set-float-list", "set-string-seed",
             "set-zero-iterations", "set-string-list", "set-unknown-section",
             "set-unknown-key", "set-removed-gss-wpe", "set-percentile-range",
             "gss-vad-mask-without-activity", "set-infinite-block", "set-nan-margin",
             "set-minus-infinite-floor", "set-nan-collar", "set-nan-in-list",
             "sim-snr-string", "sim-speakers-float", "sim-room-infinite",
             *(name.replace("_", "-") for name in _SIM_CONFIG_ERRORS),
             "set-negative-seed", "set-zero-fraction", "set-fraction-above-1",
             "set-binarize-at-1", "set-binarize-at-0", "set-negative-collar",
             "set-negative-count-threshold", "sim-negative-seed", "score-negative-collar",
             "set-zero-frame-step", "set-cos-threshold-above-1", "set-negative-noise-floor",
             "set-noise-floor-above-1"],
    )
    def test_config_error_exits_2(self, tmp_path, monkeypatch, capsys, argv, named):
        _write_malformed_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        if argv[0] == "run":
            argv = [*argv, "--manifest", "manifest.json"]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not Path("runs/default/preprocess").exists()

    def test_chunk_below_two_frames_per_channel_exits_2(self, tmp_path, monkeypatch, capsys):
        _write_malformed_inputs(tmp_path)
        rng = np.random.default_rng(1)
        channels = [f"four_ch{ch}.wav" for ch in range(4)]
        for name in channels:
            write_wav(tmp_path / name, MultichannelAudio(0.1 * rng.standard_normal(8000), 16000))
        (tmp_path / "four.json").write_text(
            json.dumps({"sessions": [{"session_id": "s", "channels": channels}]}))
        monkeypatch.chdir(tmp_path)
        code = main(["gss", "--manifest", "four.json", "--rttm", "ok.rttm",
                     "--set", "gss.chunk_frames=7"])
        assert code == 2
        assert re.search(r"gss\.chunk_frames 7 .* channel count 4", capsys.readouterr().err)

    def test_negative_margin_exits_2(self, tmp_path, monkeypatch, capsys):
        _write_malformed_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["gss", "--manifest", "manifest.json", "--rttm", "ok.rttm",
                     "--set", "gss.context_margin=-0.5"])
        assert code == 2
        assert "gss.context_margin" in capsys.readouterr().err

    def test_set_overrides_config(self, demo_manifest, tmp_path):
        run_dir = tmp_path / "run"
        code = main(["preprocess", "--manifest", str(demo_manifest), "--run-dir", str(run_dir),
                     "--set", "preprocess.wpe=false", "--set", "seed=3"])
        assert code == 0
        wav = run_dir / "preprocess" / "demo"
        assert (wav / "wpe.wav").read_bytes() == (wav / "normalized.wav").read_bytes()

    def test_preprocess_command(self, demo_manifest, tmp_path, capsys):
        code = main([
            "preprocess", "--manifest", str(demo_manifest),
            "--run-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        assert "demo" in capsys.readouterr().out
        assert (tmp_path / "run" / "preprocess" / "demo" / "ranking.txt").exists()

    def test_gss_command_runs_or_reuses_preprocess(self, demo_manifest, tmp_path):
        rttm = str(Path(demo_manifest).parent / "demo.rttm")
        common = ["--manifest", str(demo_manifest), "--set", "gss.iterations=1"]
        assert main(["preprocess", *common, "--run-dir", str(tmp_path / "a")]) == 0
        outputs = []
        for name in ("a", "b"):  # b has no preprocess output yet
            assert main(["gss", *common, "--run-dir", str(tmp_path / name), "--rttm", rttm]) == 0
            wavs = sorted((tmp_path / name / "gss" / "demo").glob("*.wav"))
            outputs.append([p.read_bytes() for p in wavs])
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1]

    def test_gss_command_keeps_only_the_last_turn_set(self, demo_manifest, tmp_path, capsys):
        rttm = tmp_path / "two.rttm"
        rttm.write_text("SPEAKER demo 1 0.500 1.000 <NA> <NA> spk00 <NA> <NA>\n"
                        "SPEAKER demo 1 4.000 1.000 <NA> <NA> spk01 <NA> <NA>\n")
        common = ["gss", "--manifest", str(demo_manifest), "--run-dir", str(tmp_path / "run"),
                  "--set", "preprocess.wpe=false", "--set", "gss.iterations=1"]
        printed = []
        for path in (Path(demo_manifest).parent / "demo.rttm", rttm, rttm):
            assert main([*common, "--rttm", str(path)]) == 0
            printed.append(capsys.readouterr().out.strip())
        assert printed == ["demo: done, 5 segment WAVs", "demo: done, 2 segment WAVs",
                           "demo: cached, 2 segment WAVs"]
        assert sorted(p.name for p in (tmp_path / "run" / "gss" / "demo").iterdir()) == [
            ".cache-key", "demo-spk00-500-1500.wav", "demo-spk01-4000-5000.wav"]

    def test_score_command(self, demo_manifest, tmp_path, capsys, monkeypatch):
        base = Path(demo_manifest).parent
        code = main([
            "score", "--ref-dir", str(base), "--hyp-dir", str(base),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "demo" in out and "AVG" in out
        # --collar defaults to the config's score.collar
        monkeypatch.setitem(farfield.pipeline.DEFAULT_CONFIG["score"], "collar", 0.25)
        args = build_parser().parse_args(["score", "--ref-dir", "r", "--hyp-dir", "h"])
        assert args.collar == 0.25

    def test_workers_map_diarize_and_gss(self, demo_manifest, tmp_path, monkeypatch):
        sessions = load_manifest(demo_manifest)  # absolute paths
        sessions.append(dict(sessions[0], session_id="demo2"))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sessions": sessions}))
        text = (Path(demo_manifest).parent / "demo.rttm").read_text()
        rttm = tmp_path / "both.rttm"
        rttm.write_text(text + text.replace(" demo ", " demo2 "))
        seen = []
        map_sessions = farfield.cli._map_sessions
        monkeypatch.setattr(farfield.cli, "_map_sessions", lambda fn, items, workers: (
            seen.append((len(items), workers)) or map_sessions(fn, items, workers)))
        written = []
        for workers in ("1", "2"):
            common = ["--manifest", str(manifest), "--run-dir", str(tmp_path / workers),
                      "--workers", workers, "--set", "preprocess.wpe=false",
                      "--set", "gss.iterations=1"]
            assert main(["diarize", *common]) == 0
            assert main(["gss", *common, "--rttm", str(rttm)]) == 0
            written.append(_files(tmp_path / workers))
        assert seen == [(2, 1), (2, 1), (2, 2), (2, 2)]
        assert len([name for name in written[0]
                    if name.startswith("gss/demo2/") and name.endswith(".wav")]) == 5
        assert {"gss/demo/.cache-key", "gss/demo2/.cache-key"} <= written[0].keys()
        assert written[0] == written[1]

    def test_fuse_command(self, demo_manifest, tmp_path, capsys):
        base = Path(demo_manifest).parent
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({
            "hypotheses": [
                {"path": str(base / "demo.rttm"), "weight": 1.0},
                {"path": str(base / "demo.rttm"), "weight": 2.0},
            ]
        }))
        out_path = tmp_path / "fused.rttm"
        code = main(["fuse", "--inputs", str(inputs), "--output", str(out_path)])
        assert code == 0
        fused = read_rttm(out_path)["demo"]
        assert fused.num_speakers == 2

    def test_simulate_command(self, tmp_path, capsys):
        from farfield.audio import MultichannelAudio, write_wav

        rng = np.random.default_rng(0)
        write_wav(tmp_path / "dry.wav", MultichannelAudio(0.1 * rng.standard_normal(8000), 16000))
        config = {
            "room_ranges": {
                "dim_max": [5.0, 4.0, 3.0], "t60_min": 0.2, "t60_max": 0.25,
                "num_sources": 2, "num_receivers": 2,
            },
            "dry_corpus": [{"ref": "u", "path": "dry.wav", "speaker": "s0"}],
            "speakers": 2,
            "duration": 3.0,
            "channels": 2,
            "num_sessions": 1,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main([
            "simulate", "--config", str(cfg_path), "--output-dir", str(out_dir),
            "--seed", "1",
        ])
        assert code == 0
        assert (out_dir / "sim000.wav").exists()
        assert (out_dir / "sim000.rttm").exists()
        assert json.loads((out_dir / "sim000.json").read_text())["session_id"] == "sim000"

    def test_bad_config_exits_2(self, demo_manifest, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        code = main([
            "preprocess", "--manifest", str(demo_manifest), "--config", str(bad),
            "--run-dir", str(tmp_path / "run"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_manifest_exits_3(self, tmp_path, capsys):
        code = main([
            "preprocess", "--manifest", str(tmp_path / "gone.json"),
            "--run-dir", str(tmp_path / "run"),
        ])
        assert code == 3

    def test_no_embeddings_for_variants_exits_3(self, demo_manifest, tmp_path, capsys):
        code = main(["run", "--manifest", str(demo_manifest), "--run-dir", str(tmp_path / "run"),
                     "--set", 'diarize.variants=["wpee"]'])
        assert code == 3
        err = capsys.readouterr().err
        assert "diarize.variants" in err and "wpee" in err and "demo" in err

    @pytest.mark.parametrize("edit", [
        lambda s: [dict(s, session_id=5)],
        lambda s: [dict(s, session_id="../../escaped")],
        lambda s: [dict(s, session_id="")],
        lambda s: [dict(s, session_id="..")],
        lambda s: [s, s],
        lambda s: [dict(s, channels=[])],
        lambda s: [dict(s, sample_rate="16000")],
        lambda s: [dict(s, sample_rate=0)],
        lambda s: [dict(s, embeddings=[dict(e, channel=str(e["channel"]))
                                       for e in s["embeddings"]])],
        lambda s: [dict(s, embeddings=[{"path": "x.emb", "vad_source": 1}])],
        lambda s: [dict(s, soft_activities=[{"path": "x.act", "channel": True}])],
    ], ids=["id-int", "id-escapes", "id-empty", "id-dotdot", "id-twice", "channels-empty",
            "rate-string", "rate-zero", "emb-channel-string", "emb-vad-source-int",
            "act-channel-bool"])
    def test_invalid_manifest_exits_3(self, demo_manifest, tmp_path, capsys, edit):
        sessions = edit(load_manifest(demo_manifest)[0])  # absolute paths
        manifest = tmp_path / "in" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text(json.dumps({"sessions": sessions}))
        code = main(["run", "--manifest", str(manifest), "--set", "gss.iterations=1",
                     "--run-dir", str(tmp_path / "out" / "run")])
        assert code == 3
        assert str(manifest) in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [manifest]

    def test_run_is_deterministic_across_processes(self, demo_manifest, tmp_path, capsys):
        argv = ["run", "--manifest", str(demo_manifest), "--set", "gss.iterations=1"]
        src = str(Path(farfield.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [tmp_path / "hashseed1", tmp_path / "hashseed2"]
        for seed, run_dir in enumerate(runs, start=1):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-m", "farfield.cli", *argv,
                                   "--run-dir", str(run_dir)], env=env, capture_output=True,
                                  text=True, timeout=600)
            assert done.returncode == 0, done.stderr
        assert "gss/demo/.cache-key" in _outputs(runs[0])
        assert _outputs(runs[0]) == _outputs(runs[1])
        # no key names a path, so a copied run dir reuses every stage
        copy = tmp_path / "copy"
        shutil.copytree(runs[0], copy)
        assert main([*argv, "--run-dir", str(copy)]) == 0
        assert "cached: preprocess, diarize, gss" in capsys.readouterr().out
        assert _outputs(copy) == _outputs(runs[0])

    def test_pipeline_loads_no_scipy(self, demo_manifest, tmp_path):
        # scipy is loaded only to render a room; every pipeline stage runs on numpy
        script = (
            "import sys\n"
            "import farfield, farfield.cli, farfield.pipeline, farfield.metrics, "
            "farfield.simulate\n"
            f"code = farfield.cli.main(['run', '--manifest', {str(demo_manifest)!r}, "
            f"'--run-dir', {str(tmp_path / 'run')!r}, '--set', 'gss.iterations=1'])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(farfield.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "run" / "report" / "demo.json").is_file()

    def test_run_command_end_to_end(self, demo_manifest, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gss": {"iterations": 2}}))
        code = main([
            "run", "--manifest", str(demo_manifest), "--config", str(cfg),
            "--run-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "demo" in out and "DER" in out and "cached: none" in out
        assert main(["run", "--manifest", str(demo_manifest), "--config", str(cfg),
                     "--run-dir", str(tmp_path / "run")]) == 0
        assert "cached: preprocess, diarize, gss" in capsys.readouterr().out
        report = json.loads((tmp_path / "run" / "report" / "demo.json").read_text())
        assert report["cached"] == {"preprocess": True, "diarize": True, "gss": True}
