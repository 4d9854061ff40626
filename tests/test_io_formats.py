import io
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from farfield.audio import (MultichannelAudio, open_wav, read_wav, stack_channel_files,
                            wav_header, write_wav)
from farfield.embeddings import EmbeddingEntry, EmbeddingSet, read_embeddings, write_embeddings
from farfield.errors import DataError
from farfield.pipeline import load_config, load_manifest, run_preprocess
from farfield.segments import (
    Segmentation,
    SoftActivity,
    Turn,
    binarize,
    erode_bounds,
    extend_segments,
    merge_intervals,
    read_activity,
    read_rttm,
    segmentation_to_activity,
    write_activity,
    write_rttm,
)

FS = 16000


class TestWav:
    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        audio = MultichannelAudio(0.3 * rng.standard_normal((3, 4000)), FS)
        path = tmp_path / "a.wav"
        write_wav(path, audio)
        back = read_wav(path)
        assert back.sample_rate == FS
        np.testing.assert_allclose(back.samples, audio.samples, atol=1e-7)

    def test_int16_round_trip_quantized(self, tmp_path):
        # write_wav writes float32 only; read_wav still reads PCM16 input
        rng = np.random.default_rng(1)
        audio = MultichannelAudio(np.clip(0.3 * rng.standard_normal((2, 1000)), -1, 1), FS)
        path = tmp_path / "a.wav"
        wavfile.write(path, FS, (audio.samples.T * 32767.0).astype(np.int16))
        back = read_wav(path)
        np.testing.assert_allclose(back.samples, audio.samples, atol=2.0 / 32767)

    def test_mono_file_gets_channel_axis(self, tmp_path):
        path = tmp_path / "m.wav"
        write_wav(path, MultichannelAudio(np.zeros(100), FS))
        assert read_wav(path).samples.shape == (1, 100)

    def test_stack_channel_files(self, tmp_path):
        rng = np.random.default_rng(2)
        sigs = 0.2 * rng.standard_normal((3, 500))
        paths = []
        for i, sig in enumerate(sigs):
            p = tmp_path / f"ch{i}.wav"
            write_wav(p, MultichannelAudio(sig, FS))
            paths.append(p)
        stacked = stack_channel_files(paths)
        assert stacked.num_channels == 3
        np.testing.assert_allclose(stacked.samples, sigs, atol=1e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_stack_equals_vstack_of_files(self, tmp_path, seed):
        rng = np.random.default_rng(40 + seed)
        n, paths = int(rng.integers(1, 900)), []
        for i in range(int(rng.integers(1, 6))):
            paths.append(tmp_path / f"ch{i}.wav")
            write_wav(paths[-1], MultichannelAudio(rng.standard_normal(n), FS))
        stacked = stack_channel_files(paths)
        want = np.vstack([read_wav(p).samples for p in paths])
        assert stacked.samples.shape == want.shape
        assert stacked.samples.tobytes() == want.tobytes()

    def test_stack_rejects_a_file_of_two_channels(self, tmp_path):
        # before, the stereo file added a channel and shifted every later index
        write_wav(tmp_path / "mono.wav", MultichannelAudio(np.zeros(100), FS))
        write_wav(tmp_path / "stereo.wav", MultichannelAudio(np.zeros((2, 100)), FS))
        with pytest.raises(DataError, match="stereo.wav: 2 channels"):
            stack_channel_files([tmp_path / "stereo.wav", tmp_path / "mono.wav"])
        with pytest.raises(DataError, match="stereo.wav: 2 channels"):
            stack_channel_files([tmp_path / "mono.wav", tmp_path / "stereo.wav"])

    def test_stack_length_mismatch_rejected(self, tmp_path):
        write_wav(tmp_path / "a.wav", MultichannelAudio(np.zeros(100), FS))
        write_wav(tmp_path / "b.wav", MultichannelAudio(np.zeros(99), FS))
        with pytest.raises(DataError):
            stack_channel_files([tmp_path / "a.wav", tmp_path / "b.wav"])

    def test_missing_file_raises_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_wav(tmp_path / "nope.wav")

    def test_stack_no_files_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no channel files"):
            stack_channel_files([])
        # load_manifest accepts a session without channels, for diarize-only use
        session = {"session_id": "s", "channels": []}
        with pytest.raises(DataError, match="no channel files"):
            run_preprocess(session, load_config(), tmp_path / "run")


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def _fmt(tag, channels, width, bits=None, extensible=False):
    """A fmt chunk body; extensible wraps tag in a WAVE_FORMAT_EXTENSIBLE subformat."""
    bits = bits or 8 * width
    head = (0xFFFE if extensible else tag, channels, FS, FS * channels * width,
            channels * width, bits)
    if not extensible:
        return struct.pack("<HHIIHH", *head)
    guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return struct.pack("<HHIIHHHHI", *head, 22, bits, 0) + guid


def _wav(fmt, data, before_data=(), rf64=False):
    """A hand-built WAV file: fmt, then the extra chunks, then data."""
    body = _chunk(b"fmt ", fmt) + b"".join(before_data)
    if not rf64:
        body += _chunk(b"data", data)
        return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    body += b"data" + struct.pack("<I", 0xFFFFFFFF) + data
    ds64 = struct.pack("<QQQI", 4 + 36 + len(body), len(data), 0, 0)
    return b"RF64\xff\xff\xff\xffWAVE" + _chunk(b"ds64", ds64) + body


def _scipy_read(path):
    """What read_wav returned when it read through scipy.io.wavfile."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)  # unknown chunk ids
        rate, data = wavfile.read(path)
    data = data[:, None] if data.ndim == 1 else data
    scale = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}.get(data.dtype, 1.0)
    return rate, (data.astype(np.float64) / scale).T


_RNG = np.random.default_rng(11)
_PCM16 = _RNG.integers(-2**15, 2**15, size=24).astype("<i2").tobytes()
_PCM24 = _RNG.integers(0, 256, size=36).astype(np.uint8).tobytes()
_PCM32 = _RNG.integers(-2**31, 2**31, size=24).astype("<i4").tobytes()
_F32 = _RNG.uniform(-1, 1, size=24).astype("<f4").tobytes()
_F64 = _RNG.uniform(-1, 1, size=24).astype("<f8").tobytes()


class TestWavAgainstScipy:
    """read_wav and write_wav against scipy.io.wavfile, which farfield used before."""

    @pytest.mark.parametrize(
        "payload",
        [
            _wav(_fmt(1, 2, 2), _PCM16),
            _wav(_fmt(1, 3, 3), _PCM24),
            _wav(_fmt(1, 1, 4), _PCM32),
            _wav(_fmt(1, 2, 4, bits=24), _PCM32),
            _wav(_fmt(3, 3, 4), _F32),
            _wav(_fmt(3, 2, 8), _F64),
            _wav(_fmt(1, 4, 3, extensible=True), _PCM24),
            _wav(_fmt(3, 2, 4, extensible=True), _F32),
            _wav(_fmt(1, 2, 2), _PCM16, rf64=True),
            _wav(_fmt(3, 1, 4), _F32, rf64=True),
            _wav(_fmt(1, 2, 2), _PCM16, [_chunk(b"LIST", b"INFOISFT\x04\0\0\0abc\0")]),
            _wav(_fmt(3, 2, 4), _F32, [_chunk(b"junk", b"odd"), _chunk(b"fact", b"\0" * 4)]),
            _wav(_fmt(3, 1, 4), b""),
        ],
        ids=["pcm16", "pcm24", "pcm32", "pcm24-in-32", "float32", "float64",
             "extensible-pcm24", "extensible-float32", "rf64-pcm16", "rf64-float32",
             "list-chunk", "odd-chunk-pad-byte", "no-samples"],
    )
    def test_read_equals_scipy(self, tmp_path, payload):
        path = tmp_path / "hand.wav"
        path.write_bytes(payload)
        rate, samples = _scipy_read(path)
        audio = read_wav(path)
        assert audio.sample_rate == rate
        np.testing.assert_array_equal(audio.samples, samples)

    @pytest.mark.parametrize(
        "payload, reason",
        [
            (b"", "not a RIFF WAVE file"),
            (_F32, "not a RIFF WAVE file"),
            (_wav(_fmt(3, 2, 4), _F32)[:30], "truncated fmt chunk"),
            (_wav(_fmt(3, 2, 4), _F32)[:60], "truncated data chunk"),
            (_wav(_fmt(3, 2, 4), _F32)[:40], "no data chunk"),
            (_wav(_fmt(3, 2, 4), _F32[:-4]), "not whole frames"),
            (_wav(_fmt(1, 1, 1), b"\x80" * 8), "unsupported WAV sample format"),
            (_wav(_fmt(6, 1, 1), b"\x80" * 8), "unsupported WAV sample format"),
            (_wav(_fmt(3, 1, 2, bits=16), b"\0" * 8), "unsupported WAV sample format"),
            (_wav(_fmt(3, 0, 4), b""), "0 channels"),
            (b"RIFF\0\0\0\0WAVE" + _chunk(b"data", _F32), "no fmt chunk"),
            (b"RF64\xff\xff\xff\xffWAVE" + _chunk(b"fmt ", _fmt(3, 1, 4)), "ds64"),
            (_wav(_fmt(3, 1, 4), np.array([0.0, np.nan], "<f4").tobytes()), "non-finite"),
            (_wav(struct.pack("<HHIIHH", 3, 1, 0, 0, 4, 32), _F32), "sample rate 0"),
        ],
        ids=["empty", "headerless", "cut-in-fmt", "cut-in-data", "cut-before-data",
             "partial-frame", "pcm8", "alaw", "float16", "no-channels", "data-before-fmt",
             "rf64-without-ds64", "nan-sample", "rate-zero"],
    )
    def test_malformed_is_data_error_naming_file(self, tmp_path, payload, reason):
        path = tmp_path / "bad.wav"
        path.write_bytes(payload)
        with pytest.raises(DataError, match=re.escape(str(path)) + ".*" + reason):
            read_wav(path)

    @pytest.mark.parametrize("channels", [1, 4])
    def test_write_bytes_equal_scipy(self, tmp_path, channels):
        audio = MultichannelAudio(0.3 * np.random.default_rng(12).standard_normal((channels, 1001)),
                                  FS)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        write_wav(ours, audio)
        wavfile.write(theirs, FS, audio.samples.T.astype(np.float32))
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize(
        "frames, channels",
        [(2**30 - 1, 4), (2**30, 4), (3 * 2**30, 1), (2**30 - 13, 1)],
        ids=["rf64-4ch-one-frame-under-4gib", "rf64-4ch-4gib", "rf64-12gib",
             "riff-largest-mono"],
    )
    def test_large_header_equals_scipy(self, monkeypatch, frames, channels):
        # scipy writes the header, then skips over the samples instead of writing them
        monkeypatch.setattr(wavfile, "_array_tofile", lambda fid, data: fid.seek(data.nbytes, 1))
        buffer = io.BytesIO()
        wavfile.write(buffer, FS, np.broadcast_to(np.float32(0), (frames, channels)))
        assert wav_header(frames, channels, FS) == buffer.getvalue()


_RANGED = [_wav(_fmt(1, 2, 2), _PCM16), _wav(_fmt(1, 3, 3), _PCM24), _wav(_fmt(3, 3, 4), _F32),
           _wav(_fmt(1, 2, 2), _PCM16, rf64=True), _wav(_fmt(3, 1, 4), _F32, rf64=True)]
_RANGED_IDS = ["pcm16", "pcm24", "float32", "rf64-pcm16", "rf64-float32"]


class TestWavRanges:
    """open_wav(path).read(start, count) against the same frames of read_wav(path)."""

    @pytest.mark.parametrize("payload", _RANGED, ids=_RANGED_IDS)
    def test_range_equals_slice_of_whole_read(self, tmp_path, payload):
        path = tmp_path / "hand.wav"
        path.write_bytes(payload)
        whole = read_wav(path)
        wav = open_wav(path)
        n = wav.num_samples
        assert (wav.num_channels, n, wav.sample_rate) == (*whole.samples.shape, whole.sample_rate)
        assert wav.duration == whole.duration
        for start, count in [(0, 1), (n - 1, 1), (0, n), (1, n - 2), (n // 2, n - n // 2), (0, 0),
                             (n // 2, 0), (n, 0)]:
            got = wav.read(start, count).samples
            want = whole.samples[:, start : start + count]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("payload", _RANGED, ids=_RANGED_IDS)
    def test_out_of_range_is_data_error_naming_file(self, tmp_path, payload):
        path = tmp_path / "hand.wav"
        path.write_bytes(payload)
        wav = open_wav(path)
        n = wav.num_samples
        for start, count in [(-1, 1), (0, n + 1), (n, 1), (n + 1, 0), (n - 1, 2), (2, -1)]:
            with pytest.raises(DataError, match=re.escape(str(path)) + ".*outside"):
                wav.read(start, count)

    def test_slice_time_equals_in_memory_slice(self, tmp_path):
        # the same rounding and clipping of times to samples as MultichannelAudio's
        path = tmp_path / "a.wav"
        write_wav(path, MultichannelAudio(np.random.default_rng(15).standard_normal((3, 1000)),
                                          FS))
        whole, wav = read_wav(path), open_wav(path)
        for start, end in [(0.0, 0.01), (-0.5, 0.02), (0.03, 1.0), (0.0312, 0.0313),
                           (0.00003, 0.06249), (0.05, 0.04), (2.0, 3.0), (-2.0, -1.0)]:
            got, want = wav.slice_time(start, end), whole.slice_time(start, end)
            assert got.samples.shape == want.samples.shape
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_read_after_file_shrank_is_data_error(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, MultichannelAudio(np.zeros((2, 100)), FS))
        wav = open_wav(path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataError, match=re.escape(str(path)) + ".*truncated"):
            wav.read(90, 10)


class TestRttm:
    def test_round_trip(self, tmp_path):
        seg = Segmentation(
            "sess1",
            (Turn("alice", 0.0, 1.5), Turn("bob", 1.25, 3.0), Turn("alice", 4.0, 5.0)),
        )
        path = tmp_path / "x.rttm"
        write_rttm(path, seg)
        back = read_rttm(path)["sess1"]
        assert len(back.turns) == 3
        for a, b in zip(back.sorted_turns(), seg.sorted_turns()):
            assert a.speaker == b.speaker
            assert a.start == pytest.approx(b.start, abs=1e-3)
            assert a.end == pytest.approx(b.end, abs=2e-3)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(turns=st.lists(
        st.tuples(st.sampled_from("abc"), st.floats(0.0, 1e4),
                  st.floats(1e-6, 4e-4) | st.floats(1e-3, 50.0)),
        min_size=1, max_size=12,
    ))
    @example(turns=[("a", 1.0, 4e-4), ("b", 2.0, 1.0)])
    def test_written_file_reads_back(self, tmp_path_factory, turns):
        # a turn under 0.5 ms would be written as duration 0.000; it is left out
        seg = Segmentation("s", tuple(Turn(spk, start, start + dur) for spk, start, dur in turns))
        path = tmp_path_factory.mktemp("rttm") / "x.rttm"
        write_rttm(path, seg)
        back = read_rttm(path).get("s", Segmentation("s", ()))

        def key(t):
            return round(t.start, 3), round(t.duration, 3), t.speaker

        kept = sorted((t for t in seg.turns if t.duration > 9e-4), key=key)
        assert len(back.turns) == len(kept)
        for a, b in zip(sorted(back.turns, key=key), kept):
            assert a.speaker == b.speaker
            assert a.start == pytest.approx(b.start, abs=1e-3)
            assert a.end == pytest.approx(b.end, abs=2e-3)

    def test_multiple_sessions_in_one_file(self, tmp_path):
        segs = [
            Segmentation("s1", (Turn("a", 0, 1),)),
            Segmentation("s2", (Turn("b", 2, 3),)),
        ]
        path = tmp_path / "multi.rttm"
        write_rttm(path, segs)
        back = read_rttm(path)
        assert set(back) == {"s1", "s2"}

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.rttm"
        path.write_text(
            "; a comment\n\nSPEAKER s 1 0.000 1.000 <NA> <NA> spk <NA> <NA>\n"
        )
        assert len(read_rttm(path)["s"].turns) == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.rttm"
        path.write_text("NOTSPEAKER s 1 0 1\n")
        with pytest.raises(DataError):
            read_rttm(path)


class TestActivityFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        act = SoftActivity("s", rng.uniform(size=(4, 100)), 0.25)
        path = tmp_path / "a.act"
        write_activity(path, act)
        back = read_activity(path, "s")
        assert back.frame_step == 0.25
        np.testing.assert_allclose(back.probs, act.probs, atol=1e-7)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.act"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            read_activity(path)

    def test_truncated_payload_rejected(self, tmp_path):
        act = SoftActivity("s", np.ones((2, 50)), 0.5)
        path = tmp_path / "t.act"
        write_activity(path, act)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(DataError):
            read_activity(path)


class TestEmbeddingFormat:
    def test_round_trip_mixed_vector_counts(self, tmp_path):
        rng = np.random.default_rng(4)
        emb = EmbeddingSet(
            (
                EmbeddingEntry(0.0, 0.5, rng.standard_normal((1, 16))),
                EmbeddingEntry(0.5, 1.0, rng.standard_normal((3, 16))),
                EmbeddingEntry(1.0, 1.5, rng.standard_normal((2, 16))),
            )
        )
        path = tmp_path / "e.emb"
        write_embeddings(path, emb)
        back = read_embeddings(path)
        assert len(back) == 3
        np.testing.assert_array_equal(back.starts, emb.starts)
        np.testing.assert_array_equal(back.ends, emb.ends)
        np.testing.assert_array_equal(back.counts, emb.counts)
        np.testing.assert_allclose(back.vectors, emb.vectors, atol=1e-6)

    def test_empty_set_round_trip(self, tmp_path):
        path = tmp_path / "empty.emb"
        write_embeddings(path, EmbeddingSet(()))
        assert len(read_embeddings(path)) == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(DataError):
            read_embeddings(path)

    def test_truncation_rejected(self, tmp_path):
        emb = EmbeddingSet((EmbeddingEntry(0.0, 1.0, np.ones((2, 8))),))
        path = tmp_path / "t.emb"
        write_embeddings(path, emb)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataError):
            read_embeddings(path)

    def test_every_truncation_names_its_part(self, tmp_path):
        # magic 4 B, header 8 B, then per record a 20 B header and its vectors
        emb = EmbeddingSet((EmbeddingEntry(0.0, 0.5, np.ones((2, 3))),
                            EmbeddingEntry(0.5, 1.0, np.ones((1, 3)))))
        path = tmp_path / "cut.emb"
        write_embeddings(path, emb)
        data = path.read_bytes()
        record, vectors = "truncated embedding record header", "truncated embedding vectors"
        parts = (["bad magic"] * 4 + ["truncated embedding file header"] * 8
                 + [record] * 20 + [vectors] * 24 + [record] * 20 + [vectors] * 12)
        assert len(parts) == len(data)
        for cut, part in enumerate(parts):
            path.write_bytes(data[:cut])
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*{part}"):
                read_embeddings(path)
        path.write_bytes(data)
        assert len(read_embeddings(path)) == 2

    def test_unsorted_entries_rejected(self):
        with pytest.raises(DataError):
            EmbeddingSet(
                (
                    EmbeddingEntry(1.0, 2.0, np.ones((1, 4))),
                    EmbeddingEntry(0.0, 0.5, np.ones((1, 4))),
                )
            )

    def test_writer_bytes_equal_per_entry_writer(self, tmp_path):
        rng = np.random.default_rng(24)
        path, oracle = tmp_path / "new.emb", tmp_path / "oracle.emb"
        sizes = [0, 1, 40] + rng.integers(0, 41, size=57).tolist()
        for trial, size in enumerate(sizes):
            dim = int(rng.integers(1, 33))
            # some starts repeat, and an end may pass the next start
            starts = np.sort(np.round(rng.uniform(0.0, 30.0, size), int(rng.integers(0, 4))))
            ends = starts + rng.uniform(0.01, 2.0, size)
            entries = tuple(
                EmbeddingEntry(t0, t1, rng.standard_normal((int(rng.integers(1, 5)), dim))
                               * 10.0 ** rng.uniform(-3, 3))
                for t0, t1 in zip(starts.tolist(), ends.tolist()))
            _per_entry_write_embeddings(oracle, entries)
            write_embeddings(path, EmbeddingSet(entries))
            assert path.read_bytes() == oracle.read_bytes(), trial
            write_embeddings(path, read_embeddings(oracle))
            assert path.read_bytes() == oracle.read_bytes(), trial

    @pytest.mark.parametrize(
        "entries, message, via_file",
        [
            ([(1.0, 2.0, [[1.0]]), (0.0, 0.5, [[1.0]])],
             r"record 1 \[0.0, 0.5\): starts before the record before it", True),
            ([(0.0, 0.5, [[1.0]]), (1.0, 1.0, [[1.0]])],
             r"record 1 \[1.0, 1.0\): times must be finite", True),
            ([(np.nan, 0.5, [[1.0]])], r"record 0 \[nan, 0.5\): times must be finite", True),
            ([(0.0, 0.5, [[1.0]]), (0.5, 1.0, np.empty((0, 1)))],
             r"record 1 \[0.5, 1.0\): must carry at least one vector", True),
            ([(0.0, 0.5, [[1.0, 2.0]]), (0.5, 1.0, [[1.0]])],
             r"inconsistent vector dimensionality: \[1, 2\]", False),
            ([(0.0, 0.5, [[1.0, 2.0]]), (0.5, 1.0, [[1.0, np.inf]])],
             "embedding vectors must be finite", True),
        ],
        ids=["unsorted", "start-equals-end", "nan-start", "zero-vectors", "mixed-dims",
             "inf-vector"],
    )
    def test_array_check_breaches(self, tmp_path, entries, message, via_file):
        entries = tuple(EmbeddingEntry(t0, t1, np.asarray(v, dtype=float))
                        for t0, t1, v in entries)
        with pytest.raises(DataError, match=message):
            EmbeddingSet(entries)
        if via_file:
            path = tmp_path / "breach.emb"
            _per_entry_write_embeddings(path, entries)
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
                read_embeddings(path)


def _per_entry_write_embeddings(path, entries):
    """write_embeddings as it was when a set held one EmbeddingEntry per record,
    with no checks: the byte oracle for write_embeddings, and a writer of
    files that breach the set's check."""
    with open(path, "wb") as fh:
        fh.write(b"EMB1")
        fh.write(struct.pack("<II", entries[0].vectors.shape[1] if entries else 0, len(entries)))
        for entry in entries:
            fh.write(struct.pack("<ddI", entry.time_start, entry.time_end, entry.vectors.shape[0]))
            fh.write(entry.vectors.astype("<f4").tobytes(order="C"))


class TestMalformedHeaders:
    @pytest.mark.parametrize(
        "name, payload, reader, named",
        [
            ("short.emb", b"EMB1\x10\x00\x00", read_embeddings, "short.emb"),
            ("short.act", b"ACT1" + b"\x00" * 10, read_activity, "short.act"),
            ("onset.rttm", "SPEAKER s 1 zero 1.0 <NA> <NA> a <NA> <NA>\n", read_rttm,
             "onset.rttm:1"),
            ("duration.rttm",
             "; header\nSPEAKER s 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n"
             "SPEAKER s 1 2.0 1.5s <NA> <NA> a <NA> <NA>\n", read_rttm, "duration.rttm:3"),
            ("negative.rttm",
             "SPEAKER s 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n"
             "SPEAKER s 1 2.0 -1.0 <NA> <NA> a <NA> <NA>\n", read_rttm, "negative.rttm:2"),
            ("zero.rttm", "SPEAKER s 1 2.0 0.0 <NA> <NA> a <NA> <NA>\n", read_rttm,
             "zero.rttm:1"),
            ("sessions.json", '{"sessions": 5}', load_manifest, "sessions.json"),
            ("entry.json", '{"sessions": [5]}', load_manifest, "entry.json"),
            ("channels.json", '{"sessions": [{"session_id": "s", "channels": 5}]}',
             load_manifest, "channels.json"),
            ("emb-item.json",
             '{"sessions": [{"session_id": "s", "channels": [], "embeddings": ["x.emb"]}]}',
             load_manifest, "emb-item.json"),
            ("act-item.json", '{"sessions": [{"session_id": "s", "channels": ["a.wav"], '
             '"soft_activities": [{"tag": "nd"}]}]}', load_manifest, "act-item.json"),
            ("reference.json", '{"sessions": [{"session_id": "s", "channels": [], '
             '"reference_rttm": 5}]}', load_manifest, "reference.json"),
            ("count.emb", b"EMB1" + struct.pack("<II", 4, 1)
             + struct.pack("<ddI", 0.0, 0.5, 0xFFFFFFFF), read_embeddings, "count.emb"),
            ("empty.emb", b"EMB1" + struct.pack("<II", 4, 1) + struct.pack("<ddI", 0.0, 0.5, 0),
             read_embeddings, "empty.emb"),
            ("count.act", b"ACT1" + struct.pack("<IId", 0xFFFFFFFF, 0xFFFFFFFF, 0.5),
             read_activity, "count.act"),
            ("nan.act", b"ACT1" + struct.pack("<IId", 1, 2, 0.5)
             + np.array([0.5, np.nan], "<f4").tobytes(), read_activity, "nan.act"),
            ("latin1.rttm", b"SPEAKER s 1 0.0 1.0 <NA> <NA> \xe9 <NA> <NA>\n", read_rttm,
             "latin1.rttm"),
            ("nan.rttm", "SPEAKER s 1 nan 1.0 <NA> <NA> a <NA> <NA>\n", read_rttm, "nan.rttm:1"),
            ("missing.rttm", None, read_rttm, "missing.rttm"),
            ("missing.act", None, read_activity, "missing.act"),
            ("missing.emb", None, read_embeddings, "missing.emb"),
            ("missing.wav", None, read_wav, "missing.wav"),
            ("directory.wav", "dir", read_wav, "directory.wav"),
            ("directory.rttm", "dir", read_rttm, "directory.rttm"),
        ],
        ids=["emb-header", "act-header", "rttm-onset", "rttm-duration", "rttm-negative",
             "rttm-zero", "manifest-sessions-type", "manifest-entry-type",
             "manifest-channels-type", "manifest-embeddings-item", "manifest-activity-path",
             "manifest-reference-type",
             "emb-vector-count", "emb-no-vectors", "act-counts", "act-nan", "rttm-not-utf8",
             "rttm-nan-onset", "rttm-missing", "act-missing", "emb-missing", "wav-missing",
             "wav-directory", "rttm-directory"],
    )
    def test_data_error_names_file(self, tmp_path, name, payload, reader, named):
        path = tmp_path / name
        if payload is None:
            pass  # the file does not exist
        elif payload == "dir":
            path.mkdir()
        elif isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_bytes(payload)
        with pytest.raises(DataError, match=re.escape(named)):
            reader(path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A scratch directory and one small valid file per format, with its reader."""
    root = tmp_path_factory.mktemp("valid")
    emb = EmbeddingSet((
        EmbeddingEntry(0.0, 0.5, np.arange(6.0).reshape(2, 3)),
        EmbeddingEntry(0.5, 1.0, np.ones((1, 3))),
    ))
    write_embeddings(root / "valid.emb", emb)
    write_activity(root / "valid.act", SoftActivity("s", np.array([[0.1, 0.9], [1.0, 0.0]]), 0.5))
    write_rttm(root / "valid.rttm", Segmentation("s", (Turn("a", 0.0, 1.5), Turn("b", 1.0, 2.0))))
    write_wav(root / "valid.wav", MultichannelAudio(np.linspace(-0.5, 0.5, 40).reshape(2, 20), FS))
    readers = {"emb": read_embeddings, "act": read_activity, "rttm": read_rttm, "wav": read_wav}
    return root, {k: ((root / f"valid.{k}").read_bytes(), r) for k, r in readers.items()}


class TestCorruptFiles:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["emb", "act", "rttm", "wav"]),
        cut=st.none() | st.integers(min_value=0, max_value=200),
        flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=3),
    )
    def test_parse_or_data_error_naming_path(self, valid_files, kind, cut, flips):
        root, files = valid_files
        valid, reader = files[kind]
        data = bytearray(valid)
        for position, value in flips:
            data[position % len(data)] = value
        path = root / f"corrupt.{kind}"
        path.write_bytes(bytes(data[:cut]))
        try:
            reader(path)
        except DataError as exc:
            assert str(path) in str(exc)


class TestBoundaryUtilities:
    def test_erode_shrinks_and_drops(self):
        seg = Segmentation("s", (Turn("a", 0.0, 2.0), Turn("b", 3.0, 3.5)))
        out = erode_bounds(seg, 0.3)
        assert len(out.turns) == 1
        assert out.turns[0].start == pytest.approx(0.3)
        assert out.turns[0].end == pytest.approx(1.7)

    def test_extend_clamps_to_session(self):
        seg = Segmentation("s", (Turn("a", 0.2, 9.9),))
        out = extend_segments(seg, 0.5, session_end=10.0)
        assert out.turns[0].start == 0.0
        assert out.turns[0].end == 10.0

    def test_erode_then_extend_identity_interior(self):
        seg = Segmentation("s", (Turn("a", 5.0, 8.0),))
        out = extend_segments(erode_bounds(seg, 0.5), 0.5, session_end=100.0)
        assert out.turns[0].start == pytest.approx(5.0)
        assert out.turns[0].end == pytest.approx(8.0)

    def test_binarize_run_extraction(self):
        act = SoftActivity("s", np.array([[0.0, 0.9, 0.9, 0.1, 0.8]]), 0.5)
        seg = binarize(act, 0.5)
        spans = [(t.start, t.end) for t in seg.sorted_turns()]
        assert spans == [(0.5, 1.5), (2.0, 2.5)]

    def test_binarize_rasterize_round_trip(self):
        rng = np.random.default_rng(5)
        probs = (rng.uniform(size=(3, 40)) > 0.5).astype(float)
        act = SoftActivity("s", probs, 0.25)
        seg = binarize(act)
        assert seg.speakers == [f"spk{i:02d}" for i in range(3)]
        back = segmentation_to_activity(seg, 0.25, num_frames=40)
        np.testing.assert_array_equal(back.probs, probs)

    def test_active_speaker_count(self):
        act = SoftActivity("s", np.array([[0.9, 0.0], [0.2, 0.3], [0.0, 0.6]]), 0.5)
        assert act.active_speaker_count(0.5) == 2

    @pytest.mark.parametrize("frames,gap,want", [
        ([("a", 0.0, 0.5), ("a", 0.5, 1.0)], 0.0, [["a", 0.0, 1.0]]),  # touching
        ([("a", 0.0, 0.5), ("a", 0.7, 1.0)], 0.25, [["a", 0.0, 1.0]]),  # within the gap
        ([("a", 0.0, 0.5), ("a", 0.8, 1.0)], 0.25, [["a", 0.0, 0.5], ["a", 0.8, 1.0]]),
        ([("a", 0.0, 2.0), ("a", 0.5, 1.0)], 0.0, [["a", 0.0, 2.0]]),  # overlapping
        ([("b", 1.0, 1.5), ("a", 0.5, 1.0), ("a", 0.0, 0.5), ("b", 0.0, 0.5)], 0.0,
         [["a", 0.0, 1.0], ["b", 0.0, 0.5], ["b", 1.0, 1.5]]),  # two speakers, unsorted
        ([], 0.0, []),
    ], ids=["touching", "within-gap", "beyond-gap", "overlapping", "multi-speaker", "empty"])
    def test_merge_intervals(self, frames, gap, want):
        assert merge_intervals(frames, gap) == want
        merged = Segmentation("s", tuple(Turn(*f) for f in frames)).merged_per_speaker(gap)
        assert merged.turns == tuple(Turn(*m) for m in want)
