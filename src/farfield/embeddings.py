"""Timestamped speaker-embedding sets ingested from external extractors."""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from farfield.errors import DataError
from farfield.segments import open_input, read_exact


class EmbeddingEntry(NamedTuple):
    """One record, for building an EmbeddingSet record by record; the set checks it."""

    time_start: float
    time_end: float
    vectors: np.ndarray  # (n_vectors, dim), or one vector


class EmbeddingSet:
    """Embedding records sorted by start time, as arrays.

    Record i spans [starts[i], ends[i]) and owns counts[i] rows of vectors
    (float64, one row per vector), after the rows of the records before it;
    more than one vector marks mixed speech. EmbeddingSet(entries) takes a
    sequence of EmbeddingEntry records, from_arrays the four arrays as they are.
    """

    def __init__(self, entries=()):
        blocks = [np.atleast_2d(np.asarray(e.vectors, dtype=np.float64)) for e in entries]
        dims = {block.shape[1] for block in blocks}
        if len(dims) > 1:
            raise DataError(f"inconsistent vector dimensionality: {sorted(dims)}")
        times = np.array([(e.time_start, e.time_end) for e in entries], dtype=np.float64)
        counts = np.array([len(block) for block in blocks], dtype=np.int64)
        self._set_arrays(*times.reshape(-1, 2).T, counts,
                         np.concatenate(blocks) if blocks else np.empty((0, 0)))

    @classmethod
    def from_arrays(cls, starts, ends, counts, vectors) -> EmbeddingSet:
        emb = cls.__new__(cls)
        emb._set_arrays(starts, ends, counts, vectors)
        return emb

    def _set_arrays(self, starts, ends, counts, vectors):
        """The one check of a set: a breach is a DataError, naming the record at fault."""
        for bad, rule in ((~(np.isfinite(starts) & np.isfinite(ends) & (starts < ends)),
                           "times must be finite with time_start < time_end"),
                          (counts < 1, "must carry at least one vector"),
                          (np.append(False, starts[1:] < starts[:-1]),
                           "starts before the record before it")):
            if bad.any():
                i = int(np.argmax(bad))
                raise DataError(f"record {i} [{starts[i]}, {ends[i]}): {rule}")
        if len(starts) and vectors.shape[1] < 1:
            raise DataError("vector dimension must be >= 1, got 0")
        if not np.isfinite(vectors).all():
            raise DataError("embedding vectors must be finite")
        self.starts, self.ends, self.counts, self.vectors = starts, ends, counts, vectors

    def __len__(self) -> int:
        return len(self.starts)

    def rows(self, records) -> np.ndarray:
        """The vectors of the given records (a mask, or row indices), in record order."""
        mask = np.zeros(len(self), dtype=bool)
        mask[records] = True
        return self.vectors[np.repeat(mask, self.counts)]


_EMB_MAGIC = b"EMB1"
_RECORD = struct.Struct("<ddI")  # time_start, time_end, vector count


def write_embeddings(path, emb: EmbeddingSet) -> None:
    rows = emb.vectors.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC + struct.pack("<II", rows.shape[1] if len(emb) else 0, len(emb)))
        for t0, t1, n, hi in zip(emb.starts.tolist(), emb.ends.tolist(), emb.counts.tolist(),
                                 np.cumsum(emb.counts).tolist()):
            fh.write(_RECORD.pack(t0, t1, n) + rows[hi - n : hi].tobytes())


def read_embeddings(path) -> EmbeddingSet:
    """Read an EMB1 file into an EmbeddingSet; a breach of its check names the file.

    The file is read once; the record headers are walked in that buffer and
    every record's vectors become one float array.
    """
    with open_input(path, "embedding file", "rb") as fh:
        magic = fh.read(4)
        if magic != _EMB_MAGIC:
            raise DataError(f"{path}: not an embedding file (bad magic {magic!r})")
        dim, count = struct.unpack("<II", read_exact(fh, 8, path, "embedding file header"))
        data = memoryview(fh.read())
    headers, payloads, pos = [], [], 0
    for _ in range(count):
        if _RECORD.size > len(data) - pos:
            raise DataError(f"{path}: truncated embedding record header")
        headers.append(_RECORD.unpack_from(data, pos))
        pos += _RECORD.size
        size = 4 * dim * headers[-1][2]
        if size > len(data) - pos:
            raise DataError(f"{path}: truncated embedding vectors")
        payloads.append(data[pos : pos + size])
        pos += size
    starts, ends, counts = np.array(headers, dtype=np.float64).reshape(count, 3).T
    values = np.frombuffer(b"".join(payloads), dtype="<f4").astype(np.float64)
    try:
        return EmbeddingSet.from_arrays(starts, ends, counts.astype(np.int64),
                                        values.reshape(int(counts.sum()), dim))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
