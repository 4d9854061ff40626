"""Timestamped speaker-embedding sets ingested from external extractors."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from farfield.errors import DataError
from farfield.segments import open_input, read_exact


@dataclass(frozen=True)
class EmbeddingEntry:
    time_start: float
    time_end: float
    vectors: np.ndarray  # (n_vectors, dim)

    def __post_init__(self):
        vectors = np.atleast_2d(np.asarray(self.vectors, dtype=np.float64))
        if not self.time_start < self.time_end:
            raise DataError("entry time_start must precede time_end")
        if vectors.shape[0] < 1:
            raise DataError("entry must carry at least one vector")
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class EmbeddingSet:
    """Entries sorted by start time; multiple vectors per entry mark mixed speech."""

    entries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        entries = tuple(self.entries)
        dims = {e.dim for e in entries}
        if len(dims) > 1:
            raise DataError(f"inconsistent vector dimensionality: {sorted(dims)}")
        starts = [e.time_start for e in entries]
        if starts != sorted(starts):
            raise DataError("entries must be sorted by time_start")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        if not self.entries:
            raise DataError("empty embedding set has no dimensionality")
        return self.entries[0].dim


_EMB_MAGIC = b"EMB1"


def write_embeddings(path, emb: EmbeddingSet) -> None:
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<II", emb.dim if emb.entries else 0, len(emb.entries)))
        for entry in emb.entries:
            fh.write(struct.pack("<ddI", entry.time_start, entry.time_end, entry.vectors.shape[0]))
            fh.write(entry.vectors.astype("<f4").tobytes(order="C"))


def read_embeddings(path) -> EmbeddingSet:
    """Read an EMB1 file; its vectors must all be finite."""
    with open_input(path, "embedding file", "rb") as fh:
        magic = fh.read(4)
        if magic != _EMB_MAGIC:
            raise DataError(f"{path}: not an embedding file (bad magic {magic!r})")
        dim, count = struct.unpack("<II", read_exact(fh, 8, path, "embedding file header"))
        headers, payloads = [], []
        for _ in range(count):
            headers.append(struct.unpack("<ddI", read_exact(fh, 20, path, "embedding record header")))
            payloads.append(read_exact(fh, 4 * dim * headers[-1][2], path, "embedding vectors"))
    values = np.frombuffer(b"".join(payloads), dtype="<f4").astype(np.float64)
    if not np.isfinite(values).all():  # once per file, not once per entry
        raise DataError(f"{path}: embedding vectors must be finite")
    entries, lo = [], 0
    try:
        for t0, t1, n_vec in headers:
            entries.append(EmbeddingEntry(t0, t1, values[lo : lo + n_vec * dim].reshape(n_vec, dim)))
            lo += n_vec * dim
        return EmbeddingSet(tuple(entries))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
