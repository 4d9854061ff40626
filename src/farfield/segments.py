"""Speaker-labeled segmentations, soft activity matrices, and their file formats."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from farfield.errors import DataError, NumericalError


@dataclass(frozen=True)
class Turn:
    speaker: str
    start: float
    end: float

    def __post_init__(self):
        if not -math.inf < self.start < self.end < math.inf:
            raise DataError(f"turn [{self.start}, {self.end}) must be finite and non-empty")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Segmentation:
    """Speaker turns for one session; turns may overlap across speakers."""

    session_id: str
    turns: tuple = field(default_factory=tuple)

    def __post_init__(self):
        turns = tuple(
            t if isinstance(t, Turn) else Turn(*t) for t in self.turns
        )
        object.__setattr__(self, "turns", turns)

    @property
    def speakers(self) -> list:
        return sorted({t.speaker for t in self.turns})

    @property
    def num_speakers(self) -> int:
        return len({t.speaker for t in self.turns})

    def total_speech(self) -> float:
        return sum(t.duration for t in self.turns)

    def extent(self) -> float:
        return max((t.end for t in self.turns), default=0.0)

    def sorted_turns(self) -> list:
        return sorted(self.turns, key=lambda t: (t.start, t.end, t.speaker))

    def relabeled(self, mapping: dict) -> "Segmentation":
        return Segmentation(
            self.session_id,
            tuple(Turn(mapping.get(t.speaker, t.speaker), t.start, t.end) for t in self.turns),
        )

    def merged_per_speaker(self, gap: float = 0.0) -> "Segmentation":
        """Merge same-speaker turns that touch or are separated by <= gap."""
        merged = merge_intervals(((t.speaker, t.start, t.end) for t in self.turns), gap)
        return Segmentation(self.session_id, tuple(Turn(*m) for m in merged))


def merge_intervals(intervals, gap: float = 0.0) -> list:
    """Merge (speaker, start, end) intervals of one speaker that touch or are
    separated by <= gap; returns [speaker, start, end] lists, sorted."""
    merged = []
    for spk, start, end in sorted(intervals):
        if merged and merged[-1][0] == spk and start <= merged[-1][2] + gap:
            merged[-1][2] = max(merged[-1][2], end)
        else:
            merged.append([spk, start, end])
    return merged


@dataclass(frozen=True)
class SoftActivity:
    """Per-speaker, per-frame speech probabilities in [0, 1]."""

    session_id: str
    probs: np.ndarray  # (speakers, frames)
    frame_step: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise DataError("probs must be (speakers, frames)")
        if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
            raise DataError("activity probabilities must be finite and lie in [0, 1]")
        if not 0.0 < self.frame_step < math.inf:
            raise DataError("frame_step must be positive and finite")
        object.__setattr__(self, "probs", probs)

    @property
    def num_speakers(self) -> int:
        return self.probs.shape[0]

    @property
    def num_frames(self) -> int:
        return self.probs.shape[1]

    def active_speaker_count(self, threshold: float = 0.5) -> int:
        """Number of speakers with at least one frame at or above threshold."""
        if self.probs.size == 0:
            return 0
        return int(np.sum((self.probs >= threshold).any(axis=1)))


# ---------------------------------------------------------------------------
# timeline sweep and boundary utilities


def sweep(*segmentations):
    """Elementary regions of the joint timeline of several segmentations.

    Sorts the start and end events of every turn once and yields
    (left, right, active) for each span between consecutive distinct
    boundaries, where active holds, per segmentation, the frozenset of its
    speakers with a turn covering [left, right). Overlapping turns of one
    speaker count once.
    """
    events = sorted(
        ((time, k, t.speaker, delta) for k, seg in enumerate(segmentations)
         for t in seg.turns for time, delta in ((t.start, 1), (t.end, -1))),
        key=itemgetter(0),
    )
    open_turns = [{} for _ in segmentations]  # speaker -> number of turns open
    for (time, k, speaker, delta), following in zip(events, events[1:]):
        counts = open_turns[k]
        counts[speaker] = counts.get(speaker, 0) + delta
        if not counts[speaker]:
            del counts[speaker]
        if following[0] != time:
            yield time, following[0], tuple(map(frozenset, open_turns))


def coactivity_matrix(regions, rows: list, cols: list) -> np.ndarray:
    """Total duration that each (row label, column label) pair is active together,
    summed over (duration, active row labels, active column labels) regions."""
    matrix = np.zeros((len(rows), len(cols)))
    row_of = {s: i for i, s in enumerate(rows)}
    col_of = {s: i for i, s in enumerate(cols)}
    for duration, active_rows, active_cols in regions:
        for r in active_rows:
            for c in active_cols:
                matrix[row_of[r], col_of[c]] += duration
    return matrix


def linear_sum_assignment(cost) -> tuple:
    """Minimum-cost one-to-one assignment of rows to columns: (rows, cols) index arrays.

    The shortest augmenting path method of scipy.optimize.linear_sum_assignment
    (Crouse, IEEE TAES 2016), ported step for step so that ties resolve the
    same way: the columns are scanned from a reversed list, an unassigned
    column wins at equal path cost, and a tall matrix is solved transposed and
    its pairs sorted by column. A cost that is not finite is a NumericalError.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise DataError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise NumericalError("assignment cost matrix holds a non-finite value")
    transpose = cost.shape[1] < cost.shape[0]
    rows = (cost.T if transpose else cost).tolist()
    nr, nc = len(rows), len(rows[0]) if rows else 0
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    path = [-1] * nc
    for cur_row in range(nr):
        remaining = list(range(nc - 1, -1, -1))
        shortest = [math.inf] * nc
        rows_seen, cols_seen = {cur_row}, []
        i, min_val, sink = cur_row, 0.0, -1
        while sink == -1:
            index, lowest = -1, math.inf
            row, u_i = rows[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                rows_seen.add(i)
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then augment along the path back to cur_row
        u[cur_row] += min_val
        for i in rows_seen - {cur_row}:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return (np.array([col4row[c] for c in order], dtype=np.intp),
                np.array(order, dtype=np.intp))
    return np.arange(nr, dtype=np.intp), np.array(col4row, dtype=np.intp)


def positive_matching(matrix: np.ndarray, rows: list, cols: list) -> dict:
    """Row label -> column label of a max-weight one-to-one matching (Hungarian
    method); pairs of zero weight stay unmatched."""
    picked = zip(*linear_sum_assignment(-matrix))
    return {rows[r]: cols[c] for r, c in picked if matrix[r, c] > 0}


def erode_bounds(seg: Segmentation, margin: float) -> Segmentation:
    """Shrink every turn inward by margin; turns of length <= 2*margin are dropped."""
    if margin < 0:
        raise DataError("margin must be >= 0")
    kept = [
        Turn(t.speaker, t.start + margin, t.end - margin)
        for t in seg.turns
        if t.duration > 2.0 * margin
    ]
    return Segmentation(seg.session_id, tuple(kept))


def extend_segments(seg: Segmentation, margin: float, session_end: float) -> Segmentation:
    """Widen every turn by margin on both sides, clamped to [0, session_end]."""
    if margin < 0:
        raise DataError("margin must be >= 0")
    turns = [
        Turn(t.speaker, max(0.0, t.start - margin), min(session_end, t.end + margin))
        for t in seg.turns
    ]
    return Segmentation(seg.session_id, tuple(turns))


def check_threshold(threshold: float) -> None:
    """A threshold on speech-activity probabilities lies in (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be in (0, 1), got {threshold}")


def binarize(activity: SoftActivity, threshold: float = 0.5) -> Segmentation:
    """Threshold a soft activity into turns, one per run of active frames."""
    check_threshold(threshold)
    turns = []
    step = activity.frame_step
    for s in range(activity.num_speakers):
        active = activity.probs[s] >= threshold
        # run boundaries via diff of padded boolean
        edges = np.flatnonzero(np.diff(np.concatenate(([0], active.view(np.int8), [0]))))
        for i in range(0, len(edges), 2):
            turns.append(Turn(f"spk{s:02d}", edges[i] * step, edges[i + 1] * step))
    return Segmentation(activity.session_id, tuple(turns))


def segmentation_to_activity(
    seg: Segmentation,
    frame_step: float,
    num_frames: int | None = None,
    speakers: list | None = None,
) -> SoftActivity:
    """Rasterize a segmentation into a binary activity matrix."""
    speakers = speakers if speakers is not None else seg.speakers
    if num_frames is None:
        num_frames = int(np.ceil(seg.extent() / frame_step))
    probs = np.zeros((len(speakers), num_frames))
    index = {spk: i for i, spk in enumerate(speakers)}
    for t in seg.turns:
        if t.speaker not in index:
            continue
        i0 = int(np.floor(t.start / frame_step + 0.5))
        i1 = int(np.floor(t.end / frame_step + 0.5))
        probs[index[t.speaker], max(0, i0) : min(num_frames, max(i1, i0 + 1))] = 1.0
    return SoftActivity(seg.session_id, probs, frame_step)


# ---------------------------------------------------------------------------
# RTTM I/O


def write_rttm(path, segs) -> None:
    """Write times with 3 decimals; a turn under 0.5 ms, whose duration would
    read back as 0.000, is left out so that read_rttm accepts every file."""
    if isinstance(segs, Segmentation):
        segs = [segs]
    with open(path, "w") as fh:
        for seg in segs:
            for t in seg.sorted_turns():
                duration = f"{t.duration:.3f}"
                if duration == "0.000":
                    continue
                fh.write(
                    f"SPEAKER {seg.session_id} 1 {t.start:.3f} {duration} "
                    f"<NA> <NA> {t.speaker} <NA> <NA>\n"
                )


def open_input(path, what: str, mode: str = "r"):
    """open(path, mode); an OSError becomes a DataError naming the file."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None


def read_rttm(path) -> dict:
    """Read an RTTM file into {session_id: Segmentation}."""
    by_session = {}
    try:
        with open_input(path, "RTTM file") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: RTTM is not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        fields = line.split()
        if not fields or fields[0].startswith(";"):
            continue
        if fields[0] != "SPEAKER" or len(fields) < 8:
            raise DataError(f"{path}:{lineno}: malformed RTTM line")
        try:
            onset = float(fields[3])
            turn = Turn(fields[7], onset, onset + float(fields[4]))
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: bad RTTM onset or duration: {exc}") from None
        by_session.setdefault(fields[1], []).append(turn)
    return {sid: Segmentation(sid, tuple(turns)) for sid, turns in by_session.items()}


# ---------------------------------------------------------------------------
# binary SoftActivity format: "ACT1" header + f32 row-major matrix

_ACT_MAGIC = b"ACT1"


def read_exact(fh, size: int, path, what: str) -> bytes:
    """Read size bytes of a binary file, checked first against the bytes left in it."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{path}: truncated {what}")
    return fh.read(size)


def write_activity(path, activity: SoftActivity) -> None:
    with open(path, "wb") as fh:
        fh.write(_ACT_MAGIC)
        fh.write(struct.pack("<IId", activity.num_speakers, activity.num_frames, activity.frame_step))
        fh.write(activity.probs.astype("<f4").tobytes(order="C"))


def read_activity(path, session_id: str = "") -> SoftActivity:
    with open_input(path, "soft-activity file", "rb") as fh:
        magic = fh.read(4)
        if magic != _ACT_MAGIC:
            raise DataError(f"{path}: not a soft-activity file (bad magic {magic!r})")
        header = read_exact(fh, 16, path, "soft-activity header")
        n_spk, n_frames, step = struct.unpack("<IId", header)
        payload = read_exact(fh, 4 * n_spk * n_frames, path, "soft-activity payload")
        probs = np.frombuffer(payload, dtype="<f4").reshape(n_spk, n_frames).astype(np.float64)
    try:
        return SoftActivity(session_id or str(path), probs, step)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
