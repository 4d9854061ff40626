"""Clustering-based diarization and speaker counting over ingested embeddings.

Stages: single-speaker frame selection, embedding concatenation,
dimensionality reduction, GMM clustering, cluster merge/reject, greedy
attraction of mixed frames, turn emission.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from farfield.embeddings import EmbeddingEntry, EmbeddingSet
from farfield.errors import DataError, NumericalError
from farfield.segments import Segmentation, Turn

UNASSIGNED = -1

_VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class DiarizeConfig:
    merge_cos_threshold: float = 0.75
    reject_thr: float = 10.0
    max_clusters: int = 8
    reduced_dim: int = 12
    frame_step: float = 0.5
    single_speaker_cos_threshold: float = 0.6
    reduction: str = "linear"  # or "external" for pre-reduced vectors

    def __post_init__(self):
        if not -1.0 < self.merge_cos_threshold < 1.0:
            raise DataError("merge_cos_threshold must be in (-1, 1)")
        if self.reject_thr <= 0:
            raise DataError("reject_thr must be positive")
        if self.max_clusters < 1 or self.reduced_dim < 1:
            raise DataError("max_clusters and reduced_dim must be >= 1")
        if self.reduction not in ("linear", "external"):
            raise DataError(f"unknown reduction method {self.reduction!r}")


@dataclass(frozen=True)
class ClusterSet:
    """Frame-to-cluster assignments plus per-cluster statistics.

    assignments hold a cluster id per single-speaker frame, or UNASSIGNED.
    """

    assignments: np.ndarray
    centroids: np.ndarray  # (clusters, dim)
    sizes: np.ndarray
    ll_history: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "assignments", np.asarray(self.assignments, dtype=np.int64))
        object.__setattr__(self, "centroids", np.asarray(self.centroids, dtype=np.float64))
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=np.int64))


def _unit(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    return vectors / np.maximum(norms, 1e-300)


def select_single_speaker_frames(emb: EmbeddingSet, threshold: float):
    """Split entries into single-speaker (all pairwise cosines > threshold) and mixed.

    Single entries are collapsed to their renormalized mean vector.
    """
    single, mixed = [], []
    for entry in emb.entries:
        vecs = _unit(entry.vectors)
        sims = vecs @ vecs.T
        iu = np.triu_indices(len(vecs), k=1)
        if len(iu[0]) == 0 or np.all(sims[iu] > threshold):
            mean = _unit(entry.vectors.mean(axis=0))
            single.append(EmbeddingEntry(entry.time_start, entry.time_end, mean[None, :]))
        else:
            mixed.append(entry)
    return (
        EmbeddingSet(tuple(single), source_tag=emb.source_tag),
        EmbeddingSet(tuple(mixed), source_tag=emb.source_tag),
    )


def concat_normalize(emb_a: EmbeddingSet, emb_b: EmbeddingSet) -> EmbeddingSet:
    """Concatenate two embedding streams entry-by-entry and renormalize."""
    if len(emb_a) != len(emb_b):
        raise DataError("embedding timelines differ in length")
    entries = []
    for ea, eb in zip(emb_a.entries, emb_b.entries):
        if (ea.time_start, ea.time_end) != (eb.time_start, eb.time_end):
            raise DataError(
                f"timeline mismatch at [{ea.time_start}, {ea.time_end}) vs "
                f"[{eb.time_start}, {eb.time_end})"
            )
        if ea.vectors.shape[0] != eb.vectors.shape[0]:
            raise DataError("vector counts differ within an entry")
        joined = np.concatenate([ea.vectors, eb.vectors], axis=1)
        norms = np.linalg.norm(joined, axis=1)
        if np.any(norms == 0):
            raise DataError("zero-norm concatenated embedding")
        entries.append(EmbeddingEntry(ea.time_start, ea.time_end, joined / norms[:, None]))
    return EmbeddingSet(tuple(entries), source_tag=f"{emb_a.source_tag}+{emb_b.source_tag}")


def reduce_dim(vectors: np.ndarray, target_dim: int, method: str = "linear"):
    """Project vectors to target_dim: 'linear' is PCA, 'external' passes through.

    Returns the projected vectors and the projection itself, which maps
    further vectors into the same space.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if method == "external":
        return vectors, lambda v: v
    if method != "linear":
        raise DataError(f"unknown reduction method {method!r}")
    if target_dim > vectors.shape[1]:
        raise DataError("target_dim exceeds input dimensionality")
    if vectors.shape[0] < target_dim + 1:
        raise DataError("need at least target_dim + 1 samples for linear reduction")
    center = vectors.mean(axis=0)
    _, svals, vt = np.linalg.svd(vectors - center, full_matrices=False)
    rank = int(np.sum(svals > 1e-12 * max(svals[0], 1e-300)))
    if rank < target_dim:
        warnings.warn(
            f"input rank {rank} below target_dim {target_dim}; padding with zeros",
            stacklevel=2,
        )
        vt[rank:target_dim] = 0.0

    def project(v):
        return (v - center) @ vt[:target_dim].T

    return project(vectors), project


def _kmeans_pp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = vectors.shape[0]
    means = np.empty((k, vectors.shape[1]))
    means[0] = vectors[rng.integers(n)]
    dist2 = np.sum((vectors - means[0]) ** 2, axis=1)
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0:
            means[i:] = vectors[rng.integers(n, size=k - i)]
            break
        means[i] = vectors[rng.choice(n, p=dist2 / total)]
        dist2 = np.minimum(dist2, np.sum((vectors - means[i]) ** 2, axis=1))
    return means


def gmm_cluster(
    vectors: np.ndarray,
    cfg: DiarizeConfig,
    seed: int,
    max_iterations: int = 100,
    tol: float = 1e-7,
) -> ClusterSet:
    """Fit a diagonal-covariance Gaussian mixture by EM and hard-assign points."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n, dim = vectors.shape
    k = cfg.max_clusters
    if n < k:
        raise DataError(f"need at least {k} points for {k}-component clustering")
    rng = np.random.default_rng(seed)
    means = _kmeans_pp_init(vectors, k, rng)
    variances = np.full((k, dim), max(vectors.var(axis=0).mean(), _VAR_FLOOR))
    weights = np.full(k, 1.0 / k)
    ll_history = []
    for _ in range(max_iterations):
        # E-step in log domain
        log_prob = -0.5 * (
            np.sum(np.log(2.0 * np.pi * variances), axis=1)[None, :]
            + np.sum((vectors[:, None, :] - means[None]) ** 2 / variances[None], axis=2)
        )
        log_joint = log_prob + np.log(np.maximum(weights, 1e-300))[None, :]
        shift = log_joint.max(axis=1, keepdims=True)
        log_norm = shift[:, 0] + np.log(np.exp(log_joint - shift).sum(axis=1))
        ll = float(log_norm.mean())
        resp = np.exp(log_joint - log_norm[:, None])
        if ll_history and ll < ll_history[-1] - 1e-9:
            raise NumericalError("EM log-likelihood decreased")
        converged = bool(ll_history) and ll - ll_history[-1] < tol
        ll_history.append(ll)
        if converged:
            break
        # M-step with variance floor
        mass = resp.sum(axis=0)
        nonempty = mass > 1e-12
        weights = np.where(nonempty, mass / n, 0.0)
        safe_mass = np.maximum(mass, 1e-12)
        means = np.where(
            nonempty[:, None], (resp.T @ vectors) / safe_mass[:, None], means
        )
        second = (resp.T @ (vectors**2)) / safe_mass[:, None]
        variances = np.where(
            nonempty[:, None], np.maximum(second - means**2, _VAR_FLOOR), variances
        )
    assignments = np.argmax(
        np.log(np.maximum(weights, 1e-300))[None, :]
        - 0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)[None, :]
        - 0.5 * np.sum((vectors[:, None, :] - means[None]) ** 2 / variances[None], axis=2),
        axis=1,
    )
    # drop empty components, compacting ids
    occupied = np.unique(assignments)
    remap = {int(old): new for new, old in enumerate(occupied)}
    assignments = np.array([remap[int(a)] for a in assignments], dtype=np.int64)
    centroids = means[occupied]
    sizes = np.bincount(assignments, minlength=len(occupied))
    return ClusterSet(
        assignments=assignments,
        centroids=centroids,
        sizes=sizes,
        ll_history=tuple(ll_history),
    )


def merge_reject_clusters(clusters: ClusterSet, cfg: DiarizeConfig) -> ClusterSet:
    """Merge centroids by cosine similarity, then reject undersized clusters.

    The highest-similarity pair merges first, repeatedly, while similarity
    exceeds the threshold. Clusters smaller than max_size / reject_thr lose
    their frames to UNASSIGNED.
    """
    centroids = [c.copy() for c in clusters.centroids]
    sizes = list(int(s) for s in clusters.sizes)
    assignments = clusters.assignments.copy()
    active = list(range(len(sizes)))

    while len(active) > 1:
        units = _unit(np.array([centroids[i] for i in active]))
        sims = units @ units.T
        np.fill_diagonal(sims, -np.inf)
        flat = np.argmax(sims)
        i_loc, j_loc = divmod(flat, len(active))
        if sims[i_loc, j_loc] <= cfg.merge_cos_threshold:
            break
        i, j = sorted((active[i_loc], active[j_loc]))
        total = sizes[i] + sizes[j]
        merged = (sizes[i] * centroids[i] + sizes[j] * centroids[j]) / total
        centroids[i] = _unit(merged)
        sizes[i] = total
        sizes[j] = 0
        assignments[assignments == j] = i
        active.remove(j)

    max_size = max((sizes[i] for i in active), default=0)
    rejected = set(range(len(sizes))) - set(active)
    for i in active:
        if sizes[i] < max_size / cfg.reject_thr:
            rejected.add(i)
            assignments[assignments == i] = UNASSIGNED
            sizes[i] = 0

    # compact surviving cluster ids
    survivors = [i for i in range(len(sizes)) if i not in rejected]
    remap = {old: new for new, old in enumerate(survivors)}
    new_assign = np.array(
        [remap.get(int(a), UNASSIGNED) for a in assignments], dtype=np.int64
    )
    return ClusterSet(
        assignments=new_assign,
        centroids=np.array([centroids[i] for i in survivors])
        if survivors
        else np.empty((0, clusters.centroids.shape[1])),
        sizes=np.array([sizes[i] for i in survivors], dtype=np.int64),
        ll_history=clusters.ll_history,
    )


def count_speakers(clusters: ClusterSet) -> int:
    return len(clusters.sizes)


def _nearest_centroid(vector: np.ndarray, centroids: np.ndarray, sizes: np.ndarray) -> int:
    sims = _unit(centroids) @ _unit(vector)
    best = np.flatnonzero(sims >= sims.max() - 1e-12)
    if len(best) > 1:
        # tie-break toward the larger cluster, then the lower id
        best = sorted(best, key=lambda i: (-sizes[i], i))
    return int(best[0])


def assign_mixed_frames(
    clusters: ClusterSet,
    single: EmbeddingSet,
    mixed: EmbeddingSet,
    cfg: DiarizeConfig,
    session_id: str = "session",
    reduced_single: np.ndarray | None = None,
) -> Segmentation:
    """Attract mixed and unassigned frames to nearest centroids; emit turns.

    Centroid geometry lives in the clustering space; mixed vectors must be
    provided in that same space (see diarize_embeddings for the projection
    plumbing).
    """
    if not len(clusters.sizes):
        raise DataError("no surviving clusters to attract frames to")
    centroids = clusters.centroids
    sizes = clusters.sizes
    frames = []
    for idx, entry in enumerate(single.entries):
        cid = clusters.assignments[idx]
        if cid == UNASSIGNED:
            vec = reduced_single[idx] if reduced_single is not None else entry.vectors[0]
            cid = _nearest_centroid(vec, centroids, sizes)
        frames.append(Turn(f"spk{cid:02d}", entry.time_start, entry.time_end))
    for entry in mixed.entries:
        for cid in {_nearest_centroid(vec, centroids, sizes) for vec in entry.vectors}:
            frames.append(Turn(f"spk{cid:02d}", entry.time_start, entry.time_end))
    merged = Segmentation(session_id, tuple(frames)).merged_per_speaker(gap=0.5 * cfg.frame_step)
    turns = sorted(merged.turns, key=lambda t: (t.start, t.speaker))
    return Segmentation(session_id, tuple(turns))


def diarize_embeddings(
    emb: EmbeddingSet,
    cfg: DiarizeConfig,
    seed: int,
    session_id: str = "session",
    nonspeech_clusters: frozenset = frozenset(),
):
    """Full clustering pipeline over one embedding stream.

    Returns (Segmentation, speaker_count, ClusterSet). nonspeech_clusters
    holds externally flagged cluster ids removed before frame attraction.
    """
    single, mixed = select_single_speaker_frames(emb, cfg.single_speaker_cos_threshold)
    if len(single) < cfg.max_clusters:
        raise DataError(
            f"only {len(single)} single-speaker frames; need >= {cfg.max_clusters}"
        )
    raw = np.vstack([e.vectors[0] for e in single.entries])
    target = min(cfg.reduced_dim, raw.shape[1])
    reduced, project = reduce_dim(raw, target, cfg.reduction)
    clusters = gmm_cluster(reduced, cfg, seed)
    clusters = merge_reject_clusters(clusters, cfg)
    if nonspeech_clusters:
        keep = [i for i in range(len(clusters.sizes)) if i not in nonspeech_clusters]
        remap = {old: new for new, old in enumerate(keep)}
        assignments = np.array(
            [remap.get(int(a), UNASSIGNED) for a in clusters.assignments], dtype=np.int64
        )
        clusters = replace(
            clusters,
            assignments=assignments,
            centroids=clusters.centroids[keep],
            sizes=clusters.sizes[keep],
        )
    # mixed vectors projected into the clustering space by the same reduction
    mixed = EmbeddingSet(
        tuple(EmbeddingEntry(e.time_start, e.time_end, project(e.vectors)) for e in mixed.entries),
        source_tag=mixed.source_tag,
    )
    seg = assign_mixed_frames(
        clusters, single, mixed, cfg, session_id, reduced_single=reduced
    )
    return seg, count_speakers(clusters), clusters
