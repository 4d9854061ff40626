"""Clustering-based diarization and speaker counting over ingested embeddings.

Stages: single-speaker frame selection, dimensionality reduction, GMM
clustering, cluster merge/reject, greedy attraction of mixed frames, turn
emission.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from farfield.embeddings import EmbeddingEntry, EmbeddingSet
from farfield.errors import DataError, NumericalError, check_seed
from farfield.segments import Segmentation, Turn, merge_intervals

UNASSIGNED = -1

_VAR_FLOOR = 1e-6
# GMM EM sweeps at most, and the least gain in mean log-likelihood per sweep
_GMM_ITERATIONS = 100
_GMM_TOL = 1e-7


@dataclass(frozen=True)
class DiarizeConfig:
    merge_cos_threshold: float = 0.75
    reject_thrs: tuple = (8.0, 10.0, 14.0)  # one grid cell per entry
    max_clusters: int = 8
    reduced_dim: int = 12
    frame_step: float = 0.5
    single_speaker_cos_threshold: float = 0.6
    reduction: str = "linear"  # or "external" for pre-reduced vectors
    variants: tuple = ("orig", "wpe")  # recording variants whose embeddings the grid reads

    def __post_init__(self):
        for name in ("merge_cos_threshold", "single_speaker_cos_threshold"):
            if not -1.0 < getattr(self, name) < 1.0:
                raise DataError(f"{name} must be in (-1, 1), got {getattr(self, name)}")
        if not self.frame_step > 0:
            raise DataError(f"frame_step must be positive, got {self.frame_step}")
        object.__setattr__(self, "reject_thrs", tuple(map(float, self.reject_thrs)))
        if not self.reject_thrs or not all(thr > 0 for thr in self.reject_thrs):
            raise DataError(f"reject_thrs must be a non-empty list of positive numbers, "
                            f"got {list(self.reject_thrs)}")
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
    pairs = {}  # vector count -> its upper-triangle indices
    for entry in emb.entries:
        vecs = _unit(entry.vectors)
        sims = vecs @ vecs.T
        iu = pairs.get(len(vecs))
        if iu is None:
            iu = pairs[len(vecs)] = np.triu_indices(len(vecs), k=1)
        if len(iu[0]) == 0 or np.all(sims[iu] > threshold):
            mean = _unit(entry.vectors.mean(axis=0))
            single.append(EmbeddingEntry(entry.time_start, entry.time_end, mean[None, :]))
        else:
            mixed.append(entry)
    return EmbeddingSet(tuple(single)), EmbeddingSet(tuple(mixed))


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


def gmm_cluster(vectors: np.ndarray, cfg: DiarizeConfig, seed: int) -> ClusterSet:
    """Fit a diagonal-covariance Gaussian mixture by EM and hard-assign points."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n, dim = vectors.shape
    k = cfg.max_clusters
    if n < k:
        raise DataError(f"need at least {k} points for {k}-component clustering")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    means = _kmeans_pp_init(vectors, k, rng)
    variances = np.full((k, dim), max(vectors.var(axis=0).mean(), _VAR_FLOOR))
    weights = np.full(k, 1.0 / k)
    ll_history = []
    for _ in range(_GMM_ITERATIONS):
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
        converged = bool(ll_history) and ll - ll_history[-1] < _GMM_TOL
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
    assignments = np.searchsorted(occupied, assignments)
    centroids = means[occupied]
    sizes = np.bincount(assignments, minlength=len(occupied))
    return ClusterSet(
        assignments=assignments,
        centroids=centroids,
        sizes=sizes,
        ll_history=tuple(ll_history),
    )


def _compact(clusters: ClusterSet, assignments, centroids, sizes, keep) -> ClusterSet:
    """Only the clusters whose ids are in keep, renumbered in index order;
    frames of any other cluster become UNASSIGNED."""
    table = np.full(len(sizes) + 1, UNASSIGNED, dtype=np.int64)  # id UNASSIGNED reads the last
    table[keep] = np.arange(len(keep))
    return ClusterSet(
        assignments=table[assignments],
        centroids=np.array([centroids[i] for i in keep])
        if keep
        else np.empty((0, clusters.centroids.shape[1])),
        sizes=np.array([sizes[i] for i in keep], dtype=np.int64),
        ll_history=clusters.ll_history,
    )


def merge_clusters(clusters: ClusterSet, cfg: DiarizeConfig) -> ClusterSet:
    """Merge centroids by cosine similarity; the highest-similarity pair merges
    first, repeatedly, while similarity exceeds cfg.merge_cos_threshold."""
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
    return _compact(clusters, assignments, centroids, sizes, active)


def reject_clusters(clusters: ClusterSet, reject_thr: float) -> ClusterSet:
    """Reject clusters smaller than max_size / reject_thr: their frames become
    UNASSIGNED."""
    if reject_thr <= 0:
        raise DataError("reject_thr must be positive")
    sizes = [int(s) for s in clusters.sizes]
    max_size = max(sizes, default=0)
    keep = [i for i, size in enumerate(sizes) if not size < max_size / reject_thr]
    return _compact(clusters, clusters.assignments, clusters.centroids, sizes, keep)


def merge_reject_clusters(clusters: ClusterSet, cfg: DiarizeConfig,
                          reject_thr: float) -> ClusterSet:
    """Merge centroids by cosine similarity, then reject undersized clusters."""
    return reject_clusters(merge_clusters(clusters, cfg), reject_thr)


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
    frames = []  # (speaker, start, end) per frame and speaker
    for idx, entry in enumerate(single.entries):
        cid = clusters.assignments[idx]
        if cid == UNASSIGNED:
            vec = reduced_single[idx] if reduced_single is not None else entry.vectors[0]
            cid = _nearest_centroid(vec, centroids, sizes)
        frames.append((f"spk{cid:02d}", entry.time_start, entry.time_end))
    for entry in mixed.entries:
        for cid in {_nearest_centroid(vec, centroids, sizes) for vec in entry.vectors}:
            frames.append((f"spk{cid:02d}", entry.time_start, entry.time_end))
    turns = [Turn(*m) for m in merge_intervals(frames, gap=0.5 * cfg.frame_step)]
    return Segmentation(session_id, tuple(sorted(turns, key=lambda t: (t.start, t.speaker))))


def diarize_embeddings(
    emb: EmbeddingSet,
    cfg: DiarizeConfig,
    seed: int,
    session_id: str = "session",
) -> list:
    """Full clustering pipeline over one embedding stream, one cell per entry
    of cfg.reject_thrs.

    Selection, reduction, GMM and merge do not read the threshold, so they
    run once; rejection and frame attraction run per threshold. Returns one
    (Segmentation, speaker_count, ClusterSet) per entry of cfg.reject_thrs,
    in its order.
    """
    single, mixed = select_single_speaker_frames(emb, cfg.single_speaker_cos_threshold)
    if len(single) < cfg.max_clusters:
        raise DataError(
            f"only {len(single)} single-speaker frames; need >= {cfg.max_clusters}"
        )
    raw = np.vstack([e.vectors[0] for e in single.entries])
    target = min(cfg.reduced_dim, raw.shape[1])
    reduced, project = reduce_dim(raw, target, cfg.reduction)
    merged = merge_clusters(gmm_cluster(reduced, cfg, seed), cfg)
    # mixed vectors projected into the clustering space by the same reduction
    mixed = EmbeddingSet(
        tuple(EmbeddingEntry(e.time_start, e.time_end, project(e.vectors)) for e in mixed.entries)
    )
    results = []
    for thr in cfg.reject_thrs:
        clusters = reject_clusters(merged, thr)
        seg = assign_mixed_frames(
            clusters, single, mixed, cfg, session_id, reduced_single=reduced
        )
        results.append((seg, count_speakers(clusters), clusters))
    return results
