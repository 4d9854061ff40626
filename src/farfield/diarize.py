"""Clustering-based diarization and speaker counting over ingested embeddings.

Stages: single-speaker frame selection, dimensionality reduction, GMM
clustering, cluster merge/reject, greedy attraction of mixed frames, turn
emission.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from farfield.embeddings import EmbeddingSet
from farfield.errors import DataError, NumericalError, check_seed
from farfield.segments import Segmentation, Turn, merge_intervals

UNASSIGNED = -1

_VAR_FLOOR = 1e-6
# GMM EM sweeps at most, and the least gain in mean log-likelihood per sweep
_GMM_ITERATIONS = 100
_GMM_TOL = 1e-7
# exp(x) is exactly 0.0 for every x below -745.14; numpy's vectorised exp takes
# a slow path on such lanes, so _exp leaves the lanes below this bound at 0.0
_EXP_FLOOR = -750.0


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
    """Split records into single-speaker (all pairwise cosines > threshold) and mixed.

    Returns the row indices of the single records, their renormalized mean
    vectors, and the row indices of the mixed records. Records with the same
    number of vectors are tested as one stack.
    """
    dim = emb.vectors.shape[1]
    single = np.zeros(len(emb), dtype=bool)
    means = np.empty((len(emb), dim))
    for count in np.unique(emb.counts).tolist():
        group = emb.counts == count
        stack = emb.rows(group).reshape(-1, count, dim)  # (records, count, dim)
        vecs = _unit(stack)
        sims = vecs @ vecs.transpose(0, 2, 1)
        rows, cols = np.triu_indices(count, k=1)
        single[group] = np.all(sims[:, rows, cols] > threshold, axis=1)
        means[group] = _unit(stack.mean(axis=1))
    return np.flatnonzero(single), means[single], np.flatnonzero(~single)


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


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x), bit for bit, without evaluating the lanes that underflow to 0."""
    return np.exp(x, out=np.zeros_like(x), where=x >= _EXP_FLOOR)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """terms.sum(axis=0), with numpy's additions for a contiguous row of len(terms).

    numpy sums such a row pairwise: fewer than 8 values in turn, up to 128 in
    eight interleaved partial sums that it then adds as a tree, and a longer
    row as two halves split at a multiple of 8. A row sum over a short last
    axis runs one inner loop per row; the same additions on whole planes give
    the same bits.
    """
    count = len(terms)
    if count < 8:
        total = np.zeros_like(terms[0])
        for term in terms:
            total += term
        return total
    if count <= 128:
        tail = count - count % 8
        partial = terms[:8]
        for i in range(8, tail, 8):
            partial = partial + terms[i:i + 8]
        total = (((partial[0] + partial[1]) + (partial[2] + partial[3]))
                 + ((partial[4] + partial[5]) + (partial[6] + partial[7])))
        for term in terms[tail:]:
            total += term
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _scaled_distances(points: np.ndarray, means: np.ndarray, variances: np.ndarray,
                      work: np.ndarray) -> np.ndarray:
    """sum((x - mean)**2 / variance) over dims, per component and point, (k, n).

    points holds the coordinates by dim, (dim, 1, n), and work is scratch of
    shape (dim, k, n). The element-wise steps are those of the (n, k, dim)
    broadcast, and the dims are added in the order of its .sum(axis=2), so
    the result is that sum, transposed, bit for bit.
    """
    np.subtract(points, means.T[:, :, None], out=work)
    np.square(work, out=work)
    np.divide(work, variances.T[:, :, None], out=work)
    return _pairwise_sum(work)


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
    points = np.ascontiguousarray(vectors.T)[:, None, :]
    work = np.empty((dim, k, n))
    squares = vectors**2
    ll_history = []
    for _ in range(_GMM_ITERATIONS):
        # E-step in log domain, on (components, points) planes
        log_prob = -0.5 * (
            np.sum(np.log(2.0 * np.pi * variances), axis=1)[:, None]
            + _scaled_distances(points, means, variances, work)
        )
        log_joint = log_prob + np.log(np.maximum(weights, 1e-300))[:, None]
        shift = log_joint.max(axis=0)
        log_norm = shift + np.log(_pairwise_sum(_exp(log_joint - shift)))
        ll = float(log_norm.mean())
        # (points, components) again: the M-step's sums over points run in that order
        resp = np.ascontiguousarray(_exp(log_joint - log_norm).T)
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
        second = (resp.T @ squares) / safe_mass[:, None]
        variances = np.where(
            nonempty[:, None], np.maximum(second - means**2, _VAR_FLOOR), variances
        )
    assignments = np.argmax(
        np.log(np.maximum(weights, 1e-300))[:, None]
        - 0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)[:, None]
        - 0.5 * _scaled_distances(points, means, variances, work),
        axis=0,
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


def _nearest_centroids(vectors: np.ndarray, centroids: np.ndarray,
                       sizes: np.ndarray) -> np.ndarray:
    """Each vector's nearest centroid by cosine, (vectors,); within 1e-12 of a
    vector's best, the larger cluster wins, then the lower id."""
    # matmul broadcasts one matrix-vector product per vector; a matrix product
    # would sum in another order and move the cosines in their last bits
    sims = (_unit(centroids) @ _unit(vectors)[:, :, None])[:, :, 0]  # (vectors, clusters)
    close = sims >= sims.max(axis=1, keepdims=True) - 1e-12
    return np.argmax(np.where(close, sizes, -1), axis=1)


def assign_mixed_frames(
    clusters: ClusterSet,
    emb: EmbeddingSet,
    single: np.ndarray,
    reduced_single: np.ndarray,
    mixed: np.ndarray,
    mixed_vectors: np.ndarray,
    cfg: DiarizeConfig,
    session_id: str = "session",
) -> Segmentation:
    """Attract mixed and unassigned frames to nearest centroids; emit turns.

    single and mixed are the row indices of emb's single-speaker and mixed
    records (see select_single_speaker_frames). reduced_single holds one vector
    per index of single in the clustering space, where the centroids live, and
    mixed_vectors the mixed records' vectors there, in record order (see
    diarize_embeddings for the projection plumbing).
    """
    if not len(clusters.sizes):
        raise DataError("no surviving clusters to attract frames to")
    centroids = clusters.centroids
    sizes = clusters.sizes
    cids = clusters.assignments.copy()
    loose = cids == UNASSIGNED
    cids[loose] = _nearest_centroids(reduced_single[loose], centroids, sizes)
    # one frame per single record and one per mixed vector, as (speaker, start, end);
    # a speaker twice in one mixed record gives a frame that merges into itself
    records = np.concatenate([single, np.repeat(mixed, emb.counts[mixed])])
    speakers = np.concatenate([cids, _nearest_centroids(mixed_vectors, centroids, sizes)])
    frames = zip([f"spk{cid:02d}" for cid in speakers.tolist()],
                 emb.starts[records].tolist(), emb.ends[records].tolist())
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
    single, raw, mixed = select_single_speaker_frames(emb, cfg.single_speaker_cos_threshold)
    if len(single) < cfg.max_clusters:
        raise DataError(
            f"only {len(single)} single-speaker frames; need >= {cfg.max_clusters}"
        )
    reduced, project = reduce_dim(raw, min(cfg.reduced_dim, raw.shape[1]), cfg.reduction)
    merged = merge_clusters(gmm_cluster(reduced, cfg, seed), cfg)
    # mixed vectors projected into the clustering space by the same reduction
    mixed_vectors = project(emb.rows(mixed))
    results = []
    for thr in cfg.reject_thrs:
        clusters = reject_clusters(merged, thr)
        seg = assign_mixed_frames(clusters, emb, single, reduced, mixed, mixed_vectors, cfg,
                                  session_id)
        results.append((seg, count_speakers(clusters), clusters))
    return results
