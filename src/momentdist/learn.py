"""Clustering and classification over precomputed distance matrices.

Kernel k-means on the exponential kernel K = exp(-D), best-bijection
clustering accuracy, and stratified k-fold KNN cross-validation. Everything
is deterministic under an explicit seed.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .graphs import ConfigError, _check_size
from .metrics import DistanceMatrix

__all__ = [
    "kernel_from_distances",
    "kernel_kmeans",
    "clustering_accuracy",
    "knn_classify",
]

# Lloyd iterations per kernel k-means restart
KMEANS_MAX_ITER = 300


def _entries(d) -> np.ndarray:
    if isinstance(d, DistanceMatrix):
        return d.entries
    return np.asarray(d, dtype=np.float64)


def kernel_from_distances(d) -> np.ndarray:
    """Entrywise exponential kernel K_ij = exp(-D_ij); unit diagonal."""
    return np.exp(-_entries(d))


def _kmeans_pass(k_mat: np.ndarray, labels: np.ndarray, k: int):
    """Lloyd runs of kernel k-means, one per row of the ``(R, n)`` stack
    ``labels``, advanced together; returns the final ``(R, n)`` labels and
    the ``(R,)`` objectives.

    Each iteration makes one one-hot membership array of the rows still
    moving and one product of it with ``k_mat``, which gives every point's
    mean kernel value to every cluster and, summed over the members, every
    cluster's self-similarity. A row leaves the active set once its labels
    repeat.
    """
    labels = np.array(labels, dtype=np.int64)
    objective = np.zeros(labels.shape[0], dtype=np.float64)
    diag = np.diag(k_mat)[None, :, None]
    active = np.arange(labels.shape[0])
    for _ in range(KMEANS_MAX_ITER):
        if active.size == 0:
            break
        cur = labels[active]
        onehot = (cur[:, :, None] == np.arange(k)).astype(np.float64)
        k_xh = k_mat @ onehot
        counts = onehot.sum(axis=1)
        empty = counts == 0
        counts[empty] = 1.0
        k_cc = np.einsum("ank,ank->ak", onehot, k_xh) / counts**2
        k_cc[empty] = np.inf  # an empty cluster has no center to move to
        dist2 = diag - 2.0 * (k_xh / counts[:, None, :]) + k_cc[:, None, :]
        new_labels = np.argmin(dist2, axis=2)
        own = np.take_along_axis(dist2, new_labels[:, :, None], axis=2)[:, :, 0]
        contrib = own.copy()
        # repopulate empty clusters from the points farthest from their center,
        # one cluster at a time across the rows that lost one; a reseeded
        # singleton sits on its own centroid, contributing zero
        lost = np.flatnonzero(~(new_labels[:, :, None] == np.arange(k)).any(axis=1).all(axis=1))
        if lost.size:
            for c in range(k):
                rows = lost[~np.any(new_labels[lost] == c, axis=1)]
                far = np.argmax(own[rows], axis=1)
                new_labels[rows, far] = c
                own[rows, far] = -np.inf
                contrib[rows, far] = 0.0
        objective[active] = contrib.sum(axis=1)
        # a row whose labels repeat would repeat its step, reseeds included
        settled = np.all(new_labels == cur, axis=1)
        labels[active] = new_labels
        active = active[~settled]
    return labels, objective


def kernel_kmeans(k_mat: np.ndarray, k: int, restarts: int = 20, seed=None) -> np.ndarray:
    """Kernel k-means clustering; best of ``restarts`` random initializations.

    ``k_mat`` is a finite symmetric kernel matrix. All restarts run in one
    batched Lloyd loop; returns the assignment array of the first restart
    with the lowest objective.
    """
    k_mat = np.asarray(k_mat, dtype=np.float64)
    n = k_mat.shape[0]
    if k_mat.ndim != 2 or k_mat.shape != (n, n):
        raise ValueError("kernel matrix must be square")
    if not np.all(np.isfinite(k_mat)):
        raise ValueError("kernel matrix must be finite")
    if np.max(np.abs(k_mat - k_mat.T)) > 1e-10:
        raise ValueError("kernel matrix must be symmetric")
    if not 1 <= k <= n:
        raise ConfigError(f"k must be in 1..{n}")
    if restarts < 1:
        raise ConfigError("restarts must be positive")
    _check_size("restarts", restarts, 8 * n, "initial-label array")

    rng = np.random.default_rng(seed)
    inits = np.empty((restarts, n), dtype=np.int64)
    for init in inits:
        init[:] = rng.integers(0, k, size=n)
        init[rng.permutation(n)[:k]] = np.arange(k)  # every cluster starts nonempty
    labels, objective = _kmeans_pass(k_mat, inits, k)
    return labels[int(np.argmin(objective))]


def clustering_accuracy(assignment: Sequence[int], labels: Sequence[int]) -> float:
    """Best agreement over all bijections between cluster ids and class ids."""
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching  # local: a slow import

    assignment = np.asarray(assignment)
    labels = np.asarray(labels)
    if assignment.shape != labels.shape:
        raise ValueError("assignment and labels must have equal length")
    n = assignment.size
    if n == 0:
        raise ValueError("empty assignment")
    _, a_codes = np.unique(assignment, return_inverse=True)
    _, l_codes = np.unique(labels, return_inverse=True)
    k = max(a_codes.max(), l_codes.max()) + 1
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (a_codes, l_codes), 1)
    # every weight is at least 1, so the matching is full, and its least total
    # weight is the greatest total agreement; CSR arrays skip a dense scan
    weights = (confusion.max() + 1 - confusion).ravel()
    rows, cols = min_weight_full_bipartite_matching(sp.csr_matrix(
        (weights, np.tile(np.arange(k), k), np.arange(0, k * k + 1, k)), shape=(k, k)))
    return float(confusion[rows, cols].sum()) / n


def _stratified_folds(labels: np.ndarray, folds: int, rng) -> np.ndarray:
    """Each item's fold: the shuffled members of each class (of all items together,
    when a class has fewer than ``folds``) are dealt to the folds round-robin."""
    classes, counts = np.unique(labels, return_counts=True)
    fold_of = np.empty(labels.size, dtype=np.int64)
    if counts.min() < folds:
        warnings.warn(
            f"class with {counts.min()} members is smaller than folds={folds}; "
            "falling back to unstratified folds",
            stacklevel=3,
        )
        fold_of[rng.permutation(labels.size)] = np.arange(labels.size) % folds
        return fold_of
    for cls in classes:
        members = rng.permutation(np.flatnonzero(labels == cls))
        fold_of[members] = np.arange(members.size) % folds
    return fold_of


def knn_classify(d, labels: Sequence, ks: Sequence[int] = (1,), folds: int = 10,
                 seed=None) -> np.ndarray:
    """Stratified k-fold cross-validated KNN accuracy on a distance matrix, per k.

    Each held-out item is labeled by majority vote among its k nearest
    training items (all of them when k exceeds the training set); vote ties
    are broken by the single nearest neighbor's label. One stable sort of the
    whole matrix, with same-fold entries set to +inf, ranks every item's
    training items first; running vote counts along it serve every fold and
    every k of ``ks``. Returns the per-fold accuracies, one row per k.
    """
    dm = _entries(d)
    labels = np.asarray(labels)
    n = dm.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels length must match distance matrix")
    if not np.all(np.isfinite(dm)):
        raise ValueError("distance matrix must be finite")
    if folds < 2:
        raise ConfigError("folds must be at least 2")
    if folds > n:
        raise ConfigError(f"more folds ({folds}) than items ({n})")
    if any(k < 1 for k in ks):
        raise ConfigError("k must be positive")
    _, codes = np.unique(labels, return_inverse=True)
    fold_of = _stratified_folds(codes, folds, np.random.default_rng(seed))
    fold_size = np.bincount(fold_of, minlength=folds)
    train_size = n - fold_size[fold_of]

    same_fold = fold_of[:, None] == fold_of[None, :]
    order = np.argsort(np.where(same_fold, np.inf, dm), axis=1, kind="stable")
    ranked = codes[order[:, : min(max(ks, default=1), train_size.max())]]
    # votes[i, j, c]: class-c items among the j+1 nearest of item i; columns
    # past item i's training set count same-fold items and are never read
    votes = np.cumsum(ranked[:, :, None] == np.arange(codes.max() + 1), axis=1)
    accuracies = np.empty((len(ks), folds), dtype=np.float64)
    for row, k in enumerate(ks):
        # k past n, which numpy's int64 may not hold, votes as n does
        v = votes[np.arange(n), np.minimum(min(k, n), train_size) - 1]
        top = v == v.max(axis=1, keepdims=True)
        pred = np.where(top.sum(axis=1) == 1, top.argmax(axis=1), ranked[:, 0])
        accuracies[row] = np.bincount(fold_of[pred == codes], minlength=folds) / fold_size
    return accuracies
