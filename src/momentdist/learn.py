"""Clustering and classification over precomputed distance matrices.

Kernel k-means on the exponential kernel K = exp(-D), best-bijection
clustering accuracy, and stratified k-fold KNN cross-validation. Everything
is deterministic under an explicit seed.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .metrics import ConfigError, DistanceMatrix

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
    """One Lloyd run of kernel k-means; returns (labels, objective)."""
    n = k_mat.shape[0]
    diag = np.diag(k_mat)
    for _ in range(KMEANS_MAX_ITER):
        dist2 = np.empty((n, k), dtype=np.float64)
        for c in range(k):
            members = np.flatnonzero(labels == c)
            if members.size == 0:
                dist2[:, c] = np.inf
                continue
            k_xc = k_mat[:, members].mean(axis=1)
            k_cc = k_mat[np.ix_(members, members)].mean()
            dist2[:, c] = diag - 2.0 * k_xc + k_cc
        new_labels = np.argmin(dist2, axis=1)
        # repopulate empty clusters from the points farthest from their center;
        # a reseeded singleton sits on its own centroid, contributing zero
        reseeded = False
        own = dist2[np.arange(n), new_labels].copy()
        contrib = own.copy()
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(own))
                new_labels[far] = c
                own[far] = -np.inf
                contrib[far] = 0.0
                reseeded = True
        objective = float(contrib.sum())
        if np.array_equal(new_labels, labels) and not reseeded:
            break
        labels = new_labels
    return labels, objective


def kernel_kmeans(k_mat: np.ndarray, k: int, restarts: int = 20, seed=None) -> np.ndarray:
    """Kernel k-means clustering; best of ``restarts`` random initializations.

    ``k_mat`` is a symmetric kernel matrix. Returns the assignment array of
    the restart with the lowest objective.
    """
    k_mat = np.asarray(k_mat, dtype=np.float64)
    n = k_mat.shape[0]
    if k_mat.ndim != 2 or k_mat.shape != (n, n):
        raise ValueError("kernel matrix must be square")
    if np.max(np.abs(k_mat - k_mat.T)) > 1e-10:
        raise ValueError("kernel matrix must be symmetric")
    if not 1 <= k <= n:
        raise ConfigError(f"k must be in 1..{n}")
    if restarts < 1:
        raise ConfigError("restarts must be positive")

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = rng.integers(0, k, size=n)
        init[rng.permutation(n)[:k]] = np.arange(k)  # every cluster starts nonempty
        labels, objective = _kmeans_pass(k_mat, init, k)
        if best is None or objective < best[1]:
            best = (labels, objective)
    return best[0]


def clustering_accuracy(assignment: Sequence[int], labels: Sequence[int]) -> float:
    """Best agreement over all bijections between cluster ids and class ids."""
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
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum()) / n


def _stratified_folds(labels: np.ndarray, folds: int, rng) -> list[np.ndarray]:
    classes, counts = np.unique(labels, return_counts=True)
    if counts.min() < folds:
        warnings.warn(
            f"class with {counts.min()} members is smaller than folds={folds}; "
            "falling back to unstratified folds",
            stacklevel=3,
        )
        order = rng.permutation(labels.size)
        return [order[f::folds] for f in range(folds)]
    buckets: list[list[int]] = [[] for _ in range(folds)]
    for cls in classes:
        members = rng.permutation(np.flatnonzero(labels == cls))
        for pos, idx in enumerate(members):
            buckets[pos % folds].append(int(idx))
    return [np.sort(np.asarray(b, dtype=np.int64)) for b in buckets]


def knn_classify(d, labels: Sequence, ks: Sequence[int] = (1,), folds: int = 10,
                 seed=None) -> np.ndarray:
    """Stratified k-fold cross-validated KNN accuracy on a distance matrix, per k.

    Each held-out item is labeled by majority vote among its k nearest
    training items (all of them when k exceeds the training set); vote ties
    are broken by the single nearest neighbor's label. One stable sort of each
    fold's test-by-train distances, with running vote counts along it, serves
    every k of ``ks``. Returns the per-fold accuracies, one row per k.
    """
    dm = _entries(d)
    labels = np.asarray(labels)
    n = dm.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels length must match distance matrix")
    if folds < 2:
        raise ConfigError("folds must be at least 2")
    if folds > n:
        raise ConfigError(f"more folds ({folds}) than items ({n})")
    if any(k < 1 for k in ks):
        raise ConfigError("k must be positive")
    _, codes = np.unique(labels, return_inverse=True)
    fold_sets = _stratified_folds(codes, folds, np.random.default_rng(seed))

    accuracies = np.empty((len(ks), folds), dtype=np.float64)
    for f, test in enumerate(fold_sets):
        train = np.setdiff1d(np.arange(n), test, assume_unique=True)
        order = np.argsort(dm[np.ix_(test, train)], axis=1, kind="stable")
        ranked = codes[train][order[:, : min(max(ks, default=1), train.size)]]
        # votes[i, j, c]: class-c items among the j+1 nearest of test item i
        votes = np.cumsum(ranked[:, :, None] == np.arange(codes.max() + 1), axis=1)
        for row, k in enumerate(ks):
            v = votes[:, min(k, train.size) - 1]
            top = v == v.max(axis=1, keepdims=True)
            pred = np.where(top.sum(axis=1) == 1, top.argmax(axis=1), ranked[:, 0])
            accuracies[row, f] = np.count_nonzero(pred == codes[test]) / test.size
    return accuracies
