"""Competing graph-comparison methods used in the head-to-head experiments.

Covariance descriptors of normalized walk vectors, log trace-moment vectors,
top-k adjacency eigenvalues, and 3/4-vertex graphlet distributions. Every
method here is permutation invariant by construction; the interesting failure
mode (shared by the spectral ones) is that cospectral graphs collapse to
distance zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .graphs import Graph
from .moments import trace_moments

__all__ = [
    "FeatureVector",
    "EigensolverError",
    "cov_descriptor",
    "bhattacharyya_dist",
    "nclm_vector",
    "top_k_eigenvalues",
    "graphlet3_distribution",
    "graphlet4_distribution",
    "GRAPHLET3_TYPES",
    "GRAPHLET4_TYPES",
]

DENSE_EIG_N = 2048

# log(tr) stand-in for graphs whose odd closed-walk counts are exactly zero
# (bipartite graphs); keeps the feature finite and identical across
# cospectral pairs. Near log of the smallest subnormal double.
_LOG_ZERO_TRACE = -745.0


class EigensolverError(RuntimeError):
    """Iterative eigensolver failed to converge."""


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Per-graph feature vector with its method tag."""

    values: np.ndarray
    method: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("feature vector entries must be finite")
        v.flags.writeable = False


# ---------------------------------------------------------------------------
# Covariance of normalized walk vectors
# ---------------------------------------------------------------------------


def cov_descriptor(g: Graph, k: int = 4, center: bool = True) -> np.ndarray:
    """k x k covariance of the columns x_i = A^i e / ||A^i e||, i = 1..k.

    e is the unit all-ones vector. Each vertex coordinate is centered across
    the k columns before forming the (1/n) X^T X covariance; ``center=False``
    keeps the raw Gram matrix instead. Regular graphs give the zero matrix
    (every column equals e).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if g.n == 0:
        raise ValueError("covariance descriptor of the empty graph is undefined")
    a = g.to_csr()
    w = np.full(g.n, 1.0 / np.sqrt(g.n))
    cols = np.empty((g.n, k), dtype=np.float64)
    for i in range(k):
        w = a @ w
        norm = np.linalg.norm(w)
        cols[:, i] = w / norm if norm > 0 else 0.0
    if center:
        cols = cols - cols.mean(axis=1, keepdims=True)
    return (cols.T @ cols) / g.n


def bhattacharyya_dist(c1: np.ndarray, c2: np.ndarray, jitter: float | None = None) -> float:
    """Zero-mean-Gaussian Bhattacharyya distance between covariance matrices.

    D = 0.5 * ln det((S1+S2)/2) - 0.25 * ln(det S1 * det S2), each matrix
    ridged by jitter*I. The default jitter is 1e-8 of the mean per-dimension
    trace so rank-deficient descriptors stay usable.
    """
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    if c1.shape != c2.shape or c1.ndim != 2 or c1.shape[0] != c1.shape[1]:
        raise ValueError("covariance matrices must be square and of equal size")
    return float(_bhattacharyya(c1, c2[None], jitter)[0])


def _bhattacharyya(c1: np.ndarray, c2s: np.ndarray, jitter: float | None) -> np.ndarray:
    """Bhattacharyya distances from ``c1`` to each covariance matrix in ``c2s``."""
    k = c1.shape[0]
    if jitter is None:
        base = (np.trace(c1) + np.trace(c2s, axis1=1, axis2=2)) / (2 * k)
        jitter = np.where(base > 0, 1e-8 * base, 1e-12)
    eye = np.multiply.outer(jitter, np.eye(k))
    _, ld_mid = np.linalg.slogdet((c1 + c2s) / 2 + eye)
    _, ld_1 = np.linalg.slogdet(c1 + eye)
    _, ld_2 = np.linalg.slogdet(c2s + eye)
    return 0.5 * ld_mid - 0.25 * (ld_1 + ld_2)


# ---------------------------------------------------------------------------
# Log trace-moment vector
# ---------------------------------------------------------------------------


def nclm_vector(g: Graph) -> FeatureVector:
    """Vector of log(tr(A^i) / n^i) for i = 2..7.

    Graph distance under this baseline is the Euclidean distance between
    vectors. Edgeless graphs have no information here and raise; zero odd
    traces (bipartite graphs) are mapped to a fixed large-negative constant,
    which keeps cospectral graphs at distance exactly zero.
    """
    if g.m == 0:
        raise ValueError("trace-moment features are undefined for edgeless graphs")
    tm = trace_moments(g, 7)
    logn = np.log(g.n)
    out = np.empty(6, dtype=np.float64)
    for i in range(2, 8):
        tr = g.n * tm.values[i]
        out[i - 2] = np.log(tr) - i * logn if tr > 0 else _LOG_ZERO_TRACE
    return FeatureVector(out, "nclm")


# ---------------------------------------------------------------------------
# Top-k eigenvalues
# ---------------------------------------------------------------------------


def top_k_eigenvalues(g: Graph, k: int = 10) -> FeatureVector:
    """The k algebraically largest adjacency eigenvalues, descending.

    Dense solve up to ``DENSE_EIG_N`` vertices, Lanczos (tolerance 1e-8)
    beyond; zero-padded when the graph has fewer than k vertices.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n <= DENSE_EIG_N:
        eigs = np.linalg.eigvalsh(g.to_dense()) if g.n else np.zeros(0)
        top = eigs[::-1][:k]
    else:
        try:
            top = spla.eigsh(g.to_csr(), k=k, which="LA", tol=1e-8, return_eigenvectors=False)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(
                f"Lanczos did not converge: {len(exc.eigenvalues)}/{k} eigenvalues "
                f"after the iteration limit"
            ) from exc
        top = np.sort(top)[::-1]
    if top.size < k:
        top = np.concatenate([top, np.zeros(k - top.size)])
    return FeatureVector(top, "eigs")


# ---------------------------------------------------------------------------
# Graphlet distributions
# ---------------------------------------------------------------------------

GRAPHLET3_TYPES = ("empty", "one-edge", "wedge", "triangle")

# 4-vertex isomorphism types keyed by sorted induced degree sequence,
# in the order of the 4-vertex named-graph catalog.
GRAPHLET4_TYPES = (
    "4K1",
    "K4",
    "co-diamond",
    "diamond",
    "co-paw",
    "paw",
    "2K2",
    "C4",
    "claw",
    "co-claw",
    "P4",
)

_DEGSEQ4_TO_INDEX = {
    (0, 0, 0, 0): 0,   # 4K1
    (3, 3, 3, 3): 1,   # K4
    (0, 0, 1, 1): 2,   # co-diamond = K2 u 2K1
    (2, 2, 3, 3): 3,   # diamond
    (0, 1, 1, 2): 4,   # co-paw = P3 u K1
    (1, 2, 2, 3): 5,   # paw
    (1, 1, 1, 1): 6,   # 2K2
    (2, 2, 2, 2): 7,   # C4
    (1, 1, 1, 3): 8,   # claw
    (0, 2, 2, 2): 9,   # co-claw = K3 u K1
    (1, 1, 2, 2): 10,  # P4
}


def graphlet3_distribution(g: Graph) -> np.ndarray:
    """Exact induced 3-subgraph distribution (empty, one-edge, wedge, triangle).

    Counted in integer arithmetic from triangle and path-of-length-2 counts,
    then normalized by C(n, 3). The sum of A * A^2 (entrywise) counts every
    triangle six times.
    """
    n = g.n
    if n < 3:
        raise ValueError("need at least 3 vertices")
    a = g.to_csr()
    t = int(a.multiply(a @ a).sum()) // 6
    degs = g.degrees.astype(object)
    p2 = int(np.sum(degs * (degs - 1) // 2))
    wedges = p2 - 3 * t
    one_edge = g.m * (n - 2) - 2 * wedges - 3 * t
    total = n * (n - 1) * (n - 2) // 6
    empty = total - one_edge - wedges - t
    counts = np.array([empty, one_edge, wedges, t], dtype=np.float64)
    return counts / total


def graphlet4_distribution(g: Graph, samples: int = 10000, seed=None) -> np.ndarray:
    """Sampled induced 4-subgraph distribution over the 11 isomorphism types.

    Uniform random 4-subsets are classified by their induced degree sequence
    (which identifies 4-vertex graphs uniquely); deterministic under seed.
    Entry order follows :data:`GRAPHLET4_TYPES`.
    """
    n = g.n
    if n < 4:
        raise ValueError("need at least 4 vertices")
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(GRAPHLET4_TYPES), dtype=np.int64)
    for _ in range(samples):
        quad = rng.choice(n, size=4, replace=False)
        degs = [0, 0, 0, 0]
        for a in range(4):
            for b in range(a + 1, 4):
                if g.has_edge(int(quad[a]), int(quad[b])):
                    degs[a] += 1
                    degs[b] += 1
        counts[_DEGSEQ4_TO_INDEX[tuple(sorted(degs))]] += 1
    return counts / samples

