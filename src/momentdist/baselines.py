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

from .graphs import ConfigError, Graph, _check_size
from .moments import EmptyGraphError, _closed_walks, trace_moments

__all__ = [
    "FeatureVector",
    "EigensolverError",
    "cov_descriptor",
    "nclm_vector",
    "top_k_eigenvalues",
    "graphlet3_distribution",
    "graphlet4_distribution",
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
    """Per-graph feature vector."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("feature vector entries must be finite")
        v.flags.writeable = False


# ---------------------------------------------------------------------------
# Covariance of normalized walk vectors
# ---------------------------------------------------------------------------


def cov_descriptor(g: Graph, k: int = 4) -> np.ndarray:
    """k x k covariance of the columns x_i = A^i e / ||A^i e||, i = 1..k.

    e is the unit all-ones vector. Each vertex coordinate is centered across
    the k columns before forming the (1/n) X^T X covariance. Regular graphs
    give the zero matrix (every column equals e).
    """
    if k < 2:
        raise ConfigError("k must be at least 2")
    if g.n == 0:
        raise EmptyGraphError("covariance descriptor of the empty graph is undefined")
    _check_size("k", k, 8 * g.n, "walk-vector array")
    a = g.to_csr()
    w = np.full(g.n, 1.0 / np.sqrt(g.n))
    cols = np.empty((g.n, k), dtype=np.float64)
    for i in range(k):
        w = a @ w
        norm = np.linalg.norm(w)
        cols[:, i] = w / norm if norm > 0 else 0.0
    cols = cols - cols.mean(axis=1, keepdims=True)
    return (cols.T @ cols) / g.n


def _bhattacharyya(c1s: np.ndarray, c2s: np.ndarray) -> np.ndarray:
    """Zero-mean-Gaussian Bhattacharyya distance of each ``c1s`` matrix to the aligned ``c2s`` one.

    D = 0.5 * ln det((S1+S2)/2) - 0.25 * ln(det S1 * det S2), each matrix
    ridged by jitter*I, where jitter is 1e-8 of the pair's mean per-dimension
    trace (1e-12 if that is 0), so rank-deficient descriptors stay usable.
    """
    k = c1s.shape[-1]
    base = (np.trace(c1s, axis1=1, axis2=2) + np.trace(c2s, axis1=1, axis2=2)) / (2 * k)
    jitter = np.where(base > 0, 1e-8 * base, 1e-12)
    eye = np.multiply.outer(jitter, np.eye(k))
    _, ld_mid = np.linalg.slogdet((c1s + c2s) / 2 + eye)
    _, ld_1 = np.linalg.slogdet(c1s + eye)
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
        raise EmptyGraphError("trace-moment features are undefined for edgeless graphs")
    tm = trace_moments(g, 7)
    logn = np.log(g.n)
    out = np.empty(6, dtype=np.float64)
    for i in range(2, 8):
        tr = g.n * tm.values[i]
        out[i - 2] = np.log(tr) - i * logn if tr > 0 else _LOG_ZERO_TRACE
    return FeatureVector(out)


# ---------------------------------------------------------------------------
# Top-k eigenvalues
# ---------------------------------------------------------------------------


def top_k_eigenvalues(g: Graph, k: int = 10) -> FeatureVector:
    """The k algebraically largest adjacency eigenvalues, descending.

    Dense solve up to ``DENSE_EIG_N`` vertices, Lanczos (tolerance 1e-8,
    from a fixed start vector, so repeated calls give the same bits) beyond;
    zero-padded when the graph has fewer than k vertices.
    """
    if k < 1:
        raise ConfigError("k must be positive")
    _check_size("k", k, 8, "eigenvalue array")
    if g.n <= DENSE_EIG_N:
        eigs = np.linalg.eigvalsh(g.to_dense()) if g.n else np.zeros(0)
        top = eigs[::-1][:k]
    else:
        import scipy.sparse.linalg as spla  # local: a slow import only large graphs need

        # a fixed start vector, so the bits repeat; not all-ones, which on a
        # regular graph is an eigenvector orthogonal to all the others
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, g.n)
        try:
            top = spla.eigsh(g.to_csr(), k=k, which="LA", tol=1e-8, v0=v0,
                             return_eigenvectors=False)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(
                f"Lanczos did not converge: {len(exc.eigenvalues)}/{k} eigenvalues "
                f"after the iteration limit"
            ) from exc
        top = np.sort(top)[::-1]
    if top.size < k:
        top = np.concatenate([top, np.zeros(k - top.size)])
    return FeatureVector(top)


# ---------------------------------------------------------------------------
# Graphlet distributions
# ---------------------------------------------------------------------------

# 4-vertex isomorphism types in the order of the 4-vertex named-graph catalog,
# each with its sorted induced degree sequence (which identifies it)
_GRAPHLET4_DEGSEQS = {
    "4K1": (0, 0, 0, 0),
    "K4": (3, 3, 3, 3),
    "co-diamond": (0, 0, 1, 1),  # K2 u 2K1
    "diamond": (2, 2, 3, 3),
    "co-paw": (0, 1, 1, 2),  # P3 u K1
    "paw": (1, 2, 2, 3),
    "2K2": (1, 1, 1, 1),
    "C4": (2, 2, 2, 2),
    "claw": (1, 1, 1, 3),
    "co-claw": (0, 2, 2, 2),  # K3 u K1
    "P4": (1, 1, 2, 2),
}
GRAPHLET4_TYPES = tuple(_GRAPHLET4_DEGSEQS)


# the 6 vertex pairs of a quad, and which 2 of its 4 vertices each pair touches
_QUAD_PAIRS = np.array([(a, b) for a in range(4) for b in range(a + 1, 4)]).T
_QUAD_INCIDENCE = np.eye(4, dtype=np.int64)[_QUAD_PAIRS].sum(axis=0)

# sorted induced degree sequence, read as a base-4 number, to type index
_BASE4 = 4 ** np.arange(4, dtype=np.int64)
_DEGCODE4_TO_INDEX = np.full(4**4, -1, dtype=np.int64)
_DEGCODE4_TO_INDEX[[np.dot(seq, _BASE4) for seq in _GRAPHLET4_DEGSEQS.values()]] = range(
    len(_GRAPHLET4_DEGSEQS))


# adjacency bytes per array that one step of the dense triangle count gathers
_GATHER_BYTES = 1 << 20


def _dense_adjacency(g: Graph) -> np.ndarray:
    """0/1 adjacency as bools, each row padded with False to a whole number of
    64-bit words."""
    width = -(-g.n // 64) * 64
    adj = np.zeros((g.n, width), dtype=bool)
    adj.reshape(-1)[g._rows() * width + g.indices] = True
    return adj


def graphlet3_distribution(g: Graph) -> np.ndarray:
    """Exact induced 3-subgraph distribution (empty, one-edge, wedge, triangle).

    Counted in integer arithmetic from triangle and path-of-length-2 counts,
    then normalized by C(n, 3). Up to ``DENSE_EIG_N`` vertices the triangles
    come from adjacency rows held as bits: each edge u < v lies on
    popcount(N(u) & N(v)) of them, and each triangle has three edges. Beyond,
    tr(A^3), the closed 3-walks, counts every triangle six times; it costs one
    sparse product per block of 256 columns.
    """
    n = g.n
    if n < 3:
        raise EmptyGraphError("need at least 3 vertices")
    if n <= DENSE_EIG_N:
        bits = np.packbits(_dense_adjacency(g), axis=1).view(np.uint64)
        rows = g._rows()
        step = max(1, _GATHER_BYTES // bits[0].nbytes)  # CSR entries, so rows, per gather
        t = 0
        for s in range(0, rows.size, step):
            u, v = rows[s:s + step], g.indices[s:s + step]
            fw = u < v
            t += int(np.bitwise_count(bits.take(u[fw], axis=0) & bits.take(v[fw], axis=0)).sum())
        t //= 3
    else:
        t = int(_closed_walks(g.to_csr(), 3)[3]) // 6
    degs = g.degrees.astype(object)
    p2 = int(np.sum(degs * (degs - 1) // 2))
    wedges = p2 - 3 * t
    one_edge = g.m * (n - 2) - 2 * wedges - 3 * t
    total = n * (n - 1) * (n - 2) // 6
    empty = total - one_edge - wedges - t
    counts = np.array([empty, one_edge, wedges, t], dtype=np.float64)
    return counts / total


def _draw_quads(n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """The quads of ``samples`` calls ``rng.choice(n, size=4, replace=False)``.

    For 4 of n, ``choice`` runs Floyd's sampler (draws in [0, j] for j = n-4..n-1)
    and then a Fisher-Yates shuffle (draws in [0, i] for i = 3, 2, 1), each
    draw one bounded integer by Lemire's method. ``integers`` with a row of
    upper bounds broadcast to (samples, 7) makes the same draws in the same
    order, rejections included, so one call yields every sample's seven draws
    and the quads are the loop's.
    """
    draws = rng.integers(0, [n - 3, n - 2, n - 1, n, 4, 3, 2], size=(samples, 7))
    quads = draws[:, :4].copy()
    for k in range(1, 4):  # Floyd: a value already taken is replaced by n-4+k
        taken = (quads[:, :k] == quads[:, k:k + 1]).any(axis=1)
        quads[taken, k] = n - 4 + k
    rows = np.arange(samples)
    for i in (3, 2, 1):  # Fisher-Yates: swap slot i with slot draws[:, 7-i]
        j = draws[:, 7 - i]
        quads[:, i], quads[rows, j] = quads[rows, j], quads[:, i].copy()
    return quads


def graphlet4_distribution(g: Graph, samples: int = 10000, seed=None) -> np.ndarray:
    """Sampled induced 4-subgraph distribution over the 11 isomorphism types.

    Uniform random 4-subsets are classified by their induced degree sequence
    (which identifies 4-vertex graphs uniquely); deterministic under seed.
    Entry order follows :data:`GRAPHLET4_TYPES`.
    """
    n = g.n
    if n < 4:
        raise EmptyGraphError("need at least 4 vertices")
    if samples < 1:
        raise ConfigError("samples must be positive")
    _check_size("samples", samples, 7 * 8, "draw array")  # seven int64 draws per sample
    quads = _draw_quads(n, samples, np.random.default_rng(seed))
    u, v = quads[:, _QUAD_PAIRS[0]], quads[:, _QUAD_PAIRS[1]]
    if n <= DENSE_EIG_N:
        adj = _dense_adjacency(g)
        hits = adj.reshape(-1).take(u * adj.shape[1] + v)
    else:
        # edge_array rows are u < v in CSR order, so their u*n+v codes are sorted;
        # the n*n sentinel (no pair's code) keeps every search position in range
        e = g.edge_array()
        edge_codes = np.append(e[:, 0] * n + e[:, 1], n * n)
        pair_codes = np.minimum(u, v) * n + np.maximum(u, v)
        hits = edge_codes[np.searchsorted(edge_codes, pair_codes)] == pair_codes
    degs = np.sort(hits.astype(np.int64) @ _QUAD_INCIDENCE, axis=1)
    types = _DEGCODE4_TO_INDEX[degs @ _BASE4]
    return np.bincount(types, minlength=len(GRAPHLET4_TYPES)) / samples
