"""Independent references the benchmark checks the package's outputs against.

Nothing here calls ``momentdist``: moments come from the benchmark's own
scipy matvec chain, distances from a generalized symmetric eigenproblem, and
triangle counts from the sparse product A∘A².
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# The package treats a moment matrix as singular when its smallest
# eigenvalue is at most this share of its trace, and then compares the pair
# with the Frobenius distance instead of the geodesic.
SINGULAR_REL_TOL = 1e-10

# Geodesic distances of the desk corpus: the ridged Hankel matrices still
# have condition numbers near 1e9, so two correct float64 evaluations agree
# to about 1e-16 * 1e9; 1e-6 leaves room for that and catches any real error.
GEODESIC_REL_TOL = 1e-6
# Moment sums of positive terms and Frobenius distances: float64 roundoff only.
EXACT_REL_TOL = 1e-12


def csr_from_arrays(n: int, indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    data = np.ones(indices.size, dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def csr_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> tuple[sp.csr_matrix, int]:
    """Symmetric 0/1 adjacency of an edge list, duplicates collapsed; (A, m)."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    codes = np.unique(lo * n + hi)
    lo, hi = codes // n, codes % n
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    a = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    a.sort_indices()
    return a, int(codes.size)


def vector_moments(a: sp.csr_matrix, order: int) -> np.ndarray:
    """m_k = <1, A^k 1> / n for k = 0..order."""
    n = a.shape[0]
    w = np.ones(n)
    vals = [1.0]
    for _ in range(order):
        w = a @ w
        vals.append(float(w.sum()) / n)
    return np.asarray(vals)


def hankel(moments: np.ndarray, degree: int, eps: float = 0.0) -> np.ndarray:
    idx = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    return moments[idx] + eps * np.eye(degree + 1)


def is_singular(h: np.ndarray) -> bool:
    tr = float(np.trace(h))
    return tr <= 0 or float(np.linalg.eigvalsh(h)[0]) <= SINGULAR_REL_TOL * tr


def distance(ha: np.ndarray, hb: np.ndarray) -> tuple[float, bool]:
    """(distance, geodesic used): the geodesic, or Frobenius for singular pairs.

    The geodesic is sqrt(sum log^2 lambda) over the generalized eigenvalues
    of hb x = lambda ha x, which equal those of ha^{-1/2} hb ha^{-1/2}.
    """
    if np.array_equal(ha, hb):
        return 0.0, True
    if is_singular(ha) or is_singular(hb):
        return float(np.linalg.norm(ha - hb)), False
    lam = scipy.linalg.eigvalsh(hb, ha)
    return float(math.sqrt(np.sum(np.log(lam) ** 2))), True


def triangles(a: sp.csr_matrix) -> int:
    """Triangle count: sum of A∘A² is six times the number of triangles."""
    return int(round((a @ a).multiply(a).sum())) // 6


def rel_err(got: float, want: float) -> float:
    scale = max(abs(want), 1e-300)
    return abs(got - want) / scale


def digest_arrays(arrays) -> str:
    """sha256 over a sequence of integer arrays, with their lengths."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        h.update(np.int64(arr.size).tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


def digest_graphs(graphs) -> str:
    arrays = []
    for g in graphs:
        arrays += [np.asarray([g.n]), g.indptr, g.indices]
    return digest_arrays(arrays)
