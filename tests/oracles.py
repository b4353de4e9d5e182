"""Independent oracles shared across tests.

Everything here is deliberately brute force: permutation search for
isomorphism, dense integer matrix powers for walk counts, exhaustive subset
enumeration for graphlets. These stay independent of the library's fast
paths so they can referee them.
"""

from __future__ import annotations

import io
from itertools import combinations, permutations

import numpy as np

from momentdist import EdgeListError, Graph, SelfLoopError


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Brute-force isomorphism test; only sensible for n <= 8."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    e2 = {(u, v) for u, v in g2.edge_array().tolist()}
    for perm in permutations(range(g1.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in g1.edge_array().tolist()}
        if mapped == e2:
            return True
    return False


def dense_int_power(g: Graph, k: int) -> np.ndarray:
    """A^k as exact integers (object dtype so nothing overflows)."""
    a = np.zeros((g.n, g.n), dtype=object)
    for u in range(g.n):
        for v in g.neighbors(u):
            a[u, v] = 1
    p = np.eye(g.n, dtype=object)
    for _ in range(k):
        p = p @ a
    return p


def brute_graphlet3_counts(g: Graph) -> np.ndarray:
    """Exhaustive induced 3-subset counts (empty, one-edge, wedge, triangle)."""
    counts = np.zeros(4, dtype=np.int64)
    for trio in combinations(range(g.n), 3):
        edges = sum(
            g.has_edge(a, b) for a, b in combinations(trio, 2)
        )
        counts[edges] += 1
    return counts


def brute_graphlet4_distribution(g: Graph) -> np.ndarray:
    """Exhaustive induced 4-subset distribution in catalog order."""
    from momentdist.baselines import _DEGSEQ4_TO_INDEX, GRAPHLET4_TYPES

    counts = np.zeros(len(GRAPHLET4_TYPES), dtype=np.int64)
    for quad in combinations(range(g.n), 4):
        degs = [0, 0, 0, 0]
        for a in range(4):
            for b in range(a + 1, 4):
                if g.has_edge(quad[a], quad[b]):
                    degs[a] += 1
                    degs[b] += 1
        counts[_DEGSEQ4_TO_INDEX[tuple(sorted(degs))]] += 1
    return counts / counts.sum()


def component_count(g: Graph) -> int:
    seen = np.zeros(g.n, dtype=bool)
    comps = 0
    for s in range(g.n):
        if seen[s]:
            continue
        comps += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
    return comps


# -- per-pair reference for the batched pairwise engine ----------------------------

SINGULAR_REL_TOL = 1e-10


class _NotPD(Exception):
    pass


def _pd_eigh(a):
    w, u = np.linalg.eigh(a)
    tr = float(np.trace(a))
    if tr <= 0 or w[0] <= SINGULAR_REL_TOL * tr:
        raise _NotPD
    return w, u


def _geodesic(a, b):
    wa, ua = _pd_eigh(a)
    _pd_eigh(b)
    inv_sqrt = (ua * (wa**-0.5)) @ ua.T
    w = np.linalg.eigvalsh(inv_sqrt @ b @ inv_sqrt)
    if w[0] <= 0:
        raise _NotPD
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def _log_frobenius(a, b):
    logs = []
    for m in (a, b):
        w, u = _pd_eigh(m)
        logs.append((u * np.log(w)) @ u.T)
    return float(np.linalg.norm(logs[0] - logs[1], "fro"))


def _cholesky_frobenius(a, b):
    try:
        return float(np.linalg.norm(np.linalg.cholesky(a) - np.linalg.cholesky(b), "fro"))
    except np.linalg.LinAlgError:
        raise _NotPD from None


def _frobenius(a, b):
    return float(np.linalg.norm(a - b, "fro"))


_REFERENCE_METRICS = {
    "frobenius": _frobenius,
    "affine-invariant": _geodesic,
    "log-frobenius": _log_frobenius,
    "cholesky-frobenius": _cholesky_frobenius,
}


def reference_pairwise(mats, metric: str) -> tuple[np.ndarray, int]:
    """All-pairs moment-matrix distances, one pair at a time, and the fallback count.

    Identical matrices are exactly 0 apart; a pair on which a PD metric
    fails falls back to the Frobenius distance.
    """
    n = len(mats)
    out = np.zeros((n, n))
    fallbacks = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = mats[i], mats[j]
            if np.array_equal(a, b):
                continue
            try:
                val = _REFERENCE_METRICS[metric](a, b)
            except _NotPD:
                val = _frobenius(a, b)
                fallbacks += 1
            out[i, j] = out[j, i] = max(val, 0.0)
    return out, fallbacks


def reference_euclidean_matrix(features) -> np.ndarray:
    """All-pairs Euclidean distances between feature vectors, one pair at a time."""
    n = len(features)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = float(np.linalg.norm(features[i] - features[j]))
    return out


def reference_bhattacharyya_matrix(covs) -> np.ndarray:
    """All-pairs Bhattacharyya distances with the default trace-relative jitter."""
    n = len(covs)
    k = covs[0].shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c1, c2 = covs[i], covs[j]
            base = (np.trace(c1) + np.trace(c2)) / (2 * k)
            eye = (1e-8 * base if base > 0 else 1e-12) * np.eye(k)
            _, ld_mid = np.linalg.slogdet((c1 + c2) / 2 + eye)
            _, ld_1 = np.linalg.slogdet(c1 + eye)
            _, ld_2 = np.linalg.slogdet(c2 + eye)
            out[i, j] = out[j, i] = max(float(0.5 * ld_mid - 0.25 * (ld_1 + ld_2)), 0.0)
    return out


def parse_edge_list_by_lines(text: str, indexing: str = "auto", header: bool = False) -> Graph:
    """The edge-list parser as one Python loop over lines, kept as the reference
    for the bulk conversion of ``parse_edge_list``: same graphs, same errors."""
    pairs: list[tuple[int, int]] = []
    linenos: list[int] = []
    header_n = None
    saw_header = False
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(f"expected two integer tokens, got {len(tokens)}", lineno)
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"non-integer token in {line!r}", lineno) from None
        if header and not saw_header:
            saw_header = True
            if a < 0 or b < 0:
                raise EdgeListError("header counts must be nonnegative", lineno)
            header_n = a
            continue
        if a < 0 or b < 0:
            raise EdgeListError("negative vertex id", lineno)
        pairs.append((a, b))
        linenos.append(lineno)

    if header and not saw_header:
        raise EdgeListError("header requested but no data lines found")

    if pairs:
        flat = np.asarray(pairs, dtype=np.int64)
        lo = int(flat.min())
        if indexing == "one" or (indexing == "auto" and lo == 1):
            if lo == 0:
                bad = int(np.argmax((flat == 0).any(axis=1)))
                raise EdgeListError("vertex id 0 under one-based indexing", linenos[bad])
            flat = flat - 1
        loops = np.flatnonzero(flat[:, 0] == flat[:, 1])
        if loops.size:
            a = flat[loops[0], 0]
            raise SelfLoopError(f"self-loop {a} {a} rejected", linenos[loops[0]])
        n = int(flat.max()) + 1
    else:
        flat = np.zeros((0, 2), dtype=np.int64)
        n = 0
    if header_n is not None:
        if pairs and header_n < n:
            raise EdgeListError(f"header n={header_n} smaller than max vertex id {n - 1}")
        n = header_n
    return Graph.from_edges(n, flat)
