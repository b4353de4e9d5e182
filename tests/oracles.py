"""Independent oracles shared across tests.

Everything here is deliberately brute force: permutation search for
isomorphism, walk enumeration and dense integer matrix powers for walk
counts, exhaustive subset enumeration for graphlets, Gaussian elimination
over fractions for Hankel minors, every split retried for union names. These stay independent of the library's
fast paths so they can referee them. The loops that batched paths replaced
(one row of pairs, one KNN query, one walk step, one sample, one eigenvalue
at a time) are kept here too, as byte-exact references for the batching. ``one_of`` is the
weighted hypothesis strategy choice the property tests share.
"""

from __future__ import annotations

import io
import re
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
from hypothesis import strategies as st

from momentdist import (
    EdgeListError,
    Graph,
    NonFiniteDistanceError,
    SelfLoopError,
    UnknownGraphNameError,
)
from momentdist.baselines import _GRAPHLET4_DEGSEQS, GRAPHLET4_TYPES
from momentdist.graphs import (
    _FAMILY_RE,
    MAX_VERTICES,
    _WORD_NAMES,
    _build_family,
    complement,
    disjoint_union,
)
from momentdist import learn
from momentdist.learn import _stratified_folds
from momentdist.measures import MERGE_REL_TOL, WEIGHT_FLOOR
from momentdist.metrics import METRICS, _euclidean


def neighbors(g: Graph, i: int) -> np.ndarray:
    """Sorted neighbor list of vertex ``i``, read off the CSR rows."""
    return g.indices[g.indptr[i] : g.indptr[i + 1]]


def csr_by_neighbor_sets(n: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` of the simple graph on ``pairs``, from one Python
    set of neighbors per vertex: the reference for the sorted-code CSR build."""
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    rows = [sorted(s) for s in nbrs]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return indptr, np.array([v for r in rows for v in r], dtype=np.int64)


def has_edge(g: Graph, i: int, j: int) -> bool:
    row = neighbors(g, i)
    pos = np.searchsorted(row, j)
    return pos < row.size and row[pos] == j


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def validate_graph(g: Graph) -> None:
    """Check all structural invariants of ``g``; raises ValueError on violation."""
    if g.indptr.shape != (g.n + 1,) or g.indptr[0] != 0:
        raise ValueError("bad indptr")
    if g.indptr[-1] != g.indices.size:
        raise ValueError("indptr does not cover indices")
    if np.any(np.diff(g.indptr) < 0):
        raise ValueError("indptr not monotone")
    rows, cols = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees), g.indices
    # per vertex: unsorted row, self-loop, neighbor out of range; the
    # first faulty vertex is reported, with its first fault in that order
    faults = np.zeros((g.n, 3), dtype=bool)
    faults[rows[1:][(rows[1:] == rows[:-1]) & (np.diff(cols) <= 0)], 0] = True
    faults[rows[cols == rows], 1] = True
    faults[rows[(cols < 0) | (cols >= g.n)], 2] = True
    if faults.any():
        u, kind = np.argwhere(faults)[0]
        messages = (f"neighbor list of {u} not strictly increasing", f"self-loop at {u}",
                    f"neighbor of {u} out of range")
        raise ValueError(messages[kind])
    mirrored = np.isin(cols * g.n + rows, rows * g.n + cols, assume_unique=True)
    missing = np.flatnonzero(~mirrored)
    if missing.size:
        i = missing[0]
        raise ValueError(f"asymmetric edge ({rows[i]},{cols[i]})")
    if int(g.degrees.sum()) != 2 * g.m:
        raise ValueError("degree sum != 2m")


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


def walk_count(g: Graph, i: int, j: int, k: int) -> int:
    """Number of walks of length k from i to j, by exhaustive enumeration.

    Deliberately does not use matrix powers: this is the independent oracle
    the moment pipeline is tested against. Cost grows as max-degree**k.
    """
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ValueError("vertex out of range")
    if k < 0:
        raise ValueError("walk length must be nonnegative")
    if k == 0:
        return 1 if i == j else 0
    return sum(walk_count(g, int(u), j, k - 1) for u in neighbors(g, i))


def write_edge_list(g: Graph, path) -> None:
    """An edge-list file of ``g``: a ``# n= m=`` comment, then one ``u v`` line per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n} m={g.m}\n")
        np.savetxt(fh, g.edge_array(), fmt="%d")


def dense_int_power(g: Graph, k: int) -> np.ndarray:
    """A^k as exact integers (object dtype so nothing overflows)."""
    a = np.zeros((g.n, g.n), dtype=object)
    for u in range(g.n):
        for v in neighbors(g, u):
            a[u, v] = 1
    p = np.eye(g.n, dtype=object)
    for _ in range(k):
        p = p @ a
    return p


def step_chain_moments(g: Graph, order: int, state: str) -> np.ndarray:
    """Moments m_0..m_order in the uniform ``"vector"`` or normalized ``"trace"``
    state, one sparse matvec per order: the vector chain sums A^k 1 and the
    trace chain sums the diagonal of A^k over blocks of 256 identity columns.
    The reference for the walk-sum routine of ``moments``, which reaches the
    same integer walk counts from half the products."""
    a = g.to_csr()
    vals = np.zeros(order + 1, dtype=np.float64)
    vals[0] = g.n
    if state == "vector":
        w = np.ones(g.n, dtype=np.float64)
        for k in range(1, order + 1):
            w = a @ w
            vals[k] = w.sum()
        return vals / g.n
    for start in range(0, g.n, 256):
        rows = np.arange(start, min(start + 256, g.n))
        cols = np.arange(rows.size)
        w = np.zeros((g.n, rows.size), dtype=np.float64)
        w[rows, cols] = 1.0
        for k in range(1, order + 1):
            w = a @ w
            vals[k] += w[rows, cols].sum()
    return vals / g.n


def exact_walk_sums(g: Graph, order: int) -> list[int]:
    """<1, A^k 1> for k = 0..order as Python integers, one neighbor-list pass per step."""
    rows = [neighbors(g, i).tolist() for i in range(g.n)]
    w = [1] * g.n
    sums = [g.n]
    for _ in range(order):
        w = [sum(w[j] for j in row) for row in rows]
        sums.append(sum(w))
    return sums


def brute_graphlet3_counts(g: Graph) -> np.ndarray:
    """Exhaustive induced 3-subset counts (empty, one-edge, wedge, triangle)."""
    counts = np.zeros(4, dtype=np.int64)
    for trio in combinations(range(g.n), 3):
        edges = sum(
            has_edge(g, a, b) for a, b in combinations(trio, 2)
        )
        counts[edges] += 1
    return counts


def _graphlet4_type(g: Graph, quad) -> int:
    """Catalog index of the subgraph that the 4 vertices of ``quad`` induce."""
    degs = [0, 0, 0, 0]
    for a in range(4):
        for b in range(a + 1, 4):
            if has_edge(g, int(quad[a]), int(quad[b])):
                degs[a] += 1
                degs[b] += 1
    return list(_GRAPHLET4_DEGSEQS.values()).index(tuple(sorted(degs)))


def brute_graphlet4_distribution(g: Graph) -> np.ndarray:
    """Exhaustive induced 4-subset distribution in catalog order."""
    counts = np.zeros(len(GRAPHLET4_TYPES), dtype=np.int64)
    for quad in combinations(range(g.n), 4):
        counts[_graphlet4_type(g, quad)] += 1
    return counts / counts.sum()


def choice_quads(n: int, samples: int, seed) -> np.ndarray:
    """One ``rng.choice(n, size=4, replace=False)`` per sample, stacked: the
    stream that ``baselines._draw_quads`` reproduces in one bulk draw."""
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, size=4, replace=False) for _ in range(samples)])


def graphlet4_distribution_by_samples(g: Graph, samples: int, seed) -> np.ndarray:
    """Sampled induced 4-subgraph distribution, one quad and six edge lookups at
    a time: the reference for the one-pass ``graphlet4_distribution``, with the
    quads of per-sample ``rng.choice`` calls."""
    counts = np.zeros(len(GRAPHLET4_TYPES), dtype=np.int64)
    for quad in choice_quads(g.n, samples, seed):
        counts[_graphlet4_type(g, quad)] += 1
    return counts / samples


def chung_lu_graph(seed, n: int = 3000, gamma: float = 2.3, mean_degree: int = 10) -> Graph:
    """A heavy-tailed stand-in for real networks (Chung and Lu, Annals of
    Combinatorics 6, 2002): vertex i has weight i^(-1/(gamma-1)), and n *
    mean_degree / 2 endpoint pairs are drawn in proportion to the weights, with
    self-pairs dropped and repeats merged. At the defaults a graph has about 13.7k
    edges and a largest degree of about 730."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1) ** (-1 / (gamma - 1))
    pairs = rng.choice(n, size=(n * mean_degree // 2, 2), p=w / w.sum())
    return Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])


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
            for v in neighbors(g, u):
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


def pairwise_by_rows(kernel, *stacks) -> tuple[np.ndarray, int]:
    """All-pairs matrix and fallback count from one kernel call per row.

    The row loop that the chunked engine ``metrics._pairwise`` replaced, kept
    as its reference: ``kernel`` gets graph i's entry of every stack followed
    by the stacks' rows i+1..n-1. Distances are clipped at 0 and fill both
    triangles; the first non-finite entry in row-major order raises
    NonFiniteDistanceError.
    """
    n = len(stacks[0])
    out = np.zeros((n, n), dtype=np.float64)
    fallbacks = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            d, fell = kernel(*(s[i] for s in stacks), *(s[i + 1:] for s in stacks))
            out[i, i + 1:] = out[i + 1:, i] = np.maximum(d, 0.0)
            fallbacks += fell
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise NonFiniteDistanceError(f"distance between graphs {i} and {j} is {out[i, j]}")
    return out, fallbacks


def moment_distances_by_rows(mats: np.ndarray, metric: str):
    """All-pairs moment-matrix distances and fallback count, one row of pairs
    per kernel call through :func:`pairwise_by_rows`: the identity test, the
    PD mask, the metric's kernel and the Frobenius fallback of graph i against
    graphs i+1..n-1."""
    embed, kernel = METRICS[metric]

    def row(a, pd_a, left_a, _right_a, bs, pd_bs, _left_bs, right_bs):
        d = np.zeros(len(bs))
        differ = ~np.all(bs == a, axis=(1, 2))
        use = differ & pd_bs & pd_a
        fell = differ & ~use
        if use.any():
            d[use], w0 = kernel(left_a, right_bs[use])
            if w0 is not None:
                fell[use] = w0 <= 0
        d[fell] = _euclidean(a, bs[fell])
        return d, int(fell.sum())

    with np.errstate(over="ignore", invalid="ignore"):
        return pairwise_by_rows(row, mats, *embed(mats))


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


def hankel_minors_by_elimination(vals, size: int) -> list[Fraction]:
    """Exact leading principal minors of the ``size`` x ``size`` Hankel matrix
    of ``vals`` (float64 values read as the dyadic rationals they are), each
    by Gaussian elimination with row swaps over fractions."""
    h = [[Fraction(vals[i + j]) for j in range(size)] for i in range(size)]
    return [_fraction_det([row[:k] for row in h[:k]]) for k in range(1, size + 1)]


def _fraction_det(a: list[list[Fraction]]) -> Fraction:
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def one_of(*strategies):
    """``st.one_of`` in which a strategy given k times is drawn k times as often.

    ``st.one_of`` keeps one copy of a repeated strategy, so there repeating it
    adds no weight.
    """
    return st.sampled_from(strategies).flatmap(lambda s: s)


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
    if n > MAX_VERTICES:
        # the line of the largest id, unless the header set n
        line = None if header_n is not None else linenos[int(np.argmax(flat.max(axis=1)))]
        raise EdgeListError(f"vertex count {n} exceeds {MAX_VERTICES}, the most whose "
                            "edge codes fit in int64", line)
    return Graph.from_edges(n, flat)


def generate_rewired_by_draws(nv: int, ne: int, rho: float, seed) -> Graph:
    """The rewired ring lattice with one scalar ``rng.integers(nv)`` draw per
    rewire attempt and numpy scalars throughout, kept as the reference for the
    bulk-drawn list loop of ``generate_rewired``: same RNG stream, same graphs.
    Takes feasible parameters only."""
    c = ne // nv
    home = np.tile(np.arange(nv, dtype=np.int64), c)
    shift = np.repeat(np.arange(1, c + 1, dtype=np.int64), nv)
    other = (home + shift) % nv

    codes = np.minimum(home, other) * nv + np.maximum(home, other)
    present = set(codes.tolist())
    rng = np.random.default_rng(seed)
    rewire = rng.random(ne) < rho
    for idx in np.flatnonzero(rewire):
        u, old = int(home[idx]), int(codes[idx])
        for _ in range(100):
            w = int(rng.integers(nv))
            if w == u:
                continue
            new = (u * nv + w) if u < w else (w * nv + u)
            if new in present:
                continue
            present.remove(old)
            present.add(new)
            other[idx] = w
            break
    return Graph.from_edges(nv, np.stack([home, other], axis=1))


def knn_fold_accuracies_by_query(d: np.ndarray, labels, k: int, folds: int, seed) -> np.ndarray:
    """Per-fold KNN accuracy with one stable sort and one vote per held-out item.

    The reference for the one-pass ``knn_classify``: the same fold split, then
    the k nearest training items vote and a tie goes to the nearest one's label.
    """
    _, codes = np.unique(labels, return_inverse=True)
    fold_of = _stratified_folds(codes, folds, np.random.default_rng(seed))
    accuracies = np.empty(folds, dtype=np.float64)
    for f in range(folds):
        test = np.flatnonzero(fold_of == f)
        train = np.setdiff1d(np.arange(len(codes)), test, assume_unique=True)
        correct = 0
        for i in test:
            order = train[np.argsort(d[i, train], kind="stable")]
            votes = np.bincount(codes[order[: min(k, order.size)]])
            top = np.flatnonzero(votes == votes.max())
            pred = top[0] if top.size == 1 else codes[order[0]]
            correct += int(pred == codes[i])
        accuracies[f] = correct / test.size
    return accuracies


def kmeans_run(k_mat: np.ndarray, labels: np.ndarray, k: int):
    """One Lloyd run of kernel k-means, one cluster at a time; returns
    (labels, objective)."""
    n = k_mat.shape[0]
    diag = np.diag(k_mat)
    for _ in range(learn.KMEANS_MAX_ITER):
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


def kmeans_inits(n: int, k: int, restarts: int, seed) -> np.ndarray:
    """The ``(restarts, n)`` initial labelings of ``kernel_kmeans``: per
    restart, ``rng.integers`` labels, then the first k of ``rng.permutation``
    set to 0..k-1 so that every cluster starts nonempty."""
    rng = np.random.default_rng(seed)
    inits = []
    for _ in range(restarts):
        init = rng.integers(0, k, size=n)
        init[rng.permutation(n)[:k]] = np.arange(k)
        inits.append(init)
    return np.stack(inits)


def kernel_kmeans_by_restarts(k_mat: np.ndarray, k: int, restarts: int, seed):
    """Kernel k-means with one Lloyd run per restart, each on its own, kept as
    the reference for the batched loop of ``kernel_kmeans``: the same
    initializations, and the first restart with the lowest objective wins.
    Returns (labels, objective)."""
    k_mat = np.asarray(k_mat, dtype=np.float64)
    best = None
    for init in kmeans_inits(k_mat.shape[0], k, restarts, seed):
        labels, objective = kmeans_run(k_mat, init, k)
        if best is None or objective < best[1]:
            best = (labels, objective)
    return best


_MULT_RE = re.compile(r"(\d+)(.+)$")


def named_graph_by_splits(name: str) -> Graph:
    """The named-graph parser that retries both halves of every ``u`` split
    from scratch, in exponential time on union names; kept as the reference
    for the one-split ``named_graph``: same graphs, same errors."""
    s = name.strip().replace(" ", "").replace("_", "")
    if not s:
        raise UnknownGraphNameError("empty graph name")
    low = s.lower()
    if low.startswith("co-"):
        return complement(named_graph_by_splits(s[3:]))
    if low in _WORD_NAMES:
        return _WORD_NAMES[low]()
    m = _FAMILY_RE.fullmatch(s)
    if m:
        return _build_family(m.group(1), int(m.group(2)), int(m.group(3)) if m.group(3) else None)
    m = _MULT_RE.fullmatch(s)
    if m and not s[0].isalpha():
        count = int(m.group(1))
        if count < 1:
            raise UnknownGraphNameError(f"multiplier must be positive in {name!r}")
        return disjoint_union([named_graph_by_splits(m.group(2))] * count)
    for pos, ch in enumerate(low):
        if ch == "u" and 0 < pos < len(s) - 1:
            try:
                left = named_graph_by_splits(s[:pos])
                right = named_graph_by_splits(s[pos + 1 :])
            except UnknownGraphNameError:
                continue
            return disjoint_union([left, right])
    raise UnknownGraphNameError(f"unknown graph name {name!r}")


def spectral_atoms_by_eigenvalue(a: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (lambdas, omegas) of ``spectral_measure(a, xi)``, one eigenvalue at a
    time: the loop that the per-atom sums replaced, kept as their byte-exact reference."""
    eigs, vecs = np.linalg.eigh(a)
    merge_tol = MERGE_REL_TOL * float(np.max(np.abs(eigs)))
    amps2 = (vecs.T @ xi) ** 2
    lambdas, omegas = [], []
    start = 0
    for i in range(1, eigs.size + 1):
        if i == eigs.size or eigs[i] - eigs[i - 1] > merge_tol:
            w = float(amps2[start:i].sum())
            if w > WEIGHT_FLOOR:
                lambdas.append(float(np.mean(eigs[start:i])))
                omegas.append(w)
            start = i
    om = np.asarray(omegas)
    return np.asarray(lambdas), om / om.sum()
