"""Immutable undirected simple graphs in compressed sparse adjacency form.

Vertices are 0-based integers. The adjacency structure is stored as CSR-style
row pointers plus sorted column indices, which makes equality checks, sparse
matvecs, and hand-offs to scipy cheap. All constructors canonicalize their
input: duplicate edges collapse, neighbor lists are sorted, and self-loops are
rejected outright.
"""

from __future__ import annotations

import io
import math
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "Permutation",
    "EdgeListError",
    "SelfLoopError",
    "UnknownGraphNameError",
    "parse_edge_list",
    "load_edge_list",
    "write_edge_list",
    "disjoint_union",
    "permute",
    "complement",
    "named_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_bipartite_graph",
    "empty_graph",
    "generate_rewired",
    "diameter",
    "walk_count",
    "NAMED_GRAPH_CATALOG",
]


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SelfLoopError(EdgeListError):
    """A self-loop was supplied; graphs here are loop-free."""


class UnknownGraphNameError(ValueError):
    """Requested named graph is not in the catalog."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with canonical sparse adjacency.

    Attributes
    ----------
    n : int
        Number of vertices.
    indptr : ndarray of int64, shape (n + 1,)
        Row pointers into ``indices``.
    indices : ndarray of int64, shape (2 * m,)
        Concatenated, per-vertex strictly increasing neighbor lists.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a canonical graph from an iterable of (u, v) pairs.

        Duplicate edges (in either orientation) collapse; self-loops raise.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arr = np.asarray(list(edges), dtype=np.int64)
        if arr.size == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"edge endpoint out of range for n={n}")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        if np.any(u == v):
            bad = int(u[np.argmax(u == v)])
            raise SelfLoopError(f"self-loop at vertex {bad} rejected")
        codes = np.unique(u * n + v)
        u, v = codes // n, codes % n
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, indptr, dst)

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.neighbors(i)
        pos = np.searchsorted(row, j)
        return pos < row.size and row[pos] == j

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        data = np.ones(self.indices.size, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def to_csr(self) -> sp.csr_matrix:
        """Adjacency matrix as a scipy CSR matrix with float64 ones."""
        return self._csr

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u in range(self.n):
            a[u, self.neighbors(u)] = 1.0
        return a

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raises ValueError on violation."""
        if self.indptr.shape != (self.n + 1,) or self.indptr[0] != 0:
            raise ValueError("bad indptr")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr does not cover indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr not monotone")
        for u in range(self.n):
            row = self.neighbors(u)
            if row.size and (np.any(np.diff(row) <= 0)):
                raise ValueError(f"neighbor list of {u} not strictly increasing")
            if np.any(row == u):
                raise ValueError(f"self-loop at {u}")
            if row.size and (row.min() < 0 or row.max() >= self.n):
                raise ValueError(f"neighbor of {u} out of range")
        for u in range(self.n):
            for v in self.neighbors(u):
                if not self.has_edge(int(v), u):
                    raise ValueError(f"asymmetric edge ({u},{v})")
        if int(self.degrees.sum()) != 2 * self.m:
            raise ValueError("degree sum != 2m")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        return hash((self.n, self.indices.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False)
class Permutation:
    """Bijection on {0..n-1}, stored as the image array ``map``."""

    map: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.int64)
        object.__setattr__(self, "map", m)
        n = m.size
        if not np.array_equal(np.sort(m), np.arange(n)):
            raise ValueError("permutation map is not a bijection on {0..n-1}")
        m.flags.writeable = False

    @property
    def n(self) -> int:
        return self.map.size

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def random(cls, n: int, seed=None) -> Permutation:
        rng = np.random.default_rng(seed)
        return cls(rng.permutation(n).astype(np.int64))

    def inverse(self) -> Permutation:
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.map] = np.arange(self.n)
        return Permutation(inv)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_edge_list(
    text: str | Iterable[str],
    indexing: str = "auto",
    header: bool = False,
) -> Graph:
    """Parse a plain-text edge list into a canonical Graph.

    Each non-comment, non-blank line must contain two integer tokens ``u v``.
    Lines starting with ``#`` or ``%`` are comments. With ``header=True`` the
    first data line is read as ``n m`` and overrides the inferred vertex
    count (the edge count is advisory).

    ``indexing`` is one of ``"zero"``, ``"one"``, or ``"auto"``. Under
    ``auto``, a file whose smallest vertex id is 1 is treated as one-based;
    everything else is zero-based.
    """
    if indexing not in ("zero", "one", "auto"):
        raise ValueError(f"unknown indexing mode {indexing!r}")
    if isinstance(text, str):
        lines: Iterable[str] = io.StringIO(text)
    else:
        lines = text

    pairs: list[tuple[int, int]] = []
    linenos: list[int] = []
    header_n: int | None = None
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
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
        for (a, b), lineno in zip(flat, linenos):
            if a == b:
                raise SelfLoopError(f"self-loop {a} {b} rejected", lineno)
        n = int(flat.max()) + 1
    else:
        flat = np.zeros((0, 2), dtype=np.int64)
        n = 0
    if header_n is not None:
        if pairs and header_n < n:
            raise EdgeListError(f"header n={header_n} smaller than max vertex id {n - 1}")
        n = header_n
    return Graph.from_edges(n, flat)


def load_edge_list(path, indexing: str = "auto", header: bool = False) -> Graph:
    """Read an edge-list file from disk. See :func:`parse_edge_list`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh, indexing=indexing, header=header)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n} m={g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def disjoint_union(gs: Sequence[Graph]) -> Graph:
    """Disjoint union of graphs; vertex sets are relabeled by offset."""
    if len(gs) == 0:
        raise ValueError("disjoint_union requires at least one graph")
    n = sum(g.n for g in gs)
    edges = []
    offset = 0
    for g in gs:
        for u, v in g.edges():
            edges.append((u + offset, v + offset))
        offset += g.n
    return Graph.from_edges(n, edges)


def permute(g: Graph, p: Permutation) -> Graph:
    """Relabel vertices: edge {i, j} maps to {p(i), p(j)}."""
    if p.n != g.n:
        raise ValueError(f"permutation length {p.n} != vertex count {g.n}")
    edges = [(int(p.map[u]), int(p.map[v])) for u, v in g.edges()]
    return Graph.from_edges(g.n, edges)


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set (no loops)."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return Graph.from_edges(g.n, edges)


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: one center joined to n-1 leaves (S_n)."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def _claw() -> Graph:
    return star_graph(4)


def _paw() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def _diamond() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


_WORD_NAMES = {
    "claw": _claw,
    "paw": _paw,
    "diamond": _diamond,
    "triangle": lambda: complete_graph(3),
}

#: Names understood by :func:`named_graph`, for docs and CLI help.
NAMED_GRAPH_CATALOG = (
    "K<n> (complete), K<m>,<n> (complete bipartite), C<n> (cycle), "
    "P<n> (path), S<n> (star), claw, paw, diamond, triangle; "
    "prefix co- for the complement, a leading integer for that many disjoint "
    "copies (e.g. 4K1), and 'u' to join parts (e.g. C4uK1)."
)

_FAMILY_RE = re.compile(r"([KkCcPpSs])(\d+)(?:,(\d+))?$")
_MULT_RE = re.compile(r"(\d+)(.+)$")
_FAMILIES = {"C": cycle_graph, "P": path_graph, "S": star_graph}


def _build_family(letter: str, a: int, b: int | None) -> Graph:
    letter = letter.upper()
    if letter == "K":
        return complete_graph(a) if b is None else complete_bipartite_graph(a, b)
    if b is not None:
        raise UnknownGraphNameError(f"family {letter} takes one parameter")
    if letter not in _FAMILIES:
        raise UnknownGraphNameError(f"unknown graph family {letter!r}")
    try:
        return _FAMILIES[letter](a)
    except ValueError as exc:
        raise UnknownGraphNameError(f"{letter}{a}: {exc}") from None


def _parse_name(name: str) -> Graph:
    s = name.strip().replace(" ", "").replace("_", "")
    if not s:
        raise UnknownGraphNameError("empty graph name")
    low = s.lower()
    if low.startswith("co-"):
        return complement(_parse_name(s[3:]))
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
        base = _parse_name(m.group(2))
        return disjoint_union([base] * count)
    # union separator: try each 'u' position until both halves parse
    for pos, ch in enumerate(low):
        if ch == "u" and 0 < pos < len(s) - 1:
            try:
                left = _parse_name(s[:pos])
                right = _parse_name(s[pos + 1 :])
            except UnknownGraphNameError:
                continue
            return disjoint_union([left, right])
    raise UnknownGraphNameError(f"unknown graph name {name!r}")


def named_graph(name: str, *params: int) -> Graph:
    """Look up a standard graph by name.

    Either a family letter with explicit parameters, e.g. ``named_graph("K", 4)``
    or ``named_graph("K", 2, 3)``, or a compact string such as ``"C4"``,
    ``"co-paw"``, ``"2K2"``, or ``"C4uK1"``. See :data:`NAMED_GRAPH_CATALOG`.
    """
    if params:
        if len(params) == 1:
            return _build_family(name, params[0], None)
        if len(params) == 2:
            return _build_family(name, params[0], params[1])
        raise UnknownGraphNameError("too many parameters")
    return _parse_name(name)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_rewired(nv: int, ne: int, rho: float, seed) -> Graph:
    """Ring lattice with random endpoint rewiring.

    Starts from the circulant lattice where each vertex links to its
    ``c = ne/nv`` nearest neighbors on each side, then independently with
    probability ``rho`` re-targets the far endpoint of each edge to a uniform
    random vertex, rejecting self-loops and duplicates (the edge is kept as-is
    if no admissible target is found). The result always has exactly ``nv``
    vertices and ``ne`` edges, and is deterministic for a fixed seed.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if nv <= 0 or ne <= 0:
        raise ValueError("nv and ne must be positive")
    c, rem = divmod(ne, nv)
    if rem != 0 or c < 1:
        raise ValueError(f"infeasible (nv={nv}, ne={ne}): ne/nv must be a positive integer")
    if nv < 2 * c + 1:
        raise ValueError(f"infeasible (nv={nv}, ne={ne}): lattice needs nv >= 2*(ne/nv)+1")

    home = np.tile(np.arange(nv, dtype=np.int64), c)
    shift = np.repeat(np.arange(1, c + 1, dtype=np.int64), nv)
    other = (home + shift) % nv

    def code(u, v):
        return (u * nv + v) if u < v else (v * nv + u)

    present = {code(int(u), int(v)) for u, v in zip(home, other)}
    rng = np.random.default_rng(seed)
    rewire = rng.random(ne) < rho
    for idx in np.flatnonzero(rewire):
        u, v = int(home[idx]), int(other[idx])
        old = code(u, v)
        for _ in range(100):
            w = int(rng.integers(nv))
            if w == u:
                continue
            new = code(u, w)
            if new in present:
                continue
            present.remove(old)
            present.add(new)
            other[idx] = w
            break
    return Graph.from_edges(nv, np.stack([home, other], axis=1))


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def _bfs_depths(g: Graph, source: int) -> np.ndarray:
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def diameter(g: Graph) -> int | float:
    """Longest shortest-path length; ``math.inf`` if disconnected."""
    if g.n <= 1:
        return 0
    best = 0
    for s in range(g.n):
        dist = _bfs_depths(g, s)
        if dist.min() < 0:
            return math.inf
        best = max(best, int(dist.max()))
    return best


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
    total = 0
    for u in g.neighbors(i):
        total += walk_count(g, int(u), j, k - 1)
    return total
