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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

__all__ = [
    "Graph",
    "Permutation",
    "ConfigError",
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


class ConfigError(ValueError):
    """Invalid configuration or parameter value."""


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
    def from_edges(cls, n: int, edges: np.ndarray | Sequence[tuple[int, int]]) -> Graph:
        """Build a canonical graph from an ``(m, 2)`` array or a list of (u, v) pairs.

        Duplicate edges (in either orientation) collapse; self-loops raise.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"edge endpoint out of range for n={n}")
        u, v = arr[:, 0], arr[:, 1]
        if np.any(u == v):
            bad = int(u[np.argmax(u == v)])
            raise SelfLoopError(f"self-loop at vertex {bad} rejected")
        # both orientations of every edge as row-major codes, sorted and
        # deduplicated (sort-and-compare: np.unique is far slower on int64)
        codes = np.sort(np.concatenate([u * n + v, v * n + u]))
        codes = codes[np.concatenate([[True], codes[1:] != codes[:-1]])]
        src, dst = np.divmod(codes, n)
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

    def _rows(self) -> np.ndarray:
        """Row (source vertex) of every entry of ``indices``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def edge_array(self) -> np.ndarray:
        """Each undirected edge once: ``(m, 2)`` int64 rows ``u < v`` in CSR order."""
        e = np.stack([self._rows(), self.indices], axis=1)
        return e[e[:, 0] < e[:, 1]]

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        data = np.ones(self.indices.size, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def to_csr(self) -> sp.csr_matrix:
        """Adjacency matrix as a scipy CSR matrix with float64 ones."""
        return self._csr

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        a[self._rows(), self.indices] = 1.0
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
        rows, cols = self._rows(), self.indices
        # per vertex: unsorted row, self-loop, neighbor out of range; the
        # first faulty vertex is reported, with its first fault in that order
        faults = np.zeros((self.n, 3), dtype=bool)
        faults[rows[1:][(rows[1:] == rows[:-1]) & (np.diff(cols) <= 0)], 0] = True
        faults[rows[cols == rows], 1] = True
        faults[rows[(cols < 0) | (cols >= self.n)], 2] = True
        if faults.any():
            u, kind = np.argwhere(faults)[0]
            messages = (f"neighbor list of {u} not strictly increasing", f"self-loop at {u}",
                        f"neighbor of {u} out of range")
            raise ValueError(messages[kind])
        mirrored = np.isin(cols * self.n + rows, rows * self.n + cols, assume_unique=True)
        missing = np.flatnonzero(~mirrored)
        if missing.size:
            i = missing[0]
            raise ValueError(f"asymmetric edge ({rows[i]},{cols[i]})")
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

    A string whose data lines are all two ASCII decimal tokens is converted
    in bulk. Any other input, and every error, goes through the line loop,
    which alone reports messages and line numbers.
    """
    if indexing not in ("zero", "one", "auto"):
        raise ValueError(f"unknown indexing mode {indexing!r}")
    if isinstance(text, str):
        rows = _decimal_rows(text)
        if rows is not None:
            try:
                if header:
                    return _edge_graph(rows[1:], None, int(rows[0, 0]), indexing)
                return _edge_graph(rows, None, None, indexing)
            except EdgeListError:
                pass  # the line loop below reports it, with its line number
        text = io.StringIO(text)
    return _edge_graph(*_read_lines(text, header), indexing)


def _decimal_rows(text: str) -> np.ndarray | None:
    """The data lines as an ``(m, 2)`` int64 array, if each is two ASCII decimal tokens.

    Tokens are runs of the digits 0-9, at most 18 of them (so int64 holds
    each), separated by spaces, tabs or carriage returns. Returns None for
    any other text and for text without data lines.
    """
    if not text.isascii():
        return None
    if "#" in text or "%" in text:
        text = re.sub(r"(?m)^[ \t\r]*[#%].*", "", text)  # blank out comment lines
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    newline = b == 10
    digit = (b >= 48) & (b <= 57)
    if not (digit | newline | (b == 32) | (b == 9) | (b == 13)).all():
        return None
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))  # token starts, ends
    starts, lengths = bounds[0::2], np.diff(bounds)[0::2]
    # tokens per line, from the tokens that start before each line end
    per_line = np.diff(np.searchsorted(starts, np.append(np.flatnonzero(newline), b.size)),
                       prepend=0)
    if starts.size == 0 or np.any((per_line != 0) & (per_line != 2)) or lengths.max() > 18:
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)


def _read_lines(lines: Iterable[str], header: bool) -> tuple[np.ndarray, list[int], int | None]:
    """The edge rows, their line numbers and the header's ``n``, one line at a time."""
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
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2), linenos, header_n


def _edge_graph(flat: np.ndarray, linenos: list[int] | None, header_n: int | None,
                indexing: str) -> Graph:
    """Graph from parsed edge rows: indexing shift, self-loop and header checks.

    ``linenos`` gives each row's line number for the error messages; None
    leaves the errors without one.
    """
    n = 0
    if flat.size:
        lo = int(flat.min())
        if indexing == "one" or (indexing == "auto" and lo == 1):
            if lo == 0:
                bad = int(np.argmax((flat == 0).any(axis=1)))
                raise EdgeListError("vertex id 0 under one-based indexing",
                                    None if linenos is None else linenos[bad])
            flat = flat - 1
        loops = np.flatnonzero(flat[:, 0] == flat[:, 1])
        if loops.size:
            a = flat[loops[0], 0]
            raise SelfLoopError(f"self-loop {a} {a} rejected",
                                None if linenos is None else linenos[loops[0]])
        n = int(flat.max()) + 1
    if header_n is not None:
        if flat.size and header_n < n:
            raise EdgeListError(f"header n={header_n} smaller than max vertex id {n - 1}")
        n = header_n
    return Graph.from_edges(n, flat)


def load_edge_list(path, indexing: str = "auto", header: bool = False) -> Graph:
    """Read an edge-list file from disk. See :func:`parse_edge_list`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), indexing=indexing, header=header)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n} m={g.m}\n")
        np.savetxt(fh, g.edge_array(), fmt="%d")


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def disjoint_union(gs: Sequence[Graph]) -> Graph:
    """Disjoint union of graphs; vertex sets are relabeled by offset."""
    if len(gs) == 0:
        raise ValueError("disjoint_union requires at least one graph")
    offsets = np.cumsum([0] + [g.n for g in gs])
    edges = np.concatenate([g.edge_array() + off for g, off in zip(gs, offsets)])
    return Graph.from_edges(int(offsets[-1]), edges)


def permute(g: Graph, p: Permutation) -> Graph:
    """Relabel vertices: edge {i, j} maps to {p(i), p(j)}."""
    if p.n != g.n:
        raise ValueError(f"permutation length {p.n} != vertex count {g.n}")
    return Graph.from_edges(g.n, p.map[g.edge_array()])


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set (no loops)."""
    return Graph.from_edges(g.n, np.argwhere(np.triu(g.to_dense() == 0, 1)))


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return complement(empty_graph(n))


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


def _bulk_integers(rng: np.random.Generator, high: int, size: int):
    """Endless ``rng.integers(high)`` values, drawn ``size`` at a time.

    numpy's bounded draws (Lemire's method) take their words from the bit
    generator one value at a time, and the generator itself buffers the spare
    half of each 64-bit word, so a bulk draw yields the same values, in the
    same order, as that many scalar draws: the stream and every graph stay
    the same.
    """
    while True:
        yield from rng.integers(high, size=size).tolist()


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
        raise ConfigError(f"rho must be in [0, 1], got {rho}")
    if nv <= 0 or ne <= 0:
        raise ConfigError("nv and ne must be positive")
    c, rem = divmod(ne, nv)
    if rem != 0 or c < 1:
        raise ConfigError(f"infeasible (nv={nv}, ne={ne}): ne/nv must be a positive integer")
    if nv < 2 * c + 1:
        raise ConfigError(f"infeasible (nv={nv}, ne={ne}): lattice needs nv >= 2*(ne/nv)+1")

    home = np.tile(np.arange(nv, dtype=np.int64), c)
    shift = np.repeat(np.arange(1, c + 1, dtype=np.int64), nv)
    other = (home + shift) % nv

    codes = np.minimum(home, other) * nv + np.maximum(home, other)
    present = set(codes.tolist())
    rng = np.random.default_rng(seed)
    rewire = rng.random(ne) < rho
    picked = np.flatnonzero(rewire)
    draws = _bulk_integers(rng, nv, picked.size)
    for idx in picked:
        u, old = int(home[idx]), int(codes[idx])
        for _ in range(100):
            w = next(draws)
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


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def diameter(g: Graph) -> int | float:
    """Longest shortest-path length; ``math.inf`` if disconnected."""
    if g.n <= 1:
        return 0
    longest = shortest_path(g.to_csr(), unweighted=True).max()
    return math.inf if np.isinf(longest) else int(longest)


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
