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
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "Permutation",
    "ConfigError",
    "EdgeListError",
    "SelfLoopError",
    "UnknownGraphNameError",
    "parse_edge_list",
    "load_edge_list",
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
    "NAMED_GRAPH_CATALOG",
]


# the most vertices for which every edge code u*n+v fits in int64
MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max)
# numpy sizes no array of more bytes than this
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


class ConfigError(ValueError):
    """Invalid configuration or parameter value."""


def _check_size(name: str, value: int, unit_bytes: int, array: str, base_bytes: int = 0) -> None:
    """ConfigError if numpy cannot size ``array``, of ``base_bytes + value * unit_bytes`` bytes.

    numpy refuses a larger array than ``_MAX_ARRAY_BYTES`` with a ValueError
    or an OverflowError before it allocates anything; this names the option
    ``name`` instead. A smaller array that does not fit in memory still
    raises MemoryError.
    """
    limit = (_MAX_ARRAY_BYTES - base_bytes) // unit_bytes
    if value > limit:
        raise ConfigError(f"{name} {value} exceeds {limit}, the most whose {array} numpy can size")


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

        Duplicate edges (in either orientation) collapse; self-loops and endpoints
        that are not integers (floats, strings) raise ValueError.
        """
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
        arr = np.asarray(edges)
        if arr.size == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        if arr.dtype.kind not in "iu":
            raise ValueError(f"edge endpoints must be integers, got {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"edge endpoint out of range for n={n}")
        u, v = arr[:, 0], arr[:, 1]
        if np.any(u == v):
            bad = int(u[np.argmax(u == v)])
            raise SelfLoopError(f"self-loop at vertex {bad} rejected")
        return _canonical(n, u, v)

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

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
        # int32 copies when n and nnz fit: scipy would scan the int64 arrays to pick them
        fits = max(self.n, self.indices.size) <= np.iinfo(np.int32).max
        index = np.int32 if fits else np.int64
        return sp.csr_matrix((data, self.indices.astype(index, copy=False),
                              self.indptr.astype(index, copy=False)), shape=(self.n, self.n))

    def to_csr(self) -> sp.csr_matrix:
        """Adjacency matrix as a scipy CSR matrix with float64 ones."""
        return self._csr

    def to_dense(self) -> np.ndarray:
        """Adjacency matrix as a C-ordered float64 0/1 array."""
        return self._csr.toarray()

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


def _canonical(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph of the in-range, loop-free pairs (u[i], v[i]), from the row-major codes
    of both orientations: int32 while n*n <= 2**31 - 1, sorted, and deduplicated."""
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    u, v = u.astype(dtype), v.astype(dtype)
    codes = np.sort(np.concatenate([u * n + v, v * n + u]))
    dup = codes[1:] == codes[:-1]  # sort and compare: np.unique is far slower
    codes = np.delete(codes, np.flatnonzero(dup) + 1) if dup.any() else codes
    rows = codes // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(n, indptr, (codes - rows * n).astype(np.int64))


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
    def random(cls, n: int, seed=None) -> Permutation:
        rng = np.random.default_rng(seed)
        return cls(rng.permutation(n).astype(np.int64))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_edge_list(text: str, indexing: str = "auto", header: bool = False) -> Graph:
    """Parse the text of a plain-text edge list into a canonical Graph.

    Each non-comment, non-blank line must contain two integer tokens ``u v``.
    Lines starting with ``#`` or ``%`` are comments. With ``header=True`` the
    first data line is read as ``n m`` and overrides the inferred vertex
    count (the edge count is advisory).

    ``indexing`` is one of ``"zero"``, ``"one"``, or ``"auto"``. Under
    ``auto``, a file whose smallest vertex id is 1 is treated as one-based;
    everything else is zero-based.

    Text whose data lines are all two ASCII decimal tokens is converted in
    bulk; any other text goes through a loop over lines. Both report the
    same errors, with the same messages and line numbers.
    """
    if indexing not in ("zero", "one", "auto"):
        raise ConfigError(f"unknown indexing mode {indexing!r}")
    parsed = _decimal_rows(text, header)
    return _edge_graph(*(parsed or _read_lines(text, header)), indexing)


def _decimal_rows(text: str, header: bool) -> tuple[np.ndarray, Callable, int | None] | None:
    """:func:`_read_lines`' result in bulk, if each data line is two ASCII decimal tokens.

    Tokens are runs of the digits 0-9, at most 18 of them (so int64 holds
    each), separated by spaces, tabs or carriage returns; comment lines may
    hold any text. Returns None for other data lines and for none at all.
    """
    if "#" in text or "%" in text:
        text = re.sub(r"(?m)^[ \t\r]*[#%].*", "", text)  # blank out comment lines
    if not text.isascii() or (data := text.encode("ascii")).translate(None, b"0123456789 \t\r\n"):
        return None  # a byte other than ASCII digits and blanks
    # the words of _token_values start 8 bytes before b; the zero bytes on
    # either side of b end its first and last token without a padded mask.
    # One join copies the text once, where two + would copy it twice
    padded = b"".join((bytes(8), data, bytes(1)))
    b = np.frombuffer(padded, dtype=np.uint8, count=len(data), offset=8)
    digit = (np.frombuffer(padded, dtype=np.uint8, offset=7) - 48) < 10
    # token bounds: each row's first start, first end, second start, second end
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    if not bounds.size or bounds.size % 4 or (bounds[1::2] - bounds[::2]).max() > 18:
        return None
    # the blank gap b[lo[k]:hi[k]] after token k holds a newline if one of its two
    # bytes at either end is one; a gap of up to four bytes has no other, a
    # longer one is searched
    lo, hi = bounds[1:-1:2], bounds[2::2]
    newline = (b[lo] == 10) | (b[hi - 1] == 10)
    if (wide := np.flatnonzero(~newline & (hi - lo > 2))).size:
        lo, hi = lo[wide], hi[wide]
        newline[wide] = (b[lo + 1] == 10) | (b[hi - 2] == 10)
        if (search := np.flatnonzero(~newline[wide] & (hi - lo > 4))).size:
            ends = np.append(np.flatnonzero(b == 10), b.size)  # the sentinel: no gap's newline
            newline[wide[search]] = ends[np.searchsorted(ends, lo[search])] < hi[search]
    # a row's two tokens share a line, and each next row starts on a later one
    if newline[::2].any() or not newline[1::2].all():
        return None
    rows = _token_values(padded, bounds).reshape(-1, 2)
    skip = int(header)

    def line_of(row: int) -> int:  # 1 + the newlines before the row's first token
        return int(np.count_nonzero(b[:bounds[4 * (row + skip)]] == 10)) + 1

    return rows[skip:], line_of, int(rows[0, 0]) if header else None


# _DIGIT_MASKS[k] keeps the low nibble of a word's last min(k, 8) bytes, which
# in a little-endian word are its high bytes, and clears the bytes before a
# k-digit token's first digit
_DIGIT_MASKS = np.array([0x0F0F0F0F0F0F0F0F >> (s := 8 * max(8 - k, 0)) << s for k in range(19)],
                        dtype=np.uint64)


def _token_values(padded: bytes, bounds: np.ndarray) -> np.ndarray:
    """The int64 value of each token ``b[bounds[2i]:bounds[2i + 1]]`` of 1 to 18
    decimal digits, where ``padded`` is 8 zero bytes, the bytes ``b`` and a zero byte.

    The 8 bytes that end at each token's end are read as one little-endian
    word, from a stride-1 view of ``padded``; a token of more than 8 or 16
    digits also reads the word 8 or 16 bytes before. Each word's digits are
    folded to their value in three mask-multiply-shift steps (pairs, then
    quads, then all eight)."""
    words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    ends = bounds[1::2]
    digits = ends - bounds[::2]
    values = _fold(words[ends], digits)
    for k in (8, 16):  # a word that lies wholly before the token is not read
        if (long := np.flatnonzero(digits > k)).size:
            values[long] += _fold(words[ends[long] - k], digits[long] - k) * 10**k
    return values.view(np.int64)


def _fold(words: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """In place, the value of the decimal number in each word's last ``digits``
    bytes (all 8 when more), its most significant digit the lowest byte."""
    words &= _DIGIT_MASKS[digits]
    words *= 10 << 8 | 1  # each byte plus ten times the byte below it
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 100 << 16 | 1
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 10000 << 32 | 1
    words >>= 32
    return words


def _read_lines(text: str, header: bool) -> tuple[np.ndarray, Callable, int | None]:
    """The edge rows, the line number of each by its index, and the header's ``n``,
    one line at a time."""
    pairs: list[tuple[int, int]] = []
    linenos: list[int] = []
    header_n: int | None = None
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
        if max(a, b) > np.iinfo(np.int64).max:
            raise EdgeListError(f"integer {max(a, b)} does not fit in int64", lineno)
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
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2), linenos.__getitem__, header_n


def _edge_graph(flat: np.ndarray, line_of: Callable[[int], int], header_n: int | None,
                indexing: str) -> Graph:
    """Graph from parsed edge rows: indexing shift, self-loop, header and size checks.

    ``line_of`` gives a row's line number, by its index, for the error messages.
    """
    n = 0
    if flat.size:
        lo = int(flat.min())
        if indexing == "one" or (indexing == "auto" and lo == 1):
            if lo == 0:
                bad = int(np.argmax((flat == 0).any(axis=1)))
                raise EdgeListError("vertex id 0 under one-based indexing", line_of(bad))
            flat = flat - 1
        loops = np.flatnonzero(flat[:, 0] == flat[:, 1])
        if loops.size:
            a = flat[loops[0], 0]
            raise SelfLoopError(f"self-loop {a} {a} rejected", line_of(int(loops[0])))
        n = int(flat.max()) + 1
    if header_n is not None:
        if flat.size and header_n < n:
            raise EdgeListError(f"header n={header_n} smaller than max vertex id {n - 1}")
        n = header_n
    if n > MAX_VERTICES:
        # the line of the largest id, unless the header set n
        line = None if header_n is not None else line_of(int(np.argmax(flat.max(axis=1))))
        raise EdgeListError(f"vertex count {n} exceeds {MAX_VERTICES}, the most whose "
                            "edge codes fit in int64", line)
    return _canonical(n, flat[:, 0], flat[:, 1])


def _utf8_text(data: bytes, error: type[ValueError]) -> str:
    """``data`` read as a file opened in text mode reads it: UTF-8 with universal
    newlines. ``error`` names the first byte that is not UTF-8."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset "
                    f"{exc.start}") from None


def load_edge_list(path, indexing: str = "auto") -> Graph:
    """Read an edge-list file without a header line from disk. See :func:`parse_edge_list`."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_edge_list(_utf8_text(data, EdgeListError), indexing=indexing)


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
    i = np.arange(n)
    return Graph.from_edges(n, np.stack([i, (i + 1) % n], axis=1))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    i = np.arange(n - 1)
    return Graph.from_edges(n, np.stack([i, i + 1], axis=1))


def star_graph(n: int) -> Graph:
    """Star on n vertices: one center joined to n-1 leaves (S_n)."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    leaves = np.arange(1, n)
    return Graph.from_edges(n, np.stack([np.zeros_like(leaves), leaves], axis=1))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    return Graph.from_edges(m + n, np.stack([np.repeat(np.arange(m), n),
                                             np.tile(np.arange(m, m + n), m)], axis=1))


_WORD_NAMES = {
    "claw": lambda: star_graph(4),
    "paw": lambda: Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": lambda: Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
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
_COUNT_RE = re.compile(r"\d+")
_PREFIX_RE = re.compile(r"\s*(?:[Cc][Oo]-|\d)")  # a prefix, past what strip() drops
_UNION_RE = re.compile(r"[Uu]")
_LONGEST_WORD = max(map(len, _WORD_NAMES))
_FAMILIES = {"C": cycle_graph, "P": path_graph, "S": star_graph}


def _build_family(letter: str, a: int, b: int | None) -> Graph:
    letter = letter.upper()
    n = a if b is None else a + b
    if n > MAX_VERTICES:  # refused before any edge list is built
        name = f"{letter}{a}" if b is None else f"{letter}{a},{b}"
        raise UnknownGraphNameError(f"{name}: vertex count {n} exceeds {MAX_VERTICES}, the most "
                                    "whose edge codes fit in int64")
    if letter == "K":
        return complete_graph(a) if b is None else complete_bipartite_graph(a, b)
    if b is not None:
        raise UnknownGraphNameError(f"family {letter} takes one parameter")
    try:
        return _FAMILIES[letter](a)
    except ValueError as exc:
        raise UnknownGraphNameError(f"{letter}{a}: {exc}") from None


def named_graph(name: str) -> Graph:
    """Look up a standard graph by a compact name such as ``"C4"``, ``"K2,3"``,
    ``"co-paw"``, ``"2K2"`` or ``"C4uK1"``. See :data:`NAMED_GRAPH_CATALOG`.

    A ``co-`` or multiplier prefix applies to the rest of the name: ``2K1uC4``
    is two copies of ``K1uC4``. No part name contains a ``u``, so only a
    union's last part may hold prefixes or a further union. One loop reads the
    name onto a stack, applied from the innermost out, so no name is too deep.
    The name is normalized once and each rest read at its offset, so the time
    is linear in the name's length."""
    s = name.strip().replace(" ", "").replace("_", "")
    tail = len(s.rstrip())  # where every rest after a prefix ends, once stripped
    pos, end, newline = 0, len(s), s.rfind("\n")  # this rest is s[pos:end]
    head = given_end = None  # and it was given as s[head:given_end], or as name

    def given() -> str:
        return name if head is None else s[head:given_end]

    pending = []  # the prefixes to apply, as functions of the graph, outermost first
    union = None  # the outermost union's place in pending, and its name
    try:
        while True:
            if head is not None:  # the rest after a prefix, stripped
                given_end, pos = end, head
                if end != tail:
                    end, newline = tail, s.rfind("\n", 0, tail)
                while pos < end and s[pos].isspace():
                    pos += 1
            if pos >= end:
                raise UnknownGraphNameError("empty graph name")
            if s[pos : min(pos + 3, end)].lower() == "co-":
                pending.append(complement)
                head = pos + 3
                continue
            if end - pos <= _LONGEST_WORD and (word := s[pos:end].lower()) in _WORD_NAMES:
                g = _WORD_NAMES[word]()
                break
            m = _FAMILY_RE.fullmatch(s, pos, end)
            if m:
                g = _build_family(m.group(1), int(m.group(2)),
                                  int(m.group(3)) if m.group(3) else None)
                break
            # a count and a nonempty rest with no newline, as a full match of (\d+)(.+)
            m = _COUNT_RE.match(s, pos, end - 1) if newline < pos else None
            if m:
                copies = int(m.group())
                if copies < 1:
                    raise UnknownGraphNameError(f"multiplier must be positive in {given()!r}")
                pending.append(partial(_copies, copies, s, pos, end))
                head = m.end()
                continue
            parts, start, cut = [], pos, _UNION_RE.search(s, pos + 1, end)
            while cut and cut.start() < end - 1:  # a prefix applies to all of the rest
                parts.append(s[start : cut.start()])
                start = cut.start() + 1
                cut = None if _PREFIX_RE.match(s, start, end) else _UNION_RE.search(
                    s, start + 1, end)
            if not parts:
                raise UnknownGraphNameError(f"unknown graph name {given()!r}")
            if union is None:
                union = (len(pending), given())
            parsed = [named_graph(part) for part in parts]  # no prefix, no u: no deeper
            pending.append(lambda rest, parsed=parsed: disjoint_union([*parsed, rest]))
            head = start
        while len(pending) > (union[0] if union else 0):
            g = pending.pop()(g)
    except UnknownGraphNameError:
        if union is None:
            raise
        raise UnknownGraphNameError(f"unknown graph name {union[1]!r}") from None
    while pending:
        g = pending.pop()(g)
    return g


def _copies(copies: int, s: str, start: int, stop: int, g: Graph) -> Graph:
    """``copies`` disjoint copies of ``g``; ``s[start:stop]`` is the name the multiplier heads."""
    most = MAX_VERTICES // max(g.n, 1)  # a part of 0 vertices counts as 1
    if copies > most:
        raise UnknownGraphNameError(f"{s[start:stop]}: multiplier {copies} exceeds {most}, the "
                                    f"most copies that fit in {MAX_VERTICES} vertices")
    # the part's edges once per copy, shifted by that copy's first vertex
    edges = g.edge_array() + np.arange(0, copies * g.n, max(g.n, 1))[:, None, None]
    return Graph.from_edges(copies * g.n, edges.reshape(-1, 2))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_rewired(nv: int, ne: int, rho: float, seed) -> Graph:
    """Ring lattice with random endpoint rewiring.

    Starts from the circulant lattice where each vertex links to its
    ``c = ne/nv`` nearest neighbors on each side, then independently with
    probability ``rho`` re-targets the far endpoint of each edge to a uniform
    random vertex, rejecting self-loops and duplicates. The re-targeting runs
    in rounds: each round draws one endpoint for every edge still pending, and
    a drawn pair is taken only if it is free at the start of the round (not an
    edge, not a self-loop); of the edges that draw the same free pair, the
    first in edge order takes it and frees its old pair, and the rest draw
    again the next round. An edge still pending after 100 rounds keeps its
    lattice endpoint. The result always has exactly ``nv`` vertices and ``ne``
    edges, and is deterministic for a fixed seed. ``nv`` may be at most
    ``MAX_VERTICES``, so that edge codes fit in int64.
    """
    if not (0.0 <= rho <= 1.0):
        raise ConfigError(f"rho must be in [0, 1], got {rho}")
    if nv <= 0 or ne <= 0:
        raise ConfigError("nv and ne must be positive")
    if nv > MAX_VERTICES:
        raise ConfigError(f"nv={nv} exceeds {MAX_VERTICES}, the most whose edge codes fit in int64")
    c, rem = divmod(ne, nv)
    if rem != 0 or c < 1:
        raise ConfigError(f"infeasible (nv={nv}, ne={ne}): ne/nv must be a positive integer")
    if nv < 2 * c + 1:
        raise ConfigError(f"infeasible (nv={nv}, ne={ne}): lattice needs nv >= 2*(ne/nv)+1")

    home = np.tile(np.arange(nv, dtype=np.int64), c)
    other = home + np.repeat(np.arange(1, c + 1, dtype=np.int64), nv)
    other[other >= nv] -= nv

    codes = np.minimum(home, other) * nv + np.maximum(home, other)
    rng = np.random.default_rng(seed)
    pending = np.flatnonzero(rng.random(ne) < rho)  # the edges still to re-target
    # the state of each pair u*nv + v while an int32 table of them costs at most
    # 128 B an edge and its size, so ne too, fits in int32: -1 taken (an edge, or
    # the self-pair u*nv + u), ne free
    table = None
    if pending.size and nv * nv <= min(32 * ne, np.iinfo(np.int32).max):
        table = np.full(nv * nv, ne, dtype=np.int32)
        table[codes] = -1
        table[::nv + 1] = -1
    for _ in range(100):  # each round draws once for each pending edge
        if not pending.size:
            break
        u = home[pending]
        w = rng.integers(nv, size=pending.size)
        new = np.minimum(u, w) * nv + np.maximum(u, w)
        if table is not None:
            # a free pair's cell ends at its least claimant, a taken one's stays -1
            np.minimum.at(table, new, pending.astype(np.int32))  # int64 values cast 30x slower
            won = table[new] == pending
            table[codes[pending[won]]] = ne
            table[new[won]] = -1
        else:
            # the claims grouped by pair, each pair with its least claimant
            order = np.argsort(new)
            pairs = new[order]
            starts = np.flatnonzero(np.concatenate(([True], pairs[1:] != pairs[:-1])))
            first = np.minimum.reduceat(order, starts)
            pairs = pairs[starts]
            present = np.sort(codes)  # searched by sorted pairs: random ones miss the cache
            taken = present[np.searchsorted(present, pairs).clip(max=ne - 1)] == pairs
            won = np.zeros(pending.size, dtype=bool)
            won[first[~taken & (u[first] != w[first])]] = True
        winners = pending[won]
        codes[winners] = new[won]
        other[winners] = w[won]
        pending = pending[~won]
    del table  # not held through the CSR build
    # distinct, loop-free pairs in range: the CSR kernel needs no checks
    return _canonical(nv, home, other)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def diameter(g: Graph) -> int | float:
    """Longest shortest-path length; ``math.inf`` if disconnected."""
    if g.n <= 1:
        return 0
    from scipy.sparse.csgraph import shortest_path  # local: a slow import no command needs

    longest = shortest_path(g.to_csr(), unweighted=True).max()
    return math.inf if np.isinf(longest) else int(longest)
