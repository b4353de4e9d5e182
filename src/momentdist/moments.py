"""Moment sequences of a graph's adjacency matrix under various states.

The workhorse is the uniform vector state: the k-th moment is the average
over vertices of the number of length-k walks starting there. A is
symmetric, so m_{i+j} = <A^i w, A^j w> and every state reads its moments
m_0..m_k off one walk-sum routine as inner products of ceil(k/2) sparse
matvecs, in O(k * |E|) time and O(|V| + |E|) space for a vector state. The
normalized trace state, general vector states, and permutationally
invariant density-matrix states are also provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import ConfigError, Graph, _check_size

__all__ = [
    "MomentSequence",
    "DensityParams",
    "EmptyGraphError",
    "NonFiniteMomentError",
    "vector_state_moments",
    "moment_table",
    "trace_moments",
    "xi_state_moments",
    "density_state_moments",
]

class EmptyGraphError(ValueError):
    """The graph has too few vertices or edges for the quantity asked of it,
    as states on the empty (0-vertex) graph."""


class NonFiniteMomentError(ValueError):
    """A moment overflowed float64."""


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Moments m_0..m_K of a random variable in a fixed state."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        vals.flags.writeable = False

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self):
        head = ", ".join(f"{v:g}" for v in self.values[:5])
        tail = ", ..." if self.values.size > 5 else ""
        return f"MomentSequence([{head}{tail}])"


def _require_nonempty(g: Graph) -> None:
    if g.n == 0:
        raise EmptyGraphError("moments of the empty graph are undefined")


def _check_order(order: int) -> None:
    """ConfigError unless ``order`` is nonnegative and numpy can size m_0..m_order."""
    if order < 0:
        raise ConfigError("order must be nonnegative")
    _check_size("order", order, 8, "moment array", base_bytes=8)


def _finite(vals: np.ndarray) -> np.ndarray:
    """``vals``, or NonFiniteMomentError naming the first bad row's first non-finite order."""
    bad = ~np.isfinite(np.atleast_2d(vals))
    if bad.any():
        first_row = bad[np.argmax(bad.any(axis=1))]
        raise NonFiniteMomentError(
            f"moment of order {np.argmax(first_row)} is not finite in float64; lower the order"
        )
    return vals


def _walk_sums(a, w: np.ndarray, order: int) -> np.ndarray:
    """<w, A^k w> summed over the columns of ``w``, for k = 0..order.

    With w_j = A^j w, m_2j = <w_j, w_j> and m_2j+1 = <w_j, w_j+1>, so
    ceil(order/2) products with the symmetric ``a`` reach every order.
    Overflow is left in the sums as inf or NaN (inf times 0). The chain
    stops after the first even order whose sum is not finite, and the sums
    after it are NaN. |m_2j+1| <= (m_2j + m_2j+2) / 2 term by term, so an
    odd sum overflows only with the even one after it: the first non-finite
    order, and every sum before it, are the full chain's.
    """
    sums = np.empty(order + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        sums[0] = np.vdot(w, w)
        for j in range(1, (order + 1) // 2 + 1):
            if not math.isfinite(sums[2 * j - 2]):
                sums[2 * j - 1 :] = np.nan
                break
            nxt = a @ w
            sums[2 * j - 1] = np.vdot(w, nxt)
            if 2 * j <= order:
                sums[2 * j] = np.vdot(nxt, nxt)
            w = nxt
    return sums


def _closed_walks(a, order: int) -> np.ndarray:
    """tr(A^k) for k = 0..order of a symmetric 0/1 CSR matrix ``a``.

    tr(A^0) = n and tr(A) = 0 (no self-loops); for k >= 2, tr(A^k) is the
    walk sum <c, A^(k-2) c> over A's own columns c, taken in blocks of 256,
    so the work space stays n * 256 doubles per array. When one block spans
    A it is A itself, dense, and serves as the chain's operator too, so the
    products run as dense matrix products (BLAS) instead of sparse ones.
    """
    n = a.shape[0]
    traces = np.zeros(order + 1, dtype=np.float64)
    traces[0] = n
    if order >= 2:
        block = 256
        if n <= block:
            dense = _column_block(a, 0, n)
            traces[2:] = _walk_sums(dense, dense, order - 2)
            return traces
        for start in range(0, n, block):
            # the block goes in unnamed, so it is freed once its first product exists
            traces[2:] += _walk_sums(a, _column_block(a, start, min(start + block, n)), order - 2)
    return traces


def _column_block(a, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of the symmetric 0/1 CSR ``a``, dense and C-ordered.

    A is symmetric, so column j holds ones at the column indices of row j:
    one scatter from ``indptr`` and ``indices`` fills the block.
    """
    block = np.zeros((a.shape[0], stop - start), dtype=np.float64)
    lo, hi = a.indptr[start], a.indptr[stop]
    cols = np.repeat(np.arange(stop - start), np.diff(a.indptr[start : stop + 1]))
    block[a.indices[lo:hi], cols] = 1.0
    return block


def vector_state_moments(g: Graph, order: int) -> MomentSequence:
    """Moments under the uniform vector state (normalized all-ones vector).

    m_k = <1, A^k 1> / n, i.e. the average over vertices of the number of
    length-k walks leaving each vertex. ceil(order/2) sparse matvecs.
    """
    return MomentSequence(_finite(_vector_chain(g, order)))


def _vector_chain(g: Graph, order: int) -> np.ndarray:
    """The moments of :func:`vector_state_moments` unchecked: overflow leaves inf or NaN."""
    _require_nonempty(g)
    _check_order(order)
    return _walk_sums(g.to_csr(), np.ones(g.n, dtype=np.float64), order) / g.n


def moment_table(gs: Sequence[Graph], order: int) -> np.ndarray:
    """Uniform-vector moments m_0..m_order of a corpus, one row per graph.

    One walk-sum chain of ceil(order/2) sparse matvecs per graph, on the
    calling thread, written into its row of the one preallocated table.
    Overflow stays in the table as a non-finite value.
    """
    _check_order(order)
    rows = max(len(gs), 1)
    _check_size("order", order, 8 * rows, "moment table", base_bytes=8 * rows)
    table = np.empty((len(gs), order + 1), dtype=np.float64)
    for row, g in zip(table, gs):
        row[:] = _vector_chain(g, order)
    return table


def trace_moments(g: Graph, order: int) -> MomentSequence:
    """Moments under the normalized trace state, m_k = tr(A^k) / n.

    This equals the average number of closed walks of length k. Blocks of
    256 of A's columns go through one walk-sum chain of ceil((order-2)/2)
    sparse products each, so the cost is about n * order * |E| / 2; when one
    block spans A (n <= 256), that block is A itself and the chain's dense
    operator, at about n**3 * order / 2 multiply-adds in BLAS. Every
    intermediate is an integer walk count, so the moments are exact
    closed-walk counts over n while those counts stay below 2**53, and
    cospectral graphs agree bit for bit.
    """
    _require_nonempty(g)
    _check_order(order)
    return MomentSequence(_finite(_closed_walks(g.to_csr(), order) / g.n))


def _vector_state(a, xi) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``xi`` as float64, or ValueError unless they are a finite symmetric
    matrix and a unit vector of its size; finite first, as NaN passes the tolerances."""
    a = np.asarray(a, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.all(np.isfinite(xi)):
        raise ValueError("state vector entries must be finite")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if xi.shape != (a.shape[0],):
        raise ValueError("state vector length must match matrix size")
    if a.size == 0:
        raise ValueError("matrix must be nonempty")
    with np.errstate(over="ignore"):  # an overflowing difference is inf and fails the test
        d = np.subtract(a, a.T)  # the one n-by-n temporary: abs runs in place
        asymmetry = np.max(np.abs(d, out=d))
    if asymmetry > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    if abs(np.linalg.norm(xi) - 1.0) > 1e-10:
        raise ValueError("state vector is not unit norm within 1e-10")
    return a, xi


def xi_state_moments(a: np.ndarray, xi: np.ndarray, order: int) -> MomentSequence:
    """Moments of a dense symmetric matrix in the vector state of ``xi``.

    m_k = xi^T A^k xi, as inner products of ceil(order/2) matvecs; m_0 is 1.
    """
    a, xi = _vector_state(a, xi)
    _check_order(order)
    vals = _walk_sums(a, xi, order)
    vals[0] = 1.0
    return MomentSequence(_finite(vals))


@dataclass(frozen=True)
class DensityParams:
    """Parameters (p, q) of the permutationally invariant state pI + qJ."""

    p: float
    q: float

    def check(self, n: int) -> None:
        """Validate the density-matrix constraints for an n-vertex graph, within 1e-12."""
        tol = 1e-12
        if n <= 0:
            raise EmptyGraphError("density state needs at least one vertex")
        # each test is written so that NaN fails it
        if not abs(n * (self.p + self.q) - 1.0) <= tol:
            raise ValueError(f"n*(p+q) must equal 1, got {n * (self.p + self.q)}")
        if not self.p >= -tol:
            raise ValueError(f"p must be nonnegative, got {self.p}")
        if not self.p + self.q * n >= -tol:
            raise ValueError(f"p + q*n must be nonnegative, got {self.p + self.q * n}")


def density_state_moments(g: Graph, d: DensityParams, order: int) -> MomentSequence:
    """Moments in the density state pI + qJ.

    m_k = p tr(A^k) + q <1, A^k 1>, which is the (n p, n q)-weighted mix of
    the trace and uniform-vector moments.
    """
    _require_nonempty(g)
    d.check(g.n)
    tm = trace_moments(g, order).values
    vm = vector_state_moments(g, order).values
    vals = g.n * (d.p * tm + d.q * vm)
    return MomentSequence(vals)
