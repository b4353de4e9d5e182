"""Moment sequences of a graph's adjacency matrix under various states.

The workhorse is the uniform vector state: the k-th moment is the average
over vertices of the number of length-k walks starting there, computed with
k sparse matvecs in O(k * |E|) time and O(|V| + |E|) space. The normalized
trace state, general vector states, and permutationally invariant
density-matrix states are also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

__all__ = [
    "MomentSequence",
    "DensityParams",
    "EmptyGraphError",
    "vector_state_moments",
    "trace_moments",
    "xi_state_moments",
    "density_state_moments",
]

STATE_UNIFORM = "uniform-vector"
STATE_TRACE = "trace"
STATE_CUSTOM = "custom-vector"
STATE_DENSITY = "density"


class EmptyGraphError(ValueError):
    """States on the empty (0-vertex) graph are undefined."""


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Moments m_0..m_K of a random variable in a fixed state."""

    state_kind: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        vals.flags.writeable = False

    @property
    def order(self) -> int:
        """Largest computed moment order K."""
        return self.values.size - 1

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self):
        head = ", ".join(f"{v:g}" for v in self.values[:5])
        tail = ", ..." if self.values.size > 5 else ""
        return f"MomentSequence({self.state_kind}, [{head}{tail}])"


def _require_nonempty(g: Graph) -> None:
    if g.n == 0:
        raise EmptyGraphError("moments of the empty graph are undefined")


def vector_state_moments(g: Graph, order: int) -> MomentSequence:
    """Moments under the uniform vector state (normalized all-ones vector).

    m_k = <1, A^k 1> / n, i.e. the average over vertices of the number of
    length-k walks leaving each vertex. Exactly ``order`` sparse matvecs.
    """
    _require_nonempty(g)
    if order < 0:
        raise ValueError("order must be nonnegative")
    a = g.to_csr()
    w = np.ones(g.n, dtype=np.float64)
    vals = np.empty(order + 1, dtype=np.float64)
    vals[0] = 1.0
    for k in range(1, order + 1):
        w = a @ w
        vals[k] = w.sum() / g.n
    return MomentSequence(STATE_UNIFORM, vals)


def trace_moments(g: Graph, order: int) -> MomentSequence:
    """Moments under the normalized trace state, m_k = tr(A^k) / n.

    This equals the average number of closed walks of length k. Blocks of
    identity columns go through one k-step sparse matvec chain and the
    diagonal entries of A^k are summed, at a cost of O(n * order * |E|).
    Every intermediate is an integer walk count, so the moments are exact
    closed-walk counts over n while those counts stay below 2**53, and
    cospectral graphs agree bit for bit.
    """
    _require_nonempty(g)
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = g.n
    a = g.to_csr()
    traces = np.zeros(order + 1, dtype=np.float64)
    traces[0] = n
    block = 256  # identity columns per chain: n * block doubles of work space
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        cols = np.arange(rows.size)
        w = np.zeros((n, rows.size), dtype=np.float64)
        w[rows, cols] = 1.0
        for k in range(1, order + 1):
            w = a @ w
            traces[k] += w[rows, cols].sum()
    return MomentSequence(STATE_TRACE, traces / n)


def xi_state_moments(a: np.ndarray, xi: np.ndarray, order: int) -> MomentSequence:
    """Moments of a dense symmetric matrix in the vector state of ``xi``.

    m_k = xi^T A^k xi, computed by an iterated matvec chain.
    """
    a = np.asarray(a, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if xi.shape != (a.shape[0],):
        raise ValueError("state vector length must match matrix size")
    if a.size and np.max(np.abs(a - a.T)) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    if abs(np.linalg.norm(xi) - 1.0) > 1e-10:
        raise ValueError("state vector is not unit norm within 1e-10")
    if order < 0:
        raise ValueError("order must be nonnegative")
    vals = np.empty(order + 1, dtype=np.float64)
    vals[0] = 1.0
    w = xi
    for k in range(1, order + 1):
        w = a @ w
        vals[k] = float(xi @ w)
    return MomentSequence(STATE_CUSTOM, vals)


@dataclass(frozen=True)
class DensityParams:
    """Parameters (p, q) of the permutationally invariant state pI + qJ."""

    p: float
    q: float

    def check(self, n: int, tol: float = 1e-12) -> None:
        """Validate the density-matrix constraints for an n-vertex graph."""
        if n <= 0:
            raise EmptyGraphError("density state needs at least one vertex")
        if abs(n * (self.p + self.q) - 1.0) > tol:
            raise ValueError(f"n*(p+q) must equal 1, got {n * (self.p + self.q)}")
        if self.p < -tol:
            raise ValueError(f"p must be nonnegative, got {self.p}")
        if self.p + self.q * n < -tol:
            raise ValueError(f"p + q*n must be nonnegative, got {self.p + self.q * n}")

    @classmethod
    def trace_state(cls, n: int) -> DensityParams:
        return cls(1.0 / n, 0.0)

    @classmethod
    def uniform_vector_state(cls, n: int) -> DensityParams:
        return cls(0.0, 1.0 / n)


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
    return MomentSequence(STATE_DENSITY, vals)
