"""Hankel moment matrices: construction, rank diagnostics, mixtures.

The degree-d moment matrix of a sequence m_0..m_{2d} has entry (i, j) equal
to m_{i+j}. For moments of a symmetric matrix in a state it is always
positive semidefinite, and the number of leading principal minors with
strictly positive determinant equals the number of mass points of the
underlying spectral distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import Graph
from .moments import MomentSequence, vector_state_moments

__all__ = ["MomentMatrix", "build_moment_matrix", "moment_matrix_of_graph", "hankel_rank", "mix"]

# a float64 minor is numerically zero below this multiple of the previous one
ZERO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """(degree+1) x (degree+1) Hankel matrix of moments."""

    degree: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", e)
        if e.shape != (self.degree + 1, self.degree + 1):
            raise ValueError("entries shape does not match degree")
        if not np.all(np.isfinite(e)):
            raise ValueError("moment matrix entries must be finite")
        e.flags.writeable = False

    def __repr__(self):
        return f"MomentMatrix(degree={self.degree})"


def _moment_values(ms) -> np.ndarray:
    if isinstance(ms, MomentSequence):
        return ms.values
    return np.asarray(ms, dtype=np.float64)


def _hankel_blocks(vals: np.ndarray, degree: int) -> np.ndarray:
    """The degree-d Hankel matrix, entry (i, j) = m_{i+j}, of each row of moments."""
    return vals[..., np.add.outer(np.arange(degree + 1), np.arange(degree + 1))]


def build_moment_matrix(ms, degree: int) -> MomentMatrix:
    """Assemble the degree-d Hankel matrix; needs moments up to order 2d."""
    vals = _moment_values(ms)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if vals.size < 2 * degree + 1:
        raise ValueError(
            f"need moments up to order {2 * degree}, have only {vals.size - 1}"
        )
    return MomentMatrix(degree, _hankel_blocks(vals, degree))


def moment_matrix_of_graph(g: Graph, degree: int) -> MomentMatrix:
    """Degree-d moment matrix of a graph in the uniform vector state."""
    return build_moment_matrix(vector_state_moments(g, 2 * degree), degree)


def _bareiss_minors(ints: Sequence[int], size: int) -> list[int]:
    """Leading principal minors of the Hankel matrix of exact integers.

    One elimination of the full matrix gives every minor up to the first zero
    one, and the last; each minor between them takes an elimination of its own.
    """
    def hankel(m):
        return [[ints[i + j] for j in range(m)] for i in range(m)]

    lead, det = _bareiss(hankel(size))
    if len(lead) == size:
        return lead
    return lead + [_bareiss(hankel(m))[1] for m in range(len(lead) + 1, size)] + [det]


def _bareiss(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Bareiss elimination of a square integer matrix, in place.

    Returns ``(lead, det)``: ``det`` is the determinant of ``a``, and ``lead``
    its leading principal minors up to the first zero one, which are exactly
    the pivots met before the first row swap.
    """
    sign, prev, lead = 1, 1, []
    for k in range(len(a)):
        if 0 not in lead:
            lead.append(a[k][k])
        row = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if row is None:
            return lead, 0
        if row != k:
            a[k], a[row] = a[row], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return lead, sign * prev


def _ratio(num: int, den: int) -> float:
    """``num / den`` for ``den > 0``, correctly rounded, saturating to +-inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def hankel_rank(ms, max_d: int) -> tuple[int, np.ndarray]:
    """Leading-principal-determinant diagnostics of the moment matrix.

    Returns ``(s, dets)`` where ``dets[j]`` is the determinant of the
    (j+1) x (j+1) leading principal minor of the degree-``max_d`` moment
    matrix, and ``s`` counts the strictly positive determinants before the
    first zero (or negative) one. For a genuine moment sequence ``s`` is the
    number of mass points of its spectral distribution.

    ``ms`` may be a MomentSequence, a float array, or exact values
    (fractions.Fraction / int) in a list, a tuple or a 1-d object array:
    exactness is read off the element types. Every input takes one exact path: a
    float64 is a dyadic rational, so the moments are read as exact fractions,
    lifted over their common denominator, and the minors come from one
    fraction-free Bareiss pass in integer arithmetic. Each determinant is
    then rounded once, correctly, to float64, saturating to +-inf beyond
    float range. Only the zero test depends on the input kind. With exact
    inputs it is exact: a minor counts when it is positive. With float64
    inputs the moments carry their own 1e-16-relative rounding, so a minor
    counts as numerically zero when, after normalizing the sequence by a
    power-of-two scale near sqrt(max(1, m_2)), it fails to exceed
    ``ZERO_TOL`` times the previous normalized minor. Float64 moments resolve
    ranks reliably up to roughly 8 mass points; pass exact values when higher
    ranks must be certified.
    """
    if max_d < 0:
        raise ValueError("max_d must be nonnegative")
    listed = isinstance(ms, (list, tuple)) or (
        isinstance(ms, np.ndarray) and ms.dtype == object and ms.ndim == 1)
    exact = listed and all(isinstance(v, (int, Fraction)) for v in ms)
    vals = ms if exact else _moment_values(ms)
    if len(vals) < 2 * max_d + 1:
        raise ValueError(f"need moments up to order {2 * max_d}")
    vals = vals[: 2 * max_d + 1]
    if not exact and not np.all(np.isfinite(vals)):
        raise ValueError("moments must be finite")

    fracs = [Fraction(v) for v in vals]
    den = math.lcm(*(f.denominator for f in fracs))
    minors = _bareiss_minors([int(f * den) for f in fracs], max_d + 1)
    dets = np.array([_ratio(m, den ** (j + 1)) for j, m in enumerate(minors)])
    if exact:
        return _positive_run([m > 0 for m in minors]), dets
    # the sequence normalized by c = 2**p, m_k / c**k, has minors det_j / c**(j*(j+1))
    p = round(math.log2(math.sqrt(max(1.0, float(vals[2]))))) if len(vals) > 2 else 0
    norms = [_ratio(m, den ** (j + 1) << p * j * (j + 1)) for j, m in enumerate(minors)]
    return _positive_run([n > ZERO_TOL * prev for n, prev in zip(norms, [1.0] + norms)]), dets


def _positive_run(positive: list[bool]) -> int:
    """How many minors count as positive before the first that does not."""
    return next((j for j, ok in enumerate(positive) if not ok), len(positive))


def mix(parts: Sequence[tuple[MomentMatrix, float]]) -> MomentMatrix:
    """Convex combination of moment matrices of equal degree.

    This is how disjoint unions compose: the moment matrix of a union is the
    vertex-count-weighted mixture of the parts' moment matrices.
    """
    if len(parts) == 0:
        raise ValueError("mix requires at least one part")
    degree = parts[0][0].degree
    total = 0.0
    acc = np.zeros((degree + 1, degree + 1), dtype=np.float64)
    for mm, w in parts:
        if mm.degree != degree:
            raise ValueError("all parts must share the same degree")
        if not 0 < w < np.inf:  # NaN and inf fail this test; inf * 0 below would be NaN
            raise ValueError(f"weights must be positive, got {w}")
        acc += w * mm.entries
        total += w
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {total}")
    return MomentMatrix(degree, acc)
