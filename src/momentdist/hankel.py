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

from .moments import MomentSequence

__all__ = ["MomentMatrix", "build_moment_matrix", "hankel_rank", "mix"]

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


def _bareiss_minors(ints: Sequence[int], size: int) -> list[int]:
    """Leading principal minors of the Hankel matrix of exact integers.

    Fraction-free Bareiss elimination: the pivot before eliminating column k
    is exactly the (k+1)x(k+1) leading principal minor. A zero pivot means
    exact rank collapse; for the PSD Hankel matrices of moment sequences all
    later minors are zero and are reported so.
    """
    a = [[ints[i + j] for j in range(size)] for i in range(size)]
    dets = []
    prev = 1
    for k in range(size):
        pivot = a[k][k]
        dets.append(pivot)
        if k == size - 1:
            break
        if pivot == 0:
            dets.extend([0] * (size - len(dets)))
            break
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return dets


def _int_ratio_to_float(num: int, den_log2: int, den: int = 1) -> float:
    """float(num / (den * 2**den_log2)) with overflow saturating to +-inf."""
    if num == 0:
        return 0.0
    sign = -1.0 if (num < 0) != (den < 0) else 1.0
    n, d = abs(num), abs(den)
    log2v = n.bit_length() - d.bit_length() - den_log2
    if log2v > 1026:
        return sign * math.inf
    if log2v < -1100:
        return sign * 0.0
    # align operands into float range, then divide
    shift_n = max(0, n.bit_length() - 500)
    shift_d = max(0, d.bit_length() - 500)
    try:
        return sign * math.ldexp(
            float(n >> shift_n) / float(d >> shift_d),
            shift_n - shift_d - den_log2,
        )
    except OverflowError:
        return sign * math.inf


def hankel_rank(ms, max_d: int) -> tuple[int, np.ndarray]:
    """Leading-principal-determinant diagnostics of the moment matrix.

    Returns ``(s, dets)`` where ``dets[j]`` is the determinant of the
    (j+1) x (j+1) leading principal minor of the degree-``max_d`` moment
    matrix, and ``s`` counts the strictly positive determinants before the
    first zero (or negative) one. For a genuine moment sequence ``s`` is the
    number of mass points of its spectral distribution.

    ``ms`` may be a MomentSequence, a float array, or a sequence of exact
    values (fractions.Fraction / int). All minors are evaluated in exact
    integer arithmetic (fraction-free Bareiss after lifting the inputs over a
    common denominator), so the elimination itself introduces no roundoff.
    With exact inputs the zero test is likewise exact. With float64 inputs
    the moments carry their own 1e-16-relative rounding, so a minor counts as
    numerically zero when, after normalizing the sequence by a power-of-two
    scale near sqrt(max(1, m_2)), it fails to exceed ``ZERO_TOL`` times the
    previous normalized minor. Float64 moments resolve ranks reliably up to
    roughly 8 mass points; pass exact values when higher ranks must be
    certified. Raw determinants are returned for inspection, saturating to
    +-inf beyond float range.
    """
    if max_d < 0:
        raise ValueError("max_d must be nonnegative")
    exact = isinstance(ms, (list, tuple)) and _is_exact_sequence(ms)
    if exact:
        vals = list(ms)
        if len(vals) < 2 * max_d + 1:
            raise ValueError(f"need moments up to order {2 * max_d}")
        fracs = [Fraction(v) for v in vals[: 2 * max_d + 1]]
        den = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * den) for f in fracs]
        int_dets = _bareiss_minors(ints, max_d + 1)
        dets = np.array([_int_ratio_to_float(d, 0, den ** (j + 1)) for j, d in enumerate(int_dets)])
        return _positive_run([d > 0 for d in int_dets]), dets

    vals = _moment_values(ms)
    if vals.size < 2 * max_d + 1:
        raise ValueError(f"need moments up to order {2 * max_d}")
    if not np.all(np.isfinite(vals[: 2 * max_d + 1])):
        raise ValueError("moments must be finite")

    scale = max(1.0, float(vals[2])) if vals.size > 2 else 1.0
    p = round(math.log2(math.sqrt(scale)))  # normalization c = 2**p, exact
    normed = [math.ldexp(float(vals[k]), -p * k) for k in range(2 * max_d + 1)]
    lshift = max(53 - math.frexp(v)[1] if v != 0.0 else 0 for v in normed)
    ints = [int(math.ldexp(v, lshift)) for v in normed]
    int_dets = _bareiss_minors(ints, max_d + 1)
    # normalized det_j = int_dets[j] / 2**(lshift*(j+1)); the raw value
    # additionally undoes the power-of-two moment normalization
    norms = [_int_ratio_to_float(d, lshift * (j + 1)) for j, d in enumerate(int_dets)]
    dets = np.array([_int_ratio_to_float(d, lshift * (j + 1) - p * j * (j + 1))
                     for j, d in enumerate(int_dets)])
    return _positive_run([n > ZERO_TOL * prev for n, prev in zip(norms, [1.0] + norms)]), dets


def _positive_run(positive: list[bool]) -> int:
    """How many minors count as positive before the first that does not."""
    return next((j for j, ok in enumerate(positive) if not ok), len(positive))


def _is_exact_sequence(ms) -> bool:
    try:
        return all(isinstance(v, (int, Fraction)) for v in ms)
    except TypeError:
        return False


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
        if w <= 0:
            raise ValueError(f"weights must be positive, got {w}")
        acc += w * mm.entries
        total += w
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {total}")
    return MomentMatrix(degree, acc)
