"""Distances between positive (semi)definite moment matrices.

The headline graph distance builds the degree-d moment matrix of each graph
in the uniform vector state and compares the two matrices with a metric on
the positive-definite cone. The affine-invariant (geodesic) metric is the
default; because small-graph moment matrices are frequently singular PSD,
any metric that requires positive definiteness silently falls back to the
Frobenius distance for the affected pair and flags that in the result
metadata.

Every metric is written once, as a per-matrix embedding plus a batched pair
kernel over aligned stacks of pairs; one engine walks the upper-triangle
pairs a bounded number at a time to fill all-pairs matrices. The one-pair
geodesic calls the same kernel.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .graphs import ConfigError, Graph
from .hankel import _hankel_blocks
from .moments import _finite, moment_table

__all__ = [
    "SingularMatrixError",
    "NonFiniteDistanceError",
    "DistanceConfig",
    "DistanceMatrix",
    "METRICS",
    "affine_invariant_dist",
    "graph_distance",
    "pairwise_distance_matrix",
]

# smallest eigenvalue <= SINGULAR_REL_TOL * trace counts as singular
SINGULAR_REL_TOL = 1e-10


class SingularMatrixError(ValueError):
    """A positive-definite metric was applied to a numerically singular matrix."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(f"{message} (smallest eigenvalue {min_eigenvalue:.3e})")
        self.min_eigenvalue = min_eigenvalue


class NonFiniteDistanceError(ValueError):
    """A pairwise distance overflowed float64 or is NaN."""


@dataclass(frozen=True)
class DistanceConfig:
    """Configuration of the graph distance.

    degree: moment-matrix degree d (the matrix is (d+1) x (d+1), built from
    moments m_0..m_{2d}). metric: one of ``frobenius``, ``affine-invariant``,
    ``log-frobenius``, ``cholesky-frobenius``. eps: optional ridge added as
    eps*I to each moment matrix before comparing. ``scaling`` is not stored
    and may only be ``none``; it is accepted for existing callers.
    """

    degree: int = 4
    metric: str = "affine-invariant"
    eps: float = 0.0
    scaling: InitVar[str] = "none"

    def __post_init__(self, scaling):
        if self.degree < 1:
            raise ConfigError(f"degree must be >= 1, got {self.degree}")
        if self.metric not in METRICS:
            raise ConfigError(
                f"unknown metric {self.metric!r}; choose from {sorted(METRICS)}"
            )
        if not 0 <= self.eps < math.inf:
            raise ConfigError(f"eps must be finite and nonnegative, got {self.eps}")
        if scaling != "none":
            raise ConfigError(f"unknown scaling {scaling!r}")


# ---------------------------------------------------------------------------
# Batched kernels and per-matrix embeddings
# ---------------------------------------------------------------------------


def _euclidean(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Euclidean distance between each entry of ``xs`` and the aligned one of ``ys``."""
    diff = (ys - xs).reshape(len(ys), math.prod(ys.shape[1:]))
    return np.sqrt(np.vecdot(diff, diff))


def _spectra(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of each matrix and whether it is numerically PD."""
    w, u = np.linalg.eigh(mats)
    tr = np.trace(mats, axis1=-2, axis2=-1)
    pd = ~((tr <= 0) | (w[..., 0] <= SINGULAR_REL_TOL * tr))
    return w, u, pd


def _inv_sqrt(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    return (u * w[..., None, :] ** -0.5) @ np.swapaxes(u, -1, -2)


def _logm(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    return (u * np.log(w)[..., None, :]) @ np.swapaxes(u, -1, -2)


def _geodesic(inv_sqrt: np.ndarray, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine-invariant distances from each a, given as a^{-1/2}, to the aligned b of ``bs``.

    Also returns the smallest eigenvalue of each whitened product
    a^{-1/2} b a^{-1/2}; where it is <= 0 the distance is undefined (left 0).
    """
    w = np.linalg.eigvalsh(inv_sqrt @ bs @ inv_sqrt)
    w0 = w[:, 0]
    d = np.zeros(len(bs))
    kept = ~(w0 <= 0)  # a NaN eigenvalue gives a NaN distance, not a fallback
    d[kept] = np.sqrt(np.sum(np.log(w[kept]) ** 2, axis=-1))
    return d, w0


def _flat(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, None]:
    return _euclidean(xs, ys), None


# Each embedding maps a stack of matrices to (pd, left, right): a graph's
# left embedding is compared with the right embeddings of the others, and a
# pair is only compared when both matrices are flagged pd.


def _embed_frobenius(mats):
    return np.ones(len(mats), dtype=bool), mats, mats


def _embed_geodesic(mats):
    w, u, pd = _spectra(mats)
    inv_sqrt = np.zeros_like(mats)
    inv_sqrt[pd] = _inv_sqrt(w[pd], u[pd])
    return pd, inv_sqrt, mats


def _embed_log(mats):
    w, u, pd = _spectra(mats)
    logs = np.zeros_like(mats)
    logs[pd] = _logm(w[pd], u[pd])
    return pd, logs, logs


def _embed_cholesky(mats):
    pd = np.ones(len(mats), dtype=bool)
    factors = np.zeros_like(mats)
    for k, m in enumerate(mats):
        try:
            factors[k] = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            pd[k] = False
    return pd, factors, factors


#: metric name -> (per-matrix embedding, batched pair kernel)
METRICS = {
    "frobenius": (_embed_frobenius, _flat),
    "affine-invariant": (_embed_geodesic, _geodesic),
    "log-frobenius": (_embed_log, _flat),
    "cholesky-frobenius": (_embed_cholesky, _flat),
}


# upper-triangle pairs per kernel call: bounds the stacked operands (about
# 1 MB each at degree 7) for any corpus size
_PAIR_CHUNK = 2048


def _pairwise(kernel, n: int) -> tuple[np.ndarray, int]:
    """Symmetric n x n all-pairs matrix from a batched pair kernel, with its fallback count.

    The pairs i < j are taken in row-major order, ``_PAIR_CHUNK`` at a time:
    ``kernel`` gets the chunk's aligned index arrays i and j and returns their
    distances and how many of them fell back. Negative distances are clipped
    to 0 before they fill both triangles. A non-finite distance raises
    NonFiniteDistanceError naming the first such pair, and overflow or NaN
    arithmetic along the way warns nothing.
    """
    out = np.zeros((n, n), dtype=np.float64)
    fallbacks = 0
    # index of each row's first pair, which each chunk's (i, j) are read off:
    # all of np.triu_indices would take as much memory as ``out``
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, starts[-1], _PAIR_CHUNK):
            p = np.arange(lo, min(lo + _PAIR_CHUNK, starts[-1]))
            i = np.searchsorted(starts, p, side="right") - 1
            j = p - starts[i] + i + 1
            d, fell = kernel(i, j)
            d = np.maximum(d, 0.0)
            bad = ~np.isfinite(d)
            if bad.any():
                first = np.argmax(bad)
                raise NonFiniteDistanceError(
                    f"distance between graphs {i[first]} and {j[first]} is {d[first]}")
            out[i, j] = out[j, i] = d
            fallbacks += fell
    return out, fallbacks


def _moment_distances(mats: np.ndarray, cfg: DistanceConfig) -> tuple[np.ndarray, int]:
    """All-pairs distances between stacked moment matrices, and the fallback count."""
    embed, kernel = METRICS[cfg.metric]
    # overflow or NaN in the embedding surfaces as a non-finite distance
    with np.errstate(over="ignore", invalid="ignore"):
        pd, left, right = embed(mats)

    def pairs(i, j):
        a, b = mats[i], mats[j]
        d = np.zeros(len(i))
        # identification axiom, exact; also spares the geodesic from
        # amplifying roundoff on ill-conditioned but identical inputs
        differ = ~np.all(a == b, axis=(1, 2))
        use = differ & pd[i] & pd[j]
        fell = differ & ~use
        if use.any():
            d[use], w0 = kernel(left[i[use]], right[j[use]])
            if w0 is not None:  # the whitened product lost positivity
                fell[use] = w0 <= 0
        d[fell] = _euclidean(a[fell], b[fell])
        return d, int(fell.sum())

    return _pairwise(pairs, len(mats))


# ---------------------------------------------------------------------------
# One-pair geodesic
# ---------------------------------------------------------------------------


def affine_invariant_dist(a, b) -> float:
    """Geodesic distance ||log(a^{-1/2} b a^{-1/2})||_2 on the PD cone.

    ``a`` and ``b`` are square matrices of one shape; SingularMatrixError if
    either is not numerically PD, NonFiniteDistanceError if the distance is
    not finite.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"expected two square matrices of one shape, got {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        w, u, pd = _spectra(np.stack([a, b]))
        for k, what in enumerate(("first argument", "second argument")):
            if not pd[k]:
                raise SingularMatrixError(f"{what} is not numerically positive definite",
                                          float(w[k, 0]))
        d, w0 = _geodesic(_inv_sqrt(w[0], u[0]), b[None])
    if w0[0] <= 0:
        raise SingularMatrixError("whitened product lost positivity", float(w0[0]))
    if not math.isfinite(d[0]):
        raise NonFiniteDistanceError(f"distance is {d[0]}")
    return float(d[0])


# ---------------------------------------------------------------------------
# Pairwise distance matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with zero diagonal."""

    labels: list[str]
    entries: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", e)
        n = len(self.labels)
        if e.shape != (n, n):
            raise ValueError("entries shape does not match labels")
        if not np.array_equal(e, e.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(e) != 0.0):
            raise ValueError("distance matrix must have zero diagonal")
        if np.any(e < 0):
            raise ValueError("distances must be nonnegative")
        e.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.labels)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label"] + list(self.labels))
        for label, row in zip(self.labels, self.entries):
            writer.writerow([label] + [repr(float(v)) for v in row])
        return buf.getvalue()


def _corpus_labels(gs: Sequence[Graph], labels: Sequence[str] | None = None) -> list[str]:
    """Labels of a corpus of at least two graphs: ``labels`` as strings, or g0, g1, ..."""
    if len(gs) < 2:
        raise ConfigError("need at least two graphs")
    labels = [f"g{i}" for i in range(len(gs))] if labels is None else [str(x) for x in labels]
    if len(labels) != len(gs):
        raise ConfigError("labels length must match graphs")
    return labels


def pairwise_distance_matrix(
    gs: Sequence[Graph],
    cfg: DistanceConfig | None = None,
    labels: Sequence[str] | None = None,
    threads: int | None = None,
    table: np.ndarray | None = None,
) -> DistanceMatrix:
    """All-pairs graph distances over a corpus.

    The moment matrices are the leading Hankel blocks of ``table``, a
    :func:`moment_table` of ``gs`` of order at least 2*degree (extracted
    here if not given), plus eps*I; a non-finite moment among them raises
    NonFiniteMomentError. The number of pairs that hit the PD-singularity
    fallback is recorded in the metadata. ``threads`` is ignored; it is
    kept for existing callers.
    """
    cfg = cfg or DistanceConfig()
    labels = _corpus_labels(gs, labels)
    if table is None:
        table = moment_table(gs, 2 * cfg.degree)
    _finite(table[:, : 2 * cfg.degree + 1])
    mats = _hankel_blocks(table, cfg.degree) + cfg.eps * np.eye(cfg.degree + 1)
    out, fallbacks = _moment_distances(mats, cfg)
    meta = {
        "metric": cfg.metric,
        "degree": cfg.degree,
        "eps": cfg.eps,
        "fallback_pairs": fallbacks,
    }
    return DistanceMatrix(labels, out, meta)


def graph_distance(g1: Graph, g2: Graph, cfg: DistanceConfig | None = None) -> float:
    """Distance between two graphs via their moment matrices.

    The ``[0, 1]`` entry of :func:`pairwise_distance_matrix`, whose metadata
    also says whether the pair fell back to Frobenius.
    """
    return float(pairwise_distance_matrix([g1, g2], cfg).entries[0, 1])
