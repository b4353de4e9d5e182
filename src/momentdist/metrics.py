"""Distances between positive (semi)definite moment matrices.

The headline graph distance builds the degree-d moment matrix of each graph
in the uniform vector state and compares the two matrices with a metric on
the positive-definite cone. The affine-invariant (geodesic) metric is the
default; because small-graph moment matrices are frequently singular PSD,
any metric that requires positive definiteness silently falls back to the
Frobenius distance for the affected pair and flags that in the result
metadata.

Every metric is written once, as a per-matrix embedding plus a batched pair
kernel; one engine runs the kernel a row at a time to fill all-pairs
matrices. The one-pair geodesic calls the same kernel.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import ConfigError, Graph
from .hankel import MomentMatrix, _hankel_blocks
from .moments import _finite, _vector_chain

__all__ = [
    "ConfigError",
    "SingularMatrixError",
    "NonFiniteDistanceError",
    "DistanceConfig",
    "DistanceMatrix",
    "METRICS",
    "affine_invariant_dist",
    "moment_table",
    "moment_matrix_of_graph",
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
    eps*I to each moment matrix before comparing. scaling: ``none`` or
    ``log1p`` (applies x -> log(1 + x) to the final distance).
    """

    degree: int = 4
    metric: str = "affine-invariant"
    eps: float = 0.0
    scaling: str = "none"

    def __post_init__(self):
        if self.degree < 1:
            raise ConfigError(f"degree must be >= 1, got {self.degree}")
        if self.metric not in METRICS:
            raise ConfigError(
                f"unknown metric {self.metric!r}; choose from {sorted(METRICS)}"
            )
        if not 0 <= self.eps < math.inf:
            raise ConfigError(f"eps must be finite and nonnegative, got {self.eps}")
        if self.scaling not in ("none", "log1p"):
            raise ConfigError(f"unknown scaling {self.scaling!r}")


# ---------------------------------------------------------------------------
# Batched kernels and per-matrix embeddings
# ---------------------------------------------------------------------------


def _euclidean(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``x`` to each of ``ys`` over all entries."""
    diff = (ys - x).reshape(len(ys), x.size)
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
    """Affine-invariant distances from a, given as a^{-1/2}, to each of ``bs``.

    Also returns the smallest eigenvalue of each whitened product
    a^{-1/2} b a^{-1/2}; where it is <= 0 the distance is undefined (left 0).
    """
    w = np.linalg.eigvalsh(inv_sqrt @ bs @ inv_sqrt)
    w0 = w[:, 0]
    d = np.zeros(len(bs))
    kept = ~(w0 <= 0)  # a NaN eigenvalue gives a NaN distance, not a fallback
    d[kept] = np.sqrt(np.sum(np.log(w[kept]) ** 2, axis=-1))
    return d, w0


def _flat(x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, None]:
    return _euclidean(x, ys), None


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


def _pairwise(kernel, *stacks: np.ndarray) -> tuple[np.ndarray, int]:
    """Symmetric all-pairs matrix from a batched pair kernel, with its fallback count.

    Each stack holds one embedding per graph along its first axis. For each
    graph i, ``kernel`` gets graph i's entry of every stack followed by the
    stacks' rows i+1..n-1, and returns the distances to those graphs and how
    many of them fell back. Negative distances are clipped to 0; a non-finite
    distance raises NonFiniteDistanceError, and overflow or NaN arithmetic
    along the way warns nothing.
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


def _moment_distances(mats: np.ndarray, cfg: DistanceConfig) -> tuple[np.ndarray, int]:
    """All-pairs distances between stacked moment matrices, and the fallback count."""
    embed, kernel = METRICS[cfg.metric]

    def row(a, pd_a, left_a, _right_a, bs, pd_bs, _left_bs, right_bs):
        d = np.zeros(len(bs))
        # identification axiom, exact; also spares the geodesic from
        # amplifying roundoff on ill-conditioned but identical inputs
        differ = ~np.all(bs == a, axis=(1, 2))
        use = differ & pd_bs & pd_a
        fell = differ & ~use
        if use.any():
            d[use], w0 = kernel(left_a, right_bs[use])
            if w0 is not None:  # the whitened product lost positivity
                fell[use] = w0 <= 0
        d[fell] = _euclidean(a, bs[fell])
        return d, int(fell.sum())

    # the embedding too: overflow or NaN surfaces as a non-finite distance
    with np.errstate(over="ignore", invalid="ignore"):
        out, fallbacks = _pairwise(row, mats, *embed(mats))
    if cfg.scaling == "log1p":
        # math.log1p, not np.log1p: the two differ in the last bit on some inputs
        out = np.vectorize(math.log1p, otypes=[np.float64])(out)
    return out, fallbacks


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
# Graph distance
# ---------------------------------------------------------------------------


def moment_table(gs: Sequence[Graph], order: int) -> np.ndarray:
    """Uniform-vector moments m_0..m_order of a corpus, one row per graph.

    One chain of ``order`` sparse matvecs per graph, on the calling thread.
    Overflow stays in the table as inf.
    """
    return np.stack([_vector_chain(g, order) for g in gs])


def _hankel_stack(table: np.ndarray, degree: int, eps: float = 0.0) -> np.ndarray:
    """Degree-d moment matrix of every table row (its leading Hankel block) plus eps*I.

    NonFiniteMomentError if a row has a non-finite moment of order <= 2d.
    """
    _finite(table[:, : 2 * degree + 1])
    mats = _hankel_blocks(table, degree)
    return mats + eps * np.eye(degree + 1) if eps > 0.0 else mats


def moment_matrix_of_graph(g: Graph, degree: int, eps: float = 0.0) -> MomentMatrix:
    """Degree-d moment matrix of a graph in the uniform vector state."""
    return MomentMatrix(degree, _hankel_stack(moment_table([g], 2 * degree), degree, eps)[0])


def graph_distance(g1: Graph, g2: Graph, cfg: DistanceConfig | None = None) -> float:
    """Distance between two graphs via their moment matrices.

    Whether the pair fell back to Frobenius is the ``fallback_pairs`` entry
    of :func:`pairwise_distance_matrix`'s metadata.
    """
    cfg = cfg or DistanceConfig()
    mats = _hankel_stack(moment_table([g1, g2], 2 * cfg.degree), cfg.degree, cfg.eps)
    return float(_moment_distances(mats, cfg)[0][0, 1])


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

    def to_json(self) -> str:
        payload = {"labels": list(self.labels), "entries": self.entries.tolist()}
        return json.dumps(payload, indent=2) + "\n"


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

    The moment matrices are the leading blocks of ``table``, a
    :func:`moment_table` of ``gs`` of order at least 2*degree; without one,
    the table is extracted here. Then every pair is compared. The number of
    pairs that hit the PD-singularity fallback is recorded in the metadata.
    ``threads`` is ignored; it is kept for existing callers.
    """
    cfg = cfg or DistanceConfig()
    labels = _corpus_labels(gs, labels)
    if table is None:
        table = moment_table(gs, 2 * cfg.degree)
    out, fallbacks = _moment_distances(_hankel_stack(table, cfg.degree, cfg.eps), cfg)
    meta = {
        "metric": cfg.metric,
        "degree": cfg.degree,
        "eps": cfg.eps,
        "scaling": cfg.scaling,
        "fallback_pairs": fallbacks,
    }
    return DistanceMatrix(labels, out, meta)
