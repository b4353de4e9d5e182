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
matrices, and the one-pair functions call the same kernels.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import ConfigError, Graph
from .hankel import MomentMatrix, build_moment_matrix
from .moments import vector_state_moments

__all__ = [
    "ConfigError",
    "SingularMatrixError",
    "NonFiniteDistanceError",
    "DistanceConfig",
    "DistanceMatrix",
    "METRICS",
    "frobenius_dist",
    "affine_invariant_dist",
    "log_frobenius_dist",
    "cholesky_frobenius_dist",
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
        if self.eps < 0:
            raise ConfigError(f"eps must be nonnegative, got {self.eps}")
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
    distance raises NonFiniteDistanceError.
    """
    n = len(stacks[0])
    out = np.zeros((n, n), dtype=np.float64)
    fallbacks = 0
    with np.errstate(over="ignore"):
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

    out, fallbacks = _pairwise(row, mats, *embed(mats))
    if cfg.scaling == "log1p":
        # math.log1p, not np.log1p: the two differ in the last bit on some inputs
        out = np.vectorize(math.log1p, otypes=[np.float64])(out)
    return out, fallbacks


# ---------------------------------------------------------------------------
# One-pair matrix metrics
# ---------------------------------------------------------------------------


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def _pd_eigh(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    w, u, pd = _spectra(a)
    if not pd:
        raise SingularMatrixError(f"{what} is not numerically positive definite", float(w[0]))
    return w, u


def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(a)
        raise SingularMatrixError(f"{what} has no Cholesky factor", float(w[0])) from None


def _one_pair(metric):
    """A one-pair metric with the engine's checks: a pair of square matrices of
    one shape in, and a finite distance out, else NonFiniteDistanceError."""

    @functools.wraps(metric)
    def checked(a, b) -> float:
        a, b = _as_pair(a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            d = float(metric(a, b))
        if not math.isfinite(d):
            raise NonFiniteDistanceError(f"distance is {d}")
        return d

    return checked


@_one_pair
def frobenius_dist(a, b) -> float:
    """Entrywise l2 distance ||a - b||_2."""
    return _euclidean(a, b[None])[0]


@_one_pair
def affine_invariant_dist(a, b) -> float:
    """Geodesic distance ||log(a^{-1/2} b a^{-1/2})||_2 on the PD cone."""
    inv_sqrt = _inv_sqrt(*_pd_eigh(a, "first argument"))
    _pd_eigh(b, "second argument")
    d, w0 = _geodesic(inv_sqrt, b[None])
    if w0[0] <= 0:
        raise SingularMatrixError("whitened product lost positivity", float(w0[0]))
    return d[0]


@_one_pair
def log_frobenius_dist(a, b) -> float:
    """||log a - log b||_2 with matrix logs via eigendecomposition."""
    log_a = _logm(*_pd_eigh(a, "first argument"))
    log_b = _logm(*_pd_eigh(b, "second argument"))
    return _euclidean(log_a, log_b[None])[0]


@_one_pair
def cholesky_frobenius_dist(a, b) -> float:
    """||chol(a) - chol(b)||_2 on the lower-triangular Cholesky factors."""
    chol_a = _cholesky(a, "first argument")
    chol_b = _cholesky(b, "second argument")
    return _euclidean(chol_a, chol_b[None])[0]


# ---------------------------------------------------------------------------
# Graph distance
# ---------------------------------------------------------------------------


def moment_matrix_of_graph(g: Graph, degree: int, eps: float = 0.0) -> MomentMatrix:
    """Degree-d moment matrix of a graph in the uniform vector state."""
    ms = vector_state_moments(g, 2 * degree)
    mm = build_moment_matrix(ms, degree)
    if eps > 0.0:
        return MomentMatrix(degree, mm.entries + eps * np.eye(degree + 1))
    return mm


def graph_distance(
    g1: Graph,
    g2: Graph,
    cfg: DistanceConfig | None = None,
    return_info: bool = False,
):
    """Distance between two graphs via their moment matrices.

    With ``return_info=True`` also returns a dict recording the metric
    actually used and whether the PD-metric singularity fallback fired.
    """
    cfg = cfg or DistanceConfig()
    mats = np.stack([moment_matrix_of_graph(g, cfg.degree, cfg.eps).entries for g in (g1, g2)])
    out, fallbacks = _moment_distances(mats, cfg)
    val = float(out[0, 1])
    if not return_info:
        return val
    fell_back = fallbacks > 0
    info = {
        "metric": cfg.metric,
        "metric_used": "frobenius" if fell_back else cfg.metric,
        "fallback": fell_back,
        "scaling": cfg.scaling,
    }
    return val, info


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

    @classmethod
    def from_json(cls, text: str) -> DistanceMatrix:
        payload = json.loads(text)
        return cls(list(payload["labels"]), np.asarray(payload["entries"], dtype=np.float64))


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
) -> DistanceMatrix:
    """All-pairs graph distances over a corpus.

    Moment matrices are extracted once per graph (2*degree matvec passes
    each, parallelized across graphs when ``threads`` allows), then every
    pair is compared. The number of pairs that hit the PD-singularity
    fallback is recorded in the metadata.
    """
    cfg = cfg or DistanceConfig()
    labels = _corpus_labels(gs, labels)

    def extract(g: Graph) -> np.ndarray:
        return moment_matrix_of_graph(g, cfg.degree, cfg.eps).entries

    if threads is not None and threads <= 1:
        mats = [extract(g) for g in gs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            mats = list(pool.map(extract, gs))

    out, fallbacks = _moment_distances(np.stack(mats), cfg)
    meta = {
        "metric": cfg.metric,
        "degree": cfg.degree,
        "eps": cfg.eps,
        "scaling": cfg.scaling,
        "fallback_pairs": fallbacks,
    }
    return DistanceMatrix(labels, out, meta)
