"""Experiment harnesses: labeled corpora, method dispatch, and benchmarks.

The clustering and classification flows all share one shape: turn a corpus
of graphs into a pairwise distance matrix under some method, then hand that
to kernel k-means or KNN cross-validation. Graph generation, clustering
restarts, and fold splitting are all driven by explicit seeds so whole runs
reproduce bit-for-bit.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Sequence

import numpy as np

from .baselines import (
    _bhattacharyya,
    cov_descriptor,
    graphlet3_distribution,
    graphlet4_distribution,
    nclm_vector,
    top_k_eigenvalues,
)
from .graphs import Graph, generate_rewired
from .learn import clustering_accuracy, kernel_from_distances, kernel_kmeans, knn_classify
from .metrics import (
    ConfigError,
    DistanceConfig,
    DistanceMatrix,
    _corpus_labels,
    _euclidean,
    _hankel_stack,
    _moment_distances,
    _pairwise,
    moment_table,
    pairwise_distance_matrix,
)

__all__ = [
    "CorpusSpecError",
    "METHODS",
    "make_rewired_corpus",
    "method_distance_matrix",
    "cluster_experiment",
    "classify_experiment",
    "bench_moment_scaling",
]


class CorpusSpecError(ValueError):
    """A corpus manifest or a generator setting is malformed or lacks a required key."""


def _required(spec: dict, key: str, where: str, kind=None):
    """``spec[key]``, converted by ``kind`` if given.

    CorpusSpecError names the key and where it is missing or fails to convert.
    """
    if not isinstance(spec, dict) or key not in spec:
        raise CorpusSpecError(f"{where} has no {key!r}")
    if kind is None:
        return spec[key]
    try:
        return kind(spec[key])
    except (TypeError, ValueError, OverflowError):
        raise CorpusSpecError(f"{where} has a bad {key!r}: {spec[key]!r}") from None


def _nonnegative_int(value) -> int:
    """``value`` as an int; ValueError if it is negative."""
    n = int(value)
    if n < 0:
        raise ValueError(n)
    return n


def _spawn_seeds(seed, count: int) -> np.ndarray:
    if count > np.iinfo(np.intp).max:
        raise ConfigError(f"graph count {count} exceeds {np.iinfo(np.intp).max}")
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)


def make_rewired_corpus(
    settings: Sequence[dict],
    seed=None,
) -> tuple[list[Graph], np.ndarray]:
    """Generate a labeled corpus of rewired ring-lattice graphs.

    Each setting is a dict with keys ``nv``, ``ne``, ``rho``, ``count`` and an
    optional ``label`` (defaults to the setting index). Per-graph seeds are
    derived from the master seed.
    """
    if not isinstance(settings, list):
        raise CorpusSpecError(f"settings must be a list, got {settings!r}")
    rows = []
    for idx, s in enumerate(settings):
        where = f"setting {idx}"
        nv, ne = (_required(s, key, where, int) for key in ("nv", "ne"))
        rho = _required(s, "rho", where, float)
        count = _required(s, "count", where, _nonnegative_int)
        label = _required(s, "label", where, int) if "label" in s else idx
        rows.append((nv, ne, rho, count, label))
    seeds = iter(_spawn_seeds(seed, sum(row[3] for row in rows)))
    graphs: list[Graph] = []
    labels: list[int] = []
    for nv, ne, rho, count, label in rows:
        for _ in range(count):
            graphs.append(generate_rewired(nv, ne, rho, next(seeds)))
            labels.append(label)
    return graphs, np.asarray(labels)


def _euclidean_pairs(x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, int]:
    return _euclidean(x, ys), 0


# baseline method -> (corpus -> one feature per graph, batched pair kernel).
# The keyword parameters of the feature function are the method's parameters.
# Functions are called by their module-level names, so replacing a name here
# reaches every call.
_BASELINES = {
    "cov": (lambda gs, k=4: [cov_descriptor(g, k=k) for g in gs],
            lambda c, cs: (_bhattacharyya(c, cs, None), 0)),
    "nclm": (lambda gs: [nclm_vector(g).values for g in gs], _euclidean_pairs),
    "eigs": (lambda gs, k=10: [top_k_eigenvalues(g, k=k).values for g in gs], _euclidean_pairs),
    "gk3": (lambda gs: [graphlet3_distribution(g) for g in gs], _euclidean_pairs),
    "gk4": (lambda gs, samples=10000, seed=None: [
                graphlet4_distribution(g, samples=samples, seed=s)
                for g, s in zip(gs, _spawn_seeds(seed, len(gs)))],
            _euclidean_pairs),
}
METHODS = ("moment", *_BASELINES)


def _method_row(method: str, params: dict) -> tuple:
    """A method's (features, kernel) row, after checking its name and parameters."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    # the moment row's parameters are the fields of DistanceConfig
    features, kernel = _BASELINES.get(method, (DistanceConfig, None))
    extra = sorted(params.keys() - inspect.signature(features).parameters.keys())
    if extra:
        raise ConfigError(f"unknown method parameters: {extra}")
    return features, kernel


def method_distance_matrix(
    gs: Sequence[Graph],
    method: str,
    **params,
) -> DistanceMatrix:
    """Pairwise distance matrix under one of the implemented methods.

    ``moment`` takes DistanceConfig fields (degree, metric, eps, scaling);
    ``cov`` and ``eigs`` take k; ``gk4`` takes samples/seed. Baselines compare
    their per-graph features with the Euclidean distance, ``cov`` with the
    Bhattacharyya distance.
    """
    features, kernel = _method_row(method, params)
    if kernel is None:
        return pairwise_distance_matrix(gs, DistanceConfig(**params))
    labels = _corpus_labels(gs)
    out, _ = _pairwise(kernel, np.stack(features(gs, **params)))
    return DistanceMatrix(labels, out, {"method": method, **params})


def cluster_experiment(
    gs: Sequence[Graph],
    labels: Sequence[int],
    method: str = "moment",
    method_params: dict | None = None,
    restarts: int = 20,
    seed=None,
    threads: int | None = None,
) -> dict:
    """Kernel k-means with one cluster per label; reports accuracy vs true labels.

    ``threads`` is ignored; it is kept for existing callers.
    """
    labels = np.asarray(labels)
    clusters = np.unique(labels).size
    t0 = time.perf_counter()
    dm = method_distance_matrix(gs, method, **dict(method_params or {}))
    t1 = time.perf_counter()
    kernel = kernel_from_distances(dm)
    assignment = kernel_kmeans(kernel, clusters, restarts=restarts, seed=seed)
    accuracy = clustering_accuracy(assignment, labels)
    t2 = time.perf_counter()
    return {
        "task": "cluster",
        "method": method,
        "params": dict(method_params or {}),
        "clusters": int(clusters),
        "restarts": int(restarts),
        "accuracy": accuracy,
        "assignment": assignment.tolist(),
        "timings": {"distance_s": t1 - t0, "cluster_s": t2 - t1},
    }


def classify_experiment(
    gs: Sequence[Graph],
    labels: Sequence[int],
    method: str = "moment",
    method_params: dict | None = None,
    knn_k: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    degrees: Sequence[int] | None = None,
    folds: int = 10,
    seed=None,
    threads: int | None = None,
) -> dict:
    """KNN cross-validation over a labeled corpus, with an explicit sweep.

    For the moment method, ``degrees`` sweeps the moment-matrix degree
    (default 2..7); ``knn_k`` sweeps the neighbor count (default 1..10). The
    best (degree, k) cell by mean accuracy is reported along with the whole
    grid, so nothing about the selection is hidden. Every swept degree is
    checked first; then the moments are extracted once, to the largest
    degree's order, and each degree reads its leading blocks. ``threads`` is
    ignored; it is kept for existing callers.
    """
    labels = np.asarray(labels)
    method_params = dict(method_params or {})
    ks = [int(x) for x in knn_k]
    if method == "moment":
        swept_degrees = list(degrees) if degrees is not None else [2, 3, 4, 5, 6, 7]
    else:
        swept_degrees = [None]
    for name, values in (("degrees", swept_degrees), ("knn_k", ks)):
        if not values:
            raise ConfigError(f"empty sweep grid: no {name} given")

    if method == "moment":
        _method_row(method, method_params)
        cfgs = [DistanceConfig(**{**method_params, "degree": deg}) for deg in swept_degrees]
        _corpus_labels(gs)
        table = moment_table(gs, 2 * max(swept_degrees))
        matrices = (pairwise_distance_matrix(gs, cfg, table=table) for cfg in cfgs)
    else:
        matrices = [method_distance_matrix(gs, method, **method_params)]

    grid = []
    best = None
    for deg, dm in zip(swept_degrees, matrices):
        for k, per_fold in zip(ks, knn_classify(dm, labels, ks, folds=folds, seed=seed)):
            mean = float(per_fold.mean())
            cell = {
                "degree": deg,
                "k": k,
                "accuracy_mean": mean,
                "accuracy_std": float(per_fold.std()),
                "per_fold": per_fold.tolist(),
            }
            grid.append(cell)
            if best is None or mean > best["accuracy_mean"]:
                best = cell
    return {
        "task": "classify",
        "method": method,
        "params": method_params,
        "folds": int(folds),
        "accuracy_mean": best["accuracy_mean"],
        "accuracy_std": best["accuracy_std"],
        "per_fold": best["per_fold"],
        "best": {"degree": best["degree"], "k": best["k"]},
        "sweep": grid,
    }


def bench_moment_scaling(
    sizes: Sequence[tuple[int, int]],
    count: int = 3,
    rho: float = 0.1,
    degree: int = 4,
    repeats: int = 3,
    seed=None,
    methods: Sequence[str] = ("moment",),
) -> list[dict]:
    """Time moment extraction and pairwise comparison per (nv, ne) size.

    For each size, ``count`` graphs are generated up front; then each repeat
    times every size in turn, so a slow spell of the host hits all sizes
    alike, and medians over ``repeats`` are reported. The moment phase is the
    2*degree matvec chain per graph; the pairwise phase compares all pairs.
    Additional methods time their full distance-matrix construction.
    """
    if count < 1:
        raise ConfigError("count must be positive")
    if repeats < 1:
        raise ConfigError("repeats must be positive")
    graph_seeds = iter(_spawn_seeds(seed, len(sizes) * count))
    corpora = [[generate_rewired(nv, ne, rho, next(graph_seeds)) for _ in range(count)]
               for nv, ne in sizes]
    cfg = DistanceConfig(degree=degree, metric="frobenius")
    times = [defaultdict(list) for _ in sizes]
    for _ in range(repeats):
        for gs, size_times in zip(corpora, times):
            if "moment" in methods:
                t0 = time.perf_counter()
                mats = _hankel_stack(moment_table(gs, 2 * degree), degree)
                t1 = time.perf_counter()
                _moment_distances(mats, cfg)
                t2 = time.perf_counter()
                size_times["moment_extract_s"].append(t1 - t0)
                size_times["moment_pairwise_s"].append(t2 - t1)
            for method in methods:
                if method == "moment":
                    continue
                t0 = time.perf_counter()
                method_distance_matrix(gs, method)
                size_times[f"{method}_s"].append(time.perf_counter() - t0)
    return [
        {"nv": int(nv), "ne": int(ne), "count": int(count),
         **{key: float(np.median(ts)) for key, ts in size_times.items()}}
        for (nv, ne), size_times in zip(sizes, times)
    ]
