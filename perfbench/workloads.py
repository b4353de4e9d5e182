"""The four benchmark workloads.

Each workload prepares its inputs from the seed, runs one task through the
package's own entry points (``momentdist.cli.main`` in-process, or
``cluster_experiment`` for the baselines), checks the task's output against
the references in ``reference.py``, and runs a traced pass that calls each
module's public functions in pipeline order with spans around the calls.
Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import momentdist as md
import momentdist.cli as md_cli
import momentdist.experiments as md_exp
import reference as ref
from spans import Tracer, capture, patched

DEGREE = 4
REG = 1e4
DEGREES = [2, 3, 4, 5, 6, 7]
KNN_K = list(range(1, 11))
FOLDS = 10
RESTARTS = 20
METRIC_NAMES = ["frobenius", "affine-invariant", "log-frobenius", "cholesky-frobenius"]
BASELINES = ["cov", "nclm", "eigs", "gk3", "gk4"]
PAIR_SAMPLE = 50


def rewired_settings(shapes, count: int) -> list[dict]:
    """Settings for ``make_rewired_corpus``: every (nv, ne) at rho 0.1 and 0.9."""
    return [
        {"nv": nv, "ne": ne, "rho": rho, "count": count}
        for nv, ne in shapes
        for rho in (0.1, 0.9)
    ]


DESK_SHAPES = [(200, 2000), (200, 4000)]
TINY_SHAPES = [(40, 200), (40, 400)]


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


def _pairwise_counts(args, kwargs, dm) -> dict:
    meta = dm.metadata
    return {
        "pairs": _pairs(dm.n),
        "fallback_pairs": int(meta["fallback_pairs"]),
        "degree": int(meta["degree"]),
        "metric": meta["metric"],
    }


def _learn_wrappers(t: Tracer) -> list:
    return [
        (md_exp, "kernel_from_distances", t.wrap("learn.kernel")),
        (md_exp, "kernel_kmeans",
         t.wrap("learn.kmeans", lambda a, kw, out: {"restarts": kw["restarts"]})),
        (md_exp, "clustering_accuracy", t.wrap("learn.accuracy")),
    ]


def _extract(t: Tracer, gs, degree: int, threads: int) -> None:
    """Direct moment extraction and Hankel assembly, as ``pairwise`` repeats them.

    Extraction runs on the same number of threads as in
    ``pairwise_distance_matrix``, so the time it repeats there can be
    subtracted from the pairwise span.
    """
    order = 2 * degree
    with t.span("moments.extract", extra=True, degree=degree) as counts:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            seqs = list(pool.map(lambda g: md.vector_state_moments(g, order), gs))
    nnz = sum(int(g.indices.size) for g in gs)
    # bytes a matvec chain streams, computed from array sizes (not measured):
    # the CSR arrays plus the input and output vectors, once per matvec
    streamed = 0
    for g in gs:
        a = g.to_csr()
        streamed += order * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + 2 * 8 * g.n)
    counts.update(matvecs=order * len(gs), nnz_touched=order * nnz, computed_bytes=streamed)
    with t.span("hankel.build", extra=True, degree=degree) as counts:
        mats = [md.build_moment_matrix(s, degree) for s in seqs]
    counts.update(
        matrices=len(mats),
        cond_median=float(np.median([np.linalg.cond(m.entries) for m in mats])),
    )


def _csr(t: Tracer, gs) -> None:
    with t.span("graphs.csr", graphs=len(gs)):
        for g in gs:
            g.to_csr()


def _traced_corpus(t: Tracer, settings, seed):
    gen = t.wrap("graphs.generate", lambda a, kw, g: {"graphs": 1, "edges": g.m})
    with patched((md_exp, "generate_rewired", gen)):
        with t.span("experiments.corpus"):
            return md_exp.make_rewired_corpus(settings, seed=seed)


def _sample_pair_checks(checks, gs, dm, eps, degree, seed) -> None:
    """Recompute sampled pairs of ``dm`` from the graphs' own arrays."""
    mats = {}

    def hankel_of(i):
        if i not in mats:
            g = gs[i]
            a = ref.csr_from_arrays(g.n, g.indptr, g.indices)
            mats[i] = ref.hankel(ref.vector_moments(a, 2 * degree), degree, eps)
        return mats[i]

    rng = np.random.default_rng(seed)
    n = len(gs)
    worst = 0.0
    bad = []
    sample = set()
    while len(sample) < min(PAIR_SAMPLE, _pairs(n)):
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        sample.add((i, j))
    for i, j in sorted(sample):
        want, geodesic = ref.distance(hankel_of(i), hankel_of(j))
        tol = ref.GEODESIC_REL_TOL if geodesic else ref.EXACT_REL_TOL
        err = ref.rel_err(float(dm.entries[i, j]), want)
        worst = max(worst, err)
        if not err <= tol:
            bad.append((i, j, err))
    _check(checks, "sampled_pairs", not bad,
           f"{len(sample)} pairs, max rel err {worst:.2e}, failing {bad[:3]}")


class Workload:
    """One named set of inputs and the task run on them."""

    name = ""
    via_cli = True  # the task goes through momentdist.cli.main

    def __init__(self, seed: int, size: str, threads: int, workdir: str):
        self.seed = seed
        self.size = size
        self.threads = threads
        self.workdir = workdir
        self.digests: dict = {}
        self.work: dict = {}

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    # set-up ----------------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the task once on tiny inputs, so lazy imports are paid in set-up."""
        tiny = type(self)(self.seed, "tiny", self.threads, self.path("warm"))
        os.makedirs(tiny.workdir, exist_ok=True)
        tiny.prepare()
        tiny.output(tiny.run())

    # the timed task ------------------------------------------------------------
    def run(self):
        """The timed task: one pass from input to final result."""
        raise NotImplementedError

    def output(self, raw) -> dict:
        """The task's result, read back outside the timed section."""
        with open(self.path("out.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def capture_hooks(self, store: dict) -> list:
        """Wrappers that keep the program's intermediate results for checking."""
        raise NotImplementedError

    def check(self, out: dict, store: dict) -> list:
        raise NotImplementedError

    def accuracy(self, out: dict) -> float:
        raise NotImplementedError

    def traced_pass(self, t: Tracer) -> None:
        raise NotImplementedError

    def _cli(self, argv: list[str]) -> None:
        rc = md_cli.main(argv + ["--threads", str(self.threads)])
        if rc != 0:
            raise RuntimeError(f"momentdist {argv[0]} exited with {rc}")


class _ManifestWorkload(Workload):
    """Shared by the two workloads that read a synthetic corpus manifest."""

    count: dict  # graphs per setting, by size

    @property
    def settings(self) -> list[dict]:
        shapes = DESK_SHAPES if self.size == "full" else TINY_SHAPES
        return rewired_settings(shapes, self.count[self.size])

    def prepare(self) -> None:
        spec = {"synthetic": {"seed": self.seed, "settings": self.settings}}
        with open(self.path("corpus.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)


class DeskCluster(_ManifestWorkload):
    name = "desk-cluster"
    count = {"full": 10, "tiny": 6}

    def run(self):
        self._cli(["cluster", "--corpus", self.path("corpus.json"), "--method", "moment",
                   "--degree", str(DEGREE), "--metric", "affine-invariant", "--reg", str(REG),
                   "--seed", str(self.seed), "--out", self.path("out.json")])

    def capture_hooks(self, store):
        store["pairwise"] = []
        return [(md_exp, "pairwise_distance_matrix", capture(store["pairwise"]))]

    def check(self, out, store):
        checks = []
        (args, _, dm), = store["pairwise"]
        gs = args[0]
        self.digests["corpus"] = ref.digest_graphs(gs)
        n = len(gs)
        self.work = {"graphs": n, "edges": sum(g.m for g in gs), "pairs": _pairs(n),
                     "matvecs": 2 * DEGREE * n}
        _check(checks, "accuracy", out["accuracy"] >= 0.9, f"accuracy {out['accuracy']}")
        _check(checks, "finite", np.all(np.isfinite(dm.entries)))
        _sample_pair_checks(checks, gs, dm, REG, DEGREE, self.seed)
        return checks

    def accuracy(self, out):
        return float(out["accuracy"])

    def traced_pass(self, t):
        gs, labels = _traced_corpus(t, self.settings, self.seed)
        _csr(t, gs)
        _extract(t, gs, DEGREE, self.threads)
        params = {"degree": DEGREE, "metric": "affine-invariant", "eps": REG, "scaling": "none"}
        pw = t.wrap("metrics.pairwise", _pairwise_counts)
        with patched((md_exp, "pairwise_distance_matrix", pw), *_learn_wrappers(t)):
            with t.span("experiments.cluster"):
                md_exp.cluster_experiment(gs, labels, method="moment", method_params=params,
                                          restarts=RESTARTS, seed=self.seed, threads=self.threads)
        cfg = md.DistanceConfig(degree=DEGREE, metric="affine-invariant", eps=REG)
        with t.span("metrics.pairwise_t1", extra=True, pairs=_pairs(len(gs))):
            md.pairwise_distance_matrix(gs, cfg, threads=1)
        for metric in METRIC_NAMES:
            cfg = md.DistanceConfig(degree=DEGREE, metric=metric, eps=REG)
            with t.span("metrics.pairwise_metric", extra=True, metric=metric,
                        degree=DEGREE) as counts:
                dm = md.pairwise_distance_matrix(gs, cfg, threads=self.threads)
            counts.update(pairs=_pairs(dm.n), fallback_pairs=dm.metadata["fallback_pairs"])


class ClassifySweep(_ManifestWorkload):
    name = "classify-sweep"
    # at least `FOLDS` graphs a class, so the folds stay stratified
    count = {"full": 10, "tiny": 10}

    def run(self):
        self._cli(["classify", "--corpus", self.path("corpus.json"), "--reg", str(REG),
                   "--seed", str(self.seed), "--out", self.path("out.json")])

    def capture_hooks(self, store):
        store["corpus"] = []
        return [(md_cli, "make_rewired_corpus", capture(store["corpus"]))]

    def check(self, out, store):
        checks = []
        (_, _, (gs, _)), = store["corpus"]
        self.digests["corpus"] = ref.digest_graphs(gs)
        n = len(gs)
        self.work = {"graphs": n, "edges": sum(g.m for g in gs),
                     "pairs": len(DEGREES) * _pairs(n),
                     "matvecs": n * sum(2 * d for d in DEGREES)}
        _check(checks, "accuracy", out["accuracy_mean"] >= 0.95,
               f"best accuracy {out['accuracy_mean']} at {out['best']}")
        cells = out["sweep"]
        finite = all(
            math.isfinite(c["accuracy_mean"]) and all(math.isfinite(x) for x in c["per_fold"])
            for c in cells
        )
        _check(checks, "grid", len(cells) == len(DEGREES) * len(KNN_K) and finite,
               f"{len(cells)} cells, all finite: {finite}")
        return checks

    def accuracy(self, out):
        return float(out["accuracy_mean"])

    def traced_pass(self, t):
        gs, labels = _traced_corpus(t, self.settings, self.seed)
        _csr(t, gs)
        for degree in DEGREES:
            _extract(t, gs, degree, self.threads)
        params = {"metric": "affine-invariant", "eps": REG, "scaling": "none"}
        knn = t.wrap("learn.knn", lambda a, kw, out: {"queries": len(a[1])})
        pw = t.wrap("metrics.pairwise", _pairwise_counts)
        with patched((md_exp, "pairwise_distance_matrix", pw), (md_exp, "knn_classify", knn)):
            with t.span("experiments.classify"):
                md_exp.classify_experiment(gs, labels, method="moment", method_params=params,
                                           knn_k=KNN_K, degrees=DEGREES, folds=FOLDS,
                                           seed=self.seed, threads=self.threads)


def rewired_edge_arrays(nv: int, ne: int, rho: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Ring lattice with ``ne/nv`` neighbours a side, far ends rewired with prob. rho.

    Written with the benchmark's own numpy code, independent of the package's
    generator. Rewired ends never hit their own vertex; a rewire that repeats
    an edge collapses it, so the graph can have slightly fewer than ``ne``
    edges. Lines are shuffled and each edge is oriented at random.
    """
    c = ne // nv
    home = np.tile(np.arange(nv, dtype=np.int64), c)
    other = (home + np.repeat(np.arange(1, c + 1, dtype=np.int64), nv)) % nv
    rewire = rng.random(ne) < rho
    other[rewire] = (home[rewire] + 1 + rng.integers(0, nv - 1, int(rewire.sum()))) % nv
    flip = rng.random(ne) < 0.5
    u = np.where(flip, other, home)
    v = np.where(flip, home, other)
    order = rng.permutation(ne)
    return u[order], v[order]


class LargeIngest(Workload):
    name = "large-ingest"
    files = {
        "full": [("dense", 500, 40000), ("sparse", 20000, 40000)],
        "tiny": [("dense", 200, 4000), ("sparse", 4000, 8000)],
    }
    rho = 0.1

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for label, nv, ne in self.files[self.size]:
            u, v = rewired_edge_arrays(nv, ne, self.rho, rng)
            path = self.path(f"{label}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())))
                fh.write("\n")
            self.inputs.append((path, nv, u, v))
            self.digests[label] = ref.digest_arrays([u, v])

    def run(self):
        self._cli(["pairwise", "--inputs", *(p for p, *_ in self.inputs), "--indexing", "zero",
                   "--degree", str(DEGREE), "--out", self.path("out.json")])

    def capture_hooks(self, store):
        store["pairwise"] = []
        return [(md_cli, "pairwise_distance_matrix", capture(store["pairwise"]))]

    def check(self, out, store):
        checks = []
        (args, _, dm), = store["pairwise"]
        gs = args[0]
        hankels = []
        total_edges = 0
        for g, (path, nv, u, v) in zip(gs, self.inputs):
            a, m = ref.csr_from_edges(nv, u, v)
            total_edges += m
            label = os.path.basename(path)
            _check(checks, f"{label}.size", (g.n, g.m) == (nv, m), f"got {(g.n, g.m)}, want {(nv, m)}")
            want = ref.vector_moments(a, 2 * DEGREE)
            got = md.vector_state_moments(g, 2 * DEGREE).values
            err = max(ref.rel_err(x, y) for x, y in zip(got, want))
            _check(checks, f"{label}.moments", err <= ref.EXACT_REL_TOL, f"max rel err {err:.2e}")
            hankels.append(ref.hankel(want, DEGREE))
        want, geodesic = ref.distance(*hankels)
        got = float(out["entries"][0][1])
        tol = ref.GEODESIC_REL_TOL if geodesic else ref.EXACT_REL_TOL
        self.distance_err = ref.rel_err(got, want)
        _check(checks, "distance", self.distance_err <= tol,
               f"got {got!r}, want {want!r} ({'geodesic' if geodesic else 'frobenius'})")
        _check(checks, "finite", np.all(np.isfinite(dm.entries)))
        self.work = {"graphs": len(gs), "edges": total_edges, "pairs": 1,
                     "matvecs": 2 * DEGREE * len(gs)}
        return checks

    def accuracy(self, out):
        # one distance, no labels: agreement of that distance with the reference
        return max(0.0, 1.0 - self.distance_err)

    def traced_pass(self, t):
        gs = []
        for path, nv, u, v in self.inputs:
            with t.span("graphs.parse", edges=int(u.size)):
                g = md.load_edge_list(path, indexing="zero")
            edges = np.stack([u, v], axis=1)
            with t.span("graphs.from_edges", extra=True, edges=int(u.size)):
                md.Graph.from_edges(nv, edges)
            gs.append(g)
        _csr(t, gs)
        _extract(t, gs, DEGREE, self.threads)
        cfg = md.DistanceConfig(degree=DEGREE)
        with t.span("metrics.pairwise") as counts:
            dm = md.pairwise_distance_matrix(gs, cfg, threads=self.threads)
        counts.update(_pairwise_counts(None, None, dm))
        with t.span("metrics.pairwise_t1", extra=True, pairs=1):
            md.pairwise_distance_matrix(gs, cfg, threads=1)


class Baselines(Workload):
    name = "baselines"
    via_cli = False
    count = {"full": 4, "tiny": 5}
    gk4_samples = {"full": 500, "tiny": 200}

    def params(self, method: str) -> dict:
        if method == "gk4":
            return {"samples": self.gk4_samples[self.size], "seed": self.seed}
        return {}

    def prepare(self) -> None:
        shapes = DESK_SHAPES if self.size == "full" else TINY_SHAPES
        settings = rewired_settings(shapes, self.count[self.size])
        self.gs, self.labels = md.make_rewired_corpus(settings, seed=self.seed)
        self.digests["corpus"] = ref.digest_graphs(self.gs)

    def run(self):
        return {
            m: md_exp.cluster_experiment(self.gs, self.labels, method=m,
                                         method_params=self.params(m), restarts=RESTARTS,
                                         seed=self.seed, threads=self.threads)
            for m in BASELINES
        }

    def output(self, raw) -> dict:
        return {m: {"accuracy": r["accuracy"], "assignment": r["assignment"]}
                for m, r in raw.items()}

    def capture_hooks(self, store):
        store["dm"], store["gk3"] = [], []
        return [(md_exp, "method_distance_matrix", capture(store["dm"])),
                (md_exp, "graphlet3_distribution", capture(store["gk3"]))]

    def check(self, out, store):
        checks = []
        methods = [args[1] for args, _, _ in store["dm"]]
        _check(checks, "methods", methods == BASELINES, f"{methods}")
        for args, _, dm in store["dm"]:
            e = dm.entries
            ok = np.all(np.isfinite(e)) and np.array_equal(e, e.T)
            _check(checks, f"{args[1]}.matrix", ok, "finite and symmetric")
        bad = []
        for (g,), _, feats in store["gk3"]:
            total = g.n * (g.n - 1) * (g.n - 2) // 6
            want = ref.triangles(ref.csr_from_arrays(g.n, g.indptr, g.indices))
            if abs(feats[3] * total - want) > 1e-6 * max(1, want):
                bad.append((feats[3] * total, want))
        _check(checks, "gk3.triangles", len(store["gk3"]) == len(self.gs) and not bad,
               f"{len(store['gk3'])} graphs, mismatches {bad[:3]}")
        n = len(self.gs)
        self.work = {"graphs": n, "edges": sum(g.m for g in self.gs),
                     "pairs": len(BASELINES) * _pairs(n), "matvecs": 4 * n}
        return checks

    def accuracy(self, out):
        return float(np.mean([out[m]["accuracy"] for m in BASELINES]))

    def _features(self, method: str) -> list:
        gs = self.gs
        if method == "cov":
            return [md.cov_descriptor(g, k=4) for g in gs]
        if method == "nclm":
            return [md.nclm_vector(g) for g in gs]
        if method == "eigs":
            return [md.top_k_eigenvalues(g, k=10) for g in gs]
        if method == "gk3":
            return [md.graphlet3_distribution(g) for g in gs]
        seeds = np.random.SeedSequence(self.seed).generate_state(len(gs), dtype=np.uint64)
        samples = self.gk4_samples[self.size]
        return [md.graphlet4_distribution(g, samples=samples, seed=s) for g, s in zip(gs, seeds)]

    def traced_pass(self, t):
        n = len(self.gs)
        for method in BASELINES:
            with t.span("baselines.features", extra=True, method=method, graphs=n):
                self._features(method)
            samples = self.params(method).get("samples", 0) * n
            dist = t.wrap("baselines.distance",
                          lambda a, kw, dm, m=method, s=samples:
                          {"method": m, "pairs": _pairs(dm.n), "samples": s})
            with patched((md_exp, "method_distance_matrix", dist), *_learn_wrappers(t)):
                with t.span("experiments.cluster", method=method):
                    md_exp.cluster_experiment(self.gs, self.labels, method=method,
                                              method_params=self.params(method),
                                              restarts=RESTARTS, seed=self.seed,
                                              threads=self.threads)


WORKLOADS = {w.name: w for w in (DeskCluster, ClassifySweep, LargeIngest, Baselines)}
