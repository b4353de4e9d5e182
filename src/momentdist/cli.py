"""Command-line interface for reproducible moment-distance runs.

Subcommands: ``moments``, ``pairwise``, ``cluster``, ``classify``,
``spectrum``, ``bench``. Structured results are JSON, matrices and stem-plot
data are CSV. Every result embeds a deterministic run manifest (command,
flags, seeds, input digests, version); when written to a file, a sidecar
``<out>.manifest.json`` additionally records wall-clock timings per phase.

Exit codes: 0 on success, 2 for input errors, 3 for numeric errors, 4 for
configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .baselines import EigensolverError
from .experiments import (
    METHODS,
    CorpusSpecError,
    _nonnegative_int,
    _required,
    bench_moment_scaling,
    classify_experiment,
    cluster_experiment,
    make_rewired_corpus,
)
from .graphs import (
    NAMED_GRAPH_CATALOG,
    EdgeListError,
    Graph,
    UnknownGraphNameError,
    load_edge_list,
    named_graph,
)
from .measures import graph_spectral_measure
from .metrics import (
    METRICS,
    ConfigError,
    DistanceConfig,
    NonFiniteDistanceError,
    SingularMatrixError,
    pairwise_distance_matrix,
)
from .moments import EmptyGraphError, NonFiniteMomentError, trace_moments, vector_state_moments

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

_INPUT_ERRORS = (EdgeListError, UnknownGraphNameError, CorpusSpecError, OSError,
                 json.JSONDecodeError)
_NUMERIC_ERRORS = (
    SingularMatrixError,
    EigensolverError,
    EmptyGraphError,
    NonFiniteMomentError,
    NonFiniteDistanceError,
    np.linalg.LinAlgError,
)


@dataclass
class RunManifest:
    """Reproducibility record attached to every CLI output."""

    command: str
    config: dict
    seeds: dict
    input_digests: dict
    version: str = __version__
    timings: dict = field(default_factory=dict)

    def deterministic_dict(self) -> dict:
        d = asdict(self)
        d.pop("timings")
        return d


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def _load_graph(args) -> tuple[Graph, str, dict]:
    if args.named is not None:
        return named_graph(args.named), args.named, {}
    g = load_edge_list(args.input, indexing=args.indexing, header=args.header)
    return g, args.input, {args.input: _sha256_file(args.input)}


def _emit(payload: dict, manifest: RunManifest, out: str | None) -> None:
    payload = dict(payload)
    payload["manifest"] = manifest.deterministic_dict()
    _emit_text(json.dumps(payload, indent=2) + "\n", manifest, out)


def _emit_text(text: str, manifest: RunManifest, out: str | None) -> None:
    """Write to stdout, or to ``out`` plus a ``<out>.manifest.json`` sidecar."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_moments(args) -> int:
    g, name, digests = _load_graph(args)
    t0 = time.perf_counter()
    if args.state == "vector":
        ms = vector_state_moments(g, args.order)
    else:
        ms = trace_moments(g, args.order)
    manifest = RunManifest(
        command="moments",
        config={"graph": name, "order": args.order, "state": args.state},
        seeds={},
        input_digests=digests,
        timings={"moments_s": time.perf_counter() - t0},
    )
    payload = {
        "graph": name,
        "n": g.n,
        "m": g.m,
        "state": args.state,
        "values": ms.values.tolist(),
    }
    _emit(payload, manifest, args.out)
    return EXIT_OK


def _graphs_from_args(args) -> tuple[list[Graph], list[str], dict]:
    graphs: list[Graph] = []
    labels: list[str] = []
    digests: dict = {}
    for name in args.named or []:
        graphs.append(named_graph(name))
        labels.append(name)
    for path in args.inputs or []:
        graphs.append(load_edge_list(path, indexing=args.indexing, header=args.header))
        labels.append(os.path.basename(path))
        digests[path] = _sha256_file(path)
    if not graphs:
        raise ConfigError("no graphs given; use --named and/or --inputs")
    return graphs, labels, digests


def _cmd_pairwise(args) -> int:
    graphs, labels, digests = _graphs_from_args(args)
    cfg = DistanceConfig(degree=args.degree, metric=args.metric, eps=args.reg, scaling=args.scale)
    t0 = time.perf_counter()
    dm = pairwise_distance_matrix(graphs, cfg, labels=labels)
    manifest = RunManifest(
        command="pairwise",
        config={
            "degree": args.degree,
            "metric": args.metric,
            "reg": args.reg,
            "scale": args.scale,
            "labels": labels,
        },
        seeds={},
        input_digests=digests,
        timings={"pairwise_s": time.perf_counter() - t0},
    )
    if args.out is not None and args.out.endswith(".json"):
        payload = json.loads(dm.to_json())
        payload["metadata"] = dm.metadata
        _emit(payload, manifest, args.out)
    else:
        _emit_text(dm.to_csv(), manifest, args.out)
    return EXIT_OK


def _label(value) -> str | int:
    """A files entry's label: a JSON string or integer; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(value)
    return value


def _load_corpus(path: str, seed) -> tuple[list[Graph], np.ndarray, dict]:
    """Load a corpus manifest: synthetic generator settings or labeled files."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except UnicodeDecodeError as exc:
            raise CorpusSpecError(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset "
                                  f"{exc.start}") from None
    digests = {path: _sha256_file(path)}
    if not isinstance(spec, dict):
        raise CorpusSpecError("corpus manifest is not a JSON object")
    if "synthetic" in spec:
        block = spec["synthetic"]
        settings = _required(block, "settings", "synthetic block")
        corpus_seed = (_required(block, "seed", "synthetic block", _nonnegative_int)
                       if "seed" in block else seed)
        graphs, labels = make_rewired_corpus(settings, seed=corpus_seed)
        return graphs, labels, digests
    if "files" in spec:
        indexing = spec.get("indexing", "auto")
        files = spec["files"]
        if not isinstance(files, list):
            raise CorpusSpecError(f"corpus manifest 'files' must be a list, got {files!r}")
        graphs, labels = [], []
        base = os.path.dirname(os.path.abspath(path))
        for idx, entry in enumerate(files):
            fpath = _required(entry, "path", f"files entry {idx}", str)
            if not os.path.isabs(fpath):
                fpath = os.path.join(base, fpath)
            graphs.append(load_edge_list(fpath, indexing=indexing))
            labels.append(_required(entry, "label", f"files entry {idx}", _label))
            digests[fpath] = _sha256_file(fpath)
        return graphs, np.asarray(labels), digests
    raise ConfigError("corpus manifest must contain a 'synthetic' or 'files' block")


def _method_params(args) -> dict:
    return {
        "moment": {"degree": args.degree, "metric": args.metric, "eps": args.reg,
                   "scaling": args.scale},
        "cov": {"k": args.cov_k},
        "eigs": {"k": args.eigs_k},
        "gk4": {"samples": args.gk4_samples, "seed": args.seed},
    }.get(args.method, {})


def _cmd_experiment(args) -> int:
    """``cluster`` or ``classify`` on a corpus manifest."""
    _check_seed(args.seed)
    graphs, labels, digests = _load_corpus(args.corpus, args.seed)
    params = _method_params(args)
    config = {"corpus": args.corpus, "method": args.method, "params": params}
    t0 = time.perf_counter()
    if args.cmd == "cluster":
        report = cluster_experiment(graphs, labels, method=args.method, method_params=params,
                                    restarts=args.restarts, seed=args.seed)
        timings = report.pop("timings")
        config["restarts"] = args.restarts
    else:
        params.pop("degree", None)  # the moment method sweeps --degrees instead
        degrees = args.degrees if args.method == "moment" else None
        report = classify_experiment(graphs, labels, method=args.method, method_params=params,
                                     knn_k=args.knn_k, degrees=degrees, folds=args.folds,
                                     seed=args.seed)
        timings = {}
        config.update(degrees=degrees, knn_k=args.knn_k, folds=args.folds)
    timings["total_s"] = time.perf_counter() - t0
    _emit(report, RunManifest(args.cmd, config, {"seed": args.seed}, digests, timings=timings),
          args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g, name, digests = _load_graph(args)
    t0 = time.perf_counter()
    mu = graph_spectral_measure(g)
    manifest = RunManifest(
        command="spectrum",
        config={"graph": name},
        seeds={},
        input_digests=digests,
        timings={"spectrum_s": time.perf_counter() - t0},
    )
    _emit_text(mu.to_csv(), manifest, args.out)
    return EXIT_OK


def _parse_sizes(tokens: list[str]) -> list[tuple[int, int]]:
    sizes = []
    for tok in tokens:
        try:
            nv, ne = tok.split(":")
            sizes.append((int(nv), int(ne)))
        except ValueError:
            raise ConfigError(f"bad size {tok!r}; expected NV:NE") from None
    return sizes


def _cmd_bench(args) -> int:
    _check_seed(args.seed)
    sizes = _parse_sizes(args.sizes)
    t0 = time.perf_counter()
    rows = bench_moment_scaling(
        sizes,
        count=args.count,
        rho=args.rho,
        degree=args.degree,
        repeats=args.repeats,
        seed=args.seed,
        methods=args.methods,
    )
    manifest = RunManifest(
        command="bench",
        config={"sizes": args.sizes, "count": args.count, "rho": args.rho,
                "degree": args.degree, "repeats": args.repeats,
                "methods": args.methods},
        seeds={"seed": args.seed},
        input_digests={},
        timings={"total_s": time.perf_counter() - t0},
    )
    _emit({"rows": rows}, manifest, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--named", help=f"named graph: {NAMED_GRAPH_CATALOG}")
    src.add_argument("--input", help="edge-list file")
    p.add_argument("--indexing", choices=["zero", "one", "auto"], default="auto")
    p.add_argument("--header", action="store_true", help="first data line is 'n m'")


def _add_common_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (stdout if omitted)")


def _add_distance_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--metric", default="affine-invariant", choices=list(METRICS))
    p.add_argument("--scale", choices=["none", "log1p"], default="none")
    p.add_argument("--reg", type=float, default=0.0, help="eps ridge added to moment matrices")
    # ignored; accepted for existing callers
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentdist",
        description="Graph similarity via spectral moment matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("moments", help="moment sequence of one graph")
    _add_graph_source(p)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--state", choices=["vector", "trace"], default="vector")
    _add_common_out(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("pairwise", help="pairwise distance matrix over graphs")
    p.add_argument("--named", nargs="*", help=f"named graphs: {NAMED_GRAPH_CATALOG}")
    p.add_argument("--inputs", nargs="*", help="edge-list files")
    p.add_argument("--indexing", choices=["zero", "one", "auto"], default="auto")
    p.add_argument("--header", action="store_true")
    _add_distance_options(p)
    _add_common_out(p)
    p.set_defaults(func=_cmd_pairwise)

    for name in ("cluster", "classify"):
        p = sub.add_parser(name, help=f"{name} a corpus manifest")
        p.add_argument("--corpus", required=True, help="corpus manifest JSON")
        p.add_argument("--method", choices=list(METHODS), default="moment")
        _add_distance_options(p)
        p.add_argument("--cov-k", type=int, default=4)
        p.add_argument("--eigs-k", type=int, default=10)
        p.add_argument("--gk4-samples", type=int, default=10000)
        p.add_argument("--seed", type=int, default=0)
        if name == "cluster":
            p.add_argument("--restarts", type=int, default=20)
        else:
            p.add_argument("--knn-k", type=int, nargs="*", default=list(range(1, 11)))
            p.add_argument("--degrees", type=int, nargs="*", default=[2, 3, 4, 5, 6, 7])
            p.add_argument("--folds", type=int, default=10)
        _add_common_out(p)
        p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("spectrum", help="stem-plot spectral distribution data")
    _add_graph_source(p)
    _add_common_out(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("bench", help="timing table for moment extraction/pairwise phases")
    p.add_argument("--sizes", nargs="+", required=True, help="sizes as NV:NE")
    p.add_argument("--count", type=int, default=3, help="graphs per size")
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--methods", nargs="*", choices=list(METHODS), default=["moment"])
    p.add_argument("--seed", type=int, default=0)
    _add_common_out(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # one stderr line per warning, without the source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except MemoryError as exc:
            print(f"config error: out of memory: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except _NUMERIC_ERRORS as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except _INPUT_ERRORS as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
