"""Command-line interface for reproducible moment-distance runs.

Subcommands: ``moments``, ``pairwise``, ``cluster``, ``classify``,
``spectrum``, ``bench``. Structured results are JSON, matrices and stem-plot
data are CSV. Each command returns its result, and ``main`` writes it through
one writer. A JSON result embeds a deterministic run manifest (command,
flags, seeds, input digests, version); a CSV result on stdout carries none.
With ``--out``, a sidecar ``<out>.manifest.json`` holds that manifest plus
wall-clock timings per phase, for JSON and CSV alike.

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
from functools import partial

import numpy as np

from . import __version__
from .baselines import EigensolverError
from .experiments import (
    _DEGREES,
    _KNN_K,
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
    ConfigError,
    EdgeListError,
    Graph,
    UnknownGraphNameError,
    _utf8_text,
    named_graph,
    parse_edge_list,
)
from .measures import graph_spectral_measure
from .metrics import (
    METRICS,
    DistanceConfig,
    NonFiniteDistanceError,
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
    EigensolverError,
    EmptyGraphError,
    NonFiniteMomentError,
    NonFiniteDistanceError,
    np.linalg.LinAlgError,
)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def _read(path: str, digests: dict, error: type[ValueError]) -> str:
    """The text of the file at ``path``, read once; ``digests[path]`` is the SHA-256
    of the bytes decoded. ``error`` names a byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    digests[path] = hashlib.sha256(data).hexdigest()
    return _utf8_text(data, error)


def _edge_list(path: str, digests: dict, indexing: str, header: bool = False) -> Graph:
    return parse_edge_list(_read(path, digests, EdgeListError), indexing=indexing, header=header)


def _load_graph(args) -> tuple[Graph, str, dict]:
    if args.named is not None:
        return named_graph(args.named), args.named, {}
    digests: dict = {}
    return _edge_list(args.input, digests, args.indexing, args.header), args.input, digests


def _write(command: str, out: str | None, output: dict | str, config: dict, seeds: dict,
           input_digests: dict, timings: dict) -> None:
    """Write a command's output to stdout, or to ``out`` plus a ``<out>.manifest.json``
    sidecar (the manifest and ``timings``). A dict output is JSON with the manifest embedded."""
    manifest = {"command": command, "config": config, "seeds": seeds,
                "input_digests": input_digests, "version": __version__}
    if isinstance(output, dict):
        output = json.dumps({**output, "manifest": manifest}, indent=2) + "\n"
    if out is None:
        sys.stdout.write(output)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(output)
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump({**manifest, "timings": timings}, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands: each returns (output, config, seeds, input_digests, timings)
# for ``_write``; none writes anything itself.
# ---------------------------------------------------------------------------


def _cmd_moments(args) -> tuple:
    g, name, digests = _load_graph(args)
    t0 = time.perf_counter()
    ms = (vector_state_moments if args.state == "vector" else trace_moments)(g, args.order)
    timings = {"moments_s": time.perf_counter() - t0}
    payload = {"graph": name, "n": g.n, "m": g.m, "state": args.state,
               "values": ms.values.tolist()}
    config = {"graph": name, "order": args.order, "state": args.state}
    return payload, config, {}, digests, timings


def _graphs_from_args(args) -> tuple[list[Graph], list[str], dict]:
    graphs: list[Graph] = []
    labels: list[str] = []
    digests: dict = {}
    for name in args.named or []:
        graphs.append(named_graph(name))
        labels.append(name)
    for path in args.inputs or []:
        graphs.append(_edge_list(path, digests, args.indexing, args.header))
        labels.append(os.path.basename(path))
    if not graphs:
        raise ConfigError("no graphs given; use --named and/or --inputs")
    return graphs, labels, digests


def _cmd_pairwise(args) -> tuple:
    graphs, labels, digests = _graphs_from_args(args)
    cfg = DistanceConfig(degree=args.degree, metric=args.metric, eps=args.reg)
    t0 = time.perf_counter()
    dm = pairwise_distance_matrix(graphs, cfg, labels=labels)
    timings = {"pairwise_s": time.perf_counter() - t0}
    config = {"degree": args.degree, "metric": args.metric, "reg": args.reg, "labels": labels}
    if args.out is not None and args.out.endswith(".json"):
        output = {"labels": dm.labels, "entries": dm.entries.tolist(), "metadata": dm.metadata}
    else:
        output = dm.to_csv()
    return output, config, {}, digests, timings


def _label(value) -> str | int:
    """A files entry's label: a JSON string or integer; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(value)
    return value


def _string(value) -> str:
    """A files entry's path: a JSON string; TypeError otherwise."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _load_corpus(path: str, seed) -> tuple[list[Graph], np.ndarray, dict]:
    """Load a corpus manifest: synthetic generator settings or labeled files."""
    digests: dict = {}
    text = _read(path, digests, CorpusSpecError)
    try:
        spec = json.loads(text)
    except RecursionError as exc:
        raise CorpusSpecError(f"corpus manifest nests too deeply: {exc}") from None
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
            fpath = _required(entry, "path", f"files entry {idx}", _string)
            labels.append(_required(entry, "label", f"files entry {idx}", _label))
            if not os.path.isabs(fpath):
                fpath = os.path.join(base, fpath)
            graphs.append(_edge_list(fpath, digests, indexing))
        if any(isinstance(label, str) for label in labels):
            labels = [str(label) for label in labels]  # as numpy reads int64 and str, any int
        return graphs, np.asarray(labels), digests
    raise ConfigError("corpus manifest must contain a 'synthetic' or 'files' block")


def _method_params(args) -> dict:
    moment = {"metric": args.metric, "eps": args.reg}
    if args.cmd == "cluster":  # classify sweeps --degrees instead
        moment = {"degree": args.degree, **moment}
    return {
        "moment": moment,
        "cov": {"k": args.cov_k},
        "eigs": {"k": args.eigs_k},
        "gk4": {"samples": args.gk4_samples, "seed": args.seed},
    }.get(args.method, {})


def _cmd_experiment(args) -> tuple:
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
        degrees = args.degrees if args.method == "moment" else None
        report = classify_experiment(graphs, labels, method=args.method, method_params=params,
                                     knn_k=args.knn_k, degrees=degrees, folds=args.folds,
                                     seed=args.seed)
        timings = {}
        config.update(degrees=degrees, knn_k=args.knn_k, folds=args.folds)
    timings["total_s"] = time.perf_counter() - t0
    return report, config, {"seed": args.seed}, digests, timings


def _cmd_spectrum(args) -> tuple:
    g, name, digests = _load_graph(args)
    t0 = time.perf_counter()
    mu = graph_spectral_measure(g)
    return mu.to_csv(), {"graph": name}, {}, digests, {"spectrum_s": time.perf_counter() - t0}


def _parse_sizes(tokens: list[str]) -> list[tuple[int, int]]:
    sizes = []
    for tok in tokens:
        try:
            nv, ne = tok.split(":")
            sizes.append((int(nv), int(ne)))
        except ValueError:
            raise ConfigError(f"bad size {tok!r}; expected NV:NE") from None
    return sizes


def _cmd_bench(args) -> tuple:
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
    timings = {"total_s": time.perf_counter() - t0}
    config = {"sizes": args.sizes, "count": args.count, "rho": args.rho, "degree": args.degree,
              "repeats": args.repeats, "methods": args.methods}
    return {"rows": rows}, config, {"seed": args.seed}, {}, timings


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


def _add_distance_options(p: argparse.ArgumentParser, degree: bool = True) -> None:
    if degree:
        p.add_argument("--degree", type=int, default=4)
    p.add_argument("--metric", default="affine-invariant", choices=list(METRICS))
    p.add_argument("--reg", type=float, default=0.0, help="eps ridge added to moment matrices")
    # ignored; accepted for existing callers
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)


def _moments_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--state", choices=["vector", "trace"], default="vector")
    _add_common_out(p)
    p.set_defaults(func=_cmd_moments)


def _pairwise_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--named", nargs="*", help=f"named graphs: {NAMED_GRAPH_CATALOG}")
    p.add_argument("--inputs", nargs="*", help="edge-list files")
    p.add_argument("--indexing", choices=["zero", "one", "auto"], default="auto")
    p.add_argument("--header", action="store_true")
    _add_distance_options(p)
    _add_common_out(p)
    p.set_defaults(func=_cmd_pairwise)


def _experiment_arguments(name: str, p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus manifest JSON")
    p.add_argument("--method", choices=list(METHODS), default="moment")
    _add_distance_options(p, degree=name == "cluster")
    p.add_argument("--cov-k", type=int, default=4)
    p.add_argument("--eigs-k", type=int, default=10)
    p.add_argument("--gk4-samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    if name == "cluster":
        p.add_argument("--restarts", type=int, default=20)
    else:
        p.add_argument("--knn-k", type=int, nargs="*", default=list(_KNN_K))
        p.add_argument("--degrees", type=int, nargs="*", default=list(_DEGREES))
        p.add_argument("--folds", type=int, default=10)
    _add_common_out(p)
    p.set_defaults(func=_cmd_experiment)


def _spectrum_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    _add_common_out(p)
    p.set_defaults(func=_cmd_spectrum)


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", nargs="+", required=True, help="sizes as NV:NE")
    p.add_argument("--count", type=int, default=3, help="graphs per size")
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--methods", nargs="*", choices=list(METHODS), default=["moment"])
    p.add_argument("--seed", type=int, default=0)
    _add_common_out(p)
    p.set_defaults(func=_cmd_bench)


# each command's help line and the function that adds its arguments
_COMMANDS = {
    "moments": ("moment sequence of one graph", _moments_arguments),
    "pairwise": ("pairwise distance matrix over graphs", _pairwise_arguments),
    "cluster": ("cluster a corpus manifest", partial(_experiment_arguments, "cluster")),
    "classify": ("classify a corpus manifest", partial(_experiment_arguments, "classify")),
    "spectrum": ("stem-plot spectral distribution data", _spectrum_arguments),
    "bench": ("timing table for moment extraction/pairwise phases", _bench_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with every command, or with ``command`` alone:
    that one reads an argv that starts with ``command`` as the full parser does,
    in less time."""
    parser = argparse.ArgumentParser(
        prog="momentdist",
        description="Graph similarity via spectral moment matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # the usage line names every command, however many are built
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name, (summary, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            # no abbreviations in classify, where --degree would be read as --degrees
            add_arguments(sub.add_parser(name, help=summary, allow_abbrev=name != "classify"))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the full parser only for --help, --version or an unknown command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    with warnings.catch_warnings():
        # one stderr line per warning, without the source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            _write(args.cmd, args.out, *args.func(args))
            return EXIT_OK
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except MemoryError as exc:
            print("config error: out of memory:", str(exc) or "allocation failed", file=sys.stderr)
            return EXIT_CONFIG
        except _NUMERIC_ERRORS as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except _INPUT_ERRORS as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
