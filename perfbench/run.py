"""Benchmark of the momentdist pipeline: one workload per run.

    python3 perfbench/run.py --workload desk-cluster --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory. With ``--trace 0`` it times the workload's task, tracing
off, for ``--seconds`` seconds, with a pass of a fixed reference kernel after
each task, and reports the end-to-end metrics; task cost is given in units of
the kernel's time, which the shared host's speed cancels out of. With
``--trace 1`` it alternates an untraced task with a traced pass and reports
the per-layer metrics; the spans are written to ``perfbench/_work/``. Every
run checks the program's output against independent references. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Metrics, units and the reasons for each workload are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from reference_kernel import ReferenceKernel
from spans import Tracer, duration, layer_of, patched, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ["desk-cluster", "classify-sweep", "large-ingest", "baselines"]
SETUP_REPEATS = 5
# untraced runs time this many tasks at least, besides the checked first one
MIN_TASKS = 5
LAYERS = ["graphs", "moments", "hankel", "metrics", "baselines", "learn", "experiments"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny inputs, for the smoke test only")
    return p.parse_args(argv)


def import_package() -> float:
    """Import momentdist from this checkout's src/; returns the import time."""
    init = os.path.join(SRC, "momentdist", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no package source at {init}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import momentdist
    import momentdist.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(momentdist.__file__)) != os.path.dirname(init):
        raise SystemExit(f"perfbench: imported momentdist from {momentdist.__file__}")
    return elapsed


def git_commit() -> str | None:
    """HEAD of the checkout's .git, read from files; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package's source files, which identifies the code run."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "momentdist")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    def openblas(mod):
        blas = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": openblas(numpy),
        "scipy_blas": openblas(scipy),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "threads": threads,
        "trace": args.trace,
    }


class Ops:
    """Operations attempted and failed: entry-point calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args) -> tuple[bool, object]:
        """Call an entry point; an exception counts as one failed operation."""
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc()
            return self.record(False, f"{what} raised"), None
        return self.record(True, what), out


def median(values):
    return statistics.median(values) if values else 0.0


def task_rel(task_times, ref_times) -> float:
    """Median task time in units of the reference kernel timed around it.

    ``ref_times[i]`` is the mean of the kernel passes just before and just
    after task ``i``. A shared host can switch between a fast and a slow
    speed for seconds at a time and drift over minutes; both change a task
    and the kernel next to it alike, so they cancel from each task's ratio.
    """
    return median([t / r for t, r in zip(task_times, ref_times)])


def run_task(wl, ops: Ops, first: dict):
    """One untraced task; returns its wall time, or None if it failed.

    The first task keeps the program's intermediate results through capture
    hooks, and its output is checked against the references. Later tasks
    must reproduce the first task's output exactly.
    """
    hooks_on = not first
    store: dict = {}
    hooks = wl.capture_hooks(store) if hooks_on else []
    with patched(*hooks):
        t0 = time.perf_counter()
        ok, raw = ops.call(f"{wl.name} task", wl.run)
        elapsed = time.perf_counter() - t0
    if not ok:
        return None
    out = wl.output(raw)
    if hooks_on:
        first["out"] = out
        try:
            checks = wl.check(out, store)
            first["accuracy"] = wl.accuracy(out)
        except Exception:
            traceback.print_exc()
            checks = [("check", False, "raised")]
        for name, ok, detail in checks:
            print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}")
            ops.record(ok, f"check {name}: {detail}")
    else:
        ops.record(out == first["out"], "output differs from the first task's")
    return elapsed


def end_to_end(wl, task_times, ref_times, setup_s, first) -> dict:
    rel = task_rel(task_times, ref_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "task_rel": (rel, "ref"),
        # work counts and accuracy come from the first task's check; a check
        # that raised leaves them at 0 and the run is reported not correct
        "pairs_per_ref": (wl.work.get("pairs", 0) / rel, "1/ref"),
        "edges_per_ref": (wl.work.get("edges", 0) / rel, "1/ref"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "accuracy": (first.get("accuracy", 0.0), "fraction"),
    }


def per_layer(wl, passes: list[list[dict]], pass_walls, task_times) -> dict:
    """Per-layer metrics: each one's median over the traced passes."""
    rows = [layer_values(spans) for spans in passes]
    out = {name: (median([r[name][0] for r in rows]), unit) for name, (_, unit) in rows[0].items()}
    pipeline = [sum(duration(s) for s in spans if s["parent"] is None and not s["extra"])
                for spans in passes]
    extra = [sum(duration(s) for s in spans if s["parent"] is None and s["extra"])
             for spans in passes]
    task_s = median(task_times)
    # derived across two passes: the untraced task minus the traced library calls
    out["cli.self_s"] = (task_s - median(pipeline) if wl.via_cli else 0.0, "s")
    traced = median([w - e for w, e in zip(pass_walls, extra)])
    out["trace.overhead_frac"] = (traced / task_s - 1.0, "fraction")
    return out


def layer_values(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass; 0 where a layer does no work."""
    from workloads import BASELINES, DEGREES, METRIC_NAMES

    def sel(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s["counts"].get(k) == v for k, v in match.items())]

    def secs(name, **match):
        return sum(duration(s) for s in sel(name, **match))

    def count(name, key, **match):
        return sum(s["counts"].get(key, 0) for s in sel(name, **match))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    m["graphs.generate_s"] = (secs("graphs.generate"), "s")
    m["graphs.generate_graphs"] = (count("graphs.generate", "graphs"), "count")
    m["graphs.generate_edges"] = (count("graphs.generate", "edges"), "count")
    parse_s, from_edges_s = secs("graphs.parse"), secs("graphs.from_edges")
    m["graphs.parse_s"] = (parse_s, "s")
    m["graphs.parse_edges"] = (count("graphs.parse", "edges"), "count")
    m["graphs.from_edges_s"] = (from_edges_s, "s")
    m["graphs.parse_self_s"] = (parse_s - from_edges_s if parse_s else 0.0, "s")
    m["graphs.csr_s"] = (secs("graphs.csr"), "s")
    m["graphs.csr_graphs"] = (count("graphs.csr", "graphs"), "count")

    extract_s, nnz = secs("moments.extract"), count("moments.extract", "nnz_touched")
    m["moments.extract_s"] = (extract_s, "s")
    m["moments.matvecs"] = (count("moments.extract", "matvecs"), "count")
    m["moments.nnz_touched"] = (nnz, "count")
    m["moments.ns_per_nnz"] = (ratio(extract_s, nnz, 1e9), "ns")
    m["moments.computed_bytes"] = (count("moments.extract", "computed_bytes"), "B")

    m["hankel.build_s"] = (secs("hankel.build"), "s")
    m["hankel.matrices"] = (count("hankel.build", "matrices"), "count")
    conds = [s["counts"]["cond_median"] for s in sel("hankel.build", degree=4)]
    m["hankel.cond_median"] = (median(conds), "ratio")

    def repeated(span):
        """The extraction a pairwise span repeats: extract and build at its degree."""
        d = span["counts"]["degree"]
        return secs("moments.extract", degree=d) + secs("hankel.build", degree=d)

    pw = sel("metrics.pairwise")
    pw_s = sum(duration(s) for s in pw)
    pw_self = sum(duration(s) - repeated(s) for s in pw)
    pairs = sum(s["counts"]["pairs"] for s in pw)
    fallback = sum(s["counts"]["fallback_pairs"] for s in pw)
    m["metrics.pairwise_s"] = (pw_s, "s")
    m["metrics.pairwise_self_s"] = (pw_self, "s")
    m["metrics.pairs"] = (pairs, "count")
    m["metrics.us_per_pair"] = (ratio(pw_self, pairs, 1e6), "us")
    m["metrics.fallback_pairs"] = (fallback, "count")
    m["metrics.geodesic_ratio"] = (ratio(pairs - fallback, pairs), "fraction")
    m["metrics.pairwise_s_t1"] = (secs("metrics.pairwise_t1"), "s")
    for metric in METRIC_NAMES:
        spans_m = sel("metrics.pairwise_metric", metric=metric)
        self_s = sum(duration(s) - repeated(s) for s in spans_m)
        m[f"metrics.us_per_pair.{metric}"] = (
            ratio(self_s, sum(s["counts"]["pairs"] for s in spans_m), 1e6), "us")
    for d in DEGREES:
        m[f"metrics.pairwise_s.d{d}"] = (secs("metrics.pairwise", degree=d), "s")
        m[f"metrics.fallback_pairs.d{d}"] = (count("metrics.pairwise", "fallback_pairs", degree=d),
                                             "count")

    for method in BASELINES:
        m[f"baselines.{method}_s"] = (secs("baselines.distance", method=method), "s")
        m[f"baselines.{method}_feature_s"] = (secs("baselines.features", method=method), "s")
    m["baselines.gk4_samples"] = (count("baselines.distance", "samples", method="gk4"), "count")

    m["learn.kernel_s"] = (secs("learn.kernel"), "s")
    m["learn.kmeans_s"] = (secs("learn.kmeans"), "s")
    m["learn.kmeans_restarts"] = (count("learn.kmeans", "restarts"), "count")
    m["learn.knn_s"] = (secs("learn.knn"), "s")
    m["learn.knn_queries"] = (count("learn.knn", "queries"), "count")

    # time the traced pipeline spends in each layer's own spans; work one layer
    # does inside another's call counts there, and the extra spans that time
    # such work on its own are reported by name above
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(own[s["id"]] for s in spans
                                    if layer_of(s) == layer and not s["extra"]), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    from workloads import WORKLOADS

    threads = len(os.sched_getaffinity(0))
    workdir = os.path.join(BENCH_DIR, "_work", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, threads, workdir)
        ops = Ops()

        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            wl.warm_up()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + median(setup_times)

        kernel = ReferenceKernel()
        for _ in range(3):
            kernel.run()
        tracer = Tracer()
        task_times, ref_times, pass_walls, first = [], [], [], {}
        start = time.perf_counter()
        complete_passes = []
        ref_before = kernel.run()
        while True:
            round_start = time.perf_counter()
            checked = not first
            elapsed = run_task(wl, ops, first)
            ref_after = kernel.run()
            if elapsed is not None:
                # the checked task runs with capture wrappers, so it is not timed
                if not checked:
                    task_times.append(elapsed)
                    ref_times.append(0.5 * (ref_before + ref_after))
                if args.trace:
                    tracer.pass_id += 1
                    t0 = time.perf_counter()
                    ok, _ = ops.call(f"{wl.name} traced pass", wl.traced_pass, tracer)
                    if ok:
                        complete_passes.append(tracer.pass_id)
                        pass_walls.append(time.perf_counter() - t0)
                    ref_after = kernel.run()
            ref_before = ref_after
            # start another round only if it should end within the window,
            # give or take half a round, so a slow machine does not stretch the
            # run; a run times a few tasks at least, but gives up after three
            # windows when tasks keep failing
            now = time.perf_counter()
            enough = len(task_times) >= (2 if args.trace else MIN_TASKS)
            over = now - start + 0.5 * (now - round_start) > args.seconds
            if over and (enough or now - start > 3 * args.seconds):
                break

        record = environment(args, threads)
        record.update(import_s=import_s, setup_times_s=setup_times, task_times_s=task_times,
                      ref_times_s=ref_times, work=wl.work, digests=wl.digests)
        if not task_times or (args.trace and not complete_passes):
            metrics = {}
        elif args.trace:
            passes = [[s for s in tracer.spans if s["pass"] == p] for p in complete_passes]
            spans_path = os.path.join(BENCH_DIR, "_work",
                                      f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
            record["pass_walls_s"] = pass_walls
            metrics = per_layer(wl, passes, pass_walls, task_times)
        else:
            metrics = end_to_end(wl, task_times, ref_times, setup_s, first)
        correct = ops.failed == 0 and bool(metrics)
        record["failed_frac"] = ops.failed / max(ops.attempted, 1)
        record["failures"] = ops.failures

        print("record " + json.dumps(record, default=str))
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        if task_times:
            # raw wall times, medians over the window's tasks: printed, but not
            # among the metrics, because they move with the host's speed
            task_s = median(task_times)
            for name, value, unit in (
                ("task_s", task_s, "s"),
                ("pairs_per_s", wl.work.get("pairs", 0) / task_s, "1/s"),
                ("edges_per_s", wl.work.get("edges", 0) / task_s, "1/s"),
                ("reference_kernel_s", median(ref_times), "s"),
            ):
                print(f"{name} = {value:.6g} {unit} (raw, median over {len(task_times)} tasks)")
        print(f"failed_frac = {record['failed_frac']:.6g} fraction "
              f"({ops.failed} of {ops.attempted} operations)")
        result = {
            "correct": correct,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
