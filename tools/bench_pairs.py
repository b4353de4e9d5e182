"""Run perfbench on a parent revision and on the working tree, in alternating
pairs, and write one BENCH file with every run and a per-metric summary.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_<n>.json

Run it from anywhere inside a git checkout. The parent side is ``git archive``
of ``--parent``; the change side is a copy of the checkout's tracked and
untracked (not ignored) files, so uncommitted edits are measured too. Every
run is ``python -B`` in its side's one directory: bytecode is compiled but
never written, so every run starts as a run in a fresh checkout does. The
tool refuses to run unless ``perfbench/`` and ``BENCHMARK.json`` are
byte-identical on both sides: otherwise the two sides would measure
different things.

Pair i runs ``python3 perfbench/run.py --workload W --seed i --seconds S
--trace 0`` on both sides, for every workload in ``BENCHMARK.json``, with S
its ``run_seconds``; the parent runs first in odd pairs and the change first
in even ones. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
BENCH_FILES = ("perfbench", "BENCHMARK.json")

SUMMARY_NOTE = (
    "per workload and untraced end-to-end metric: each side's runs in seed order, medians, "
    "the parent's quartiles (statistics.quantiles, inclusive) and their distance over the "
    "median, the relative change of the median, change_better_in counts pairs where the "
    "change reads better (ties count for neither), within_bound says the change's median is "
    "no worse than the parent's by more than the metric's bound, or is 'unresolved' when "
    "the parent's IQR over its median exceeds the bound and not every change run beats "
    "every parent run. gain applies the claim rule: the change reads better in at least nine "
    "tenths of the pairs and its median is better than the parent's by more than the parent's "
    "quartile distance.")
RUNS_NOTE = (
    "one entry per run: the final JSON line and the record line of perfbench/run.py; each "
    "record's task_times_s and ref_times_s lists are given as count, median, min and max to "
    "keep the file small.")


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def export_parent(root: Path, rev: str, dest: Path) -> None:
    """Extract the committed files of ``rev`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git(root, "archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_tree(root: Path, dest: Path) -> None:
    """Copy the tracked and untracked, not ignored, files of the checkout into ``dest``."""
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, listed.decode().split("\0")):
        src = root / rel
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def bench_files(side: Path) -> dict[str, bytes]:
    """Every file under ``BENCH_FILES`` in ``side``, by relative path."""
    out = {}
    for name in BENCH_FILES:
        top = side / name
        paths = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        out.update({p.relative_to(side).as_posix(): p.read_bytes() for p in paths})
    return out


def _spread(times: list[float]) -> dict:
    return {"count": len(times), "median": statistics.median(times) if times else None,
            "min": min(times, default=None), "max": max(times, default=None)}


def run_once(side_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``side_dir``, writing no bytecode there: its final JSON
    line and its record line (None if missing)."""
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side_dir, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = next((json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record ")),
                  None)
    if record is not None:
        for key in ("task_times_s", "ref_times_s"):
            if isinstance(record.get(key), list):
                record[key] = _spread(record[key])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    run = {"workload": workload, "seed": seed, "trace": 0, "returncode": proc.returncode,
           "result": result, "record": record}
    if result is None:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def _r(x: float) -> float:
    return round(x, 4)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: seeds, failed and attempted operations per side, and for each
    end-to-end metric both sides' values in seed order with the comparison fields.
    A run without a final JSON line counts as failed and contributes no values."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_side = {side: {r["seed"]: r["result"] for r in runs
                          if r["workload"] == workload and r["side"] == side}
                   for side in SIDES}
        seeds = sorted(set(by_side["parent"]) | set(by_side["change"]))
        entry = {
            "seeds": seeds,
            "failed": {side: sum(1 if res is None else res["failed"]
                                 for res in by_side[side].values()) for side in SIDES},
            "attempted": {side: sum(0 if res is None else res["attempted"]
                                    for res in by_side[side].values()) for side in SIDES},
            "runs_without_result": {side: sum(res is None for res in by_side[side].values())
                                    for side in SIDES},
        }
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"

            def value(side, seed):
                res = by_side[side].get(seed)
                got = None if res is None else res["metrics"].get(name)
                return None if got is None else got["value"]

            vals = {side: [v for v in (value(side, s) for s in seeds) if v is not None]
                    for side in SIDES}
            if not (vals["parent"] and vals["change"]):
                continue
            med = {side: statistics.median(vals[side]) for side in SIDES}
            if len(vals["parent"]) > 1:
                q1, _, q3 = statistics.quantiles(vals["parent"], n=4, method="inclusive")
            else:
                q1 = q3 = vals["parent"][0]
            pairs = [(value("parent", s), value("change", s)) for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            better = sum((c < p) if lower else (c > p) for p, c in pairs)
            slack = 1 + metric["bound"] if lower else 1 - metric["bound"]
            limit = med["parent"] * slack
            iqr = (q3 - q1) / med["parent"] if med["parent"] else None
            beats_all = (max(vals["change"]) < min(vals["parent"]) if lower
                         else min(vals["change"]) > max(vals["parent"]))
            if iqr is not None and iqr > metric["bound"] and not beats_all:
                within = "unresolved"
            else:
                within = med["change"] <= limit if lower else med["change"] >= limit
            moved = med["parent"] - med["change"] if lower else med["change"] - med["parent"]
            gain = bool(pairs) and 10 * better >= 9 * len(pairs) and moved > q3 - q1
            entry[name] = {
                "parent": [_r(v) for v in vals["parent"]],
                "change": [_r(v) for v in vals["change"]],
                "median": {side: _r(med[side]) for side in SIDES},
                "parent_quartiles": [_r(q1), _r(q3)],
                "parent_iqr_over_median": None if iqr is None else round(iqr, 3),
                "rel_change_of_median": round(med["change"] / med["parent"] - 1, 4)
                if med["parent"] else None,
                "change_better_in": f"{better}/{len(pairs)}",
                "within_bound": within,
                "gain": gain,
            }
        summary[workload] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against, e.g. HEAD~1")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (seeds 1..N)")
    ap.add_argument("--out", required=True, help="the BENCH JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    parent_rev = _git(root, "rev-parse", "--short", args.parent).decode().strip()
    head = _git(root, "rev-parse", "--short", "HEAD").decode().strip()
    dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for d in dirs.values():
            d.mkdir()
        export_parent(root, args.parent, dirs["parent"])
        export_tree(root, dirs["change"])
        if bench_files(dirs["parent"]) != bench_files(dirs["change"]):
            print(f"refused: perfbench/ or BENCHMARK.json differs between {args.parent} and "
                  "the working tree", file=sys.stderr)
            return 2
        bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]

        runs = []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    print(f"pair {seed} {workload} {side}", file=sys.stderr, flush=True)
                    runs.append({"side": side, **run_once(dirs[side], workload, seed, seconds)})

    record = next((r["record"] for r in runs if r["record"]), {})
    out = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "made_by": (f"python3 tools/bench_pairs.py --parent {args.parent} --pairs {args.pairs}"
                    f" --out {Path(args.out).name}"),
        "parent": parent_rev,
        "change": f"working tree at {head}" + (" with uncommitted edits" if dirty else ""),
        "host": (f"{record.get('nproc')} CPUs, Python {record.get('python')}, "
                 f"numpy {record.get('numpy')}, scipy {record.get('scipy')}"),
        "order": (f"seeds 1-{args.pairs}, one pair per seed and workload ({', '.join(workloads)}),"
                  " each run a fresh `python -B` process in its side's one directory, which "
                  "holds no __pycache__ and gets none; the parent runs first in odd pairs, the "
                  "change first in even ones"),
        "summary_note": SUMMARY_NOTE,
        "summary": summarize(runs, bench["end_to_end"]),
        "runs_note": RUNS_NOTE,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
