"""The summary that tools/bench_pairs.py writes, on hand-made runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "accuracy", "unit": "fraction", "better": "higher", "bound": 0.15},
]


def _run(side, seed, setup_s, accuracy=1.0, failed=0, workload="w"):
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "accuracy": {"value": accuracy, "unit": "fraction"}}
    return {"side": side, "workload": workload, "seed": seed,
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_summary_fields():
    runs = [_run("parent", 1, 0.10), _run("change", 1, 0.09),
            _run("change", 2, 0.14), _run("parent", 2, 0.12),
            _run("parent", 3, 0.08), _run("change", 3, 0.08, failed=1),
            _run("parent", 4, 0.20), _run("change", 4, 0.11)]
    got = bench_pairs.summarize(runs, _END_TO_END)["w"]
    assert got["seeds"] == [1, 2, 3, 4]
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["attempted"] == {"parent": 40, "change": 40}
    setup = got["setup_s"]
    assert setup["parent"] == [0.10, 0.12, 0.08, 0.20]
    assert setup["change"] == [0.09, 0.14, 0.08, 0.11]
    assert setup["median"] == {"parent": 0.11, "change": 0.10}
    # inclusive quartiles of 0.08, 0.10, 0.12, 0.20
    assert setup["parent_quartiles"] == [0.095, 0.14]
    assert setup["parent_iqr_over_median"] == pytest.approx(0.409, abs=1e-3)
    assert setup["rel_change_of_median"] == pytest.approx(-0.0909, abs=1e-4)
    assert setup["change_better_in"] == "2/4"  # seed 3 is a tie
    # the parent's spread exceeds the 0.25 bound and the change wins only half the pairs
    assert setup["within_bound"] == "unresolved"
    accuracy = got["accuracy"]
    assert accuracy["change_better_in"] == "0/4" and accuracy["within_bound"] is True


@pytest.mark.parametrize("parent, change, within", [
    ([1.0, 1.0, 1.0], [1.25, 1.25, 1.25], True),
    ([1.0, 1.0, 1.0], [1.26, 1.26, 1.26], False),
])
def test_within_bound_lower_better(parent, change, within):
    runs = [_run("parent", i, v) for i, v in enumerate(parent, 1)]
    runs += [_run("change", i, v) for i, v in enumerate(change, 1)]
    assert bench_pairs.summarize(runs, _END_TO_END)["w"]["setup_s"]["within_bound"] is within


@pytest.mark.parametrize("parent, change, within", [
    # parent IQR over median 0.5 > 0.25: a median 10% better is not resolved
    ([0.5, 1.0, 1.5], [0.9, 0.9, 0.9], "unresolved"),
    # nor is one 10% worse
    ([0.5, 1.0, 1.5], [1.1, 1.1, 1.1], "unresolved"),
    # unless every change run beats every parent run
    ([0.5, 1.0, 1.5], [0.4, 0.4, 0.4], True),
    # parent IQR over median 0.25 is not above the bound
    ([0.75, 1.0, 1.25], [1.1, 1.1, 1.1], True),
])
def test_within_bound_unresolved_when_parent_spreads_past_bound(parent, change, within):
    runs = [_run("parent", i, v) for i, v in enumerate(parent, 1)]
    runs += [_run("change", i, v) for i, v in enumerate(change, 1)]
    assert bench_pairs.summarize(runs, _END_TO_END)["w"]["setup_s"]["within_bound"] == within


# median 1.00, inclusive quartiles 0.9625 and 1.0375: an IQR of 0.075
_PARENT = [0.9, 0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1]


@pytest.mark.parametrize("change, gain", [
    # better in 10 of 10 pairs, and the median moves 0.20
    ([0.8] * 10, True),
    # better in only 8 of 10 pairs
    ([0.8] * 8 + [1.2] * 2, False),
    # better in 10 of 10 pairs, but the median moves 0.01
    ([round(v - 0.01, 2) for v in _PARENT], False),
])
def test_gain_needs_nine_tenths_of_pairs_and_a_move_past_the_parent_iqr(change, gain):
    runs = [_run("parent", i, v) for i, v in enumerate(_PARENT, 1)]
    runs += [_run("change", i, v) for i, v in enumerate(change, 1)]
    assert bench_pairs.summarize(runs, _END_TO_END)["w"]["setup_s"]["gain"] is gain


def test_within_bound_higher_better():
    runs = [_run("parent", 1, 0.1, accuracy=1.0), _run("change", 1, 0.1, accuracy=0.8)]
    got = bench_pairs.summarize(runs, _END_TO_END)["w"]["accuracy"]
    assert got["parent_quartiles"] == [1.0, 1.0] and got["within_bound"] is False


def test_run_without_result_counts_as_failed():
    runs = [_run("parent", 1, 0.1), _run("change", 1, 0.1),
            _run("parent", 2, 0.1), {"side": "change", "workload": "w", "seed": 2,
                                     "result": None}]
    got = bench_pairs.summarize(runs, _END_TO_END)["w"]
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["runs_without_result"] == {"parent": 0, "change": 1}
    assert got["setup_s"]["change"] == [0.1] and got["setup_s"]["change_better_in"] == "0/1"


def test_workloads_kept_apart():
    runs = [_run("parent", 1, 0.1, workload="a"), _run("change", 1, 0.2, workload="a"),
            _run("parent", 1, 0.3, workload="b"), _run("change", 1, 0.3, workload="b")]
    got = bench_pairs.summarize(runs, _END_TO_END)
    assert list(got) == ["a", "b"]
    assert got["a"]["setup_s"]["within_bound"] is False
    assert got["b"]["setup_s"]["within_bound"] is True


def test_bench_files_compares_bytes(tmp_path):
    for side, body in (("p", b"x = 1\n"), ("c", b"x = 2\n")):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_bytes(body)
        (tmp_path / side / "BENCHMARK.json").write_bytes(b"{}")
    parent, change = (bench_pairs.bench_files(tmp_path / side) for side in ("p", "c"))
    assert set(parent) == {"perfbench/run.py", "BENCHMARK.json"}
    assert parent != change
    (tmp_path / "c" / "perfbench" / "run.py").write_bytes(b"x = 1\n")
    assert bench_pairs.bench_files(tmp_path / "c") == parent
