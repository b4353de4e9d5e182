import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import momentdist as md
from momentdist.cli import main
from oracles import write_edge_list


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- moments ----------------------------------------------------------------


def test_moments_cospectral_union(capsys):
    code, out = run(capsys, ["moments", "--named", "C4uK1", "--order", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1, 1.6, 3.2]
    assert payload["manifest"]["command"] == "moments"


def test_moments_complete_graph(capsys):
    code, out = run(capsys, ["moments", "--named", "K4", "--order", "3"])
    assert code == 0
    assert json.loads(out)["values"] == [1, 3, 9, 27]


def test_moments_edgeless(capsys):
    code, out = run(capsys, ["moments", "--named", "4K1", "--order", "4"])
    assert code == 0
    assert json.loads(out)["values"] == [1, 0, 0, 0, 0]


def test_moments_trace_state(capsys):
    code, out = run(capsys, ["moments", "--named", "C4uK1", "--order", "4", "--state", "trace"])
    assert code == 0
    assert json.loads(out)["values"] == [1, 0, 1.6, 0, 6.4]


def test_moments_from_file(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("# a path\n0 1\n1 2\n")
    code, out = run(capsys, ["moments", "--input", str(path), "--order", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["m"] == 2
    assert str(path) in payload["manifest"]["input_digests"]


# -- pairwise ----------------------------------------------------------------


def test_pairwise_table_anchor(tmp_path, capsys):
    out_path = tmp_path / "d.csv"
    code, _ = run(capsys, [
        "pairwise", "--named", "4K1", "K4", "2K2",
        "--degree", "2", "--metric", "frobenius", "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "label,4K1,K4,2K2"
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(90.9945, abs=5e-4)
    assert os.path.exists(str(out_path) + ".manifest.json")


def test_pairwise_repeated_input_zero(capsys):
    code, out = run(capsys, ["pairwise", "--named", "paw", "paw",
                             "--degree", "2", "--metric", "frobenius"])
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[2]) == 0.0


def test_pairwise_log1p_scaling(capsys):
    base = ["pairwise", "--named", "claw", "P4", "--degree", "2", "--metric", "frobenius"]
    _, out_plain = run(capsys, base)
    _, out_scaled = run(capsys, base + ["--scale", "log1p"])
    plain = float(out_plain.strip().splitlines()[1].split(",")[2])
    scaled = float(out_scaled.strip().splitlines()[1].split(",")[2])
    assert scaled == pytest.approx(math.log1p(plain), rel=1e-12)


# -- spectrum ----------------------------------------------------------------


def test_spectrum_stem_data(capsys):
    code, out = run(capsys, ["spectrum", "--named", "C4uK1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,omega"
    atoms = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(atoms) == 2
    assert atoms[-1][0] == pytest.approx(2.0, abs=1e-9)


def test_spectrum_out_writes_sidecar(tmp_path, capsys):
    out_path = tmp_path / "stems.csv"
    code, _ = run(capsys, ["spectrum", "--named", "S5", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("lambda,omega\n")
    sidecar = json.loads((tmp_path / "stems.csv.manifest.json").read_text())
    assert sidecar["command"] == "spectrum" and "timings" in sidecar


# -- cluster / classify -------------------------------------------------------


def _write_synthetic_corpus(path, seed=3):
    spec = {
        "synthetic": {
            "seed": seed,
            "settings": [
                {"nv": 30, "ne": 60, "rho": 0.1, "count": 5},
                {"nv": 30, "ne": 120, "rho": 0.1, "count": 5},
            ],
        }
    }
    path.write_text(json.dumps(spec))


def test_cluster_report_and_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    _write_synthetic_corpus(corpus)
    args = ["cluster", "--corpus", str(corpus), "--method", "moment",
            "--degree", "2", "--metric", "affine-invariant", "--reg", "1e-3",
            "--seed", "7"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["task"] == "cluster"
    assert report["accuracy"] == 1.0  # the two edge counts are trivially separable
    capsys.readouterr()


def test_classify_files_corpus_eigs_vs_moment(tmp_path, capsys):
    # cospectral cores with shared decorations: eigenvalue features collapse
    files = []
    for i in range(8):
        deco = md.cycle_graph(5 + i)
        for name, core in (("a", md.named_graph("C4uK1")), ("b", md.named_graph("S5"))):
            g = md.disjoint_union([core, deco])
            p = tmp_path / f"{name}{i}.txt"
            write_edge_list(g, p)
            files.append({"path": p.name, "label": 0 if name == "a" else 1})
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"files": files, "indexing": "zero"}))

    base = ["classify", "--corpus", str(corpus), "--folds", "4",
            "--knn-k", "1", "--seed", "0"]
    code, out = run(capsys, base + ["--method", "moment", "--degrees", "2",
                                    "--metric", "frobenius"])
    assert code == 0
    acc_moment = json.loads(out)["accuracy_mean"]
    code, out = run(capsys, base + ["--method", "eigs"])
    assert code == 0
    acc_eigs = json.loads(out)["accuracy_mean"]
    assert acc_moment == 1.0
    assert acc_eigs < acc_moment


def test_classify_sweep_is_explicit(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    _write_synthetic_corpus(corpus)
    code, out = run(capsys, ["classify", "--corpus", str(corpus), "--method", "moment",
                             "--metric", "frobenius", "--scale", "log1p",
                             "--degrees", "2", "3", "--knn-k", "1", "2",
                             "--folds", "5", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert len(report["sweep"]) == 4
    assert report["best"]["degree"] in (2, 3)


# -- bench ----------------------------------------------------------------------


def test_bench_single_graph_no_pairs(capsys):
    code, out = run(capsys, ["bench", "--sizes", "64:128", "--count", "1",
                             "--repeats", "1", "--seed", "0"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["nv"] == 64 and rows[0]["ne"] == 128
    assert rows[0]["moment_pairwise_s"] <= 0.01


def test_bench_bad_size_is_config_error(capsys):
    code, _ = run(capsys, ["bench", "--sizes", "64x128", "--count", "1"])
    assert code == 4


# -- exit codes -------------------------------------------------------------------


def test_exit_code_input_error_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n0 x\n")
    code, _ = run(capsys, ["moments", "--input", str(path)])
    assert code == 2



@pytest.mark.parametrize("data, message", [
    (b"0 1\n99999999999999999999 1\n",
     "line 2: integer 99999999999999999999 does not fit in int64"),
    (b"0 1\n1 \xff2\n", "not UTF-8: byte 0xff at offset 6"),
], ids=["id-above-int64", "not-utf8"])
def test_exit_code_input_error_unreadable_edge_list(tmp_path, capsys, data, message):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    code = main(["moments", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"

def test_exit_code_input_error_unknown_name(capsys):
    code, _ = run(capsys, ["moments", "--named", "zorp"])
    assert code == 2


@pytest.mark.parametrize("name", ["C2", "P0", "S0"])
def test_exit_code_input_error_out_of_range_name(capsys, name):
    code = main(["moments", "--named", name])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_exit_code_numeric_error_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, _ = run(capsys, ["moments", "--input", str(path)])
    assert code == 3


def test_exit_code_config_error_negative_reg(capsys):
    code, _ = run(capsys, ["pairwise", "--named", "K4", "C4", "--reg", "-1"])
    assert code == 4


def test_exit_code_config_error_single_graph(capsys):
    code = main(["pairwise", "--named", "K4"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "config error: need at least two graphs\n"


@pytest.mark.parametrize("argv", [
    ["moments", "--named", "K4", "--order", "-1"],
    ["bench", "--sizes", "10:1000", "--count", "1", "--repeats", "1"],
], ids=["negative-order", "infeasible-size"])
def test_exit_code_config_error_bad_parameter(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["moments", "--named", "K60", "--order", "200"],
    ["pairwise", "--named", "K60", "K50", "--degree", "100", "--metric", "frobenius"],
    # finite moments whose Frobenius distance overflows
    ["pairwise", "--named", "K60", "K50", "--degree", "50", "--metric", "frobenius"],
], ids=["moments", "pairwise", "pairwise-distance"])
def test_exit_code_numeric_error_moment_overflow(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("numeric error: ") and captured.err.count("\n") == 1



def test_classify_overflow_names_first_failing_degree(tmp_path, capsys):
    # K50's moments overflow from order 182 and K60's from order 174; the
    # first swept degree (88, so orders up to 176) fails on K60 alone
    files = []
    for i, n in enumerate((50, 60, 51, 61)):
        write_edge_list(md.complete_graph(n), tmp_path / f"k{n}.txt")
        files.append({"path": f"k{n}.txt", "label": i % 2})
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"files": files, "indexing": "zero"}))
    code = main(["classify", "--corpus", str(corpus), "--degrees", "88", "92", "--folds", "2",
                 "--knn-k", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "numeric error: moment of order 174 is not finite in float64; lower the order\n"
    )

def _write_one_setting_corpus(path, count):
    spec = {"synthetic": {"seed": 1, "settings": [{"nv": 30, "ne": 60, "rho": 0.1, "count": count}]}}
    path.write_text(json.dumps(spec))


@pytest.mark.parametrize("method", ["moment", "gk3"])
def test_exit_code_config_error_single_graph_corpus(tmp_path, capsys, method):
    corpus = tmp_path / "corpus.json"
    _write_one_setting_corpus(corpus, 1)
    code = main(["cluster", "--corpus", str(corpus), "--method", method])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "config error: need at least two graphs\n"


def test_exit_code_config_error_fewer_graphs_than_folds(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    _write_one_setting_corpus(corpus, 3)
    code = main(["classify", "--corpus", str(corpus), "--degrees", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "config error: more folds (10) than items (3)\n"


@pytest.mark.parametrize("flag, name", [("--degrees", "degrees"), ("--knn-k", "knn_k")])
def test_exit_code_config_error_empty_sweep(tmp_path, capsys, flag, name):
    corpus = tmp_path / "corpus.json"
    _write_synthetic_corpus(corpus)
    code = main(["classify", "--corpus", str(corpus), flag])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"config error: empty sweep grid: no {name} given\n"


@pytest.mark.parametrize("spec, message", [
    ({"synthetic": {"seed": 1}}, "synthetic block has no 'settings'"),
    ({"files": [{"label": 0}]}, "files entry 0 has no 'path'"),
    ({"files": [{"path": "g.txt"}]}, "files entry 0 has no 'label'"),
    ({"synthetic": {"settings": [{"ne": 60, "rho": 0.1, "count": 2}]}}, "setting 0 has no 'nv'"),
    ({"files": ["path.txt"]}, "files entry 0 has no 'path'"),
    ({"files": [{"path": "g.txt", "label": [1]}]}, "files entry 0 has a bad 'label': [1]"),
    ({"files": [{"path": "g.txt", "label": {"a": 1}}]},
     "files entry 0 has a bad 'label': {'a': 1}"),
    ({"files": [{"path": "g.txt", "label": None}]}, "files entry 0 has a bad 'label': None"),
], ids=["settings", "path", "label", "nv", "entry-not-object", "label-list", "label-object",
        "label-null"])
def test_exit_code_input_error_manifest_missing_key(tmp_path, capsys, spec, message):
    write_edge_list(md.cycle_graph(4), tmp_path / "g.txt")
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(spec))
    code = main(["cluster", "--corpus", str(corpus)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


_CONTRACT_FILES = {
    "big-id.txt": b"0 1\n9223372036854775807 1\n",
    "wide.txt": b"0 5000\n",
    "not-utf8.json": b'{"files": [\xff',
    "files-not-list.json": b'{"files": 3}',
    "bad-rho.json": json.dumps({"synthetic": {"settings": [
        {"nv": 10, "ne": 20, "rho": "x", "count": 2}]}}).encode(),
    "negative-count.json": json.dumps({"synthetic": {"settings": [
        {"nv": 10, "ne": 20, "rho": 0.1, "count": -1}]}}).encode(),
    "huge-count.json": json.dumps({"synthetic": {"settings": [
        {"nv": 10, "ne": 20, "rho": 0.1, "count": 10**20}]}}).encode(),
    "list.json": b"[]",
    "huge-nv.json": json.dumps({"synthetic": {"settings": [
        {"nv": 4000000000, "ne": 4000000000, "rho": 0.1, "count": 2}]}}).encode(),
    "huge-lattice.json": json.dumps({"synthetic": {"settings": [
        {"nv": 3000000000, "ne": 3000000000, "rho": 0.1, "count": 2}]}}).encode(),
    "small.json": json.dumps({"synthetic": {"seed": 1, "settings": [
        {"nv": 10, "ne": 20, "rho": 0.1, "count": 2}]}}).encode(),
    "empty.txt": b"# no edges\n",
    "empty-files.json": json.dumps({"files": [{"path": "empty.txt", "label": 0},
                                              {"path": "empty.txt", "label": 1}]}).encode(),
}


_OUT_OF_MEMORY = "config error: out of memory: "
_ADDRESS_SPACE_CAP = 3 * 2**30


def _main_with_capped_memory(argv):
    """``main(argv)`` in a child process whose address space is capped at
    ``_ADDRESS_SPACE_CAP`` bytes; returns (exit code, stdout, stderr)."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({_ADDRESS_SPACE_CAP}, {_ADDRESS_SPACE_CAP}))\n"
        "from momentdist.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(md.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, code, err", [
    (["moments", "--input", "big-id.txt"], 2, "input error: line 2: vertex count "
     "9223372036854775808 exceeds 3037000499, the most whose edge codes fit in int64"),
    (["cluster", "--corpus", "not-utf8.json"], 2,
     "input error: not UTF-8: byte 0xff at offset 11"),
    (["spectrum", "--named", "K0"], 3,
     "numeric error: spectral measure of the empty graph is undefined"),
    (["spectrum", "--input", "wide.txt"], 4, "config error: n=5001 exceeds the dense "
     "threshold 4096; use the moment pipeline for large graphs"),
    (["cluster", "--corpus", "files-not-list.json"], 2,
     "input error: corpus manifest 'files' must be a list, got 3"),
    (["cluster", "--corpus", "bad-rho.json"], 2, "input error: setting 0 has a bad 'rho': 'x'"),
    (["cluster", "--corpus", "negative-count.json"], 2,
     "input error: setting 0 has a bad 'count': -1"),
    (["cluster", "--corpus", "list.json"], 2, "input error: corpus manifest is not a JSON object"),
    (["cluster", "--corpus", "huge-count.json"], 4,
     "config error: graph count 100000000000000000000 exceeds 9223372036854775807"),
    (["bench", "--sizes", "10:20", "--count", "100000000000000000000"], 4,
     "config error: graph count 100000000000000000000 exceeds 9223372036854775807"),
    (["cluster", "--corpus", "small.json", "--seed", "-1"], 4,
     "config error: seed must be nonnegative, got -1"),
    (["cluster", "--corpus", "small.json", "--restarts", "0"], 4,
     "config error: restarts must be positive"),
    (["cluster", "--corpus", "small.json", "--method", "cov", "--cov-k", "1"], 4,
     "config error: k must be at least 2"),
    (["cluster", "--corpus", "empty-files.json", "--method", "nclm"], 3,
     "numeric error: trace-moment features are undefined for edgeless graphs"),
    (["pairwise", "--named", "K4", "C4", "--reg", "nan"], 4,
     "config error: eps must be finite and nonnegative, got nan"),
    (["pairwise", "--named", "K4", "C4", "--reg", "inf"], 4,
     "config error: eps must be finite and nonnegative, got inf"),
    # the ridge overflows each trace; the pairs fall back without a warning
    (["pairwise", "--named", "K4", "C4", "--reg", "1e308"], 0, None),
    (["bench", "--sizes", "10:20", "--count", "0"], 4, "config error: count must be positive"),
    (["bench", "--sizes", "10:20", "--repeats", "0"], 4,
     "config error: repeats must be positive"),
    # refused before the generator allocates its 4e9-edge lattice
    (["cluster", "--corpus", "huge-nv.json"], 4,
     "config error: nv=4000000000 exceeds 3037000499, the most whose edge codes fit in int64"),
    (["bench", "--sizes", "4000000000:4000000000"], 4,
     "config error: nv=4000000000 exceeds 3037000499, the most whose edge codes fit in int64"),
    # nv fits the edge codes but the 3e9-edge lattice does not fit in memory;
    # run under a capped address space, so the allocation fails untouched
    (["cluster", "--corpus", "huge-lattice.json"], 4, _OUT_OF_MEMORY + "Unable to allocate "
     "22.4 GiB for an array with shape (3000000000,) and data type int64"),
    (["bench", "--sizes", "3000000000:3000000000"], 4, _OUT_OF_MEMORY + "Unable to allocate "
     "22.4 GiB for an array with shape (3000000000,) and data type int64"),
], ids=["id-int64-max", "manifest-not-utf8", "spectrum-empty", "spectrum-above-dense",
        "files-not-list", "rho-not-number", "negative-count", "manifest-not-object",
        "corpus-count-above-intp", "bench-count-above-intp",
        "negative-seed", "no-restarts", "cov-k-1", "nclm-edgeless", "reg-nan", "reg-inf",
        "reg-overflows-trace", "bench-no-graphs", "bench-no-repeats",
        "corpus-nv-above-max", "bench-nv-above-max",
        "corpus-lattice-out-of-memory", "bench-lattice-out-of-memory"])
def test_exit_code_contract(tmp_path, monkeypatch, capsys, argv, code, err):
    monkeypatch.chdir(tmp_path)
    for name, data in _CONTRACT_FILES.items():
        (tmp_path / name).write_bytes(data)
    if err is not None and err.startswith(_OUT_OF_MEMORY):
        got, out, stderr = _main_with_capped_memory(argv)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning reaches the one-line path
            got = main(argv)
        out, stderr = capsys.readouterr()
    assert got == code
    if err is None:
        assert out and stderr == ""
    else:
        assert out == ""
        assert stderr == err + "\n"


def test_classify_unstratified_folds_one_warning_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    _write_synthetic_corpus(corpus)  # two classes of 5 graphs each
    args = ["classify", "--corpus", str(corpus), "--degrees", "2", "3", "--knn-k", "1", "2",
            "--folds", "6", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        code = main(args + ["--out", str(tmp_path / "a.json")])
        captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert captured.err == (
        "warning: class with 5 members is smaller than folds=6; "
        "falling back to unstratified folds\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# -- pinned outputs ----------------------------------------------------------------


def _write_rewiring_corpus(path):
    """Three classes of ten small graphs that differ only in rewiring, so KNN errs."""
    settings = [{"nv": 30, "ne": 90, "rho": rho, "count": 10} for rho in (0.1, 0.3, 0.6)]
    path.write_text(json.dumps({"synthetic": {"seed": 5, "settings": settings}}))


# SHA-256 of each output file, recorded with the per-degree extraction and the
# per-k KNN loop that the shared moment table and the one-sort KNN replaced,
# and (cluster-gk4) with the per-sample gk4 loop the one-pass classification
# replaced; the manifests' former "threads_bound" line is removed from each.
# Paths are relative, so the manifests are stable.
_PINNED_OUTPUTS = {
    "classify-default": (["classify"],
        "20559ab030cc5db52353cb6f9d40dc85a72f7a0e97aaf95bf6041c474b3a2dce"),
    "classify-degrees-3-2-3": (["classify", "--degrees", "3", "2", "3", "--reg", "1e4"],
        "0548ed12f6093440b5fd6df65cbe45202621af384535c198d199a6302bbc714b"),
    "classify-frobenius-log1p": (["classify", "--metric", "frobenius", "--scale", "log1p",
                                  "--knn-k", "1", "4", "40"],
        "4a097bc892e0cc114032113070e5e85d2924ade87d9136d3240ac2975a1ee5dd"),
    "cluster": (["cluster", "--degree", "3", "--reg", "1e4"],
        "a23166654904a61958fb47f4cd58221b52cfb864b663e389b482a12c9c5409c4"),
    "cluster-gk4": (["cluster", "--method", "gk4", "--gk4-samples", "300"],
        "cf8bf66daffc538aa96f6cc1a4356c8fbc0d95256dc7a32590d811ec08a72836"),
    "pairwise": (["pairwise", "--named", "K4", "C4", "paw", "P5", "S5", "C4uK1", "C6",
                  "--degree", "3", "--reg", "1e-3"],
        "de97af309a332209a3af7cedf12ed03c4d0509efabf1e993b4c66d53c2f777d4"),
}


def _pinned_output(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _write_rewiring_corpus(tmp_path / "corpus.json")
    if argv[0] != "pairwise":
        argv = argv[:1] + ["--corpus", "corpus.json", "--seed", "2"] + argv[1:]
    assert main(argv + ["--out", "out.json"]) == 0
    return (tmp_path / "out.json").read_bytes()


@pytest.mark.parametrize("case", list(_PINNED_OUTPUTS))
def test_output_digest_pinned(tmp_path, monkeypatch, case):
    argv, digest = _PINNED_OUTPUTS[case]
    assert hashlib.sha256(_pinned_output(tmp_path, monkeypatch, argv)).hexdigest() == digest


def test_classify_output_same_under_threads(tmp_path, monkeypatch):
    # extraction runs on the calling thread: --threads is accepted and ignored
    for case in ("classify-default", "pairwise"):
        argv = _PINNED_OUTPUTS[case][0]
        want = _pinned_output(tmp_path, monkeypatch, argv)
        assert _pinned_output(tmp_path, monkeypatch, argv + ["--threads", "2"]) == want


def test_threads_env_fallback(tmp_path, monkeypatch):
    # MOMENTDIST_THREADS is not read: a value that is not a number changes nothing
    for case in ("classify-default", "pairwise"):
        argv = _PINNED_OUTPUTS[case][0]
        want = _pinned_output(tmp_path, monkeypatch, argv)
        with monkeypatch.context() as env:
            env.setenv("MOMENTDIST_THREADS", "zebra")
            assert _pinned_output(tmp_path, monkeypatch, argv) == want


def test_threads_keyword_ignored():
    # the library entry points accept threads= and ignore it
    settings = [{"nv": 30, "ne": 90, "rho": rho, "count": 4} for rho in (0.1, 0.6)]
    gs, labels = md.make_rewired_corpus(settings, seed=5)
    cfg = md.DistanceConfig(degree=3, eps=1e4)
    assert (md.pairwise_distance_matrix(gs, cfg, threads=2).entries.tobytes()
            == md.pairwise_distance_matrix(gs, cfg).entries.tobytes())
    params = {"degree": 3, "eps": 1e4}
    runs = [md.cluster_experiment(gs, labels, method_params=params, seed=1, **kw)
            for kw in ({"threads": 2}, {})]
    for report in runs:
        report.pop("timings")
    assert runs[0] == runs[1]
    assert (md.classify_experiment(gs, labels, method_params=params, folds=2, seed=1, threads=2)
            == md.classify_experiment(gs, labels, method_params=params, folds=2, seed=1))


# -- fuzzed error contract --------------------------------------------------------

_FUZZ_NAMES = ["K0", "K1", "K2", "K4", "C4", "C6", "P3", "S5", "claw", "paw", "diamond",
               "2K2", "4K1", "co-paw", "C4uK1", "K2,3", "K3,3"]
_EDGE_FILES = ["a.txt", "b.txt", "c.txt"]
_ERROR_PREFIXES = ("input error: ", "numeric error: ", "config error: ")


@st.composite
def _edge_list_bytes(draw):
    """Edge-list text over digits, '-', spaces, '#', '%', newlines and 0xff.

    Most lines are pairs of one-digit ids. Ids have at most three digits, so
    no example builds a graph of more than 1000 vertices.
    """
    number = st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "", "-"]),
                       st.text("0123456789", min_size=1, max_size=3))
    piece = st.one_of(number, st.sampled_from([" ", "#", "%", "\xff"]))
    pair = st.builds("{} {}".format, st.integers(0, 9), st.integers(0, 9))
    line = st.one_of(*[pair] * 6, st.lists(piece, max_size=4).map(" ".join))
    text = "\n".join(draw(st.lists(line, max_size=8)))
    return text.encode("latin-1")


@st.composite
def _setting(draw):
    """A generator setting with nv <= 20: mostly a feasible lattice, else any values."""
    nv = draw(st.integers(1, 20))
    setting = {"nv": nv, "ne": nv * draw(st.integers(1, 3)),
               "rho": draw(st.sampled_from([0.0, 0.2, 1.0])), "count": draw(st.integers(1, 3))}
    if draw(st.integers(0, 3)) == 0:
        setting.update(draw(st.fixed_dictionaries({}, optional={
            "ne": st.integers(0, 40), "rho": st.sampled_from([1.5, "x"]),
            "count": st.integers(-1, 0), "label": st.sampled_from([0, 1, "y"])})))
    return setting


def _manifests():
    entry = st.fixed_dictionaries({"path": st.sampled_from(_EDGE_FILES),
                                   "label": st.integers(0, 1)})
    odd_entry = st.fixed_dictionaries({}, optional={
        "path": st.sampled_from(_EDGE_FILES + [7]),
        "label": st.one_of(st.integers(0, 2), st.sampled_from([None, [1]]))})
    files = st.fixed_dictionaries(
        {"files": st.lists(st.one_of(*[entry] * 6, odd_entry), max_size=6)},
        optional={"indexing": st.sampled_from(["zero", "one", "auto", "x"])})
    synthetic = st.fixed_dictionaries({"synthetic": st.fixed_dictionaries(
        {"settings": st.lists(_setting(), min_size=1, max_size=3)},
        optional={"seed": st.sampled_from([0, 3, 0, 3, -1, "s"])})})
    odd = st.sampled_from([[], 3, {}, {"files": 3}, {"synthetic": {"settings": 3}}])
    return st.one_of(*[files] * 3, *[synthetic] * 3, odd)


def _source(draw):
    if draw(st.booleans()):
        return ["--named", draw(st.sampled_from(_FUZZ_NAMES))]
    argv = ["--input", draw(st.sampled_from(_EDGE_FILES)),
            "--indexing", draw(st.sampled_from(["zero", "one", "auto"]))]
    return argv + (["--header"] if draw(st.booleans()) else [])


def _distance_options(draw):
    return ["--degree", str(draw(st.integers(0, 5))),
            "--metric", draw(st.sampled_from(list(md.METRICS))),
            "--scale", draw(st.sampled_from(["none", "log1p"])),
            "--reg", draw(st.sampled_from(["0", "0", "0", "1e-6", "1e4", "1e308", "-1", "nan",
                                           "inf"]))]


def _ints(draw, flag):
    """``flag`` with one to three values from 1 to 4; one time in four, any values from 0 to 4."""
    values = st.one_of(*[st.lists(st.integers(1, 4), min_size=1, max_size=3)] * 3,
                       st.lists(st.integers(0, 4), max_size=3))
    return [flag, *map(str, draw(values))]


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(["moments", "pairwise", "spectrum", "cluster", "classify"]))
    if cmd == "moments":
        return [cmd, *_source(draw), "--order", str(draw(st.integers(-1, 12))),
                "--state", draw(st.sampled_from(["vector", "trace"]))]
    if cmd == "spectrum":
        return [cmd, *_source(draw)]
    if cmd == "pairwise":
        names = draw(st.lists(st.sampled_from(_FUZZ_NAMES), max_size=4))
        files = draw(st.lists(st.sampled_from(_EDGE_FILES), max_size=2))
        return [cmd, "--named", *names, "--inputs", *files, *_distance_options(draw)]
    argv = [cmd, "--corpus", "corpus.json", "--method", draw(st.sampled_from(list(md.METHODS))),
            *_distance_options(draw), "--cov-k", str(draw(st.integers(0, 5))),
            "--eigs-k", str(draw(st.integers(0, 5))),
            "--gk4-samples", str(draw(st.integers(0, 30))),
            "--seed", str(draw(st.sampled_from([0, 1, 2, 0, 1, 2, -1])))]
    if cmd == "cluster":
        return argv + ["--restarts", str(draw(st.sampled_from([1, 3, 1, 3, 0])))]
    return argv + _ints(draw, "--knn-k") + _ints(draw, "--degrees") + [
        "--folds", str(draw(st.sampled_from([2, 3, 2, 3, 0, 1])))]


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs(), st.lists(_edge_list_bytes(), min_size=3, max_size=3), _manifests())
def test_cli_fuzz_exit_code_contract(capsys, argv, edge_lists, manifest):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in zip(_EDGE_FILES, edge_lists):
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        with open(os.path.join(tmp, "corpus.json"), "w") as fh:
            json.dump(manifest, fh)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always")  # a warning reaches the one-line path
                code = main(argv)
        finally:
            os.chdir(cwd)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code != 0:
        lines = err.splitlines()
        assert lines and lines[-1].startswith(_ERROR_PREFIXES)
        assert sum(line.startswith(_ERROR_PREFIXES) for line in lines) == 1
