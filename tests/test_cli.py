import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import momentdist as md
from momentdist.cli import build_parser, main
from oracles import one_of, write_edge_list


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- argument parsing --------------------------------------------------------

# what each command requires, so that a bad option reaches the top-level parser
_REQUIRED = {"moments": ["--named", "K4"], "pairwise": [], "cluster": ["--corpus", "c.json"],
             "classify": ["--corpus", "c.json"], "spectrum": ["--named", "K4"],
             "bench": ["--sizes", "10:20"]}


@pytest.mark.parametrize("command", list(_REQUIRED))
def test_one_command_parser_reads_as_the_full_one(command, capsys):
    # main builds only the named command's parser: its help and errors are the full one's
    seen = []
    for parser in (build_parser(), build_parser(command)):
        for argv in ([command, "--help"], [command, "--no-such-option"],
                     [command, *_REQUIRED[command], "--no-such-option"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            seen.append((exc.value.code, *capsys.readouterr()))
    assert seen[:3] == seen[3:]
    assert f"usage: momentdist {command} " in seen[0][1]
    assert "unrecognized arguments: --no-such-option" in seen[2][2]


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
                             "--metric", "frobenius",
                             "--degrees", "2", "3", "--knn-k", "1", "2",
                             "--folds", "5", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert len(report["sweep"]) == 4
    assert report["best"]["degree"] in (2, 3)


def test_classify_takes_degrees_only(tmp_path, capsys):
    # neither an option of classify nor an abbreviation of --degrees there
    _write_synthetic_corpus(tmp_path / "corpus.json")
    for flag in ("--degree", "--degre"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--corpus", str(tmp_path / "corpus.json"), flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_classify_knn_k_past_int64_votes_with_whole_training_set(tmp_path, capsys):
    # 12 of 20 graphs, 3 of each fold's 5, are of the first class, so a vote
    # of the whole training set gives every fold 0.6, however large k is
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"synthetic": {"seed": 1, "settings": [
        {"nv": 20, "ne": 40, "rho": 0.2, "count": 12},
        {"nv": 20, "ne": 40, "rho": 0.9, "count": 8}]}}))
    for k in (20, 2**63 - 1, 2**63, 10**20):
        code, out = run(capsys, ["classify", "--corpus", str(corpus), "--degrees", "2",
                                 "--folds", "4", "--knn-k", str(k)])
        assert code == 0
        assert json.loads(out)["per_fold"] == [0.6] * 4


# -- bench ----------------------------------------------------------------------


def test_bench_bad_size_is_config_error(capsys):
    code, _ = run(capsys, ["bench", "--sizes", "64x128", "--count", "2"])
    assert code == 4


def test_bench_times_each_method_in_one_row(capsys):
    code, out = run(capsys, ["bench", "--sizes", "20:40", "--count", "2", "--repeats", "1",
                             "--methods", "moment", "cov", "--seed", "0"])
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert list(row) == ["nv", "ne", "count", "moment_extract_s", "moment_pairwise_s", "cov_s"]


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
    ["bench", "--sizes", "10:1000", "--count", "2", "--repeats", "1"],
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


def test_files_entry_label_checked_before_its_file_is_read(tmp_path, monkeypatch, capsys):
    real_open = open

    def open_manifest_only(file, *args, **kwargs):
        if os.fspath(file) != str(corpus):
            raise AssertionError("the edge list was read before its entry was checked")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", open_manifest_only)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"files": [{"path": "g.txt"}]}))
    assert main(["cluster", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr() == ("", "input error: files entry 0 has no 'label'\n")


def test_each_input_read_once_and_digested_as_parsed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    names = [f"g{i}.txt" for i in range(4)]
    for i, name in enumerate(names):
        write_edge_list(md.generate_rewired(20, 40 * (1 + i // 2), 0.1, seed=i), name)
    pathlib.Path("corpus.json").write_text(json.dumps(
        {"files": [{"path": name, "label": i // 2} for i, name in enumerate(names)]}))
    real_open, opened = open, []

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    # files entries are read at their paths joined to the manifest's folder
    entries = [str(tmp_path / name) for name in names]
    for argv, inputs in ((["moments", "--input", names[0]], names[:1]),
                         (["pairwise", "--inputs", *names], names),
                         (["cluster", "--corpus", "corpus.json"], ["corpus.json", *entries])):
        opened.clear()
        assert main(argv + ["--out", "out.json"]) == 0
        assert [p for p in opened if not p.startswith("out.json")] == inputs
        manifest = json.loads(pathlib.Path("out.json").read_text())["manifest"]
        assert manifest["input_digests"] == {
            p: hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest() for p in inputs}


def _one_setting(seed=None, **changes) -> bytes:
    """A synthetic manifest of one valid setting, with ``changes`` applied."""
    block = {"settings": [{"nv": 10, "ne": 20, "rho": 0.1, "count": 2, **changes}]}
    if seed is not None:
        block["seed"] = seed
    return json.dumps({"synthetic": block}).encode()


_CONTRACT_FILES = {
    "big-id.txt": b"0 1\n9223372036854775807 1\n",
    "wide.txt": b"0 5000\n",
    "not-utf8.json": b'{"files": [\xff',
    # json.loads would read these bytes as UTF-16; the manifest is decoded as UTF-8
    "utf16.json": json.dumps({"synthetic": {"settings": []}}).encode("utf-16"),
    "files-not-list.json": b'{"files": 3}',
    "bad-rho.json": json.dumps({"synthetic": {"settings": [
        {"nv": 10, "ne": 20, "rho": "x", "count": 2}]}}).encode(),
    "negative-count.json": json.dumps({"synthetic": {"settings": [
        {"nv": 10, "ne": 20, "rho": 0.1, "count": -1}]}}).encode(),
    "huge-count.json": json.dumps({"synthetic": {"settings": [
        {"nv": 10, "ne": 20, "rho": 0.1, "count": 10**20}]}}).encode(),
    "list.json": b"[]",
    "no-block.json": b"{}",
    "bad-indexing.json": json.dumps({"indexing": "x",
                                     "files": [{"path": "wide.txt", "label": 0}]}).encode(),
    "huge-nv.json": json.dumps({"synthetic": {"settings": [
        {"nv": 4000000000, "ne": 4000000000, "rho": 0.1, "count": 2}]}}).encode(),
    "huge-lattice.json": json.dumps({"synthetic": {"settings": [
        {"nv": 3000000000, "ne": 3000000000, "rho": 0.1, "count": 2}]}}).encode(),
    "small.json": json.dumps({"synthetic": {"seed": 1, "settings": [
        {"nv": 10, "ne": 20, "rho": 0.1, "count": 2}]}}).encode(),
    "twenty.json": json.dumps({"synthetic": {"seed": 1, "settings": [
        {"nv": 20, "ne": 40, "rho": 0.1, "count": 10},
        {"nv": 20, "ne": 80, "rho": 0.1, "count": 10}]}}).encode(),
    "empty.txt": b"# no edges\n",
    "empty-files.json": json.dumps({"files": [{"path": "empty.txt", "label": 0},
                                              {"path": "empty.txt", "label": 1}]}).encode(),
    "path-not-string.json": json.dumps({"files": [{"path": 3, "label": 0}]}).encode(),
    # numpy reads mixed int64 and string labels as strings; an int beyond int64 alike
    "mixed-labels.json": json.dumps({"files": [{"path": "wide.txt", "label": -2**70},
                                               {"path": "wide.txt", "label": "x"}]}).encode(),
}
# manifest values of the wrong type: converting them would run another corpus
_CONTRACT_FILES.update({
    "nv-float.json": _one_setting(nv=20.9),
    "nv-string.json": _one_setting(nv="20"),
    "ne-float.json": _one_setting(ne=20.0),
    "count-float.json": _one_setting(count=2.7),
    "label-bool.json": _one_setting(label=True),
    "rho-bool.json": _one_setting(rho=True),
    "seed-float.json": _one_setting(seed=1.5),
    "seed-string.json": _one_setting(seed="1"),
})
# a union name of 40 parts, the last unknown: each part is tried once, not 2**39 times
_LONG_UNION = "K1u" * 39 + "X"
# json's decoder recurses once per level, and the name parser once per prefix
_CONTRACT_FILES.update({
    "deep.json": b"[" * 100_000,
    "deep-settings.json": b'{"synthetic": {"seed": 1, "settings": ' + b"[" * 100_000,
})
_DEEP_JSON = ("input error: corpus manifest nests too deeply: maximum recursion depth "
              "exceeded while decoding a JSON array from a unicode string")


_OUT_OF_MEMORY = "config error: out of memory: "
_ADDRESS_SPACE_CAP = 3 * 2**30
_GK4 = ["cluster", "--corpus", "small.json", "--method", "gk4", "--gk4-samples"]
_MAX_GK4_SAMPLES = (2**63 - 1) // (7 * 8)


def _gk4_refused(samples):
    return (f"config error: samples {samples} exceeds {_MAX_GK4_SAMPLES}, "
            "the most whose draw array numpy can size")


# an integer option too large for numpy to size the array it sets
_HUGE = 10**20
_ORDER_REFUSED = "exceeds 1152921504606846974, the most whose moment array numpy can size"
_COUNT_REFUSED = "exceeds 1152921504606846975, the most whose seed array numpy can size"
_COPIES_REFUSED = "exceeds 3037000499, the most copies that fit in 3037000499 vertices"


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
    (["cluster", "--corpus", "utf16.json"], 2, "input error: not UTF-8: byte 0xff at offset 0"),
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
     f"config error: graph count 100000000000000000000 {_COUNT_REFUSED}"),
    (["bench", "--sizes", "10:20", "--count", "100000000000000000000"], 4,
     f"config error: graph count 100000000000000000000 {_COUNT_REFUSED}"),
    (["bench", "--sizes", "10:20", "--count", str(2**62)], 4,
     f"config error: graph count {2**62} {_COUNT_REFUSED}"),
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
    (["bench", "--sizes", "10:20", "--count", "0"], 4, "config error: count must be at least 2"),
    # the one public pairwise entry needs two graphs, as every baseline does
    (["bench", "--sizes", "64:128", "--count", "1", "--repeats", "1", "--seed", "0"], 4,
     "config error: count must be at least 2"),
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
    (["moments", "--named", _LONG_UNION], 2, f"input error: unknown graph name {_LONG_UNION!r}"),
    (["moments", "--named", "K1u" * 599 + "K1"], 0, None),
    (["moments", "--named", "K1u" * 4999 + "K1"], 0, None),
    # prefixes and unions are read in one loop: no recursion limit applies
    (["moments", "--named", "co-" * 5000 + "K1"], 0, None),
    (["moments", "--named", "K0uco-" * 2000 + "K1"], 0, None),
    # refused before the family's edge list is built
    (["moments", "--named", "K9999999999"], 2, "input error: K9999999999: vertex count "
     "9999999999 exceeds 3037000499, the most whose edge codes fit in int64"),
    (["moments", "--named", "C9999999999"], 2, "input error: C9999999999: vertex count "
     "9999999999 exceeds 3037000499, the most whose edge codes fit in int64"),
    (["moments", "--named", "K2,9999999999"], 2, "input error: K2,9999999999: vertex count "
     "10000000001 exceeds 3037000499, the most whose edge codes fit in int64"),
    # a family within the vertex limit but beyond memory fails at its first array
    (["moments", "--named", "C3037000499"], 4, _OUT_OF_MEMORY + "Unable to allocate 22.6 GiB "
     "for an array with shape (3037000499,) and data type int64"),
    # refused before the copies are listed; a part of 0 vertices counts as 1
    (["moments", "--named", "10000000000000000000K1"], 2, "input error: "
     f"10000000000000000000K1: multiplier 10000000000000000000 {_COPIES_REFUSED}"),
    (["moments", "--named", "10000000000000000000K0"], 2, "input error: "
     f"10000000000000000000K0: multiplier 10000000000000000000 {_COPIES_REFUSED}"),
    # the copies build at array speed, so the graph's 2.24 GiB row pointers fit
    # under the cap and the csr matrix's int32 copy of them does not
    (["moments", "--named", "300000000K1"], 4, _OUT_OF_MEMORY + "Unable to allocate 1.12 GiB "
     "for an array with shape (300000001,) and data type int32"),
    (["moments", "--named", "K1u10000000000000000000K1"], 2,
     "input error: unknown graph name 'K1u10000000000000000000K1'"),
    (["cluster", "--corpus", "deep.json"], 2, _DEEP_JSON),
    (["classify", "--corpus", "deep-settings.json"], 2, _DEEP_JSON),
    # one gk4 draw array holds seven int64 draws per sample: above the most
    # numpy can size the count is refused, below it numpy's allocation fails
    (_GK4 + [str(10**20)], 4, _gk4_refused(10**20)),
    (_GK4 + [str(2**63 - 1)], 4, _gk4_refused(2**63 - 1)),
    (_GK4 + [str(10**12)], 4, _OUT_OF_MEMORY + "Unable to allocate 50.9 TiB for an array "
     "with shape (1000000000000, 7) and data type int64"),
    (_GK4 + [str(_MAX_GK4_SAMPLES)], 4, _OUT_OF_MEMORY + "Unable to allocate 8.00 EiB for an "
     f"array with shape ({_MAX_GK4_SAMPLES}, 7) and data type int64"),
    (["cluster", "--corpus", "nv-float.json"], 2, "input error: setting 0 has a bad 'nv': 20.9"),
    (["cluster", "--corpus", "nv-string.json"], 2, "input error: setting 0 has a bad 'nv': '20'"),
    (["cluster", "--corpus", "ne-float.json"], 2, "input error: setting 0 has a bad 'ne': 20.0"),
    (["cluster", "--corpus", "count-float.json"], 2,
     "input error: setting 0 has a bad 'count': 2.7"),
    (["cluster", "--corpus", "label-bool.json"], 2,
     "input error: setting 0 has a bad 'label': True"),
    (["cluster", "--corpus", "rho-bool.json"], 2, "input error: setting 0 has a bad 'rho': True"),
    (["cluster", "--corpus", "seed-float.json"], 2,
     "input error: synthetic block has a bad 'seed': 1.5"),
    (["cluster", "--corpus", "seed-string.json"], 2,
     "input error: synthetic block has a bad 'seed': '1'"),
    (["cluster", "--corpus", "path-not-string.json"], 2,
     "input error: files entry 0 has a bad 'path': 3"),
    (["cluster", "--corpus", "twenty.json", "--restarts", str(_HUGE)], 4,
     f"config error: restarts {_HUGE} exceeds 57646075230342348, the most whose initial-label "
     "array numpy can size"),
    (["cluster", "--corpus", "twenty.json", "--method", "cov", "--cov-k", str(_HUGE)], 4,
     f"config error: k {_HUGE} exceeds 57646075230342348, the most whose walk-vector array "
     "numpy can size"),
    (["cluster", "--corpus", "twenty.json", "--method", "eigs", "--eigs-k", str(_HUGE)], 4,
     f"config error: k {_HUGE} exceeds 1152921504606846975, the most whose eigenvalue array "
     "numpy can size"),
    (["pairwise", "--named", "K4", "C4", "--degree", str(_HUGE)], 4,
     f"config error: order {2 * _HUGE} {_ORDER_REFUSED}"),
    (["cluster", "--corpus", "twenty.json", "--degree", str(_HUGE)], 4,
     f"config error: order {2 * _HUGE} {_ORDER_REFUSED}"),
    (["classify", "--corpus", "twenty.json", "--degrees", str(_HUGE)], 4,
     f"config error: order {2 * _HUGE} {_ORDER_REFUSED}"),
    (["bench", "--sizes", "10:20", "--count", "2", "--degree", str(_HUGE)], 4,
     f"config error: order {2 * _HUGE} {_ORDER_REFUSED}"),
    (["moments", "--named", "K4", "--order", str(_HUGE)], 4,
     f"config error: order {_HUGE} {_ORDER_REFUSED}"),
    (["moments", "--named", "K4", "--state", "trace", "--order", str(_HUGE)], 4,
     f"config error: order {_HUGE} {_ORDER_REFUSED}"),
    # a k above the training set votes with all of it, however large
    (["classify", "--corpus", "twenty.json", "--knn-k", str(2**63)], 0, None),
    (["cluster", "--corpus", "mixed-labels.json"], 0, None),
    (["pairwise"], 4, "config error: no graphs given; use --named and/or --inputs"),
    (["cluster", "--corpus", "no-block.json"], 4,
     "config error: corpus manifest must contain a 'synthetic' or 'files' block"),
    (["cluster", "--corpus", "bad-indexing.json"], 4, "config error: unknown indexing mode 'x'"),
], ids=["id-int64-max", "manifest-not-utf8", "manifest-utf16", "spectrum-empty",
        "spectrum-above-dense", "files-not-list", "rho-not-number", "negative-count",
        "manifest-not-object",
        "corpus-count-above-intp", "bench-count-above-intp", "bench-count-above-seed-array",
        "negative-seed", "no-restarts", "cov-k-1", "nclm-edgeless", "reg-nan", "reg-inf",
        "reg-overflows-trace", "bench-no-graphs", "bench-single-graph", "bench-no-repeats",
        "corpus-nv-above-max", "bench-nv-above-max",
        "corpus-lattice-out-of-memory", "bench-lattice-out-of-memory", "union-40-parts",
        "union-600-parts", "union-5000-parts", "prefix-chain-5000", "union-prefix-chain-2000",
        "complete-above-max", "cycle-above-max",
        "bipartite-above-max", "cycle-out-of-memory", "multiplier-above-max",
        "multiplier-above-max-empty-part", "multiplier-out-of-memory",
        "union-multiplier-above-max", "manifest-deep", "settings-deep",
        "gk4-samples-above-intp", "gk4-samples-int64-max", "gk4-samples-out-of-memory",
        "gk4-samples-at-max",
        "nv-float", "nv-string", "ne-float", "count-float", "label-bool", "rho-bool",
        "seed-float", "seed-string", "path-not-string",
        "restarts-huge", "cov-k-huge", "eigs-k-huge", "pairwise-degree-huge",
        "cluster-degree-huge", "classify-degrees-huge", "bench-degree-huge", "order-huge",
        "trace-order-huge", "knn-k-above-int64", "mixed-labels", "pairwise-no-graphs",
        "manifest-no-block", "manifest-bad-indexing"])
def test_exit_code_contract(tmp_path, monkeypatch, capsys, argv, code, err):
    monkeypatch.chdir(tmp_path)
    for name, data in _CONTRACT_FILES.items():
        (tmp_path / name).write_bytes(data)
    if err is not None and (err.startswith(_OUT_OF_MEMORY) or "--gk4-samples" in argv):
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


def test_out_of_memory_without_text_names_a_cause(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError()  # as Python raises its own: no text

    monkeypatch.setattr(md.cli, "_cmd_moments", exhausted)
    assert main(["moments", "--named", "K4"]) == 4
    assert capsys.readouterr() == ("", "config error: out of memory: allocation failed\n")


def test_long_union_name_exits_within_a_second(capsys):
    start = time.perf_counter()
    assert main(["moments", "--named", _LONG_UNION]) == 2
    assert time.perf_counter() - start < 1.0


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


# SHA-256 of each command's output file on the rewiring corpus (seed 2), the
# named graphs or the two edge files above: every distance, fallback count,
# assignment, KNN grid, moment and spectrum value, and every output and
# manifest key, to the byte. Paths are relative, so the manifests are stable.
_PINNED_OUTPUTS = {
    "classify-default": (["classify"],
        "493514708a36a3f0c33007086bad0ff601ad6ecfaba9975e4d5d82b51030c130"),
    "classify-degrees-3-2-3": (["classify", "--degrees", "3", "2", "3", "--reg", "1e4"],
        "ae21dde01d4bf19374b887dd8665fa210719a211f99d7d378aa2a17233538b95"),
    "classify-frobenius": (["classify", "--metric", "frobenius", "--knn-k", "1", "4", "40"],
        "2f69e802ee08b3eb552097af221d0867a42ab41a70c9d1ce72638a71da975e7b"),
    "cluster": (["cluster", "--degree", "3", "--reg", "1e4"],
        "20ffab737c18fb83f42223c42b0d4c5a2f090de57fa228abfd2d22d480eb3b0f"),
    "cluster-gk4": (["cluster", "--method", "gk4", "--gk4-samples", "300"],
        "e96743bd6664a65bbd9520f8beb25e151bd693226332f7eea9b466f0c8e77eb3"),
    "pairwise": (["pairwise", "--named", "K4", "C4", "paw", "P5", "S5", "C4uK1", "C6",
                  "--degree", "3", "--reg", "1e-3"],
        "ffda7456e0bfd8531a97d6a60be67961159c5d037aa6bdfbd4852c4cf12ea63b"),
    "pairwise-inputs": (["pairwise", "--inputs", "plain.txt", "comment.txt",
                         "--indexing", "zero", "--degree", "4"],
        "9f26ef68066e7db291a56f6a1883d79ac5651ead278cbb239aa2a8da4fc6a9d9"),
    "moments": (["moments", "--named", "C4uK1", "--order", "8"],
        "f1ff009d592e61f3c635ddb6ba5408c209516d5719bff39c9aef77f2ffe035e4"),
    "moments-trace": (["moments", "--named", "C4uK1", "--order", "8", "--state", "trace"],
        "8cf592e87a773fe0e9bb45a3da527c115df254b0546dfdfe12c4600bcae78185"),
    "spectrum.csv": (["spectrum", "--named", "C4uK1"],
        "d58fd6cba9d4696476ed90a4982e240f5ed3406b63265b31e0733b915619d340"),
}
# a case whose name ends in .csv is written to out.csv, the others to out.json
_PINNED_OUTPUTS["pairwise.csv"] = (_PINNED_OUTPUTS["pairwise"][0],
    "4a5d66518e024cfa3d1b4c1831bd49db710a81a42ec536cdf134de5e4512074b")

_MANIFEST_KEYS = ["command", "config", "seeds", "input_digests", "version"]
_TIMINGS_KEYS = {"moments": ["moments_s"], "pairwise": ["pairwise_s"], "spectrum": ["spectrum_s"],
                 "cluster": ["distance_s", "cluster_s", "total_s"], "classify": ["total_s"],
                 "bench": ["total_s"]}


def _write_edge_files(tmp_path):
    """Two rewired graphs as edge lists: plain decimal pairs, and pairs after a
    non-ASCII comment line, which the bulk reader blanks like any comment."""
    for name, comment, seed in (("plain.txt", "", 1), ("comment.txt", "# graphe réécrit\n", 2)):
        g = md.generate_rewired(40, 120, 0.3, seed=seed)
        edges = "".join(f"{u} {v}\n" for u, v in g.edge_array().tolist())
        (tmp_path / name).write_text(comment + edges, encoding="utf-8")


def _pinned_output(tmp_path, monkeypatch, argv, out="out.json"):
    monkeypatch.chdir(tmp_path)
    _write_rewiring_corpus(tmp_path / "corpus.json")
    _write_edge_files(tmp_path)
    if argv[0] in ("cluster", "classify"):
        argv = argv[:1] + ["--corpus", "corpus.json", "--seed", "2"] + argv[1:]
    assert main(argv + ["--out", out]) == 0
    return (tmp_path / out).read_bytes()


@pytest.mark.parametrize("case", list(_PINNED_OUTPUTS))
def test_output_digest_pinned(tmp_path, monkeypatch, case):
    argv, digest = _PINNED_OUTPUTS[case]
    out = "out.csv" if case.endswith(".csv") else "out.json"
    data = _pinned_output(tmp_path, monkeypatch, argv, out)
    assert hashlib.sha256(data).hexdigest() == digest
    # the sidecar is the manifest plus per-phase timings; JSON embeds that manifest
    sidecar = json.loads((tmp_path / (out + ".manifest.json")).read_text())
    assert list(sidecar.pop("timings")) == _TIMINGS_KEYS[argv[0]]
    assert list(sidecar) == _MANIFEST_KEYS
    if out == "out.json":
        assert sidecar == json.loads(data)["manifest"]


def test_classify_output_same_under_threads(tmp_path, monkeypatch):
    # extraction runs on the calling thread: --threads is accepted and ignored
    for case in ("classify-default", "pairwise"):
        argv = _PINNED_OUTPUTS[case][0]
        want = _pinned_output(tmp_path, monkeypatch, argv)
        assert _pinned_output(tmp_path, monkeypatch, argv + ["--threads", "2"]) == want


def test_cluster_output_same_under_blas_thread_counts(tmp_path):
    # OpenBLAS reads its thread count when it loads, so each count runs in its own process
    settings = [{"nv": 200, "ne": ne, "rho": rho, "count": 3} for ne in (2000, 4000)
                for rho in (0.1, 0.9)]
    corpus = json.dumps({"synthetic": {"seed": 0, "settings": settings}})
    outputs = []
    for threads in ("1", "2"):
        (run_dir := tmp_path / threads).mkdir()
        (run_dir / "corpus.json").write_text(corpus)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(pathlib.Path(md.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "momentdist.cli", "cluster", "--corpus",
                               "corpus.json", "--out", "out.json"], cwd=run_dir, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append((run_dir / "out.json").read_bytes())
    assert outputs[0] == outputs[1]


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
    # classify sweeps the degree through degrees=
    sweep = {"method_params": {"eps": 1e4}, "degrees": [3], "folds": 2, "seed": 1}
    assert (md.classify_experiment(gs, labels, **sweep, threads=2)
            == md.classify_experiment(gs, labels, **sweep))


# -- fuzzed error contract --------------------------------------------------------

_FUZZ_NAMES = ["K0", "K1", "K2", "K4", "C4", "C6", "P3", "S5", "claw", "paw", "diamond",
               "2K2", "4K1", "co-paw", "C4uK1", "K2,3", "K3,3"]
_EDGE_FILES = ["a.txt", "b.txt", "c.txt"]
_ERROR_PREFIXES = ("input error: ", "numeric error: ", "config error: ")
# integers too large for numpy to size an array by, so no draw allocates memory
_HUGE_INTS = st.sampled_from([2**62, 2**63, 10**20])


@st.composite
def _edge_list_bytes(draw):
    """Edge-list text over digits, '-', spaces, '#', '%', newlines and 0xff.

    Most lines are pairs of two different one-digit ids, so most files load;
    the other lines can hold self-loops. Ids have at most three digits, so no
    example builds a graph of more than 1000 vertices.
    """
    number = st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "", "-"]),
                       st.text("0123456789", min_size=1, max_size=3))
    piece = st.one_of(number, st.sampled_from([" ", "#", "%", "\xff"]))
    pair = st.builds(lambda u, step: f"{u} {(u + step) % 10}", st.integers(0, 9),
                     st.integers(1, 9))
    line = one_of(*[pair] * 6, st.lists(piece, max_size=4).map(" ".join))
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
    # one faulty entry: mostly a label that is neither a string nor an integer,
    # else a key missing or a path that is not a string
    odd_entry = one_of(*[st.fixed_dictionaries({"path": st.sampled_from(_EDGE_FILES),
                                                "label": st.sampled_from([None, [1]])})] * 2,
                       st.fixed_dictionaries({}, optional={
                           "path": st.sampled_from(_EDGE_FILES + [7]),
                           "label": st.integers(0, 2)}))
    # a fault shows only if the entries around it load, so a list holds at most one
    entries = st.builds(lambda good, odd, at: good[:at] + odd + good[at:],
                        st.lists(entry, min_size=1, max_size=5),
                        one_of(st.just([]), *[odd_entry.map(lambda e: [e])] * 2),
                        st.integers(0, 5))
    files = st.fixed_dictionaries(
        {"files": entries},
        optional={"indexing": st.sampled_from(["zero", "one", "auto", "x"])})
    synthetic = st.fixed_dictionaries({"synthetic": st.fixed_dictionaries(
        {"settings": st.lists(_setting(), min_size=1, max_size=3)},
        optional={"seed": st.sampled_from([0, 3, 0, 3, -1, "s"])})})
    odd = st.sampled_from([[], 3, {}, {"files": 3}, {"synthetic": {"settings": 3}}])
    return one_of(*[files] * 3, *[synthetic] * 3, odd)


def _source(draw):
    if draw(st.booleans()):
        return ["--named", draw(st.sampled_from(_FUZZ_NAMES))]
    argv = ["--input", draw(st.sampled_from(_EDGE_FILES)),
            "--indexing", draw(st.sampled_from(["zero", "one", "auto"]))]
    return argv + (["--header"] if draw(st.booleans()) else [])


def _int(draw, values):
    """An integer option's value: from ``values`` three times in four, else a huge one."""
    return str(draw(one_of(*[values] * 3, _HUGE_INTS)))


def _distance_options(draw, degree=True):
    """--metric and --reg, after --degree where the command takes it."""
    argv = ["--degree", _int(draw, st.integers(0, 5))] if degree else []
    return argv + ["--metric", draw(st.sampled_from(list(md.METRICS))),
                   "--reg", draw(st.sampled_from(["0", "0", "0", "1e-6", "1e4", "1e308", "-1",
                                                  "nan", "inf"]))]


def _ints(draw, flag):
    """``flag`` with one to three values from 1 to 4; one time in four, any values from 0 to 4.
    One time in four, a huge value follows."""
    values = one_of(*[st.lists(st.integers(1, 4), min_size=1, max_size=3)] * 3,
                    st.lists(st.integers(0, 4), max_size=3))
    huge = one_of(*[st.just([])] * 3, _HUGE_INTS.map(lambda v: [v]))
    return [flag, *map(str, draw(values) + draw(huge))]


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(["moments", "pairwise", "spectrum", "cluster", "classify",
                                "bench"]))
    if cmd == "moments":
        return [cmd, *_source(draw), "--order", _int(draw, st.integers(-1, 12)),
                "--state", draw(st.sampled_from(["vector", "trace"]))]
    if cmd == "spectrum":
        return [cmd, *_source(draw)]
    if cmd == "pairwise":
        names = draw(st.lists(st.sampled_from(_FUZZ_NAMES), max_size=4))
        files = draw(one_of(*[st.lists(st.sampled_from(_EDGE_FILES), min_size=1, max_size=2)] * 3,
                            st.just([])))
        return [cmd, "--named", *names, "--inputs", *files, *_distance_options(draw)]
    if cmd == "bench":
        sizes = [f"{s['nv']}:{s['ne']}" for s in draw(st.lists(_setting(), min_size=1,
                                                                 max_size=2))]
        return [cmd, "--sizes", *sizes,
                "--count", _int(draw, st.sampled_from([1, 2, 1, 2, 0])),
                # a huge repeat count is valid: an endless loop
                "--repeats", str(draw(st.sampled_from([1, 2, 1, 2, 0]))),
                "--degree", _int(draw, st.integers(0, 5)),
                "--rho", draw(st.sampled_from(["0", "0.2", "1", "0", "0.2", "1", "1.5", "nan"])),
                "--methods", *draw(st.lists(st.sampled_from(list(md.METHODS)), unique=True)),
                "--seed", _int(draw, st.sampled_from([0, 1, 0, 1, -1]))]
    argv = [cmd, "--corpus", "corpus.json", "--method", draw(st.sampled_from(list(md.METHODS))),
            *_distance_options(draw, cmd == "cluster"),
            "--cov-k", _int(draw, st.integers(0, 5)),
            "--eigs-k", _int(draw, st.integers(0, 5)),
            "--gk4-samples", _int(draw, st.integers(0, 30)),
            "--seed", _int(draw, st.sampled_from([0, 1, 2, 0, 1, 2, -1]))]
    if cmd == "cluster":
        return argv + ["--restarts", _int(draw, st.sampled_from([1, 3, 1, 3, 0]))]
    return argv + _ints(draw, "--knn-k") + _ints(draw, "--degrees") + [
        "--folds", _int(draw, st.sampled_from([2, 3, 2, 3, 0, 1]))]


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
