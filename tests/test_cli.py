import json
import math
import os
import warnings

import numpy as np
import pytest

import momentdist as md
from momentdist.cli import main


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
            "--seed", "7", "--threads", "1"]
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
            md.write_edge_list(g, p)
            files.append({"path": p.name, "label": 0 if name == "a" else 1})
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"files": files, "indexing": "zero"}))

    base = ["classify", "--corpus", str(corpus), "--folds", "4",
            "--knn-k", "1", "--seed", "0", "--threads", "1"]
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
                             "--folds", "5", "--seed", "1", "--threads", "1"])
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
    code = main(["classify", "--corpus", str(corpus), "--degrees", "2", "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "config error: more folds (10) than items (3)\n"


@pytest.mark.parametrize("flag, name", [("--degrees", "degrees"), ("--knn-k", "knn_k")])
def test_exit_code_config_error_empty_sweep(tmp_path, capsys, flag, name):
    corpus = tmp_path / "corpus.json"
    _write_synthetic_corpus(corpus)
    code = main(["classify", "--corpus", str(corpus), "--threads", "1", flag])
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
], ids=["settings", "path", "label", "nv", "entry-not-object"])
def test_exit_code_input_error_manifest_missing_key(tmp_path, capsys, spec, message):
    md.write_edge_list(md.cycle_graph(4), tmp_path / "g.txt")
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(spec))
    code = main(["cluster", "--corpus", str(corpus)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_classify_unstratified_folds_one_warning_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    _write_synthetic_corpus(corpus)  # two classes of 5 graphs each
    args = ["classify", "--corpus", str(corpus), "--degrees", "2", "3", "--knn-k", "1", "2",
            "--folds", "6", "--seed", "1", "--threads", "1"]
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


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MOMENTDIST_THREADS", "2")
    code, out = run(capsys, ["pairwise", "--named", "K4", "C4",
                             "--degree", "2", "--metric", "frobenius"])
    assert code == 0
    monkeypatch.setenv("MOMENTDIST_THREADS", "zebra")
    code, _ = run(capsys, ["pairwise", "--named", "K4", "C4"])
    assert code == 4
