import numpy as np
import pytest

import momentdist as md


def _corpus(count):
    gs, _ = md.make_rewired_corpus([{"nv": 20, "ne": 40, "rho": 0.1, "count": count}], seed=0)
    return gs


def test_unknown_method_rejected():
    with pytest.raises(md.ConfigError) as exc:
        md.method_distance_matrix(_corpus(3), "zorp")
    assert str(exc.value) == (
        "unknown method 'zorp'; choose from ('moment', 'cov', 'nclm', 'eigs', 'gk3', 'gk4')"
    )


@pytest.mark.parametrize("method, params, unknown", [
    ("moment", {"foo": 1, "bar": 2, "degree": 3}, "['bar', 'foo']"),
    ("eigs", {"samples": 3, "k": 3}, "['samples']"),
], ids=["moment", "eigs"])
def test_unknown_method_parameter_rejected(method, params, unknown):
    with pytest.raises(md.ConfigError) as exc:
        md.method_distance_matrix(_corpus(3), method, **params)
    assert str(exc.value) == f"unknown method parameters: {unknown}"


@pytest.mark.parametrize("method", md.METHODS)
def test_every_method_needs_two_graphs(method):
    with pytest.raises(md.ConfigError, match="^need at least two graphs$"):
        md.method_distance_matrix(_corpus(1), method)


@pytest.mark.parametrize("call, error, message", [
    (lambda: md.make_rewired_corpus({"nv": 1}), md.CorpusSpecError,
     "settings must be a list, got {'nv': 1}"),
], ids=["settings-not-list"])
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message


def test_bench_times_the_public_pairwise_entry(monkeypatch):
    calls = []
    real = md.experiments.pairwise_distance_matrix

    def counted(*args, **kwargs):
        calls.append(kwargs.get("table") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(md.experiments, "pairwise_distance_matrix", counted)
    md.bench_moment_scaling([(20, 40), (20, 60)], count=2, repeats=2, seed=0)
    # one call per size and repeat, each on the table the moment phase timed
    assert calls == [True] * 4


def test_bench_times_a_repeated_method_once(monkeypatch):
    calls = []
    real = md.experiments.method_distance_matrix

    def counted(gs, method, **params):
        calls.append(method)
        return real(gs, method, **params)

    monkeypatch.setattr(md.experiments, "method_distance_matrix", counted)
    [row] = md.bench_moment_scaling([(20, 40)], count=2, repeats=1, methods=["cov", "cov"])
    assert calls == ["cov"]
    assert list(row) == ["nv", "ne", "count", "cov_s"]


def test_bench_refuses_a_bad_degree_before_generating(monkeypatch):
    calls = []
    real = md.experiments.generate_rewired

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(md.experiments, "generate_rewired", counted)
    with pytest.raises(md.ConfigError, match="^degree must be >= 1, got 0$"):
        md.bench_moment_scaling([(20, 40)], count=2, degree=0)
    assert calls == []


def test_classify_refuses_a_degree_parameter(monkeypatch):
    monkeypatch.setattr(md.experiments, "moment_table", None)  # refused before extraction
    gs, labels = md.make_rewired_corpus(
        [{"nv": 20, "ne": 40, "rho": rho, "count": 4} for rho in (0.1, 0.9)], seed=0)
    with pytest.raises(md.ConfigError) as exc:
        md.classify_experiment(gs, labels, method_params={"degree": 3, "metric": "frobenius"},
                               folds=2)
    assert str(exc.value) == "classify sweeps the degree: give degrees, not a 'degree' parameter"


def test_classify_reports_the_first_of_tied_cells(monkeypatch):
    # per-fold accuracies by degree, one row per k: the best mean, 0.75, is reached
    # first at (3, 1), then again at (3, 2) and (4, 1)
    rows = {2: [[0.5, 0.5], [1.0, 0.0]], 3: [[1.0, 0.5], [0.5, 1.0]], 4: [[0.5, 1.0], [0.0, 0.5]]}
    monkeypatch.setattr(md.experiments, "knn_classify",
                        lambda dm, labels, ks, **kw: np.array(rows[dm.metadata["degree"]]))
    gs, labels = md.make_rewired_corpus(
        [{"nv": 20, "ne": 40, "rho": rho, "count": 2} for rho in (0.1, 0.9)], seed=0)
    report = md.classify_experiment(gs, labels, method_params={"metric": "frobenius"},
                                    degrees=[2, 3, 4], knn_k=[1, 2], folds=2)
    assert report["best"] == {"degree": 3, "k": 1}
    assert (report["accuracy_mean"], report["per_fold"]) == (0.75, [1.0, 0.5])
    assert [(c["degree"], c["k"], c["accuracy_mean"]) for c in report["sweep"]] == [
        (2, 1, 0.5), (2, 2, 0.5), (3, 1, 0.75), (3, 2, 0.75), (4, 1, 0.75), (4, 2, 0.25)]
