import json
import math
import warnings

import numpy as np
import pytest

import momentdist as md
from momentdist.metrics import METRICS, _pairwise
from oracles import random_graph, reference_pairwise


def _random_pd(rng, k):
    x = rng.normal(size=(k, k))
    return x @ x.T + 0.5 * np.eye(k)


# -- individual metrics ---------------------------------------------------------


def test_frobenius_anchor_values():
    def d2(a, b):
        return md.graph_distance(a, b, md.DistanceConfig(degree=2, metric="frobenius"))

    g = {name: md.named_graph(name) for name in ("4K1", "K4", "2K2")}
    assert d2(g["4K1"], g["K4"]) == pytest.approx(90.9945, abs=5e-4)
    assert d2(g["4K1"], g["2K2"]) == pytest.approx(2.8284, abs=5e-4)
    assert d2(g["K4"], g["2K2"]) == pytest.approx(89.1740, abs=5e-4)


def test_frobenius_identity_and_mismatch():
    a = np.eye(3)
    assert md.frobenius_dist(a, a) == 0.0
    with pytest.raises(ValueError):
        md.frobenius_dist(np.eye(3), np.eye(4))


def test_affine_invariant_identity_and_diagonal():
    m = _random_pd(np.random.default_rng(0), 4)
    assert md.affine_invariant_dist(m, m) == pytest.approx(0.0, abs=1e-12)
    for k, c in [(3, 7.0), (5, 0.2)]:
        got = md.affine_invariant_dist(np.eye(k), c * np.eye(k))
        assert got == pytest.approx(math.sqrt(k) * abs(math.log(c)), rel=1e-12)


def test_affine_invariance_under_congruence():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = _random_pd(rng, 3), _random_pd(rng, 3)
        x = rng.normal(size=(3, 3))
        while abs(np.linalg.det(x)) < 1e-2:
            x = rng.normal(size=(3, 3))
        d1 = md.affine_invariant_dist(a, b)
        d2 = md.affine_invariant_dist(x @ a @ x.T, x @ b @ x.T)
        assert abs(d1 - d2) <= 1e-8 * max(1.0, d1)


def test_affine_rejects_singular_with_min_eig():
    singular = np.diag([1.0, 0.0])
    with pytest.raises(md.SingularMatrixError) as exc:
        md.affine_invariant_dist(singular, np.eye(2))
    assert exc.value.min_eigenvalue <= 1e-12


def test_log_frobenius_diagonal_closed_form():
    d = np.array([1.0, 4.0, 9.0])
    e = np.array([2.0, 2.0, 2.0])
    got = md.log_frobenius_dist(np.diag(d), np.diag(e))
    assert got == pytest.approx(np.sqrt(np.sum((np.log(d) - np.log(e)) ** 2)), rel=1e-12)


def test_cholesky_frobenius_basic():
    m = _random_pd(np.random.default_rng(2), 4)
    assert md.cholesky_frobenius_dist(m, m) == 0.0
    with pytest.raises(md.SingularMatrixError):
        md.cholesky_frobenius_dist(np.diag([1.0, -1.0]), np.eye(2))


@pytest.mark.parametrize("metric, a, b", [
    ("frobenius_dist", np.full((2, 2), 1e200), np.zeros((2, 2))),  # overflows
    ("affine_invariant_dist", 1e-300 * np.eye(2), 1e300 * np.eye(2)),  # whitening overflows
    ("log_frobenius_dist", np.diag([np.inf, 1.0]), np.eye(2)),
    ("cholesky_frobenius_dist", 1e308 * np.eye(2), 1e-308 * np.eye(2)),  # overflows
], ids=["frobenius", "affine-invariant", "log-frobenius", "cholesky-frobenius"])
def test_one_pair_metric_rejects_non_finite_distance(metric, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(md.NonFiniteDistanceError):
            getattr(md, metric)(a, b)


def test_metric_axioms_sampled():
    rng = np.random.default_rng(3)
    mats = [_random_pd(rng, 3) for _ in range(6)]
    metrics = [
        md.frobenius_dist,
        md.affine_invariant_dist,
        md.log_frobenius_dist,
        md.cholesky_frobenius_dist,
    ]
    for dist in metrics:
        d = np.array([[dist(a, b) for b in mats] for a in mats])
        assert np.allclose(d, d.T, atol=1e-10)
        assert np.all(np.abs(np.diag(d)) <= 1e-10)
        assert np.all(d >= -1e-12)
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


def test_log1p_preserves_metric_axioms_sampled():
    rng = np.random.default_rng(4)
    mats = [_random_pd(rng, 3) for _ in range(6)]
    d = np.array([[math.log1p(md.frobenius_dist(a, b)) for b in mats] for a in mats])
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


# -- graph distance ---------------------------------------------------------------


def test_graph_distance_cospectral_pair_degree_one():
    d = md.graph_distance(
        md.named_graph("C4uK1"),
        md.named_graph("S5"),
        md.DistanceConfig(degree=1, metric="frobenius"),
    )
    assert d == pytest.approx(0.8, abs=1e-12)


def test_graph_distance_identity_and_permutation():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 30, 0.3)
    assert md.graph_distance(g, g) == 0.0
    p = md.Permutation.random(30, seed=9)
    assert md.graph_distance(g, md.permute(g, p)) <= 1e-9


def test_graph_distance_fallback_flagged():
    cfg = md.DistanceConfig(degree=2, metric="affine-invariant")
    val, info = md.graph_distance(
        md.named_graph("4K1"), md.named_graph("K4"), cfg, return_info=True
    )
    assert info["fallback"] and info["metric_used"] == "frobenius"
    assert val == pytest.approx(90.9945, abs=5e-4)


def test_graph_distance_eps_restores_geodesic():
    cfg = md.DistanceConfig(degree=2, metric="affine-invariant", eps=1e-6)
    val, info = md.graph_distance(
        md.named_graph("paw"), md.named_graph("diamond"), cfg, return_info=True
    )
    assert not info["fallback"] and info["metric_used"] == "affine-invariant"
    assert val > 0


def test_graph_distance_log1p_scaling():
    base = md.DistanceConfig(degree=2, metric="frobenius")
    scaled = md.DistanceConfig(degree=2, metric="frobenius", scaling="log1p")
    g1, g2 = md.named_graph("claw"), md.named_graph("P4")
    assert md.graph_distance(g1, g2, scaled) == pytest.approx(
        math.log1p(md.graph_distance(g1, g2, base)), rel=1e-12
    )


def test_distance_config_validation():
    with pytest.raises(md.ConfigError):
        md.DistanceConfig(degree=0)
    with pytest.raises(md.ConfigError):
        md.DistanceConfig(metric="euclid")
    with pytest.raises(md.ConfigError):
        md.DistanceConfig(eps=-1.0)
    with pytest.raises(md.ConfigError):
        md.DistanceConfig(scaling="sqrt")


# -- pairwise ---------------------------------------------------------------------


def test_pairwise_duplicates_zero():
    g = md.named_graph("paw")
    dm = md.pairwise_distance_matrix([g, g], md.DistanceConfig(degree=2, metric="frobenius"))
    assert dm.entries[0, 1] == 0.0


def test_pairwise_substructure_invariance():
    g = random_graph(np.random.default_rng(6), 20, 0.3)
    gs = [g, md.disjoint_union([g, g]), md.disjoint_union([g, g, g])]
    dm = md.pairwise_distance_matrix(gs, md.DistanceConfig(degree=3, metric="frobenius"))
    assert np.all(dm.entries <= 1e-9 * max(1.0, md.moment_matrix_of_graph(g, 3).entries.max()))


def test_pairwise_threads_deterministic():
    rng = np.random.default_rng(7)
    gs = [random_graph(rng, 25, 0.3) for _ in range(8)]
    cfg = md.DistanceConfig(degree=3, metric="frobenius")
    a = md.pairwise_distance_matrix(gs, cfg, threads=1)
    b = md.pairwise_distance_matrix(gs, cfg, threads=4)
    assert np.array_equal(a.entries, b.entries)


def test_pairwise_metadata_and_labels():
    gs = [md.named_graph(n) for n in ("4K1", "K4", "C4")]
    dm = md.pairwise_distance_matrix(gs, md.DistanceConfig(degree=2, metric="affine-invariant"),
                                     labels=["4K1", "K4", "C4"])
    assert dm.labels == ["4K1", "K4", "C4"]
    assert dm.metadata["fallback_pairs"] == 3  # all these matrices are singular PSD


def engine_corpus():
    """Singular four-vertex graphs, random graphs, and exact duplicates of both."""
    rng = np.random.default_rng(11)
    four = [md.named_graph(name) for name in md.GRAPHLET4_TYPES]
    randoms = [random_graph(rng, 12, 0.35) for _ in range(6)]
    return four + randoms + [four[5], randoms[0], randoms[0]]


@pytest.mark.parametrize("metric", list(METRICS))
def test_pairwise_engine_matches_per_pair_reference(metric):
    gs = engine_corpus()
    pairs = len(gs) * (len(gs) - 1) // 2
    fallback_counts = set()
    # at degree 1 and eps 1e-9 one pair of four-vertex graphs passes the PD
    # test but its whitened product loses positivity
    settings = [(d, eps) for d in (2, 3, 4, 5) for eps in (0.0, 1e-6)] + [(1, 1e-9)]
    for degree, eps in settings:
        cfg = md.DistanceConfig(degree=degree, metric=metric, eps=eps)
        mats = [md.moment_matrix_of_graph(g, degree, eps).entries for g in gs]
        want, want_fallbacks = reference_pairwise(mats, metric)
        dm = md.pairwise_distance_matrix(gs, cfg, threads=1)
        assert dm.entries.tobytes() == want.tobytes(), (degree, eps)
        assert dm.metadata["fallback_pairs"] == want_fallbacks, (degree, eps)
        fallback_counts.add(want_fallbacks)
    if metric != "frobenius":
        # the corpus exercises the PD kernel and the fallback within one matrix
        assert any(0 < f < pairs for f in fallback_counts)


def test_pairwise_needs_two():
    with pytest.raises(ValueError):
        md.pairwise_distance_matrix([md.complete_graph(3)])


def test_pairwise_rejects_overflowing_distance():
    # the moments of K60 and K50 up to order 100 are finite; their difference squared is not
    gs = [md.complete_graph(60), md.complete_graph(50)]
    for metric in METRICS:
        cfg = md.DistanceConfig(degree=50, metric=metric)
        with pytest.raises(md.NonFiniteDistanceError, match="graphs 0 and 1 is inf"):
            md.pairwise_distance_matrix(gs, cfg, threads=1)


def test_engine_rejects_nan_distance():
    def kernel(x, ys):
        return np.where(np.arange(len(ys)) == 1, np.nan, 1.0), 0

    with pytest.raises(md.NonFiniteDistanceError, match="graphs 0 and 2 is nan"):
        _pairwise(kernel, np.zeros((4, 2)))


# -- serialization ------------------------------------------------------------------


def test_distance_matrix_csv_json_round_trip(tmp_path):
    gs = [md.named_graph(n) for n in ("claw", "paw", "C4")]
    dm = md.pairwise_distance_matrix(gs, md.DistanceConfig(degree=2, metric="frobenius"),
                                     labels=["claw", "paw", "C4"])
    text = dm.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "label,claw,paw,C4"
    assert len(lines) == 4

    back = md.DistanceMatrix.from_json(dm.to_json())
    assert back.labels == dm.labels
    assert np.array_equal(back.entries, dm.entries)

    payload = json.loads(dm.to_json())
    assert set(payload) == {"labels", "entries"}


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        md.DistanceMatrix(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        md.DistanceMatrix(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]))  # diag
    with pytest.raises(ValueError):
        md.DistanceMatrix(["a", "b"], np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
