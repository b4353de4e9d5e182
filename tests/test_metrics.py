import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import momentdist as md
from momentdist.metrics import METRICS, _hankel_stack, _moment_distances, _pairwise
from oracles import random_graph, reference_pairwise


def _random_pd(rng, k):
    x = rng.normal(size=(k, k))
    return x @ x.T + 0.5 * np.eye(k)


# -- individual metrics, through the engine ------------------------------------


def _engine(mats, metric, scaling="none"):
    """All-pairs distances and the fallback count of the engine on a stack of matrices."""
    return _moment_distances(np.stack(mats), md.DistanceConfig(metric=metric, scaling=scaling))


def test_frobenius_anchor_values():
    def d2(a, b):
        return md.graph_distance(a, b, md.DistanceConfig(degree=2, metric="frobenius"))

    g = {name: md.named_graph(name) for name in ("4K1", "K4", "2K2")}
    assert d2(g["4K1"], g["K4"]) == pytest.approx(90.9945, abs=5e-4)
    assert d2(g["4K1"], g["2K2"]) == pytest.approx(2.8284, abs=5e-4)
    assert d2(g["K4"], g["2K2"]) == pytest.approx(89.1740, abs=5e-4)


def test_frobenius_identity_and_closed_form():
    a, b = np.eye(3), np.diag([1.0, 3.0, -1.0])
    d, fallbacks = _engine([a, a, b], "frobenius")
    assert d[0, 1] == 0.0 and fallbacks == 0
    assert d[0, 2] == math.sqrt(8.0)


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
    with pytest.raises(md.SingularMatrixError, match="second argument"):
        md.affine_invariant_dist(np.eye(2), singular)


@pytest.mark.parametrize("a, b", [
    (np.eye(3), np.eye(4)),
    (np.ones((2, 3)), np.ones((2, 3))),
    (np.ones(3), np.ones(3)),
], ids=["mismatch", "not-square", "vector"])
def test_affine_invariant_rejects_bad_shapes(a, b):
    with pytest.raises(ValueError, match="expected two square matrices of one shape"):
        md.affine_invariant_dist(a, b)


def test_affine_invariant_rejects_non_finite_distance():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(md.NonFiniteDistanceError):
            md.affine_invariant_dist(1e-300 * np.eye(2), 1e300 * np.eye(2))


def test_log_frobenius_diagonal_closed_form():
    d = np.array([1.0, 4.0, 9.0])
    e = np.array([2.0, 2.0, 2.0])
    got, fallbacks = _engine([np.diag(d), np.diag(e)], "log-frobenius")
    assert fallbacks == 0
    assert got[0, 1] == pytest.approx(np.sqrt(np.sum((np.log(d) - np.log(e)) ** 2)), rel=1e-12)


def test_cholesky_frobenius_basic():
    m = _random_pd(np.random.default_rng(2), 4)
    d, fallbacks = _engine([m, m + np.eye(4)], "cholesky-frobenius")
    want = np.linalg.norm(np.linalg.cholesky(m) - np.linalg.cholesky(m + np.eye(4)))
    assert fallbacks == 0 and d[0, 1] == pytest.approx(want, rel=1e-12)
    # no Cholesky factor: the pair falls back to the Frobenius distance
    d, fallbacks = _engine([np.diag([1.0, -1.0]), np.eye(2)], "cholesky-frobenius")
    assert fallbacks == 1 and d[0, 1] == 2.0


@pytest.mark.parametrize("metric, a, b", [
    ("frobenius", np.full((2, 2), 1e200), np.zeros((2, 2))),  # overflows
    ("affine-invariant", 1e-300 * np.eye(2), 1e300 * np.eye(2)),  # whitening overflows
    ("log-frobenius", np.diag([np.inf, 1.0]), np.eye(2)),
    ("cholesky-frobenius", 1e308 * np.eye(2), 1e-308 * np.eye(2)),  # overflows
], ids=["frobenius", "affine-invariant", "log-frobenius", "cholesky-frobenius"])
def test_one_pair_metric_rejects_non_finite_distance(metric, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(md.NonFiniteDistanceError, match="graphs 0 and 1"):
            _engine([a, b], metric)


def test_metric_axioms_sampled():
    rng = np.random.default_rng(3)
    mats = [_random_pd(rng, 3) for _ in range(6)]
    for metric in METRICS:
        d, fallbacks = _engine(mats, metric)
        assert fallbacks == 0
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-9
    # the one-pair geodesic agrees with the engine's
    d, _ = _engine(mats, "affine-invariant")
    assert md.affine_invariant_dist(mats[0], mats[1]) == pytest.approx(d[0, 1], rel=1e-12)


def test_log1p_preserves_metric_axioms_sampled():
    rng = np.random.default_rng(4)
    mats = [_random_pd(rng, 3) for _ in range(6)]
    d, _ = _engine(mats, "frobenius", scaling="log1p")
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
    gs = [md.named_graph("4K1"), md.named_graph("K4")]
    assert md.pairwise_distance_matrix(gs, cfg).metadata["fallback_pairs"] == 1
    assert md.graph_distance(*gs, cfg) == pytest.approx(90.9945, abs=5e-4)


def test_graph_distance_eps_restores_geodesic():
    cfg = md.DistanceConfig(degree=2, metric="affine-invariant", eps=1e-6)
    gs = [md.named_graph("paw"), md.named_graph("diamond")]
    assert md.pairwise_distance_matrix(gs, cfg).metadata["fallback_pairs"] == 0
    val = md.graph_distance(*gs, cfg)
    frobenius = md.graph_distance(*gs, md.DistanceConfig(degree=2, metric="frobenius", eps=1e-6))
    assert val > 0 and val != frobenius


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
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(md.ConfigError, match="eps must be finite and nonnegative"):
            md.DistanceConfig(eps=eps)
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
        dm = md.pairwise_distance_matrix(gs, cfg)
        assert dm.entries.tobytes() == want.tobytes(), (degree, eps)
        assert dm.metadata["fallback_pairs"] == want_fallbacks, (degree, eps)
        fallback_counts.add(want_fallbacks)
    if metric != "frobenius":
        # the corpus exercises the PD kernel and the fallback within one matrix
        assert any(0 < f < pairs for f in fallback_counts)


def test_moment_table_blocks_match_one_graph_extraction():
    gs = engine_corpus()
    table = md.moment_table(gs, 14)
    assert table.shape == (len(gs), 15)
    for degree in range(1, 8):
        for eps in (0.0, 1e4):
            blocks = _hankel_stack(table, degree, eps)
            for g, block in zip(gs, blocks):
                ms = md.vector_state_moments(g, 2 * degree)
                want = md.build_moment_matrix(ms, degree).entries
                if eps > 0.0:
                    want = want + eps * np.eye(degree + 1)
                got = md.moment_matrix_of_graph(g, degree, eps).entries
                assert block.tobytes() == got.tobytes() == want.tobytes(), (degree, eps)


# SHA-256 over the entries of every matrix, and the fallback counts, of the
# engine corpus at degrees 1..7 and eps 0 and 1e4 (in that order), recorded
# when each pairwise call still extracted its own moments
_PINNED_PAIRWISE = {
    "frobenius": ("2b39668fce3e6a1f79c2801fc1394e46d8b76b33810df18b455da7d95a8cbb5b",
                  [0] * 14),
    "affine-invariant": ("1121885cc94385d4ba906eb4d060a14be598b0035b96339733d6f2922bd1507c",
                         [70, 0, 135, 0, 161, 0, 161, 0, 161, 0, 185, 0, 186, 0]),
    "log-frobenius": ("7f0688c10fb7f42f0d6b972a861764341d389ce4bba4cdf74180a13d8c3991c9",
                      [70, 0, 135, 0, 161, 0, 161, 0, 161, 0, 185, 0, 186, 0]),
    "cholesky-frobenius": ("3857564018ff9ba06b8242daea4495d22f2c1cacb0d7d6101f812c83c5531a61",
                           [70, 0, 135, 0, 161, 0, 161, 0, 161, 0, 161, 0, 161, 0]),
}


@pytest.mark.parametrize("metric", list(METRICS))
def test_pairwise_entries_and_fallbacks_pinned(metric):
    gs = engine_corpus()
    digest, fallbacks = hashlib.sha256(), []
    for degree in range(1, 8):
        for eps in (0.0, 1e4):
            dm = md.pairwise_distance_matrix(
                gs, md.DistanceConfig(degree=degree, metric=metric, eps=eps))
            digest.update(dm.entries.tobytes())
            fallbacks.append(dm.metadata["fallback_pairs"])
    assert (digest.hexdigest(), fallbacks) == _PINNED_PAIRWISE[metric]


def test_pairwise_needs_two():
    with pytest.raises(ValueError):
        md.pairwise_distance_matrix([md.complete_graph(3)])


def test_pairwise_rejects_overflowing_distance():
    # the moments of K60 and K50 up to order 100 are finite; their difference squared is not
    gs = [md.complete_graph(60), md.complete_graph(50)]
    for metric in METRICS:
        cfg = md.DistanceConfig(degree=50, metric=metric)
        with pytest.raises(md.NonFiniteDistanceError, match="graphs 0 and 1 is inf"):
            md.pairwise_distance_matrix(gs, cfg)


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

    payload = json.loads(dm.to_json())
    assert set(payload) == {"labels", "entries"}
    back = md.DistanceMatrix(payload["labels"], np.asarray(payload["entries"]))
    assert back.labels == dm.labels
    assert np.array_equal(back.entries, dm.entries)


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        md.DistanceMatrix(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        md.DistanceMatrix(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]))  # diag
    with pytest.raises(ValueError):
        md.DistanceMatrix(["a", "b"], np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
