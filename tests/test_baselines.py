import math

import numpy as np
import pytest

import momentdist as md
from oracles import (
    brute_graphlet3_counts,
    brute_graphlet4_distribution,
    random_graph,
    reference_bhattacharyya_matrix,
)


# -- covariance descriptor -------------------------------------------------------


def test_cov_regular_graph_zero():
    for g in (md.complete_graph(4), md.cycle_graph(8)):
        c = md.cov_descriptor(g, k=4)
        assert np.allclose(c, 0.0, atol=1e-14)


def test_cov_star_hand_computed():
    g = md.star_graph(5)
    x1 = np.array([4.0, 1, 1, 1, 1]) / math.sqrt(20)
    x2 = np.ones(5) / math.sqrt(5)
    cols = np.stack([x1, x2], axis=1)
    centered = cols - cols.mean(axis=1, keepdims=True)
    expected = centered.T @ centered / 5
    got = md.cov_descriptor(g, k=2)
    assert np.allclose(got, expected, atol=1e-12)
    assert np.linalg.matrix_rank(got, tol=1e-10) == 1


def test_cov_permutation_invariant_spectrum():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 25, 0.3)
    h = md.permute(g, md.Permutation.random(25, seed=1))
    ea = np.linalg.eigvalsh(md.cov_descriptor(g, k=4))
    eb = np.linalg.eigvalsh(md.cov_descriptor(h, k=4))
    assert np.allclose(ea, eb, atol=1e-9)


def test_cov_uncentered_is_gram():
    g = md.star_graph(5)
    c = md.cov_descriptor(g, k=2, center=False)
    assert c[1, 1] == pytest.approx(1.0 / 5)  # unit column squared over n


# -- Bhattacharyya ----------------------------------------------------------------


def test_bhattacharyya_identity_zero():
    c = md.cov_descriptor(md.star_graph(5), k=3)
    assert md.bhattacharyya_dist(c, c) == pytest.approx(0.0, abs=1e-12)


def test_bhattacharyya_diagonal_closed_form():
    c1, c2 = np.diag([1.0, 1.0]), np.diag([4.0, 4.0])
    expected = 0.5 * math.log(6.25 / 4.0)
    assert md.bhattacharyya_dist(c1, c2, jitter=0.0) == pytest.approx(expected, rel=1e-12)


def test_bhattacharyya_symmetric():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)); a = a @ a.T
    b = rng.normal(size=(3, 3)); b = b @ b.T
    assert md.bhattacharyya_dist(a, b) == pytest.approx(md.bhattacharyya_dist(b, a), rel=1e-12)


def test_bhattacharyya_zero_matrices():
    z = np.zeros((3, 3))
    assert md.bhattacharyya_dist(z, z) == pytest.approx(0.0, abs=1e-12)


def test_cov_matrix_matches_per_pair_reference():
    rng = np.random.default_rng(12)
    gs = [md.named_graph(n) for n in ("4K1", "K4", "claw", "paw", "P4")]
    gs += [random_graph(rng, 15, 0.3) for _ in range(5)]
    gs += [gs[2], gs[6]]
    dm = md.method_distance_matrix(gs, "cov")
    want = reference_bhattacharyya_matrix([md.cov_descriptor(g) for g in gs])
    assert dm.entries.tobytes() == want.tobytes()


# -- log trace moments -------------------------------------------------------------


def test_nclm_k4_entry():
    fv = md.nclm_vector(md.complete_graph(4))
    assert fv.values[0] == pytest.approx(math.log(0.75), rel=1e-12)  # tr(A^2)/n^2


def test_nclm_cospectral_identical():
    a = md.nclm_vector(md.named_graph("C4uK1")).values
    b = md.nclm_vector(md.named_graph("S5")).values
    assert np.array_equal(a, b)


def test_nclm_isomorphic_identical():
    g = md.named_graph("paw")
    h = md.permute(g, md.Permutation.random(4, seed=2))
    assert np.array_equal(md.nclm_vector(g).values, md.nclm_vector(h).values)


def test_nclm_bipartite_odd_features_zero_trace():
    # odd closed-walk counts of bipartite graphs are exactly zero at any size
    for g in (md.cycle_graph(100), md.path_graph(101)):
        assert md.nclm_vector(g).values[1::2].tolist() == [-745.0] * 3


def test_nclm_edgeless_rejected():
    with pytest.raises(ValueError):
        md.nclm_vector(md.empty_graph(5))


# -- top-k eigenvalues ---------------------------------------------------------------


def test_eigs_k4_padded():
    fv = md.top_k_eigenvalues(md.complete_graph(4), k=10)
    assert np.allclose(fv.values, [3, -1, -1, -1, 0, 0, 0, 0, 0, 0], atol=1e-9)


def test_eigs_regular_leading_value():
    fv = md.top_k_eigenvalues(md.cycle_graph(12), k=3)
    assert fv.values[0] == pytest.approx(2.0, abs=1e-9)


def test_eigs_cospectral_identical():
    a = md.top_k_eigenvalues(md.named_graph("C4uK1")).values
    b = md.top_k_eigenvalues(md.named_graph("S5")).values
    assert np.linalg.norm(a - b) <= 1e-10


def test_eigs_sparse_path_matches_dense(monkeypatch):
    g = md.generate_rewired(600, 1800, 0.3, seed=5)
    dense = md.top_k_eigenvalues(g, k=6).values
    monkeypatch.setattr(md.baselines, "DENSE_EIG_N", 100)
    sparse = md.top_k_eigenvalues(g, k=6).values
    assert np.allclose(dense, sparse, atol=1e-6)


# -- graphlets -------------------------------------------------------------------------


def test_gk3_complete_and_cycle():
    assert md.graphlet3_distribution(md.complete_graph(4)).tolist() == [0, 0, 0, 1]
    assert md.graphlet3_distribution(md.cycle_graph(4)).tolist() == [0, 0, 1, 0]


def test_gk3_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 13))
        g = random_graph(rng, n, rng.uniform(0, 1))
        counts = brute_graphlet3_counts(g)
        expected = counts / counts.sum()
        assert np.array_equal(md.graphlet3_distribution(g), expected)


def test_gk3_distribution_sums_to_one():
    g = random_graph(np.random.default_rng(3), 30, 0.2)
    assert md.graphlet3_distribution(g).sum() == pytest.approx(1.0, abs=1e-12)


def test_gk4_point_masses():
    d = md.graphlet4_distribution(md.complete_graph(4), samples=50, seed=0)
    assert d[md.GRAPHLET4_TYPES.index("K4")] == 1.0
    d = md.graphlet4_distribution(md.cycle_graph(5), samples=50, seed=0)
    assert d[md.GRAPHLET4_TYPES.index("P4")] == 1.0  # C5 minus a vertex is P4


def test_gk4_deterministic_and_normalized():
    g = random_graph(np.random.default_rng(4), 15, 0.3)
    a = md.graphlet4_distribution(g, samples=500, seed=7)
    b = md.graphlet4_distribution(g, samples=500, seed=7)
    assert np.array_equal(a, b)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)


def test_gk4_sampled_close_to_exhaustive():
    g = random_graph(np.random.default_rng(5), 9, 0.4)
    exact = brute_graphlet4_distribution(g)
    sampled = md.graphlet4_distribution(g, samples=20000, seed=11)
    assert np.max(np.abs(exact - sampled)) <= 0.02


def test_graphlet_size_guards():
    with pytest.raises(ValueError):
        md.graphlet3_distribution(md.complete_graph(2))
    with pytest.raises(ValueError):
        md.graphlet4_distribution(md.complete_graph(3))


def test_feature_vector_requires_finite():
    with pytest.raises(ValueError):
        md.FeatureVector(np.array([1.0, np.inf]), "x")
