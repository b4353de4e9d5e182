import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

import momentdist as md
from momentdist.baselines import _bhattacharyya, _draw_quads
from momentdist.cli import main
from momentdist.experiments import _spawn_seeds
from oracles import (
    brute_graphlet3_counts,
    brute_graphlet4_distribution,
    choice_quads,
    graphlet4_distribution_by_samples,
    random_graph,
    reference_bhattacharyya_matrix,
    reference_euclidean_matrix,
)
from test_cli import _write_synthetic_corpus


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


# -- Bhattacharyya kernel ---------------------------------------------------------


def _bhattacharyya_pair(c1, c2):
    return float(_bhattacharyya(c1[None], c2[None])[0])


def test_bhattacharyya_identity_zero():
    c = md.cov_descriptor(md.star_graph(5), k=3)
    assert _bhattacharyya_pair(c, c) == pytest.approx(0.0, abs=1e-12)


def test_bhattacharyya_diagonal_closed_form():
    c1, c2 = np.diag([1.0, 1.0]), np.diag([4.0, 4.0])
    r = 1e-8 * 2.5  # the ridge: 1e-8 of the pair's mean per-dimension trace
    expected = 0.5 * math.log((2.5 + r) ** 2 / ((1.0 + r) * (4.0 + r)))
    assert _bhattacharyya_pair(c1, c2) == pytest.approx(expected, rel=1e-12)


def test_bhattacharyya_symmetric():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)); a = a @ a.T
    b = rng.normal(size=(3, 3)); b = b @ b.T
    assert _bhattacharyya_pair(a, b) == pytest.approx(_bhattacharyya_pair(b, a), rel=1e-12)


def test_bhattacharyya_zero_matrices():
    z = np.zeros((3, 3))
    assert _bhattacharyya_pair(z, z) == pytest.approx(0.0, abs=1e-12)


def _gk4_reference_features(gs, samples, seed):
    seeds = np.random.SeedSequence(seed).generate_state(len(gs), dtype=np.uint64)
    return [md.graphlet4_distribution(g, samples=samples, seed=s) for g, s in zip(gs, seeds)]


# method -> (method parameters, per-graph features computed one graph at a time)
_BASELINE_REFERENCES = {
    "nclm": ({}, lambda gs: [md.nclm_vector(g).values for g in gs]),
    "eigs": ({"k": 6}, lambda gs: [md.top_k_eigenvalues(g, k=6).values for g in gs]),
    "gk3": ({}, lambda gs: [md.graphlet3_distribution(g) for g in gs]),
    "gk4": ({"samples": 300, "seed": 5}, lambda gs: _gk4_reference_features(gs, 300, 5)),
}


@pytest.mark.parametrize("method", ["cov", *_BASELINE_REFERENCES])
def test_baseline_matrix_matches_per_pair_reference(method):
    rng = np.random.default_rng(12)
    gs = [md.named_graph(n) for n in ("4K1", "K4", "claw", "paw", "P4")]
    gs += [random_graph(rng, 15, 0.3) for _ in range(5)]
    gs += [gs[2], gs[6]]
    if method == "cov":
        dm = md.method_distance_matrix(gs, "cov")
        want = reference_bhattacharyya_matrix([md.cov_descriptor(g) for g in gs])
        assert dm.entries.tobytes() == want.tobytes()
        return
    if method == "nclm":
        gs = gs[1:]  # trace-moment features are undefined for the edgeless 4K1
    params, features = _BASELINE_REFERENCES[method]
    dm = md.method_distance_matrix(gs, method, **params)
    want = reference_euclidean_matrix(features(gs))
    np.testing.assert_allclose(dm.entries, want, rtol=1e-12, atol=0)


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


def test_eigs_sparse_path_repeats_its_bits(monkeypatch):
    # Lanczos starts from a fixed vector, not from ARPACK's own random one
    monkeypatch.setattr(md.baselines, "DENSE_EIG_N", 100)
    g = md.generate_rewired(400, 4000, 0.5, seed=3)
    assert len({md.top_k_eigenvalues(g).values.tobytes() for _ in range(5)}) == 1


def _no_convergence(a, k, **_):
    """An ``eigsh`` whose Lanczos run stops with 2 of its k eigenvalues converged."""
    raise scipy.sparse.linalg.ArpackNoConvergence(
        "ARPACK error -1: No convergence", np.array([3.0, 2.0]), np.zeros((a.shape[0], 2)))


def test_eigs_lanczos_failure_is_eigensolver_error(monkeypatch):
    monkeypatch.setattr(md.baselines, "DENSE_EIG_N", 10)
    # the module attribute, which top_k_eigenvalues' local import reads at call time
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _no_convergence)
    g = md.generate_rewired(30, 60, 0.1, seed=1)
    with pytest.raises(md.EigensolverError) as info:
        md.top_k_eigenvalues(g, k=6)
    assert str(info.value) == "Lanczos did not converge: 2/6 eigenvalues after the iteration limit"
    assert isinstance(info.value.__cause__, scipy.sparse.linalg.ArpackNoConvergence)


def test_eigs_lanczos_failure_exits_numeric(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(md.baselines, "DENSE_EIG_N", 10)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _no_convergence)
    corpus = tmp_path / "corpus.json"
    _write_synthetic_corpus(corpus)
    code = main(["cluster", "--corpus", str(corpus), "--method", "eigs"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "numeric error: Lanczos did not converge: 2/10 eigenvalues after the iteration limit\n")


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


def _dense_switch_graphs():
    rng = np.random.default_rng(8)
    yield "random13", random_graph(rng, 13, 0.4)  # rows of a part of one 64-bit word
    yield "random70", random_graph(rng, 70, 0.3)
    yield "rewired201", md.generate_rewired(201, 2010, 0.5, seed=3)
    yield "rewired256", md.generate_rewired(256, 1024, 0.9, seed=4)
    yield "K7,9", md.complete_bipartite_graph(7, 9)  # no triangles
    yield "K40,50", md.complete_bipartite_graph(40, 50)
    yield "K9", md.complete_graph(9)
    yield "K130", md.complete_graph(130)
    yield "C4u3K1", md.named_graph("C4u3K1")
    yield "edgeless5", md.empty_graph(5)


_DENSE_SWITCH_GRAPHS = dict(_dense_switch_graphs())


@pytest.mark.parametrize("gather_bytes", [1 << 20, 64, 1], ids=["one-step", "steps", "edge-steps"])
@pytest.mark.parametrize("label", list(_DENSE_SWITCH_GRAPHS))
def test_graphlets_same_on_both_sides_of_the_dense_switch(label, gather_bytes, monkeypatch):
    # small gathers split the dense triangle count into many steps, down to one edge a step
    g = _DENSE_SWITCH_GRAPHS[label]
    monkeypatch.setattr(md.baselines, "_GATHER_BYTES", gather_bytes)
    dense = [md.graphlet3_distribution(g), md.graphlet4_distribution(g, samples=300, seed=5)]
    monkeypatch.setattr(md.baselines, "DENSE_EIG_N", 2)
    sparse = [md.graphlet3_distribution(g), md.graphlet4_distribution(g, samples=300, seed=5)]
    assert [d.tobytes() for d in dense] == [s.tobytes() for s in sparse]


def test_gk3_dense_count_gathers_in_bounded_steps():
    # K2048, at the dense switch: 2.1M edges whose gathered rows would take 1 GiB at once
    g = md.complete_graph(md.baselines.DENSE_EIG_N)
    tracemalloc.start()
    try:
        features = md.graphlet3_distribution(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert features.tolist() == [0, 0, 0, 1]
    assert peak <= 64 * 2**20


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


def _gk4_equality_graphs():
    rng = np.random.default_rng(21)
    return [
        *(random_graph(rng, n, p) for n, p in ((4, 0.5), (9, 0.3), (30, 0.1), (60, 0.5))),
        md.empty_graph(4), md.empty_graph(17),
        md.complete_graph(4), md.complete_graph(12), random_graph(rng, 25, 0.9),
    ]


@pytest.mark.parametrize("samples", [1, 7, 500])
def test_gk4_matches_per_sample_reference(samples):
    seeds = [0, 7, 2**40 + 3, *_spawn_seeds(5, 3)]  # the last three as experiments draw them
    for g in _gk4_equality_graphs():
        for seed in seeds:
            got = md.graphlet4_distribution(g, samples=samples, seed=seed)
            want = graphlet4_distribution_by_samples(g, samples, seed)
            assert got.tobytes() == want.tobytes()


# vertex counts no Graph can hold: where Lemire's method rejects 25-50% of its
# 32-bit draws (2**31+5, 3*2**30+1) and across the switch to 64-bit draws
_QUAD_N_WIDE = [2**31 + 5, 3 * 2**30 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62 + 3]


@pytest.mark.parametrize("n, seeds", [
    *((n, 30) for n in (4, 5, 6, 7, 8, 10, 13, 50, 200, 201, 1000, 20000, 10**5, 2**31)),
    *((n, 20) for n in _QUAD_N_WIDE),
])
def test_draw_quads_matches_choice_loop(n, seeds):
    for seed in range(seeds):
        got = _draw_quads(n, 50, np.random.default_rng(seed))
        want = choice_quads(n, 50, seed)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# SHA-256 of the gk4 feature bytes (700 samples) of rewired graphs, recorded
# when the generator first rewired in rounds; the one-pass classification kept
# the bytes of the per-sample loop it replaced.
_GK4_PINNED = {
    (200, 2000, 0.1, 11): "a077727dd7886016ba6e95e84d1b903e8974bb186baf2664e8ae9f8ccd05353f",
    (200, 2000, 0.6, 12): "57fa1261a9d137751a048e77a5e798f1ee1e24fa87a0e051ccfa727c77f91dfb",
    (200, 4000, 0.3, 13): "9fe3d7732c5021b561b955efa50f8ff3d66992052b9b24f90c9e787668060725",
    (200, 4000, 1.0, 14): "fd63a18337881307e73e206865729972668bebbd89ea3edd75a5283d41504547",
}


@pytest.mark.parametrize("setting", list(_GK4_PINNED))
def test_gk4_features_digest_pinned(setting):
    nv, ne, rho, seed = setting
    features = md.graphlet4_distribution(md.generate_rewired(nv, ne, rho, seed),
                                         samples=700, seed=seed + 100)
    assert hashlib.sha256(features.tobytes()).hexdigest() == _GK4_PINNED[setting]


def test_graphlet_size_guards():
    with pytest.raises(ValueError):
        md.graphlet3_distribution(md.complete_graph(2))
    with pytest.raises(ValueError):
        md.graphlet4_distribution(md.complete_graph(3))


def test_feature_vector_requires_finite():
    with pytest.raises(ValueError):
        md.FeatureVector(np.array([1.0, np.inf]))


# -- argument checks -------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: md.cov_descriptor(md.empty_graph(0)), md.EmptyGraphError,
     "covariance descriptor of the empty graph is undefined"),
    (lambda: md.top_k_eigenvalues(md.complete_graph(4), k=0), md.ConfigError,
     "k must be positive"),
    (lambda: md.graphlet4_distribution(md.complete_graph(4), samples=0), md.ConfigError,
     "samples must be positive"),
], ids=["cov-empty-graph", "eigs-k-0", "gk4-no-samples"])
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message
