import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentdist as md
from momentdist import learn
from oracles import (
    kernel_kmeans_by_restarts,
    kmeans_inits,
    kmeans_run,
    knn_fold_accuracies_by_query,
)


def _block_distance_matrix(sizes, within=0.1, between=5.0, seed=0):
    """Distances with tight diagonal blocks, plus jitter to break ties."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = labels.size
    d = np.where(labels[:, None] == labels[None, :], within, between).astype(float)
    d += rng.uniform(0, 0.01, (n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return d, labels


# -- kernel ---------------------------------------------------------------------


def test_kernel_from_distances_examples():
    assert np.array_equal(md.kernel_from_distances(np.zeros((3, 3))), np.ones((3, 3)))
    d = np.array([[0.0, math.log(2)], [math.log(2), 0.0]])
    k = md.kernel_from_distances(d)
    assert k[0, 1] == pytest.approx(0.5, rel=1e-12)
    assert np.array_equal(k, k.T)


def test_kernel_accepts_distance_matrix_object():
    gs = [md.complete_graph(3), md.complete_graph(4)]
    dm = md.pairwise_distance_matrix(gs, md.DistanceConfig(degree=1, metric="frobenius"))
    k = md.kernel_from_distances(dm)
    assert k.shape == (2, 2) and k[0, 0] == 1.0


# -- kernel k-means ----------------------------------------------------------------


def test_kmeans_separable_blocks():
    d, labels = _block_distance_matrix([10, 12])
    k = md.kernel_from_distances(d)
    got = md.kernel_kmeans(k, 2, restarts=10, seed=0)
    assert md.clustering_accuracy(got, labels) == 1.0


def test_kmeans_singleton_clusters():
    d, _ = _block_distance_matrix([3, 3])
    k = md.kernel_from_distances(d)
    labels = md.kernel_kmeans(k, 6, restarts=5, seed=1)
    assert len(set(labels.tolist())) == 6
    _, objective = learn._kmeans_pass(k, labels[None], 6)
    assert objective.shape == (1,)
    assert objective[0] == pytest.approx(0.0, abs=1e-9)


def test_kmeans_objective_non_increasing(monkeypatch):
    d, _ = _block_distance_matrix([8, 8, 8], seed=3)
    k = md.kernel_from_distances(d)
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=24)
    labels[rng.permutation(24)[:3]] = np.arange(3)
    labels = labels[None]  # a stack of one restart
    # one Lloyd iteration per pass: the objective after each one
    monkeypatch.setattr(learn, "KMEANS_MAX_ITER", 1)
    hist = []
    for _ in range(20):
        labels, objective = learn._kmeans_pass(k, labels, 3)
        hist.append(float(objective[0]))
    assert len(set(hist)) > 1  # the run moved before it settled
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_deterministic():
    d, _ = _block_distance_matrix([9, 9], seed=4)
    k = md.kernel_from_distances(d)
    a = md.kernel_kmeans(k, 2, restarts=4, seed=11)
    b = md.kernel_kmeans(k, 2, restarts=4, seed=11)
    assert np.array_equal(a, b)


def test_kmeans_identical_points_reseed():
    k = np.ones((5, 5))
    labels = md.kernel_kmeans(k, 3, restarts=2, seed=0)
    assert len(set(labels.tolist())) == 3  # empty clusters reseeded


def test_kmeans_validation():
    with pytest.raises(ValueError):
        md.kernel_kmeans(np.ones((3, 2)), 2)
    with pytest.raises(ValueError):
        md.kernel_kmeans(np.ones((3, 3)), 4)


def test_kmeans_rejects_non_finite_kernel():
    k = np.eye(4)
    k[0, 1] = k[1, 0] = np.nan  # NaN passes the symmetry check
    with pytest.raises(ValueError, match="kernel matrix must be finite"):
        md.kernel_kmeans(k, 2, restarts=3, seed=0)
    k[0, 1] = k[1, 0] = np.inf
    with pytest.raises(ValueError, match="kernel matrix must be finite"):
        md.kernel_kmeans(k, 2, restarts=3, seed=0)


def _desk_settings(count):
    return [{"nv": 200, "ne": ne, "rho": rho, "count": count}
            for ne in (2000, 4000) for rho in (0.1, 0.9)]


@pytest.mark.parametrize("corpus_seed", range(5))
def test_kmeans_matches_restart_oracle_on_desk_corpus(corpus_seed):
    # the moment method on the 60-graph desk corpus; the baselines, which cost
    # far more per graph, on its 16-graph version with 500 gk4 samples
    full, _ = md.make_rewired_corpus(_desk_settings(15), seed=corpus_seed)
    small, _ = md.make_rewired_corpus(_desk_settings(4), seed=corpus_seed)
    cases = [(full, "moment", {"degree": 4, "eps": 1e4})]
    cases += [(small, name, {}) for name in ("cov", "nclm", "eigs", "gk3")]
    cases += [(small, "gk4", {"samples": 500, "seed": corpus_seed})]
    for gs, method, params in cases:
        k = md.kernel_from_distances(md.method_distance_matrix(gs, method, **params))
        got = md.kernel_kmeans(k, 4, restarts=20, seed=corpus_seed)
        want, _ = kernel_kmeans_by_restarts(k, 4, 20, corpus_seed)
        assert got.tobytes() == want.tobytes(), method


@st.composite
def _block_kernels(draw):
    """Jittered block kernels exp(-D), with k and the restart count."""
    n = draw(st.integers(3, 40))
    k = draw(st.integers(1, min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.integers(0, draw(st.integers(1, 6)), n)
    d = np.where(blocks[:, None] == blocks[None, :], 0.1, 5.0) + rng.uniform(0, 0.5, (n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return md.kernel_from_distances(d), k, draw(st.integers(1, 20)), draw(st.integers(0, 1000))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_block_kernels())
def test_kmeans_batched_objective_matches_restart_oracle(problem):
    k_mat, k, restarts, seed = problem
    labels, objective = learn._kmeans_pass(k_mat, kmeans_inits(k_mat.shape[0], k, restarts, seed), k)
    best = int(np.argmin(objective))
    assert md.kernel_kmeans(k_mat, k, restarts=restarts, seed=seed).tobytes() == labels[best].tobytes()
    _, want = kernel_kmeans_by_restarts(k_mat, k, restarts, seed)
    assert abs(objective[best] - want) <= 1e-12 * abs(want)


# points 0-2 coincide and 3, 4 stand apart: the start [0, 1, 2, 0, 0] moves all
# of 0-2 into cluster 1 (the first of their tied nearest), leaving cluster 2
# empty and reseeded with point 3; the start [0, 0, 0, 1, 2] is already settled
_COINCIDENT_TRIPLE = np.block([[np.ones((3, 3)), np.zeros((3, 2))],
                               [np.zeros((2, 3)), np.eye(2)]])


@pytest.mark.parametrize("k_mat, k, fixed", [
    (np.ones((5, 5)), 3, [[0, 1, 2, 0, 0]]),
    (_COINCIDENT_TRIPLE, 3, [[0, 0, 0, 1, 2], [0, 1, 2, 0, 0]]),
    (md.kernel_from_distances(_block_distance_matrix([6, 7, 5], seed=2)[0]), 3, []),
], ids=["identical-points", "coincident-triple", "blocks"])
@pytest.mark.parametrize("max_iter", [1, 2, learn.KMEANS_MAX_ITER])
def test_kmeans_pass_rows_independent(monkeypatch, k_mat, k, fixed, max_iter):
    monkeypatch.setattr(learn, "KMEANS_MAX_ITER", max_iter)  # the pass and the oracle
    n = k_mat.shape[0]
    stack = np.concatenate([np.asarray(fixed, dtype=np.int64).reshape(-1, n),
                            kmeans_inits(n, k, 12, seed=3)])
    labels, objective = learn._kmeans_pass(k_mat, stack, k)
    assert labels.shape == stack.shape and objective.shape == (len(stack),)
    for row, init in enumerate(stack):
        alone_labels, alone_objective = learn._kmeans_pass(k_mat, init[None], k)
        assert labels[row].tobytes() == alone_labels[0].tobytes(), row
        assert objective[row].tobytes() == alone_objective[0].tobytes(), row
        want_labels, want_objective = kmeans_run(k_mat, init, k)
        assert labels[row].tobytes() == want_labels.tobytes(), row
        assert objective[row] == pytest.approx(want_objective, rel=1e-12, abs=1e-12), row


# -- clustering accuracy --------------------------------------------------------------


def test_accuracy_exact_and_swapped():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert md.clustering_accuracy(labels, labels) == 1.0
    swapped = np.array([2, 2, 0, 0, 1, 1])
    assert md.clustering_accuracy(swapped, labels) == 1.0


def test_accuracy_relabeling_invariance():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 4, 60)
    b = rng.integers(0, 4, 60)
    base = md.clustering_accuracy(a, b)
    remap = np.array([3, 0, 2, 1])
    assert md.clustering_accuracy(remap[a], b) == base
    assert md.clustering_accuracy(a, remap[b]) == base


def test_accuracy_random_assignment_band():
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(4), 25)
    accs = [
        md.clustering_accuracy(rng.integers(0, 4, 100), labels) for _ in range(200)
    ]
    assert 0.2 <= np.mean(accs) <= 0.4


def test_accuracy_unequal_cluster_count():
    labels = np.array([0, 0, 1, 1])
    assignment = np.array([0, 1, 2, 2])
    assert md.clustering_accuracy(assignment, labels) == 0.75


# -- KNN ---------------------------------------------------------------------------------


def test_knn_separable_perfect():
    d, labels = _block_distance_matrix([15, 15], seed=7)
    assert md.knn_classify(d, labels, [3], folds=5, seed=0).mean() == 1.0


def test_knn_duplicate_at_zero_distance():
    d = np.array(
        [
            [0.0, 0.0, 9.0, 9.0],
            [0.0, 0.0, 9.0, 9.0],
            [9.0, 9.0, 0.0, 1.0],
            [9.0, 9.0, 1.0, 0.0],
        ]
    )
    labels = np.array([0, 0, 1, 1])
    assert md.knn_classify(d, labels, [1], folds=2, seed=0).mean() == 1.0


def test_knn_vote_tie_broken_by_nearest():
    # stratified 2-fold on [0,0,1,1] puts one point of each class in every
    # training set, so k=2 votes always tie; the same-class partner is nearer
    # and must win the tie for the prediction to be right
    d = np.full((4, 4), 2.0)
    d[0, 1] = d[1, 0] = 1.0
    d[2, 3] = d[3, 2] = 1.0
    np.fill_diagonal(d, 0.0)
    labels = np.array([0, 0, 1, 1])
    for seed in range(5):
        assert md.knn_classify(d, labels, [2], folds=2, seed=seed).mean() == 1.0


def test_knn_indistinguishable_classes_near_chance():
    rng = np.random.default_rng(8)
    n = 80
    noise = rng.uniform(1.0, 2.0, (n, n))
    d = (noise + noise.T) / 2
    np.fill_diagonal(d, 0.0)
    labels = np.repeat([0, 1], n // 2)
    acc = md.knn_classify(d, labels, [3], folds=10, seed=0).mean()
    assert 0.3 <= acc <= 0.7


def test_knn_deterministic():
    d, labels = _block_distance_matrix([10, 10], seed=9)
    folds_a = md.knn_classify(d, labels, [2], folds=4, seed=3)
    folds_b = md.knn_classify(d, labels, [2], folds=4, seed=3)
    assert np.array_equal(folds_a, folds_b)


def test_knn_stratification_warning():
    d, _ = _block_distance_matrix([4, 4], seed=10)
    labels = np.array([0] * 6 + [1] * 2)
    with pytest.warns(UserWarning, match="unstratified"):
        md.knn_classify(d, labels, [1], folds=4, seed=0)


def test_knn_rejects_non_finite_distances():
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="distance matrix must be finite"):
        md.knn_classify(np.full((4, 4), np.nan), labels, [1], folds=2, seed=0)
    d = np.ones((4, 4))
    d[2, 3] = d[3, 2] = np.inf
    with pytest.raises(ValueError, match="distance matrix must be finite"):
        md.knn_classify(d, labels, [1], folds=2, seed=0)


def test_knn_validation():
    d, labels = _block_distance_matrix([4, 4], seed=11)
    with pytest.raises(ValueError):
        md.knn_classify(d, labels[:-1], [1])
    with pytest.raises(md.ConfigError):
        md.knn_classify(d, labels, [0])
    with pytest.raises(md.ConfigError):
        md.knn_classify(d, labels, [1], folds=1)
    with pytest.raises(md.ConfigError, match=r"more folds \(9\) than items \(8\)"):
        md.knn_classify(d, labels, [1], folds=9)


@st.composite
def _knn_problems(draw):
    """Small symmetric distance matrices with many tied entries, 3-5 classes."""
    n = draw(st.integers(6, 24))
    classes = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 4))  # few distinct distances, so ties abound
    d = rng.integers(0, levels, (n, n)).astype(np.float64)
    d = np.triu(d, 1) + np.triu(d, 1).T
    labels = rng.integers(0, classes, n)
    folds = draw(st.integers(2, min(n, 8)))
    ks = draw(st.lists(st.integers(1, n + 3), min_size=1, max_size=6))
    return d, labels, folds, ks, draw(st.integers(0, 1000))


@settings(max_examples=300, deadline=None, database=None)
@given(_knn_problems())
def test_knn_one_pass_matches_per_query_reference(problem):
    d, labels, folds, ks, seed = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small classes make the folds unstratified
        got = md.knn_classify(d, labels, ks, folds=folds, seed=seed)
        for row, k in zip(got, ks):
            want = knn_fold_accuracies_by_query(d, labels, k, folds, seed)
            assert row.tobytes() == want.tobytes(), k


# -- argument checks -------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: md.kernel_kmeans(np.array([[1.0, 0.5], [0.4, 1.0]]), 1), ValueError,
     "kernel matrix must be symmetric"),
    (lambda: md.clustering_accuracy([0, 1], [0]), ValueError,
     "assignment and labels must have equal length"),
    (lambda: md.clustering_accuracy([], []), ValueError, "empty assignment"),
    # two folds of four items, so the folds check passes and k is the first fault
    (lambda: md.knn_classify(np.zeros((4, 4)), [0, 0, 1, 1], ks=[0], folds=2), md.ConfigError,
     "k must be positive"),
], ids=["asymmetric-kernel", "length-mismatch", "empty-assignment", "knn-k-0"])
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message
