import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
import scipy.sparse

import momentdist as md
from momentdist.moments import _column_block, _vector_state
from oracles import chung_lu_graph, exact_walk_sums, random_graph, step_chain_moments, walk_count
from test_acceptance import DESK_SETTINGS, TABLE4V_NAMES


# -- uniform vector state ------------------------------------------------------


def test_vector_moments_cospectral_pair():
    assert md.vector_state_moments(md.named_graph("C4uK1"), 2).values.tolist() == [1, 1.6, 3.2]
    assert md.vector_state_moments(md.named_graph("S5"), 2).values.tolist() == [1, 1.6, 4]


def test_vector_moments_regular_powers():
    ms = md.vector_state_moments(md.complete_graph(4), 3)
    assert ms.values.tolist() == [1, 3, 9, 27]


def test_vector_moments_edgeless():
    ms = md.vector_state_moments(md.empty_graph(6), 4)
    assert ms.values.tolist() == [1, 0, 0, 0, 0]


def test_vector_moments_empty_graph_rejected():
    with pytest.raises(md.EmptyGraphError):
        md.vector_state_moments(md.empty_graph(0), 2)


def test_vector_moment_m1_is_mean_degree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 40)), rng.uniform(0, 0.8))
        ms = md.vector_state_moments(g, 2)
        assert ms[1] == pytest.approx(2 * g.m / g.n, abs=1e-12)
        assert g.n * ms[2] == pytest.approx(float((g.degrees**2).sum()), abs=1e-9)


def test_walk_sum_semantics_exact():
    rng = np.random.default_rng(1)
    for _ in range(8):
        g = random_graph(rng, int(rng.integers(2, 7)), 0.5)
        ms = md.vector_state_moments(g, 4)
        for k in range(5):
            total = sum(
                walk_count(g, i, j, k) for i in range(g.n) for j in range(g.n)
            )
            assert g.n * ms[k] == total  # integer-valued, exact in float64


def test_regular_graph_eigenvector_law_exact():
    for g, d in [(md.complete_graph(4), 3), (md.cycle_graph(10), 2),
                 (md.complete_bipartite_graph(3, 3), 3)]:
        ms = md.vector_state_moments(g, 6)
        for k in range(7):
            assert ms[k] == float(d**k)


# -- trace state ----------------------------------------------------------------


def test_trace_moments_cospectral_agree_exactly():
    a = md.trace_moments(md.named_graph("C4uK1"), 5)
    b = md.trace_moments(md.named_graph("S5"), 5)
    assert np.array_equal(a.values, b.values)


def test_trace_moments_triangle_closed_walks():
    g = md.complete_graph(3)
    ms = md.trace_moments(g, 3)
    oracle = sum(walk_count(g, i, i, 3) for i in range(3)) / 3
    assert ms[3] == oracle == 2


def test_trace_moments_edgeless():
    assert md.trace_moments(md.empty_graph(4), 3).values.tolist() == [1, 0, 0, 0]


@pytest.mark.parametrize("moments", [md.vector_state_moments, md.trace_moments])
def test_overflowing_moments_rejected(moments):
    # walk counts near 59**k pass float64's maximum at k = 174-175; that order is reported
    with pytest.raises(md.NonFiniteMomentError, match="order 17[0-9]"):
        moments(md.complete_graph(60), 200)
    with pytest.raises(md.ConfigError):
        moments(md.complete_graph(4), -1)


@pytest.mark.parametrize("name, vector_order, trace_order",
                         [("K60,60", 173, 174), ("K60uK1", 174, 175)])
def test_first_overflowing_order_pinned(chain_products, name, vector_order, trace_order):
    # the first order whose walk count passes float64's maximum is named, also
    # where a full chain's later inner products would read 0 * inf = NaN: the
    # closed walks of a bipartite graph alternate sides, so past order 349 of
    # K60,60 an overflowed entry meets a zero
    g = md.named_graph(name)
    for moments, order in ((md.vector_state_moments, vector_order),
                           (md.trace_moments, trace_order)):
        with pytest.raises(md.NonFiniteMomentError, match=f"order {order} "):
            moments(g, 400)
    # each chain stops at its first overflow, not at order 400: ceil(k/2)
    # products reach a walk sum of order k, and trace order k is one block's
    # walk sum of order k - 2; that block spans A, so it is the dense operator
    assert chain_products == ([scipy.sparse.csr_matrix] * ((vector_order + 1) // 2)
                              + [np.ndarray] * ((trace_order - 1) // 2))


def _int_closed_walks(g, order):
    # integer closed-walk counts tr(A^k) from int64 matrix powers
    a = scipy.sparse.csr_matrix(g.to_dense().astype(np.int64))
    power = np.eye(g.n, dtype=np.int64)
    traces = [g.n]
    for _ in range(order):
        power = a @ power
        traces.append(int(np.trace(power)))
    return traces


def _closed_walk_moments(g, order):
    return [t / g.n for t in _int_closed_walks(g, order)]


def test_trace_moments_dense_paths_agree():
    # one block of identity columns: bit-equal to the dense integer powers,
    # and within roundoff of the eigenvalue power sums
    g = random_graph(np.random.default_rng(2), 40, 0.2)
    ms = md.trace_moments(g, 7)
    assert ms.values.tolist() == _closed_walk_moments(g, 7)
    eig = np.linalg.eigvalsh(g.to_dense())
    power_sums = [np.mean(eig**k) for k in range(8)]
    assert np.allclose(ms.values, power_sums, rtol=1e-10)


def test_trace_moments_blocked_path_matches():
    # n = 300 spans two blocks of 256 columns; counts stay exact across them
    g = random_graph(np.random.default_rng(3), 300, 0.05)
    assert md.trace_moments(g, 7).values.tolist() == _closed_walk_moments(g, 7)


def test_spectra_from_matching_trace_moments():
    # graphs whose trace moments agree through k = n have identical spectra
    pairs = [
        (md.named_graph("C4uK1"), md.named_graph("S5")),
        (md.named_graph("paw"), md.permute(md.named_graph("paw"), md.Permutation.random(4, 7))),
    ]
    for a, b in pairs:
        ta = md.trace_moments(a, a.n)
        tb = md.trace_moments(b, b.n)
        assert np.allclose(ta.values[1:], tb.values[1:], atol=1e-12)
        ea = np.sort(np.linalg.eigvalsh(a.to_dense()))
        eb = np.sort(np.linalg.eigvalsh(b.to_dense()))
        assert np.allclose(ea, eb, atol=1e-8)


# -- walk sums against the per-step chains and exact counts -------------------------


@pytest.fixture(scope="module")
def desk_corpora():
    return [md.make_rewired_corpus(DESK_SETTINGS, seed=seed)[0] for seed in range(5)]


def test_walk_sums_match_step_chains_on_desk_corpus(desk_corpora):
    # every walk count stays below 2**53 here, so the bytes agree
    for gs in desk_corpora:
        for g in gs:
            assert (md.vector_state_moments(g, 8).values.tobytes()
                    == step_chain_moments(g, 8, "vector").tobytes())
            assert (md.trace_moments(g, 7).values.tobytes()
                    == step_chain_moments(g, 7, "trace").tobytes())


@pytest.mark.parametrize("name", TABLE4V_NAMES)
def test_walk_sums_match_step_chains_on_four_vertex_graphs(name):
    g = md.named_graph(name)
    for order in range(13):
        assert (md.vector_state_moments(g, order).values.tobytes()
                == step_chain_moments(g, order, "vector").tobytes())
        assert (md.trace_moments(g, order).values.tobytes()
                == step_chain_moments(g, order, "trace").tobytes())


def test_walk_sums_past_2_53_stay_within_roundoff(desk_corpora):
    # at order 14 the desk corpus's walk sums pass 2**53, so float64 rounds them
    tol = Fraction(1e-15)
    for gs in desk_corpora[:3]:
        for g in gs:
            got = md.vector_state_moments(g, 14).values
            for k, count in enumerate(exact_walk_sums(g, 14)):
                want = Fraction(count, g.n)
                assert abs(Fraction(got[k]) - want) <= tol * want, (k, got[k])


def test_heavy_tailed_walk_sums_exact_below_2_53():
    # hubs of degree about 730 take the walk sums past 2**53 at order 8 (order 14
    # on the desk corpus): below it the moments are exact, from it within roundoff
    for g in (chung_lu_graph(seed) for seed in range(3)):
        sums = exact_walk_sums(g, 12)
        first = next(k for k, count in enumerate(sums) if count > 2**53)
        assert first == 8
        got = md.vector_state_moments(g, 12).values
        assert got[:first].tolist() == [count / g.n for count in sums[:first]]
        for k in range(first, 13):
            want = Fraction(sums[k], g.n)
            assert abs(Fraction(got[k]) - want) <= Fraction(1e-14) * want, k


def _on_sparse_chain(monkeypatch, g, extract):
    """``extract(g)`` with every walk-sum chain run on A's CSR, as it is above one block."""
    walk_sums = md.moments._walk_sums
    with monkeypatch.context() as patch:
        patch.setattr(md.moments, "_walk_sums",
                      lambda a, w, order: walk_sums(g.to_csr(), w, order))
        return extract(g)


_TRACE_FEATURES = (lambda g: md.nclm_vector(g).values, lambda g: md.trace_moments(g, 12).values)


def test_dense_chain_matches_sparse_chain_on_desk_corpus(desk_corpora, monkeypatch):
    # one block spans these 200-vertex graphs, so the chain is dense; every
    # product is an integer walk count, so the summation order moves no bit
    for gs in desk_corpora[:3]:
        for g in gs:
            for extract in _TRACE_FEATURES:
                assert extract(g).tobytes() == _on_sparse_chain(monkeypatch, g, extract).tobytes()


def test_complete_graph_traces_past_2_53_within_roundoff(monkeypatch):
    # tr(A^k) of K60 is 59**k + 59 * (-1)**k; past 2**53 (order 10 on) both chains round it
    def extract(x):
        return md.trace_moments(x, 40).values

    g = md.complete_graph(60)
    for got in (extract(g), _on_sparse_chain(monkeypatch, g, extract)):
        for k in range(41):
            want = Fraction(59**k + 59 * (-1) ** k, 60)
            assert abs(Fraction(got[k]) - want) <= Fraction(1.2e-14) * want, k


def _boundary_graphs():
    # one to three blocks of 256 columns, then isolated vertices in a second block
    for n in (255, 256, 257, 513):
        yield f"rewired{n}", md.generate_rewired(n, 3 * n, 0.5, seed=n)
    yield "rewired250u7K1", md.disjoint_union([md.generate_rewired(250, 750, 0.5, seed=1),
                                               md.empty_graph(7)])
    yield "K3u2K1", md.named_graph("K3u2K1")
    yield "edgeless300", md.empty_graph(300)
    yield "edgeless3", md.empty_graph(3)


_BOUNDARY_GRAPHS = dict(_boundary_graphs())


@pytest.mark.parametrize("label", list(_BOUNDARY_GRAPHS))
def test_closed_walks_across_block_boundaries(label):
    g = _BOUNDARY_GRAPHS[label]
    traces = _int_closed_walks(g, 7)
    assert md.trace_moments(g, 7).values.tolist() == [t / g.n for t in traces]
    triangles = traces[3] // 6
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(g.n))
    nx_graph.add_edges_from(g.edge_array().tolist())
    assert sum(nx.triangles(nx_graph).values()) == 3 * triangles
    assert md.graphlet3_distribution(g)[3] == triangles / (g.n * (g.n - 1) * (g.n - 2) // 6)


@pytest.mark.parametrize("label", list(_BOUNDARY_GRAPHS))
def test_column_blocks_match_densified_row_slices(label):
    # the reference: scipy's slice of A's rows, transposed and densified
    a = _BOUNDARY_GRAPHS[label].to_csr()
    n = a.shape[0]
    for start in range(0, n, 256):
        want = a[start : start + 256].T.toarray(order="C")
        got = _column_block(a, start, min(start + 256, n))
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class _CountingOperator:
    """A walk-sum chain's operator that records each of its products, sparse or dense."""

    def __init__(self, a, products):
        self.a, self.products = a, products

    def __matmul__(self, w):
        self.products.append(type(self.a))
        return self.a @ w


@pytest.fixture
def chain_products(monkeypatch):
    """A list that gets the operator's type for every product of a walk-sum chain."""
    products = []
    walk_sums = md.moments._walk_sums
    monkeypatch.setattr(md.moments, "_walk_sums", lambda a, w, order: walk_sums(
        _CountingOperator(a, products), w, order))
    return products


def test_walk_sums_use_half_the_products(chain_products, monkeypatch):
    # gk3 takes the block chain only above the dense switch
    monkeypatch.setattr(md.baselines, "DENSE_EIG_N", 512)
    g = md.generate_rewired(513, 1539, 0.5, seed=2)
    for d in range(8):
        chain_products.clear()
        md.vector_state_moments(g, 2 * d)
        assert len(chain_products) == d
    blocks = 3  # of 256 columns: 256, 256 and 1
    chain_products.clear()
    md.trace_moments(g, 7)
    assert chain_products == [scipy.sparse.csr_matrix] * 3 * blocks  # above one block, sparse
    chain_products.clear()
    md.graphlet3_distribution(g)
    assert len(chain_products) == blocks


# -- general vector states -------------------------------------------------------


def test_xi_moments_example_matrix():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([-1.0, 1.0]) / np.sqrt(2)
    mp = md.xi_state_moments(a, plus, 5)
    mm = md.xi_state_moments(a, minus, 5)
    for k in range(6):
        assert mp[k] == pytest.approx(3.0**k, rel=1e-12)
        assert mm[k] == pytest.approx(1.0, rel=1e-12)


def test_xi_moments_eigenvector_powers():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    a = (a + a.T) / 2
    w, u = np.linalg.eigh(a)
    ms = md.xi_state_moments(a, u[:, 2], 6)
    for k in range(7):
        assert ms[k] == pytest.approx(w[2] ** k, rel=1e-9, abs=1e-9)


def test_xi_moments_rejects_bad_inputs():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        md.xi_state_moments(a, np.array([1.0, 1.0]), 2)  # not unit
    with pytest.raises(ValueError):
        md.xi_state_moments(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]), 2)


def test_vector_state_check_allocates_one_temporary():
    # the symmetry test needs one n-by-n difference, not a second for its absolute value
    a = md.generate_rewired(1000, 10000, 0.5, seed=0).to_dense()
    xi = np.full(1000, 1 / np.sqrt(1000))
    tracemalloc.start()
    try:
        _vector_state(a, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * a.nbytes


# -- density states ---------------------------------------------------------------


def test_density_reduces_to_trace():
    g = md.named_graph("paw")
    dm = md.density_state_moments(g, md.DensityParams(1 / 4, 0.0), 5)
    assert np.allclose(dm.values, md.trace_moments(g, 5).values, rtol=1e-12)


def test_density_reduces_to_vector():
    g = md.named_graph("paw")
    dm = md.density_state_moments(g, md.DensityParams(0.0, 1 / 4), 5)
    assert np.allclose(dm.values, md.vector_state_moments(g, 5).values, rtol=1e-12)


def test_density_separates_cospectral_iff_q_nonzero():
    c4k1, s5 = md.named_graph("C4uK1"), md.named_graph("S5")
    mixed = md.DensityParams(p=0.15, q=0.05)  # 5*(p+q)=1
    a = md.density_state_moments(c4k1, mixed, 4)
    b = md.density_state_moments(s5, mixed, 4)
    assert not np.allclose(a.values, b.values)
    pure = md.DensityParams(1 / 5, 0.0)
    assert np.array_equal(
        md.density_state_moments(c4k1, pure, 4).values,
        md.density_state_moments(s5, pure, 4).values,
    )


def test_density_params_validation():
    with pytest.raises(ValueError):
        md.DensityParams(0.5, 0.5).check(5)  # n(p+q) = 5
    with pytest.raises(ValueError):
        md.DensityParams(-0.1, 0.3).check(5)
    with pytest.raises(ValueError):
        md.DensityParams(0.9, -0.7).check(5)  # p + qn < 0


# -- invariants ---------------------------------------------------------------------


def test_permutation_invariance_all_states():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 200))
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        p = md.Permutation.random(n, rng.integers(2**32))
        h = md.permute(g, p)
        for extract in (
            lambda x: md.vector_state_moments(x, 8).values,
            lambda x: md.trace_moments(x, 8).values,
            lambda x: md.density_state_moments(x, md.DensityParams(0.5 / n, 0.5 / n), 8).values,
        ):
            a, b = extract(g), extract(h)
            assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(a)))


def test_moment_inequalities_prop_314():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(2, 100))
        g = random_graph(rng, n, rng.uniform(0.02, 0.6))
        ms = md.vector_state_moments(g, 16).values
        degs = g.degrees.astype(np.float64)
        dmax = float(degs.max())

        def le(lhs, rhs):
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs)), (trial, lhs, rhs)

        for k in range(1, 5):
            le(ms[k], float((degs**k).sum()) / n)
            le(ms[k], dmax**k)
            le(ms[1] ** k, ms[k])
        for k in range(2, 5):
            le(ms[k], 2 * ms[1] * dmax ** (k - 1))
        for a in range(5):
            for b in range(5):
                le(ms[2 * a + b] * ms[b], ms[2 * a + 2 * b])
                le(ms[a + b] ** 2, ms[2 * a] * ms[2 * b])


def test_moment_sequence_hankel_psd():
    rng = np.random.default_rng(8)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(1, 60)), rng.uniform(0, 0.7))
        ms = md.vector_state_moments(g, 8)
        mm = md.build_moment_matrix(ms, 4)
        bound = -1e-8 * np.linalg.norm(mm.entries)
        assert np.linalg.eigvalsh(mm.entries)[0] >= bound


# -- argument checks -------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: md.xi_state_moments(np.zeros(3), np.ones(3) / np.sqrt(3), 2), ValueError,
     "matrix must be square"),
    (lambda: md.xi_state_moments(np.zeros((2, 2)), np.array([1.0]), 2), ValueError,
     "state vector length must match matrix size"),
    (lambda: md.xi_state_moments(np.zeros((1, 1)), np.array([1.0]), -1), md.ConfigError,
     "order must be nonnegative"),
    (lambda: md.xi_state_moments(np.full((2, 2), np.nan), np.array([1.0, 0.0]), 2),
     ValueError, "matrix entries must be finite"),
    (lambda: md.xi_state_moments(np.eye(2), np.array([np.nan, 0.0]), 2), ValueError,
     "state vector entries must be finite"),
    (lambda: md.xi_state_moments(np.array([[0.0, 1e200], [1e200, 0.0]]), np.array([1.0, 0.0]),
                                 4),
     md.NonFiniteMomentError, "moment of order 2 is not finite in float64; lower the order"),
    (lambda: md.xi_state_moments(np.array([[0.0, 1e308], [-1e308, 0.0]]),
                                 np.array([1.0, 0.0]), 2),
     ValueError, "matrix is not symmetric within 1e-10"),
    (lambda: md.DensityParams(0.5, 0.5).check(0), md.EmptyGraphError,
     "density state needs at least one vertex"),
    (lambda: md.density_state_moments(md.complete_graph(4), md.DensityParams(np.nan, np.nan),
                                      3),
     ValueError, "n*(p+q) must equal 1, got nan"),
], ids=["xi-not-square", "xi-state-length", "xi-negative-order", "xi-nan-matrix",
        "xi-nan-state", "xi-overflow", "xi-asymmetry-overflows", "density-no-vertex",
        "density-nan"])
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message
