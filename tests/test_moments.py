import numpy as np
import pytest

import momentdist as md
from oracles import random_graph, walk_count


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


def _closed_walk_moments(g, order):
    # integer closed-walk counts over n from int64 dense matrix powers
    a = g.to_dense().astype(np.int64)
    power = np.eye(g.n, dtype=np.int64)
    moments = [1.0]
    for _ in range(order):
        power = power @ a
        moments.append(int(np.trace(power)) / g.n)
    return moments


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
