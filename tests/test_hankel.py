import math
from fractions import Fraction

import numpy as np
import pytest

import momentdist as md
from oracles import dense_int_power, hankel_minors_by_elimination, random_graph


def test_build_cospectral_degree_one():
    m1 = md.build_moment_matrix(md.vector_state_moments(md.named_graph("C4uK1"), 2), 1)
    assert m1.entries.tolist() == [[1, 1.6], [1.6, 3.2]]
    m2 = md.build_moment_matrix(md.vector_state_moments(md.named_graph("S5"), 2), 1)
    assert m2.entries.tolist() == [[1, 1.6], [1.6, 4]]


def test_build_k4_degree_two():
    mm = md.build_moment_matrix(md.vector_state_moments(md.complete_graph(4), 4), 2)
    assert mm.entries.tolist() == [[1, 3, 9], [3, 9, 27], [9, 27, 81]]


def test_build_edgeless_degree_two():
    mm = md.build_moment_matrix(md.vector_state_moments(md.empty_graph(4), 4), 2)
    assert mm.entries.tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_build_needs_enough_moments():
    ms = md.vector_state_moments(md.complete_graph(4), 3)
    with pytest.raises(ValueError):
        md.build_moment_matrix(ms, 2)


def test_hankel_structure_random():
    g = random_graph(np.random.default_rng(0), 20, 0.3)
    ms = md.vector_state_moments(g, 8)
    mm = md.build_moment_matrix(ms, 4)
    for i in range(5):
        for j in range(5):
            assert mm.entries[i, j] == ms[i + j]


# -- rank diagnostics ----------------------------------------------------------


def test_rank_regular_graph_single_atom():
    s, dets = md.hankel_rank(md.vector_state_moments(md.complete_graph(4), 8), 4)
    assert s == 1
    assert dets[0] == 1.0
    assert np.all(dets[1:] == 0.0)  # exact collapse for integer powers


def test_rank_cospectral_union_two_atoms():
    s, _ = md.hankel_rank(md.vector_state_moments(md.named_graph("C4uK1"), 8), 4)
    assert s == 2


def test_rank_trace_counts_distinct_eigenvalues():
    # trace moments are exact rationals tr(A^k)/n; feeding them exactly makes
    # the rank equal the distinct-eigenvalue count with no threshold at all
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        eigs = np.linalg.eigvalsh(g.to_dense())
        tol = 1e-8 * max(1.0, float(np.abs(eigs).max()))
        distinct = 1 + int(np.sum(np.diff(eigs) > tol))
        exact = [
            Fraction(int(sum(dense_int_power(g, k)[i, i] for i in range(n))), n)
            for k in range(2 * n + 1)
        ]
        s, _ = md.hankel_rank(exact, n)
        assert s == distinct


def test_rank_exact_fraction_path():
    lam = [Fraction(-2), Fraction(0), Fraction(3)]
    om = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    moments = [sum(w * l**k for w, l in zip(om, lam)) for k in range(11)]
    s, dets = md.hankel_rank(moments, 5)
    assert s == 3
    assert dets[2] > 0 and np.all(dets[3:] == 0.0)


def _rank_inputs(rng):
    """Vector-state moments of random graphs, xi-state moments of random
    symmetric matrices and random exact fraction sequences, with degrees."""
    for d in range(2, 7):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 20)), rng.uniform(0.1, 0.9))
            yield md.vector_state_moments(g, 2 * d), d
    for _ in range(100):
        d, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        a = rng.normal(size=(n, n))
        xi = rng.normal(size=n)
        yield md.xi_state_moments(a + a.T, xi / np.linalg.norm(xi), 2 * d), d
    for _ in range(300):
        d = int(rng.integers(1, 7))
        yield [Fraction(int(rng.integers(-60, 60)), int(rng.integers(1, 40)))
               for _ in range(2 * d + 1)], d


def _float_of(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def test_rank_dets_are_correctly_rounded_minors():
    checked = 0
    for ms, d in _rank_inputs(np.random.default_rng(14)):
        vals = ms if isinstance(ms, list) else ms.values
        minors = hankel_minors_by_elimination(vals, d + 1)
        _, dets = md.hankel_rank(ms, d)
        assert dets.tolist() == [_float_of(m) for m in minors]
        checked += 1
    assert checked > 400


def test_rank_dets_after_an_exact_zero_minor():
    # Bareiss stops at the zero pivot; off the PSD cone a later minor need not be 0
    assert md.hankel_rank([1, 0, 0, 1, 2], 2)[1].tolist() == [1.0, 0.0, -1.0]
    rng = np.random.default_rng(15)
    nonzero_after_zero = 0
    for _ in range(400):
        d = int(rng.integers(1, 6))
        vals = [int(v) for v in rng.integers(-1, 2, size=2 * d + 1)]
        minors = hankel_minors_by_elimination(vals, d + 1)
        assert md.hankel_rank(vals, d)[1].tolist() == [float(m) for m in minors], vals
        if 0 in minors:
            nonzero_after_zero += any(minors[minors.index(0) + 1:])
    assert nonzero_after_zero > 50


def test_rank_exactness_read_off_element_types():
    vals = [Fraction(1), Fraction(0), Fraction(1, 10**30)]
    for ms in (vals, tuple(vals), np.array(vals, dtype=object)):
        assert md.hankel_rank(ms, 1)[0] == 2
    # read as float64, 1e-30 is numerically zero against m_0 = 1
    for ms in (np.array(vals, dtype=np.float64), np.array([1.0, 0.0, 1e-30], dtype=object)):
        assert md.hankel_rank(ms, 1)[0] == 1


def test_rank_dets_saturate_outside_float_range():
    big, tiny = Fraction(10**200), Fraction(1, 10**200)
    assert md.hankel_rank([big, 0, big], 1)[1].tolist() == [1e200, math.inf]
    assert md.hankel_rank([1, big, 1], 1)[1].tolist() == [1.0, -math.inf]
    assert md.hankel_rank([tiny, 0, tiny], 1)[1].tolist() == [1e-200, 0.0]
    assert md.hankel_rank([tiny, 1, tiny], 1)[1].tolist() == [1e-200, -1.0]
    assert md.hankel_rank(np.array([1e200, 0.0, 1e200]), 1)[1].tolist() == [1e200, math.inf]
    assert md.hankel_rank(np.array([1e-200, 0.0, 1e-200]), 1)[1].tolist() == [1e-200, 0.0]


def test_rank_needs_enough_moments():
    with pytest.raises(ValueError):
        md.hankel_rank(md.vector_state_moments(md.complete_graph(4), 4), 4)


# -- mixtures --------------------------------------------------------------------


def test_mix_singleton_identity():
    mm = md.moment_matrix_of_graph(md.named_graph("paw"), 2)
    assert np.array_equal(md.mix([(mm, 1.0)]).entries, mm.entries)


def test_mix_identical_copies():
    mm = md.moment_matrix_of_graph(md.cycle_graph(5), 3)
    mixed = md.mix([(mm, 0.25)] * 4)
    assert np.allclose(mixed.entries, mm.entries, rtol=1e-12)


def test_mix_union_composition():
    c4 = md.moment_matrix_of_graph(md.cycle_graph(4), 2)
    k1 = md.moment_matrix_of_graph(md.complete_graph(1), 2)
    union = md.moment_matrix_of_graph(md.named_graph("C4uK1"), 2)
    mixed = md.mix([(c4, 0.8), (k1, 0.2)])
    assert np.allclose(mixed.entries, union.entries, rtol=1e-12)


def test_mix_validation():
    a = md.moment_matrix_of_graph(md.cycle_graph(4), 2)
    b = md.moment_matrix_of_graph(md.cycle_graph(4), 3)
    with pytest.raises(ValueError):
        md.mix([(a, 0.5), (b, 0.5)])  # degree mismatch
    with pytest.raises(ValueError):
        md.mix([(a, 0.7), (a, 0.7)])  # weights off
    with pytest.raises(ValueError):
        md.mix([(a, -0.5), (a, 1.5)])
    with pytest.raises(ValueError):
        md.mix([])


def test_union_law_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        parts = [random_graph(rng, int(rng.integers(1, 50)), rng.uniform(0, 0.6))
                 for _ in range(int(rng.integers(2, 5)))]
        total = sum(g.n for g in parts)
        union_mm = md.moment_matrix_of_graph(md.disjoint_union(parts), 3)
        mixed = md.mix([(md.moment_matrix_of_graph(g, 3), g.n / total) for g in parts])
        err = np.abs(union_mm.entries - mixed.entries)
        assert np.all(err <= 1e-9 * np.maximum(1.0, np.abs(union_mm.entries)))


def test_substructure_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(1, 40)), rng.uniform(0, 0.6))
        doubled = md.disjoint_union([g, g])
        a = md.moment_matrix_of_graph(g, 4).entries
        b = md.moment_matrix_of_graph(doubled, 4).entries
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(a)))


# -- argument checks -------------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda: md.MomentMatrix(2, np.zeros((2, 2))), "entries shape does not match degree"),
    (lambda: md.build_moment_matrix([1.0, 0.0, 1.0], -1), "degree must be nonnegative"),
    (lambda: md.hankel_rank([1.0], -1), "max_d must be nonnegative"),
    (lambda: md.hankel_rank([1.0, np.inf, 1.0], 1), "moments must be finite"),
    (lambda: md.build_moment_matrix(np.array([1.0, np.nan, 1.0]), 1),
     "moment matrix entries must be finite"),
    (lambda: md.mix([(md.build_moment_matrix([1.0, 0.0, 1.0], 1), np.nan)]),
     "weights must be positive, got nan"),
    (lambda: md.mix([(md.build_moment_matrix([1.0, 0.0, 1.0], 1), np.inf)]),
     "weights must be positive, got inf"),
], ids=["entries-shape", "negative-degree", "negative-max-d", "infinite-moment",
        "nan-moment", "nan-mix-weight", "inf-mix-weight"])
def test_bad_arguments_raise(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError and str(exc.value) == message
