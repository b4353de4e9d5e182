import math

import numpy as np
import pytest

import momentdist as md
from oracles import are_isomorphic, component_count, dense_int_power, random_graph


# -- parsing ----------------------------------------------------------------


def test_parse_minimal_path():
    g = md.parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert list(g.neighbors(1)) == [0, 2]


def test_parse_one_based_shift():
    g = md.parse_edge_list("1 2\n2 3", indexing="one")
    assert g == md.parse_edge_list("0 1\n1 2")


def test_parse_auto_detects_one_based():
    g = md.parse_edge_list("1 2\n2 3", indexing="auto")
    assert g.n == 3 and g.m == 2


def test_parse_auto_keeps_zero_based():
    g = md.parse_edge_list("0 1\n1 2", indexing="auto")
    assert g.n == 3


def test_parse_duplicate_collapse():
    g = md.parse_edge_list("0 1\n0 1\n1 0")
    assert g.n == 2 and g.m == 1


def test_parse_comments_and_blanks():
    g = md.parse_edge_list("# c\n% also c\n\n0 1\n")
    assert g.m == 1


def test_parse_header_overrides_n():
    g = md.parse_edge_list("7 1\n0 1", header=True)
    assert g.n == 7 and g.m == 1


def test_parse_header_too_small_rejected():
    with pytest.raises(md.EdgeListError):
        md.parse_edge_list("2 1\n0 5", header=True)


def test_parse_malformed_token_has_line_number():
    with pytest.raises(md.EdgeListError) as exc:
        md.parse_edge_list("0 1\n0 x")
    assert exc.value.line == 2


def test_parse_three_tokens_rejected():
    with pytest.raises(md.EdgeListError):
        md.parse_edge_list("0 1 2")


def test_parse_self_loop_rejected():
    with pytest.raises(md.SelfLoopError):
        md.parse_edge_list("0 1\n2 2")


def test_parse_zero_id_under_one_based():
    with pytest.raises(md.EdgeListError):
        md.parse_edge_list("0 1", indexing="one")


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    g = random_graph(rng, 12, 0.4)
    path = tmp_path / "g.txt"
    md.write_edge_list(g, path)
    assert md.load_edge_list(path) == g


# -- canonical form ----------------------------------------------------------


def test_canonical_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(0, 15)), rng.uniform(0, 1))
        g.validate()
        assert int(g.degrees.sum()) == 2 * g.m


def test_operations_preserve_canonical_form():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(1, 12))
        g = random_graph(rng, n, 0.4)
        h = random_graph(rng, int(rng.integers(1, 12)), 0.4)
        md.permute(g, md.Permutation.random(n, rng.integers(2**32))).validate()
        md.disjoint_union([g, h]).validate()
        md.complement(g).validate()


def test_recanonicalization_noop():
    g = md.named_graph("paw")
    again = md.Graph.from_edges(g.n, list(g.edges()))
    assert again == g


def test_self_loop_in_from_edges():
    with pytest.raises(md.SelfLoopError):
        md.Graph.from_edges(3, [(0, 0)])


# -- disjoint union ----------------------------------------------------------


def test_union_c4_k1_is_fig1_graph():
    g = md.disjoint_union([md.cycle_graph(4), md.complete_graph(1)])
    assert g.n == 5 and g.m == 4
    assert g == md.named_graph("C4uK1")


def test_union_with_empty_graph_is_identity():
    g = md.named_graph("paw")
    assert md.disjoint_union([g, md.empty_graph(0)]) == g


def test_union_two_triangles():
    g = md.disjoint_union([md.complete_graph(3), md.complete_graph(3)])
    assert g.n == 6 and g.m == 6
    assert component_count(g) == 2


def test_union_commutative_up_to_iso():
    a, b = md.named_graph("paw"), md.path_graph(3)
    assert are_isomorphic(md.disjoint_union([a, b]), md.disjoint_union([b, a]))


def test_union_associative():
    a, b, c = md.named_graph("claw"), md.cycle_graph(3), md.path_graph(2)
    left = md.disjoint_union([md.disjoint_union([a, b]), c])
    right = md.disjoint_union([a, md.disjoint_union([b, c])])
    assert left == right == md.disjoint_union([a, b, c])


def test_union_degree_multiset_additive():
    a, b = md.named_graph("claw"), md.cycle_graph(5)
    u = md.disjoint_union([a, b])
    assert sorted(u.degrees) == sorted(list(a.degrees) + list(b.degrees))


def test_union_empty_list_rejected():
    with pytest.raises(ValueError):
        md.disjoint_union([])


# -- permutation -------------------------------------------------------------


def test_permute_identity():
    g = md.path_graph(3)
    assert md.permute(g, md.Permutation.identity(3)) == g


def test_permute_star_degree_multiset():
    g = md.star_graph(5)
    p = md.Permutation.random(5, seed=3)
    assert sorted(md.permute(g, p).degrees) == [1, 1, 1, 1, 4]


def test_permute_cycle_reversal_isomorphic():
    g = md.cycle_graph(4)
    rev = md.Permutation(np.array([3, 2, 1, 0]))
    assert are_isomorphic(md.permute(g, rev), g)


def test_permute_length_mismatch():
    with pytest.raises(ValueError):
        md.permute(md.path_graph(3), md.Permutation.identity(4))


def test_permutation_not_bijection():
    with pytest.raises(ValueError):
        md.Permutation(np.array([0, 0, 2]))


def test_permutation_inverse():
    p = md.Permutation.random(8, seed=5)
    q = p.inverse()
    assert np.array_equal(q.map[p.map], np.arange(8))


# -- named graphs ------------------------------------------------------------


def test_named_complete_by_params():
    g = md.named_graph("K", 4)
    assert g.m == 6 and set(g.degrees) == {3}


def test_named_claw_degrees():
    g = md.named_graph("claw")
    assert sorted(g.degrees) == [1, 1, 1, 3]
    assert g == md.complete_bipartite_graph(1, 3)


def test_named_co_paw_is_complement_of_paw():
    paw = md.named_graph("paw")
    brute = md.Graph.from_edges(
        4,
        [(i, j) for i in range(4) for j in range(i + 1, 4) if not paw.has_edge(i, j)],
    )
    assert md.named_graph("co-paw") == brute
    assert are_isomorphic(brute, md.disjoint_union([md.path_graph(3), md.empty_graph(1)]))


def test_named_compound_forms():
    assert md.named_graph("2K2").m == 2
    assert md.named_graph("4K1") == md.empty_graph(4)
    assert md.named_graph("C4uK1").n == 5
    assert md.named_graph("K2,3") == md.complete_bipartite_graph(2, 3)
    assert md.named_graph("S5") == md.star_graph(5)


def test_named_unknown():
    with pytest.raises(md.UnknownGraphNameError):
        md.named_graph("zorp")


# -- generator ---------------------------------------------------------------


def test_rewired_rho_zero_is_cycle():
    g = md.generate_rewired(10, 10, 0.0, seed=0)
    assert g == md.cycle_graph(10)


def test_rewired_determinism():
    a = md.generate_rewired(1000, 10000, 0.1, seed=42)
    b = md.generate_rewired(1000, 10000, 0.1, seed=42)
    assert a == b


def test_rewired_exact_counts():
    g = md.generate_rewired(50, 150, 0.7, seed=9)
    assert g.n == 50 and g.m == 150


def test_rewired_rho_zero_regular():
    for nv, ne in [(10, 10), (12, 24), (9, 27)]:
        g = md.generate_rewired(nv, ne, 0.0, seed=1)
        assert set(g.degrees) == {2 * (ne // nv)}


def test_rewired_degree_variance_grows_with_rho():
    lo, hi = [], []
    for seed in range(25):
        lo.append(md.generate_rewired(1000, 10000, 0.1, seed).degrees.var())
        hi.append(md.generate_rewired(1000, 10000, 0.9, seed).degrees.var())
    assert np.mean(hi) > np.mean(lo)


def test_rewired_infeasible():
    with pytest.raises(ValueError):
        md.generate_rewired(10, 15, 0.5, seed=0)
    with pytest.raises(ValueError):
        md.generate_rewired(10, 10, 1.5, seed=0)
    with pytest.raises(ValueError):
        md.generate_rewired(4, 8, 0.0, seed=0)  # lattice needs nv >= 2c+1


# -- diameter ----------------------------------------------------------------


def test_diameter_examples():
    assert md.diameter(md.cycle_graph(4)) == 2
    assert md.diameter(md.complete_graph(4)) == 1
    assert md.diameter(md.named_graph("C4uK1")) == math.inf
    assert md.diameter(md.path_graph(5)) == 4
    assert md.diameter(md.complete_graph(1)) == 0


# -- walk counts ---------------------------------------------------------------


def test_walk_count_length_zero():
    g = md.named_graph("paw")
    assert md.walk_count(g, 1, 1, 0) == 1
    assert md.walk_count(g, 1, 2, 0) == 0


def test_walk_count_triangle():
    g = md.complete_graph(3)
    assert md.walk_count(g, 0, 0, 2) == 2


def test_walk_count_path_parity():
    g = md.path_graph(3)
    assert md.walk_count(g, 0, 2, 3) == 0


def test_walk_count_matches_dense_powers():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 7)), 0.5)
        for k in range(5):
            p = dense_int_power(g, k)
            for i in range(g.n):
                for j in range(g.n):
                    assert md.walk_count(g, i, j, k) == p[i, j]
