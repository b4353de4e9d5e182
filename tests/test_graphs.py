import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import momentdist as md
from oracles import (
    are_isomorphic,
    component_count,
    csr_by_neighbor_sets,
    dense_int_power,
    generate_rewired_by_draws,
    has_edge,
    named_graph_by_splits,
    neighbors,
    one_of,
    parse_edge_list_by_lines,
    random_graph,
    validate_graph,
    walk_count,
    write_edge_list,
)


# -- parsing ----------------------------------------------------------------


def test_parse_minimal_path():
    g = md.parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert list(neighbors(g, 1)) == [0, 2]


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


# Each bad input under indexing zero, one and auto: the exception class, its
# message and its .line as the line-loop parser reported them, or the graph
# where the input is valid under that indexing.
_BAD_EDGE_LISTS = {
    "non-integer": ("0 1\n1 x\n", False, dict.fromkeys(
        ("zero", "one", "auto"), (md.EdgeListError, "line 2: non-integer token in '1 x'", 2))),
    "one-token": ("0 1\n# c\n2\n", False, dict.fromkeys(
        ("zero", "one", "auto"), (md.EdgeListError, "line 3: expected two integer tokens, got 1", 3))),
    "three-tokens": ("0 1\n1 2 3\n", False, dict.fromkeys(
        ("zero", "one", "auto"), (md.EdgeListError, "line 2: expected two integer tokens, got 3", 2))),
    "negative-id": ("1 2\n\n-1 2\n", False, dict.fromkeys(
        ("zero", "one", "auto"), (md.EdgeListError, "line 3: negative vertex id", 3))),
    "self-loop": ("1 2\n2 3\n3 3\n", False, {
        "zero": (md.SelfLoopError, "line 3: self-loop 3 3 rejected", 3),
        "one": (md.SelfLoopError, "line 3: self-loop 2 2 rejected", 3),
        "auto": (md.SelfLoopError, "line 3: self-loop 2 2 rejected", 3)}),
    "zero-id-one-based": ("1 2\n2 3\n0 4\n", False, {
        "zero": md.Graph.from_edges(5, [(1, 2), (2, 3), (0, 4)]),
        "one": (md.EdgeListError, "line 3: vertex id 0 under one-based indexing", 3),
        "auto": md.Graph.from_edges(5, [(1, 2), (2, 3), (0, 4)])}),
    "negative-header": ("# h\n-3 2\n0 1\n", True, dict.fromkeys(
        ("zero", "one", "auto"), (md.EdgeListError, "line 2: header counts must be nonnegative", 2))),
    "header-below-max-id": ("3 2\n1 2\n2 5\n", True, {
        "zero": (md.EdgeListError, "header n=3 smaller than max vertex id 5", None),
        "one": (md.EdgeListError, "header n=3 smaller than max vertex id 4", None),
        "auto": (md.EdgeListError, "header n=3 smaller than max vertex id 4", None)}),
    "header-no-data": ("# only\n\n", True, dict.fromkeys(
        ("zero", "one", "auto"), (md.EdgeListError, "header requested but no data lines found", None))),
    "id-above-int64": ("0 1\n99999999999999999999 1\n", False, dict.fromkeys(
        ("zero", "one", "auto"),
        (md.EdgeListError, "line 2: integer 99999999999999999999 does not fit in int64", 2))),
    # ids past MAX_VERTICES - 1 would wrap the int64 edge codes u*n+v
    "id-int64-max": ("0 1\n9223372036854775807 1\n", False, {
        "zero": (md.EdgeListError, "line 2: vertex count 9223372036854775808 exceeds 3037000499, "
                 "the most whose edge codes fit in int64", 2),
        "one": (md.EdgeListError, "line 1: vertex id 0 under one-based indexing", 1),
        "auto": (md.EdgeListError, "line 2: vertex count 9223372036854775808 exceeds 3037000499, "
                 "the most whose edge codes fit in int64", 2)}),
    "id-18-digits": ("0 1\n2 3\n100000000000000000 1\n4 5\n", False, dict.fromkeys(
        ("zero", "auto"),
        (md.EdgeListError, "line 3: vertex count 100000000000000001 exceeds 3037000499, "
         "the most whose edge codes fit in int64", 3)) | {
        "one": (md.EdgeListError, "line 1: vertex id 0 under one-based indexing", 1)}),
    # not ASCII, so only the line loop reads it
    "non-ascii-comment": ("# café\n0 1\n1 2\n", False, {
        "zero": md.Graph.from_edges(3, [(0, 1), (1, 2)]),
        "one": (md.EdgeListError, "line 2: vertex id 0 under one-based indexing", 2),
        "auto": md.Graph.from_edges(3, [(0, 1), (1, 2)])}),
    "header-above-max": ("3037000500 1\n1 2\n", True, dict.fromkeys(
        ("zero", "one", "auto"),
        (md.EdgeListError, "vertex count 3037000500 exceeds 3037000499, "
         "the most whose edge codes fit in int64", None))),
}


@pytest.mark.parametrize("indexing", ["zero", "one", "auto"])
@pytest.mark.parametrize("case", list(_BAD_EDGE_LISTS))
def test_parse_error_contract(case, indexing):
    text, header, expected = _BAD_EDGE_LISTS[case]
    if isinstance(expected[indexing], md.Graph):
        assert md.parse_edge_list(text, indexing=indexing, header=header) == expected[indexing]
        return
    cls, message, line = expected[indexing]
    with pytest.raises(md.EdgeListError) as exc:
        md.parse_edge_list(text, indexing=indexing, header=header)
    assert type(exc.value) is cls
    assert str(exc.value) == message
    assert exc.value.line == line


@st.composite
def _edge_list_texts(draw):
    """Small edge lists; half of them only plain decimal pairs, the rest with odd forms."""
    odd = draw(st.booleans())
    # small ids, and tokens of 1-18 digits (leading zeros too) for the word reads
    token = st.one_of(st.integers(0, 9).map(str), st.text("0123456789", min_size=1, max_size=18))
    if odd:
        token = st.one_of(token, st.sampled_from(["007", "+3", "-1", "1.0", "x", "00", "1_0"]))
    sep = st.sampled_from([" ", "\t", "  ", " \t ", "    "])
    pad = st.sampled_from(["", " ", "\t"])
    data = st.builds(lambda p, a, s, b, q: p + a + s + b + q, pad, token, sep, token, pad)
    kinds = [data, data, st.sampled_from(["", "  ", "# comment 1 2", "% note", " \t# indented"])]
    if odd:
        kinds += [data.map(lambda line: line + " # remark"), token,
                  st.builds(lambda a, b, c: f"{a} {b} {c}", token, token, token)]
    lines = draw(st.lists(one_of(*kinds), max_size=10))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None, database=None)
@given(_edge_list_texts(), st.sampled_from(["zero", "one", "auto"]), st.booleans())
# the cases the bulk reader's row-level line check decides: a lone token per
# line, three or four tokens on a line, blank and whitespace-only lines
# between rows, CRLF endings, no final newline
@example("1\n2\n", "zero", False)
@example("1 2 3\n4 5 6\n", "auto", False)
@example("1 2 3 4\n", "zero", False)
@example("0 1\n\n  \n\t \r\n1 2\n \n2 3\n", "zero", False)
@example("3 2\n\t\n1 2\n", "one", True)
@example("1 2\r\n2 3\r\n\r\n3 1\r\n", "auto", False)
@example("0 1\n1 2", "zero", False)
@example("1 2\r\n2 2", "auto", False)
# token gaps the row check settles by their end bytes or searches: each of
# " \t ", " \n ", "\t\r\n\t" and "  \n\n  " inside a row and between rows
@example("0 \t 1\n1 2\n", "zero", False)
@example("0 1 \t 1 2\n", "zero", False)
@example("0 \n 1\n1 2\n", "zero", False)
@example("0 1 \n 1 2\n", "zero", False)
@example("0\t\r\n\t1\n", "zero", False)
@example("0 1\t\r\n\t1 2\n", "zero", False)
@example("0  \n\n  1\n", "zero", False)
@example("5 2  \n\n  1 2  \n\n  2 3\n", "auto", True)
# gaps of four and five blanks: settled by their inner bytes, or searched
@example("0    1\n1 2\n", "zero", False)
@example("0 1    1 2\n", "zero", False)
@example("0  \n 1\n1 2\n", "zero", False)
@example("0  \n  1\n1 2\n", "zero", False)
# token values at the word edges: 8, 9, 16, 17 and 18 digits, the largest
# token, leading zeros, long tokens at byte 0 and at the end of the text
@example("12345678 87654321\n", "zero", False)
@example("123456789 987654321\n", "zero", False)
@example("1234567890123456 6543210987654321\n", "zero", False)
@example("12345678901234567 76543210987654321\n", "zero", False)
@example("123456789012345678 876543210987654321\n", "zero", False)
@example("999999999999999999 0\n", "zero", False)
@example("999999999999999999 0\n", "zero", True)
@example("000000000000000001 000000009\n00000002 000000000000000003\n", "auto", False)
@example("1 2\n3 123456789012345678", "zero", False)
# a 19-digit token: the line loop reads it
@example("0 1\n1000000000000000000 1\n", "zero", False)
def test_parse_matches_line_loop(text, indexing, header):
    try:
        rows, _, header_n = md.graphs._read_lines(text, header)
    except md.EdgeListError:
        pass
    else:
        if (parsed := md.graphs._decimal_rows(text, header)) is not None:
            assert np.array_equal(parsed[0], rows) and parsed[2] == header_n
        # a graph on an id from 2**16 up to MAX_VERTICES is too large to build
        # here; past it, both parsers refuse the vertex count
        largest = max([*rows.ravel().tolist(), *[header_n] * header], default=0)
        if 2**16 <= largest <= md.graphs.MAX_VERTICES:
            return
    try:
        want = parse_edge_list_by_lines(text, indexing=indexing, header=header)
    except md.EdgeListError as expected:
        with pytest.raises(md.EdgeListError) as exc:
            md.parse_edge_list(text, indexing=indexing, header=header)
        assert type(exc.value) is type(expected)
        assert (str(exc.value), exc.value.line) == (str(expected), expected.line)
    else:
        assert md.parse_edge_list(text, indexing=indexing, header=header) == want


def test_parse_non_ascii_comment_stays_bulk(monkeypatch):
    text = "% réseau\n1 2\n# ünïcode\n2 3\n"
    want = parse_edge_list_by_lines(text)

    def line_loop(*args):
        raise AssertionError("the bulk reader handed the text to the line loop")

    monkeypatch.setattr(md.graphs, "_read_lines", line_loop)
    assert md.parse_edge_list(text) == want
    with pytest.raises(md.SelfLoopError, match="^line 5: self-loop 3 3 rejected$"):
        md.parse_edge_list(text + "3 3\n", indexing="zero")


@pytest.mark.parametrize("text", [
    "0 1\r\n1 2\r\n\r\n2 0\r\n",
    "0\t1\n1\t2\n2\t0",
    "0    1\n  1  2  \n\n2 \t 0\n",
], ids=["crlf", "tabs", "spaces"])
def test_parse_common_separators_stay_bulk(text, monkeypatch):
    want = parse_edge_list_by_lines(text)

    def line_loop(*args):
        raise AssertionError("the bulk reader handed the text to the line loop")

    monkeypatch.setattr(md.graphs, "_read_lines", line_loop)
    assert md.parse_edge_list(text) == want


def test_parse_19_digit_token_takes_the_line_loop():
    text = "0 1\n9223372036854775807 1\n"
    assert md.graphs._decimal_rows(text, False) is None
    with pytest.raises(md.EdgeListError, match="^line 2: vertex count 9223372036854775808 "):
        md.parse_edge_list(text, indexing="zero")


def test_parse_non_ascii_digits_take_the_line_loop():
    text = "\u0661 \u0662\n\u0662 \u0663\n"  # Arabic-Indic digits, which int() reads
    assert md.graphs._decimal_rows(text, False) is None
    assert md.parse_edge_list(text) == md.parse_edge_list("1 2\n2 3\n")


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    g = random_graph(rng, 12, 0.4)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert md.load_edge_list(path) == g


# -- canonical form ----------------------------------------------------------


def test_canonical_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(0, 15)), rng.uniform(0, 1))
        validate_graph(g)
        assert int(g.degrees.sum()) == 2 * g.m


def test_operations_preserve_canonical_form():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(1, 12))
        g = random_graph(rng, n, 0.4)
        h = random_graph(rng, int(rng.integers(1, 12)), 0.4)
        validate_graph(md.permute(g, md.Permutation.random(n, rng.integers(2**32))))
        validate_graph(md.disjoint_union([g, h]))
        validate_graph(md.complement(g))


def test_recanonicalization_noop():
    g = md.named_graph("paw")
    again = md.Graph.from_edges(g.n, g.edge_array().tolist())
    assert again == g


def test_from_edges_vertex_count_range():
    with pytest.raises(ValueError, match="vertex count must be in 0..3037000499"):
        md.Graph.from_edges(md.graphs.MAX_VERTICES + 1, [])
    with pytest.raises(ValueError, match="got -1"):
        md.Graph.from_edges(-1, [])


# n*n = 2147395600 <= 2**31 - 1 < 46341**2: the last size whose edge codes the
# CSR build sorts as int32, and the first it sorts as int64
@pytest.mark.parametrize("n", [46340, 46341])
def test_from_edges_matches_neighbor_sets_across_int32_codes(n):
    rng = np.random.default_rng(n)
    # half the endpoints among the top 1000 vertices, whose codes pass 2**31 at n = 46341
    pairs = np.concatenate([rng.integers(0, n, size=(1500, 2)),
                            rng.integers(n - 1000, n, size=(1500, 2))])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # reversed copies and plain duplicates
    pairs = np.concatenate([pairs, pairs[:300, ::-1], pairs[300:400]])
    rng.shuffle(pairs)
    g = md.Graph.from_edges(n, pairs)
    indptr, indices = csr_by_neighbor_sets(n, pairs.tolist())
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
    assert g.m < pairs.shape[0]


def test_self_loop_in_from_edges():
    with pytest.raises(md.SelfLoopError):
        md.Graph.from_edges(3, [(0, 0)])


def _raw(n, indptr, indices):
    return md.Graph(n, np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64))


@pytest.mark.parametrize("g, message", [
    (_raw(3, [0, 1, 2], [1, 0]), "bad indptr"),
    (_raw(2, [1, 1, 2], [1, 0]), "bad indptr"),
    (_raw(2, [0, 1, 3], [1, 0]), "indptr does not cover indices"),
    (_raw(3, [0, 2, 1, 2], [1, 0]), "indptr not monotone"),
    (_raw(3, [0, 2, 3, 4], [2, 1, 0, 0]), "neighbor list of 0 not strictly increasing"),
    (_raw(3, [0, 0, 2, 3], [2, 2, 1]), "neighbor list of 1 not strictly increasing"),
    (_raw(3, [0, 1, 2, 3], [1, 1, 2]), "self-loop at 1"),
    (_raw(3, [0, 1, 2, 3], [1, 0, 3]), "neighbor of 2 out of range"),
    (_raw(2, [0, 1, 2], [-1, 0]), "neighbor of 0 out of range"),
    (_raw(3, [0, 2, 2, 2], [1, 0]), "neighbor list of 0 not strictly increasing"),
    (_raw(3, [0, 1, 3, 3], [0, 2, 0]), "self-loop at 0"),
    (_raw(3, [0, 1, 2, 2], [1, 2]), "asymmetric edge (0,1)"),
    (_raw(3, [0, 2, 3, 4], [1, 2, 0, 1]), "asymmetric edge (0,2)"),
], ids=["short-indptr", "indptr-start", "uncovered", "non-monotone", "unsorted-row",
        "duplicate-neighbor", "self-loop", "out-of-range", "negative", "first-fault-wins", "first-vertex-wins",
        "asymmetric", "asymmetric-later"])
def test_validate_rejects_malformed_graph(g, message):
    with pytest.raises(ValueError) as exc:
        validate_graph(g)
    assert str(exc.value) == message


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
    assert md.permute(g, md.Permutation(np.arange(3))) == g


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
        md.permute(md.path_graph(3), md.Permutation(np.arange(4)))


def test_permutation_not_bijection():
    with pytest.raises(ValueError):
        md.Permutation(np.array([0, 0, 2]))


def test_permutation_inverse():
    g = random_graph(np.random.default_rng(5), 8, 0.4)
    p = md.Permutation.random(8, seed=5)
    q = md.Permutation(np.argsort(p.map))
    assert np.array_equal(q.map[p.map], np.arange(8))
    assert md.permute(md.permute(g, p), q) == g


# -- named graphs ------------------------------------------------------------


def test_named_complete_by_params():
    g = md.named_graph("K4")
    assert g.m == 6 and set(g.degrees) == {3}
    assert md.named_graph("k2,3") == md.complete_bipartite_graph(2, 3)


def test_named_claw_degrees():
    g = md.named_graph("claw")
    assert sorted(g.degrees) == [1, 1, 1, 3]
    assert g == md.complete_bipartite_graph(1, 3)


def test_named_co_paw_is_complement_of_paw():
    paw = md.named_graph("paw")
    brute = md.Graph.from_edges(
        4,
        [(i, j) for i in range(4) for j in range(i + 1, 4) if not has_edge(paw, i, j)],
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


_NAME_TOKENS = ["K", "C", "P", "S", "k", "c", "claw", "paw", "triangle", "X", "co-", "u", "U",
                ",", " ", "_", "0", "1", "2", "3"]
_NAME_PART = st.tuples(
    st.sampled_from(["", "", "co-", "2", "0"]),
    st.sampled_from(["K1", "K2", "k3", "C4", "C2", "P3", "S3", "S0", "K2,3", "claw", "paw",
                     "triangle", "X", "K"]),
).map("".join)
_NAME_SEPARATOR = st.sampled_from(["u", "u", "U", "_u", "uu", ""])
# free strings of tokens, and parts joined by (mostly) union separators
_NAMES = one_of(
    st.lists(st.sampled_from(_NAME_TOKENS), max_size=9).map("".join),
    st.tuples(_NAME_PART, st.lists(st.tuples(_NAME_SEPARATOR, _NAME_PART), max_size=4))
    .map(lambda t: t[0] + "".join(sep + part for sep, part in t[1])),
)


def _name_outcome(parse, name):
    """The graph ``parse`` gives for ``name``, or its error's type and message."""
    try:
        return parse(name)
    except ValueError as exc:
        return type(exc), str(exc)


# numbers of at most two digits keep every graph small
@given(_NAMES.filter(lambda name: not re.search(r"\d{3}", name)))
@settings(max_examples=500, deadline=None, database=None, derandomize=True)
def test_named_graph_matches_split_retrying_oracle(name):
    assert _name_outcome(md.named_graph, name) == _name_outcome(named_graph_by_splits, name)


def test_named_long_unions():
    assert md.named_graph("K1u" * 59 + "K1") == md.empty_graph(60)
    assert md.named_graph("C3u" * 29 + "co-K2") == md.disjoint_union(
        [md.cycle_graph(3)] * 29 + [md.empty_graph(2)])


def test_named_prefix_chains_keep_no_copy_of_the_rest():
    # every prefix reads the one normalized name at its offset: a pending multiplier
    # holds offsets, not its rest of the name, so memory stays linear in the name
    assert md.named_graph("co-" * 2001 + "K2") == md.empty_graph(2)
    assert md.named_graph("K0uco-" * 1001 + "K2") == md.empty_graph(2)
    name = "1co-" * 4000 + "K1"
    tracemalloc.start()
    try:
        g = md.named_graph(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == md.empty_graph(1)
    assert peak <= 200 * len(name)  # a copy of each rest would take about 2000 per character


@pytest.mark.parametrize("name, n", [
    ("K1u\t2K1uK1", 5), ("K1u\xa02K1uK1", 5), ("K1u\n3K1uK2", 10), ("K1u\tco-K1uK1", 3),
])
def test_named_prefix_after_whitespace_applies_to_the_rest(name, n):
    # a part's name is stripped before it is read, so the prefix still leads it
    g = md.named_graph(name)
    assert g.n == n and g == named_graph_by_splits(name)


def test_named_multiplier_tiles_one_edge_array(monkeypatch):
    calls = []
    edge_array = md.Graph.edge_array

    def counted(g):
        calls.append(g.n)
        return edge_array(g)

    monkeypatch.setattr(md.Graph, "edge_array", counted)
    g = md.named_graph("1000K2")
    assert calls == [2]
    monkeypatch.undo()
    assert g == md.disjoint_union([md.complete_graph(2)] * 1000)


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
    nv = md.graphs.MAX_VERTICES + 1  # refused before the lattice is allocated
    with pytest.raises(md.ConfigError, match="edge codes fit in int64"):
        md.generate_rewired(nv, nv, 0.1, seed=0)


@st.composite
def _rewired_params(draw):
    nv = draw(st.integers(3, 60))
    c = draw(st.integers(1, (nv - 1) // 2))
    rho = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return nv, c * nv, rho, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_rewired_params())
# nv*nv <= 64*ne tracks edges in a byte map: the first two sit on that rule, the
# last two just past it, where the generator keeps a set of edge codes instead
@example((64, 64, 0.5, 3))
@example((128, 256, 0.9, 5))
@example((65, 65, 0.5, 3))
@example((129, 258, 0.9, 5))
def test_rewired_matches_scalar_draws(params):
    nv, ne, rho, seed = params
    g = md.generate_rewired(nv, ne, rho, seed)
    want = generate_rewired_by_draws(nv, ne, rho, seed)
    assert g.indptr.tobytes() == want.indptr.tobytes()
    assert g.indices.tobytes() == want.indices.tobytes()
    assert g.m == ne


def test_rewired_past_int32_codes_matches_scalar_draws():
    # 46341**2 > 2**31 - 1: the CSR build sorts int64 codes, and the edges
    # present are a set (nv*nv > 64*ne)
    g = md.generate_rewired(46341, 46341, 0.5, seed=14)
    want = generate_rewired_by_draws(46341, 46341, 0.5, seed=14)
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
    assert g.indptr.tobytes() == want.indptr.tobytes()
    assert g.indices.tobytes() == want.indices.tobytes()
    # this seed keeps the lattice edge whose code 46340*46341 + 46339 passes int32
    assert (g.n - 1) * g.n + int(g.indices[-1]) > np.iinfo(np.int32).max


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_rewired_complete_lattice_hits_attempt_cap(c):
    # nv = 2c+1 makes the lattice complete: every draw is a self-loop or a
    # duplicate, so each rewired edge spends its 100 draws and stays put
    for seed in range(3):
        g = md.generate_rewired(2 * c + 1, c * (2 * c + 1), 1.0, seed)
        assert g == md.complete_graph(2 * c + 1)


# -- pinned outputs ------------------------------------------------------------
# SHA-256 of n, indptr and indices, recorded before the graph layer was
# rewritten on edge arrays; any change to the generator's RNG stream or to the
# canonical form shows up here.


def _digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        h.update(np.int64(g.n).tobytes())
        h.update(g.indptr.tobytes())
        h.update(g.indices.tobytes())
    return h.hexdigest()


_DESK_SETTINGS = [  # criterion 6's corpus
    {"nv": 200, "ne": 2000, "rho": 0.1, "count": 15},
    {"nv": 200, "ne": 2000, "rho": 0.9, "count": 15},
    {"nv": 200, "ne": 4000, "rho": 0.1, "count": 15},
    {"nv": 200, "ne": 4000, "rho": 0.9, "count": 15},
]

_CORPUS_DIGESTS = [
    "a8a5b381a5a9db4168379572aae93ecfc429bcbf1db7cf54f07943d48bdcb041",
    "ea953bf31c51b30b201f8b142ae7d1e6cd1d591193319be5e6a82e175067884b",
    "5899c9f3b8f5f75d893f4563a4988b57949231c4ffb66a83b528b90348f53d47",
    "84ee95ecc88a11f91374fe955dfec1eaa74bbb423d3a6e7caca5369c866e2f17",
    "bfea37ffbc6b1b51f4ab2cb8ad014597eb23c3603b6232b5c5ea72929f0edb34",
]


def test_pinned_rewired_corpus_digests():
    for seed, want in enumerate(_CORPUS_DIGESTS):
        gs, _ = md.make_rewired_corpus(_DESK_SETTINGS, seed=seed)
        assert _digest(gs) == want, seed


# Rewiring rates where rejections use up the generator's first bulk draw of
# candidate endpoints partway through the graph, so it draws again. Digests
# recorded when the generator made one scalar draw per rewire attempt.
_REFILL_DIGESTS = {
    (50, 1000, 1.0, 0): "225c6c9ced9ad08e7e92a9fd2dce3103e93a69e72e7beae1f1f2a841dd6d2ef1",
    (50, 1000, 1.0, 1): "f8cf2b2dd4585e498d0cdbc5c73e67183a31207de5a20c1aee0630f3515a94a2",
    (50, 1000, 1.0, 2): "d35638106484fc67355e55aeb5c39e8d45fd95509e3b50965b012ed20a6c3fc3",
    (50, 1000, 1.0, 3): "48304a9e98b2119373b55b33971ddb9148afdc746306a392e2664e2264fcf1d8",
    (50, 1000, 1.0, 4): "74f3de44f93016cb22f848a1096bb0b6d45ae324a4568741b3c3eb14e79291e2",
    (200, 4000, 0.9, 0): "8880d450eea579ef29ec6b6bc94fdfef7ea05a0c7cb3884a1d345193817fd91b",
    (200, 4000, 0.9, 1): "f1a02d31ed34d1fe715e9a8782906ccda02c0d0f6c1a37be8311f0462f5d1886",
    (200, 4000, 0.9, 2): "9bb6713797881298f46f511847a7538feee2c3d4501f924108e974f0c47b9e65",
    (200, 4000, 0.9, 3): "8af3bd4237bfe0a53f35ba95a03a3660df82e8083ca57c589560d8bc5895fa2e",
    (200, 4000, 0.9, 4): "be108ea773d060c691e4ed604dd54de5a4f52bb8c0469d3c1ef0ab0ab7964aad",
    # a near-complete lattice (44 of 55 edges) where most draws are rejected;
    # recorded with the numpy-scalar loop that the list loop replaced
    (11, 44, 1.0, 0): "4054c0acc88d5eead6ea0db97df08a5f1e671e68861f1e1b117e367b50227cc0",
    (11, 44, 1.0, 1): "d012da244a1a22ecc39a4ee1887f1d22c2a95bb73ac4c1c3d69e9e4e5510ba2a",
}


@pytest.mark.parametrize("nv, ne, rho, seed", list(_REFILL_DIGESTS))
def test_pinned_rewired_refill_digests(nv, ne, rho, seed):
    g = md.generate_rewired(nv, ne, rho, seed)
    assert _digest([g]) == _REFILL_DIGESTS[nv, ne, rho, seed]


def test_pinned_parse_digest():
    rng = np.random.default_rng(7)
    pairs = rng.integers(1, 81, size=(600, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    text = "# one-based, shuffled, both orientations, duplicates\n"
    text += "".join(f"{a} {b}\n" for a, b in pairs)
    g = md.parse_edge_list(text)
    assert (g.n, g.m) == (80, 535)
    assert _digest([g]) == "11a0ef3fba806f5ad0bdd4da07df85187adf9132b4ff42e0e0aacf626f688315"


def test_pinned_structural_operation_digests():
    rng = np.random.default_rng(11)
    gs = [md.empty_graph(0), md.empty_graph(3)] + [
        random_graph(rng, int(rng.integers(1, 40)), rng.uniform(0.05, 0.6)) for _ in range(10)
    ]
    permuted = [md.permute(g, md.Permutation.random(g.n, seed=i)) for i, g in enumerate(gs)]
    unions = [md.disjoint_union(gs[i:i + 3]) for i in range(0, len(gs), 3)]
    complements = [md.complement(g) for g in gs]
    assert _digest(permuted) == "635f748ee2c19f546be8f06bfa7de48a660b415ab54fc97c6609047b0f8760a9"
    assert _digest(unions) == "eeeb5f52fa7296849fa70eed55cc53d37065ae0907a70f6e0cc4a8b1c88a6c9e"
    assert _digest(complements) == "dc2b706f1e09adfadc80bebae7c2e87efe141dd1c074ec31e58643d8d8ec5f00"


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
    assert walk_count(g, 1, 1, 0) == 1
    assert walk_count(g, 1, 2, 0) == 0


def test_walk_count_triangle():
    g = md.complete_graph(3)
    assert walk_count(g, 0, 0, 2) == 2


def test_walk_count_path_parity():
    g = md.path_graph(3)
    assert walk_count(g, 0, 2, 3) == 0


def test_walk_count_matches_dense_powers():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 7)), 0.5)
        for k in range(5):
            p = dense_int_power(g, k)
            for i in range(g.n):
                for j in range(g.n):
                    assert walk_count(g, i, j, k) == p[i, j]


def _dense_by_scatter(g):
    a = np.zeros((g.n, g.n), dtype=np.float64)
    a[np.repeat(np.arange(g.n), g.degrees), g.indices] = 1.0
    return a


def test_to_dense_matches_scatter():
    desk, _ = md.make_rewired_corpus(_DESK_SETTINGS, seed=0)
    graphs = [md.empty_graph(0), md.empty_graph(3), md.named_graph("K3u2K1"),
              md.named_graph("P1uC5u3K1"), *desk[::15]]
    for g in graphs:
        got, want = g.to_dense(), _dense_by_scatter(g)
        assert got.dtype == np.float64 and got.shape == (g.n, g.n), g
        assert got.flags.c_contiguous and got.flags.writeable, g
        assert got.tobytes() == want.tobytes(), g
        got[...] = 2.0  # a fresh array: the next view is unchanged
        assert g.to_dense().tobytes() == want.tobytes(), g


def test_to_csr_matches_scipy_from_int64_arrays():
    # the reference: scipy handed the graph's own int64 arrays, which it scans and narrows
    desk, _ = md.make_rewired_corpus(_DESK_SETTINGS, seed=0)
    graphs = [md.empty_graph(0), md.empty_graph(3), md.named_graph("K3u2K1"), *desk[::15],
              md.generate_rewired(20000, 40000, 0.5, seed=0)]
    for g in graphs:
        got = g.to_csr()
        want = scipy.sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                                       shape=(g.n, g.n))
        assert got.shape == want.shape, g
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (g, name)
        x = np.random.default_rng(g.n).standard_normal((g.n, 3))
        assert (got @ x).tobytes() == (want @ x).tobytes(), g


# -- argument checks -------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: md.Graph.from_edges(3, [(0, 1, 2)]), ValueError, "edges must be pairs"),
    (lambda: md.Graph.from_edges(2, [(0, 2)]), ValueError, "edge endpoint out of range for n=2"),
    # not truncated to (0, 2), (0, 1) or parsed
    (lambda: md.Graph.from_edges(3, [(0.5, 2)]), ValueError,
     "edge endpoints must be integers, got float64"),
    (lambda: md.Graph.from_edges(3, np.array([[1.9, 0.2]])), ValueError,
     "edge endpoints must be integers, got float64"),
    (lambda: md.Graph.from_edges(3, [("1", 2)]), ValueError,
     "edge endpoints must be integers, got <U21"),
    (lambda: md.named_graph("C4,5"), md.UnknownGraphNameError, "family C takes one parameter"),
    (lambda: md.generate_rewired(0, 10, 0.1, 1), md.ConfigError, "nv and ne must be positive"),
], ids=["triples", "endpoint-out-of-range", "float-list", "float-array", "string-endpoint",
        "cycle-two-parameters", "no-vertices"])
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message
