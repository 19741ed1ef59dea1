import re

import numpy as np
import pytest

from phenomnn.hypergraph import Hypergraph, HypergraphError, build_expansion_operators, parse_hypergraph
from helpers import by_node, hyperedges, random_hypergraph, rng_for
from oracles import (
    build_clique,
    build_star_bipartite,
    build_star_normalized,
    class_order,
    edge_class_order,
    from_edges_by_edge,
    uniform_edge_size,
)

TOY = "3 2\n0 1\n1 2\n"


def toy():
    return parse_hypergraph(TOY)


# -- parsing --------------------------------------------------------------------


def test_parse_toy():
    hg = toy()
    assert hg.n == 3 and hg.m == 2
    assert [e.tolist() for e in hyperedges(hg)] == [[0, 1], [1, 2]]
    assert hg.edge_sizes.tolist() == [2.0, 2.0]
    assert hg.node_degrees.tolist() == [1.0, 2.0, 1.0]


def test_parse_comments_ignored():
    hg = parse_hypergraph("# header comment\n3 2\n# edge comment\n0 1\n1 2\n")
    assert hg.n == 3 and hg.m == 2


def test_parse_out_of_range_names_line():
    with pytest.raises(HypergraphError, match=r":3: node id 5 out of range"):
        parse_hypergraph("3 2\n0 1\n5\n")


def test_parse_empty_edge_line():
    with pytest.raises(HypergraphError, match="empty"):
        parse_hypergraph("3 2\n0 1\n\n")


def test_parse_malformed_edge():
    with pytest.raises(HypergraphError, match="malformed"):
        parse_hypergraph("3 1\n0 x\n")


def test_parse_missing_and_extra_lines():
    with pytest.raises(HypergraphError, match="expected 2 hyperedges"):
        parse_hypergraph("3 2\n0 1\n")
    with pytest.raises(HypergraphError, match="extra line"):
        parse_hypergraph("3 1\n0 1\n1 2\n")
    with pytest.raises(HypergraphError, match="header"):
        parse_hypergraph("nonsense here\n")


def test_duplicate_ids_collapse():
    hg = parse_hypergraph("3 1\n1 1 2\n")
    assert hyperedges(hg)[0].tolist() == [1, 2]
    assert hg.edge_sizes[0] == 2.0
    # an edge given as a one-shot iterator collapses like a list
    gen = Hypergraph.from_edges(4, [(i for i in [0, 1, 1, 2]), [2, 3]])
    assert_same_hypergraph(gen, Hypergraph.from_edges(4, [[0, 1, 1, 2], [2, 3]]))
    assert hyperedges(gen)[0].tolist() == [0, 1, 2] and gen.edge_sizes.tolist() == [3.0, 2.0]


def assert_same_hypergraph(got, want):
    assert (got.n, got.m) == (want.n, want.m)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.incidence, name), getattr(want.incidence, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.incidence.shape == want.incidence.shape
    assert got.incidence.has_canonical_format
    for name in ("edge_sizes", "node_degrees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def random_edge_lists(rng, n, m):
    """Edges of 1-8 ids drawn with replacement, in drawn order."""
    return [rng.integers(0, n, size=int(rng.integers(1, 9))).tolist() for _ in range(m)]


@pytest.mark.parametrize("seed", range(6))
def test_from_edges_matches_the_per_edge_oracle(seed):
    rng = rng_for(300 + seed)
    n = int(rng.integers(1, 40))
    edges = random_edge_lists(rng, n, int(rng.integers(0, 30)))
    hg = Hypergraph.from_edges(n, edges)
    assert_same_hypergraph(hg, from_edges_by_edge(n, edges))


@pytest.mark.parametrize("seed", range(12))
def test_from_edges_names_the_same_faulty_edge_as_the_oracle(seed):
    # one or two faults (an empty edge, an id below 0 or at n or above) at
    # random places; both builders must name the first edge at fault
    rng = rng_for(400 + seed)
    n = int(rng.integers(1, 20))
    edges = random_edge_lists(rng, n, 12)
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(0, len(edges)))
        fault = int(rng.integers(0, 3))
        if fault == 0:
            edges[k] = []
        else:
            edges[k] = edges[k] + [-int(rng.integers(1, 5)) if fault == 1 else n + int(rng.integers(0, 5))]
    with pytest.raises(HypergraphError) as want:
        from_edges_by_edge(n, edges)
    with pytest.raises(HypergraphError) as got:
        Hypergraph.from_edges(n, edges)
    assert str(got.value) == str(want.value)


def test_from_edges_names_an_earlier_fault_before_a_bad_id():
    with pytest.raises(HypergraphError, match="hyperedge 1 is empty"):
        Hypergraph.from_edges(3, [[0], [], ["x"]])
    with pytest.raises(ValueError, match="invalid literal"):
        Hypergraph.from_edges(3, [[0], ["x"], []])


def random_hypergraph_text(rng, n, m):
    """A file of the grammar with blank runs, tabs, leading zeros and repeated ids, and its edges."""
    def blank():
        return str(rng.choice([" ", "  ", "\t", " \t"]))

    edges = random_edge_lists(rng, n, m)
    lines = [f"{n}{blank()}{m}"]
    for e in edges:
        ids = [f"{i:0{int(rng.integers(1, 4))}d}" for i in e]
        lines.append(blank() * int(rng.integers(0, 2)) + blank().join(ids) + blank() * int(rng.integers(0, 2)))
    return "\n".join(lines) + "\n" * int(rng.integers(0, 2)), edges


def commented(text):
    """``text`` with a ``#`` line before each line, so line k moves to 2k, and an indented one after the last."""
    end = "\r\n" if "\r\n" in text else "\n"
    return "".join(f"# c{end}{line}{end}" for line in text.splitlines()) + f"  #{end}"


def line_end_variants(text):
    """``text`` with LF line ends, with CRLF ones, and each with ``#`` lines inserted."""
    crlf = text.replace("\n", "\r\n")
    return [text, crlf, commented(text), commented(crlf)]


@pytest.mark.parametrize("seed", range(6))
def test_parse_of_plain_text_matches_the_line_parser(seed):
    # every line end and comment variant gives the hypergraph of the edges written
    rng = rng_for(500 + seed)
    n = int(rng.integers(1, 40))
    text, edges = random_hypergraph_text(rng, n, int(rng.integers(0, 30)))
    want = Hypergraph.from_edges(n, edges)
    for variant in line_end_variants(text):
        assert_same_hypergraph(parse_hypergraph(variant), want)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n3 1\n0 1\n",
        "3\n0 1\n",
        "3 1 1\n0 1\n",
        "0 1\n0\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n2\n",
        "3 1\n0 1\n\n2\n",
        "3 2\n0 1\n\n",
        "3 2\n \t\n1\n",
        "3 1\n0 3\n",
        "3 1\n0 99999999999999999999\n",
        "99999999999999999999 1\n0 1\n",
    ],
)
def test_parse_of_plain_text_faults_matches_the_line_parser(text):
    # every variant raises the LF text's fault, at the line it moved to
    with pytest.raises(HypergraphError) as want:
        parse_hypergraph(text, source="f.txt")
    moved = re.sub(r"^f\.txt:(\d+):", lambda k: f"f.txt:{2 * int(k[1])}:", str(want.value))
    for variant in line_end_variants(text):
        with pytest.raises(HypergraphError) as got:
            parse_hypergraph(variant, source="f.txt")
        assert str(got.value) == (moved if "# c" in variant else str(want.value))


@pytest.mark.parametrize(
    "text, message",
    [
        # the first line at fault is named, whatever the fault of a later line
        ("3 2\n0 5\n0 x\n", "f.txt:2: node id 5 out of range (n=3)"),
        ("3 3\n0 x\n\n1\n", "f.txt:2: malformed hyperedge line '0 x'"),
        # within a line, a token int rejects comes before an id out of range
        ("3 1\n5 x\n", "f.txt:2: malformed hyperedge line '5 x'"),
    ],
)
def test_a_fault_is_named_by_its_line_in_file_order(text, message):
    with pytest.raises(HypergraphError) as got:
        parse_hypergraph(text, source="f.txt")
    assert str(got.value) == message


def test_ids_read_as_int_reads_them():
    # a sign, digit separators and non-ASCII digits, as int() takes them
    want = Hypergraph.from_edges(12, [[3, 10], [0, 3]])
    for text in ("12 2\n+3 1_0\n0 \u0663\n", "12 2\n03 10\n-0 3\n"):
        assert_same_hypergraph(parse_hypergraph(text), want)


@pytest.mark.parametrize("text", ["3 1\n0 1\n\n", "3 2\n0 1\n1 2\n\n", "3 2\n0 1\n1 2\n \t\n\n", "3 2\n0 1\n1 2\n\n  "])
def test_blank_lines_after_the_last_hyperedge_are_skipped(text):
    want = parse_hypergraph(text.rstrip() + "\n")
    for variant in line_end_variants(text):
        assert_same_hypergraph(parse_hypergraph(variant), want)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_blank_line_before_the_last_hyperedge_is_an_empty_one(newline):
    with pytest.raises(HypergraphError, match=":3: hyperedge 1 is empty"):
        parse_hypergraph("3 2\n0 1\n\n1 2\n\n".replace("\n", newline))
    with pytest.raises(HypergraphError, match=":4: unexpected extra line after 1 hyperedges"):
        parse_hypergraph("3 1\n0 1\n\n2\n".replace("\n", newline))


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_a_node_count_past_numpy_dimensions_names_the_header(newline):
    # B's row pointer would hold n + 1 entries: numpy refuses it before allocating
    text = "9223372036854775807 1\n0\n".replace("\n", newline)
    with pytest.raises(HypergraphError, match=r"^f\.txt:1: cannot build the incidence matrix for n=9223372036854775807 m=1: "):
        parse_hypergraph(text, source="f.txt")


@pytest.mark.parametrize(
    "text, line", [("3037000500 1\n0\n", 1), ("3037000500 1\r\n0\r\n", 1), ("# sizes\n3037000500 1\n0\n", 2)]
)
def test_an_incidence_matrix_that_cannot_be_allocated_names_the_header(monkeypatch, text, line):
    def refused(cls, n, ids, ptr):
        raise MemoryError()

    monkeypatch.setattr(Hypergraph, "_from_columns", classmethod(refused))
    message = rf"^f\.txt:{line}: cannot build the incidence matrix for n=3037000500 m=1: MemoryError$"
    with pytest.raises(HypergraphError, match=message):
        parse_hypergraph(text, source="f.txt")


@pytest.mark.parametrize(
    "edge, shown", [([0.9, 2.5], "0.9"), ([0, 1.5], "1.5"), (np.array([0.0, 0.5]), "0.5"), (["1"], "'1'")]
)
def test_from_edges_rejects_a_non_integral_id(edge, shown):
    with pytest.raises(HypergraphError, match=rf"^hyperedge 1: node id {re.escape(shown)} is not an integer$"):
        Hypergraph.from_edges(3, [[0, 1], edge])
    # a fault in an earlier edge is still named first
    with pytest.raises(HypergraphError, match="hyperedge 0 is empty"):
        Hypergraph.from_edges(3, [[], edge])


@pytest.mark.parametrize(
    "edge, cause", [([0, float("nan")], "NaN"), ([float("inf")], "infinity"), ([0, 2**70], "too large"), (["x"], "invalid")]
)
def test_from_edges_names_the_edge_of_an_id_int_rejects(edge, cause):
    with pytest.raises(HypergraphError, match=rf"^hyperedge 1: .*{cause}"):
        Hypergraph.from_edges(3, [[0, 1], edge])


def test_from_edges_takes_integer_lists_and_arrays():
    want = Hypergraph.from_edges(4, [[0, 2], [1, 3], [3]])
    for edges in (
        [np.array([0, 2]), np.array([1, 3], dtype=np.uint8), [np.int32(3)]],
        [[0, 2.0], np.array([1.0, 3.0]), (i for i in [3])],
    ):
        assert_same_hypergraph(Hypergraph.from_edges(4, edges), want)


def test_incidence_is_binary():
    hg = toy()
    assert set(np.unique(hg.incidence.toarray())) <= {0.0, 1.0}


# -- clique expansion --------------------------------------------------------------


def test_clique_toy_example():
    a_c, d_c = build_clique(toy())
    assert np.array_equal(a_c.toarray(), [[1, 1, 0], [1, 2, 1], [0, 1, 1]])
    assert d_c.tolist() == [2.0, 4.0, 2.0]


def test_clique_single_node_edge():
    a_c, d_c = build_clique(Hypergraph.from_edges(1, [[0]]))
    assert a_c.toarray().tolist() == [[1.0]]
    assert d_c.tolist() == [1.0]


def test_clique_disjoint_edges_block_diagonal():
    hg = Hypergraph.from_edges(4, [[0, 1], [2, 3]])
    a_c, _ = build_clique(hg)
    dense = a_c.toarray()
    b = hg.incidence.toarray()
    assert np.max(np.abs(dense - b @ b.T)) <= 1e-12
    assert np.all(dense[:2, 2:] == 0.0) and np.all(dense[2:, :2] == 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_expansions_match_dense_oracles(seed):
    rng = rng_for(seed)
    n = int(rng.integers(2, 31))
    m = int(rng.integers(1, 31))
    hg = random_hypergraph(rng, n, m)
    b = hg.incidence.toarray()
    a_c, d_c = build_clique(hg)
    assert np.max(np.abs(a_c.toarray() - b @ b.T)) <= 1e-12
    assert np.max(np.abs(d_c - (b @ b.T).sum(axis=1))) <= 1e-12
    a_s, d_s = build_star_normalized(hg)
    want = b @ np.diag(1.0 / hg.edge_sizes) @ b.T
    assert np.max(np.abs(a_s.toarray() - want)) <= 1e-12
    assert np.max(np.abs(d_s - want.sum(axis=1))) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_expansions_symmetric_exactly(seed):
    rng = rng_for(100 + seed)
    hg = random_hypergraph(rng, int(rng.integers(3, 20)), int(rng.integers(2, 15)))
    for mat, _ in (build_clique(hg), build_star_normalized(hg)):
        t = mat.T.tocsr()
        t.sort_indices()
        assert np.array_equal(mat.indptr, t.indptr)
        assert np.array_equal(mat.indices, t.indices)
        assert np.array_equal(mat.data, t.data)


# -- star expansion ------------------------------------------------------------------


def test_star_normalized_toy():
    a_s, d_s = build_star_normalized(toy())
    want = 0.5 * np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]], dtype=float)
    assert np.max(np.abs(a_s.toarray() - want)) <= 1e-12
    assert d_s.tolist() == [1.0, 2.0, 1.0]


def test_star_normalized_degree_identity():
    for seed in range(5):
        rng = rng_for(200 + seed)
        hg = random_hypergraph(rng, int(rng.integers(3, 25)), int(rng.integers(2, 20)))
        _, d_s = build_star_normalized(hg)
        assert np.array_equal(d_s, hg.node_degrees)


def test_star_normalized_singleton():
    a_s, _ = build_star_normalized(Hypergraph.from_edges(1, [[0]]))
    assert a_s.toarray().tolist() == [[1.0]]


def test_uniform_hypergraph_collapse():
    # every edge has the same cardinality, so A_S_bar = A_C / m_e exactly
    for seed in range(5):
        rng = rng_for(300 + seed)
        size = int(rng.integers(2, 5))
        hg = random_hypergraph(rng, 12, 6, smin=size, smax=size)
        me = uniform_edge_size(hg)
        assert me == size
        a_c, d_c = build_clique(hg)
        a_s, d_s = build_star_normalized(hg)
        assert np.max(np.abs(a_s.toarray() - a_c.toarray() / me)) <= 1e-12
        l_c = np.diag(d_c) - a_c.toarray()
        l_s = np.diag(d_s) - a_s.toarray()
        assert np.linalg.norm(l_s - l_c / me) <= 1e-12


def test_star_bipartite_single_edge():
    a_s, d_s, l_s = build_star_bipartite(Hypergraph.from_edges(2, [[0, 1]]))
    assert np.array_equal(a_s.toarray(), [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    assert d_s.tolist() == [1.0, 1.0, 2.0]
    assert np.array_equal(l_s.toarray(), np.diag(d_s) - a_s.toarray())


def test_star_bipartite_blocks_and_edge_degrees():
    rng = rng_for(6)
    hg = random_hypergraph(rng, 10, 7)
    a_s, d_s, _ = build_star_bipartite(hg)
    dense = a_s.toarray()
    assert np.all(dense[: hg.n, : hg.n] == 0.0)
    assert np.all(dense[hg.n :, hg.n :] == 0.0)
    assert np.array_equal(d_s[hg.n :], hg.edge_sizes)


# -- uniform edge size / preconditioner ------------------------------------------------


def test_uniform_edge_size_cases():
    assert uniform_edge_size(Hypergraph.from_edges(3, [[0, 1], [1, 2]])) == 2
    assert uniform_edge_size(Hypergraph.from_edges(3, [[0, 1], [0, 1, 2]])) is None
    assert uniform_edge_size(Hypergraph.from_edges(3, [[0, 1, 2]])) == 3


def test_precondition_diag_cases():
    # d_tilde = lambda0 D_C + lambda1 D_S_bar + I, with D_C = (2, 4, 2) and D_S_bar = (1, 2, 1) here
    hg = toy()

    def d_tilde(*lambdas):
        ops = build_expansion_operators(hg, *lambdas)
        return by_node(ops, ops.d_tilde).tolist()

    assert d_tilde(0.0, 0.0) == [1.0, 1.0, 1.0]
    assert d_tilde(1.0, 0.0) == [3.0, 5.0, 3.0]
    assert d_tilde(0.0, 1.0) == [2.0, 3.0, 2.0]
    for lambdas in ((-1.0, 0.0), (0.0, -1.0), (float("nan"), 1.0), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="expansion weights must be nonnegative and finite"):
            build_expansion_operators(hg, *lambdas)


def test_isolated_nodes_degenerate_to_skip_connection():
    # nodes 2, 3 isolated: no row of the operators, so a layer leaves them to ReLU(Fx)
    hg = Hypergraph.from_edges(4, [[0, 1]])
    ops = build_expansion_operators(hg, 2.0, 3.0)
    assert ops.isolated.tolist() == [2, 3] and ops.linked.tolist() == [0, 1] and ops.b.shape == (2, 1)
    assert (hg.incidence @ hg.edge_sizes)[2] == 0.0 and hg.node_degrees[3] == 0.0
    assert ops.d_c.tolist() == [2.0, 2.0] and ops.d_s_bar.tolist() == [1.0, 1.0]
    assert ops.d_tilde.tolist() == [8.0, 8.0]


def test_operator_invariants():
    rng = rng_for(11)
    hg = random_hypergraph(rng, 14, 9)
    ops = build_expansion_operators(hg, 1.5, 0.5)
    a_c, _ = build_clique(hg)
    a_s, _ = build_star_normalized(hg)
    assert np.array_equal(by_node(ops, ops.d_c), np.asarray(a_c.sum(axis=1)).ravel())
    assert np.max(np.abs(by_node(ops, ops.d_s_bar) - np.asarray(a_s.sum(axis=1)).ravel())) <= 1e-12
    assert np.array_equal(ops.d_tilde, 1.5 * ops.d_c + 0.5 * ops.d_s_bar + 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_operators_store_no_more_than_the_incidence(seed):
    rng = rng_for(12 + seed)
    hg = random_hypergraph(rng, 30, 12, smin=4, smax=10)
    ops = build_expansion_operators(hg, 1.0, 2.0)
    assert np.array_equal(ops.b.toarray(), hg.incidence.toarray()[ops.linked][:, edge_class_order(hg)])
    sparse = [v for v in vars(ops).values() if hasattr(v, "nnz")]
    assert len(sparse) == 1
    assert all(v.nnz <= hg.incidence.nnz for v in sparse)


def test_linked_lists_the_nodes_in_some_hyperedge_and_their_operators():
    hg = Hypergraph.from_edges(7, [[1, 4], [6, 4, 2]])
    ops = build_expansion_operators(hg, 1.0, 0.5)
    linked, isolated = ops.linked, ops.isolated
    # classes (d_c, d_s_bar): (3, 1) holds 2 and 6, then (2, 1) holds 1 and (5, 2) holds 4
    assert linked.tolist() == class_order(hg) == [2, 6, 1, 4] and isolated.tolist() == [0, 3, 5]
    assert ops.classes.tolist() == [0, 2, 3, 4] and ops.n == 7
    # the edges by size class: one class of size 2, then one of size 3
    edges = edge_class_order(hg)
    assert edges == [0, 1] and ops.edge_classes.tolist() == [0, 1, 2]
    assert np.array_equal(np.sort(np.concatenate([linked, isolated])), np.arange(7))
    assert np.array_equal(ops.b.toarray(), hg.incidence.toarray()[linked][:, edges])
    assert ops.b.has_canonical_format
    d_c = hg.incidence @ hg.edge_sizes
    for name, node_order in (("d_c", d_c), ("d_s_bar", hg.node_degrees), ("d_tilde", d_c + 0.5 * hg.node_degrees + 1.0)):
        assert np.array_equal(getattr(ops, name), node_order[linked]), name
    assert np.array_equal(ops.d_h, hg.edge_sizes[edges]) and (ops.lambda0, ops.lambda1) == (1.0, 0.5)


def test_linked_orders_the_edges_by_size_class():
    # sizes 3, 2, 3, 2, 4: the classes of size 2 and 3 hold two edges each, so
    # the tie goes to size 2; each class keeps edge order
    hg = Hypergraph.from_edges(8, [[0, 1, 2], [3, 7], [2, 4, 5], [1, 6], [0, 3, 5, 6]])
    orders = []
    for lambdas in ((1.0, 0.5), (0.0, 2.0)):
        ops = build_expansion_operators(hg, *lambdas)
        linked = ops.linked
        edges = edge_class_order(hg)
        assert edges == [1, 3, 0, 2, 4] and ops.edge_classes.tolist() == [0, 2, 4, 5]
        assert np.array_equal(ops.b.toarray(), hg.incidence.toarray()[linked][:, edges])
        assert ops.b.has_canonical_format and ops.b.indices.dtype == hg.incidence.indices.dtype
        assert ops.d_h.tolist() == [2.0, 2.0, 3.0, 3.0, 4.0] and hg.edge_sizes.tolist() == [3.0, 2.0, 3.0, 2.0, 4.0]
        orders.append((linked.tolist(), ops.b.toarray().tolist()))
    assert orders[0] == orders[1]  # the order depends on B alone


@pytest.mark.parametrize("seed", range(4))
def test_degree_classes_by_one_integer_key_keep_the_order_of_the_pairs(seed):
    # the degree class key is one exact integer per (d_c, d_s_bar) pair; on sets whose
    # pairs collide under d_c + d_s_bar and under d_c alone, the linked order and the
    # class offsets are those of np.unique over the pairs
    rng = rng_for(40 + seed)
    n = 60
    hg = Hypergraph.from_edges(n, [rng.choice(n - 5, size=int(rng.integers(1, 7)), replace=False) for _ in range(50)])
    d_c = hg.incidence @ hg.edge_sizes
    linked = np.flatnonzero(d_c)
    pairs = np.stack((d_c[linked], hg.node_degrees[linked]), axis=1)
    _, cls, sizes = np.unique(pairs, axis=0, return_inverse=True, return_counts=True)
    cls = cls.ravel()
    for naive in (pairs.sum(axis=1), pairs[:, 0]):
        assert np.unique(naive).size < sizes.size
    assert sizes.max() >= 3
    ops = build_expansion_operators(hg, 1.0, 1.0)
    assert np.array_equal(ops.linked, linked[np.lexsort((cls, -sizes[cls]))])
    assert np.array_equal(ops.classes, np.concatenate(([0], np.cumsum(np.sort(sizes)[::-1]))))
    assert ops.linked.tolist() == class_order(hg) and ops.isolated.size >= 5


@pytest.mark.parametrize("n, edges", [(4, [[0, 1], [1, 2]]), (3, [[0, 1, 2]]), (3, [])])
def test_linked_first_is_node_order_when_the_linked_nodes_come_first(n, edges):
    # The linked nodes are a prefix of node order: their rows come by degree class,
    # each class in node order, also with no node isolated.  With no hyperedge,
    # k = 0: the linked operators have no row and no column.
    hg = Hypergraph.from_edges(n, edges)
    ops = build_expansion_operators(hg, 1.0, 1.0)
    k = len({v for e in edges for v in e})
    linked, isolated = ops.linked, ops.isolated
    assert sorted(linked.tolist()) == list(range(k)) and isolated.tolist() == list(range(k, n))
    assert ops.b.shape == (k, len(edges)) and ops.classes[-1] == k and ops.edge_classes[-1] == len(edges)
    assert linked.tolist() == class_order(hg)
    for a, b in zip(ops.classes[:-1], ops.classes[1:]):
        assert np.all(np.diff(linked[a:b]) > 0)
    assert np.array_equal(ops.b.toarray(), hg.incidence.toarray()[linked][:, edge_class_order(hg)])
