import pytest

from widthlab import (
    BitMatrix,
    Cut,
    Graph,
    ParseError,
    SplitMix64,
    all_cuts,
    complete_graph,
    cut_matrix,
    cut_rank,
    cycle_graph,
    emit_edge_list,
    emit_graph6,
    empty_graph,
    mix_seed,
    parse_edge_list,
    parse_graph6,
    path_graph,
    rank,
    sample_gnp_half,
)
from widthlab.graphs import _g6_decode_length, _g6_encode_length


class TestGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, [2, 0])
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, [1])
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Graph(-1, [])
        with pytest.raises(ValueError, match="^expected 2 adjacency rows, got 1$"):
            Graph(2, [0])
        with pytest.raises(ValueError, match="^adjacency row 0 has bits outside 2 vertices$"):
            Graph(2, [4, 0])
        with pytest.raises(ValueError, match="^a cycle needs at least 3 vertices$"):
            cycle_graph(2)

    def test_edges_and_adjacency(self):
        g = Graph.from_edges(4, [(2, 0), (1, 2)])
        assert g.edges() == [(0, 2), (1, 2)]
        assert g.has_edge(2, 1) and not g.has_edge(0, 1)
        assert g.adjacency.transpose() == g.adjacency
        assert g.edge_count() == 2

    def test_from_adjacency(self):
        m = BitMatrix.from_rows([[0, 1], [1, 0]])
        assert Graph.from_adjacency(m).edges() == [(0, 1)]
        with pytest.raises(ValueError, match="^adjacency matrix must be square$"):
            Graph.from_adjacency(BitMatrix.from_rows([[0, 1]]))

    def test_relabel(self):
        g = path_graph(4)
        h = g.relabel([3, 2, 1, 0])
        assert h.edges() == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError):
            g.relabel([0, 0, 1, 2])


class TestCut:
    def test_members_and_complement(self):
        c = Cut.from_vertices(5, [4, 0])
        assert c.members == (0, 4)
        assert c.complement().members == (1, 2, 3)
        assert c.size == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Cut.from_vertices(3, [3])
        with pytest.raises(ValueError):
            Cut(1 << 3, 3)
        with pytest.raises(ValueError, match="^cut over 3 vertices used with a graph on 4$"):
            cut_rank(path_graph(4), Cut(1, 3))


class TestSampling:
    def test_degenerate_sizes_are_edgeless(self):
        assert sample_gnp_half(0, 9).edge_count() == 0
        assert sample_gnp_half(1, 9).edge_count() == 0

    def test_deterministic(self):
        assert sample_gnp_half(12, 42) == sample_gnp_half(12, 42)
        assert sample_gnp_half(12, 42) != sample_gnp_half(12, 43)

    def test_mean_edge_count(self):
        # 45 potential edges at n=10, so the mean should sit at 22.5
        total = 0
        trials = 10_000
        for i in range(trials):
            total += sample_gnp_half(10, mix_seed(31337, i)).edge_count()
        assert abs(total / trials - 22.5) < 0.5


class TestCutMatrixAndRank:
    def test_complete_graph(self):
        k4 = complete_graph(4)
        assert cut_matrix(k4, Cut.from_vertices(4, [0, 1])).to_lists() == [[1, 1], [1, 1]]
        assert cut_rank(complete_graph(6), Cut.from_vertices(6, [2, 5])) == 1

    def test_edgeless(self):
        g = empty_graph(5)
        m = cut_matrix(g, Cut.from_vertices(5, [1, 3]))
        assert m.row_words == (0, 0)
        assert cut_rank(g, Cut.from_vertices(5, [1, 3])) == 0

    def test_path_example(self):
        p4 = path_graph(4)
        x = Cut.from_vertices(4, [0, 1])
        assert cut_matrix(p4, x).to_lists() == [[0, 0], [1, 0]]
        assert cut_rank(p4, x) == 1

    def test_empty_side(self):
        assert cut_rank(path_graph(4), Cut(0, 4)) == 0

    def test_rank_matches_cut_matrix_rank(self):
        # the fast masked path against the explicit gathered submatrix
        rng = SplitMix64(404)
        for _ in range(50):
            n = rng.next_bits(3) + 2
            g = sample_gnp_half(n, rng.next_word())
            cut = Cut(rng.next_bits(n), n)
            assert cut_rank(g, cut) == rank(cut_matrix(g, cut))

    def test_symmetric_under_complement_exhaustive(self):
        for n in range(1, 13):
            g = sample_gnp_half(n, 7000 + n)
            for cut in all_cuts(n):
                assert cut_rank(g, cut) == cut_rank(g, cut.complement())
                assert cut_rank(g, cut) <= min(cut.size, n - cut.size)

    def test_named_graphs_symmetric_under_complement(self):
        named = [complete_graph(12), path_graph(12), cycle_graph(12), empty_graph(12)]
        for g in named:
            for cut in all_cuts(g.n):
                assert cut_rank(g, cut) == cut_rank(g, cut.complement())

    def test_vertex_deletion_never_increases(self):
        rng = SplitMix64(505)
        for _ in range(30):
            n = 7
            g = sample_gnp_half(n, rng.next_word())
            drop = rng.randbelow(n)
            keep = [v for v in range(n) if v != drop]
            h = Graph.from_edges(
                n - 1,
                [
                    (keep.index(u), keep.index(v))
                    for u, v in g.edges()
                    if u != drop and v != drop
                ],
            )
            bits = rng.next_bits(n) & ~(1 << drop)
            small = 0
            for i, v in enumerate(keep):
                if (bits >> v) & 1:
                    small |= 1 << i
            assert cut_rank(h, Cut(small, n - 1)) <= cut_rank(g, Cut(bits, n))


class TestGraph6:
    def test_k1_and_empty(self):
        assert emit_graph6(Graph.from_edges(1, [])) == "@"
        assert emit_graph6(Graph.from_edges(0, [])) == "?"
        assert emit_graph6(path_graph(3)) == "Bg"

    def test_round_trip_random(self):
        rng = SplitMix64(606)
        for _ in range(100):
            n = rng.randbelow(21)
            g = sample_gnp_half(n, rng.next_word())
            assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_large_n(self):
        g = sample_gnp_half(70, 2)
        assert parse_graph6(emit_graph6(g)) == g

    def test_header_accepted(self):
        g = cycle_graph(5)
        assert parse_graph6(">>graph6<<" + emit_graph6(g)) == g

    def test_malformed_inputs(self):
        with pytest.raises(ParseError):
            parse_graph6("")
        with pytest.raises(ParseError, match="range"):
            parse_graph6("B\x1f\x1f")
        with pytest.raises(ParseError, match="payload"):
            parse_graph6("D")  # n=5 needs payload characters
        with pytest.raises(ParseError, match="padding"):
            # n=2: one payload char; only the top bit may be set
            parse_graph6(chr(63 + 2) + chr(63 + 1))

    def test_encode_rejects_n_past_the_8_byte_field(self):
        assert _g6_encode_length(2**36 - 1) == "~~~~~~~~"
        with pytest.raises(ValueError, match="^graph too large for graph6$"):
            _g6_encode_length(2**36)

    def test_parse_error_reports_offset(self):
        try:
            parse_graph6("D")
        except ParseError as err:
            assert err.position == 1

    def test_format_spec_example(self):
        # the graph6 format description's own example; round trips alone
        # cannot catch a bit order changed the same way in both directions
        g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
        assert emit_graph6(g) == "DQc"
        assert parse_graph6("DQc") == g

    def test_padding_error_position(self):
        with pytest.raises(ParseError, match="padding") as err:
            parse_graph6(chr(65) + chr(64))
        assert err.value.position == 1


    @pytest.mark.parametrize("n", [63, 258047, 258048, 68719476735])
    def test_length_field_round_trip(self, n):
        field = _g6_encode_length(n)
        assert len(field) == (4 if n <= 258047 else 8)
        assert _g6_decode_length(field, 0) == (n, len(field))

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("~", "truncated 4-byte graph6 length field", 0),
            ("~??", "truncated 4-byte graph6 length field", 0),
            ("~~?????", "truncated 8-byte graph6 length field", 0),
            (">>graph6<<~~?", "truncated 8-byte graph6 length field", 10),
            # n = 5 fits the 1-byte form, so the longer forms are overlong
            ("~??DQc", "overlong graph6 length encoding", 0),
            ("~~?????DQc", "overlong graph6 length encoding", 0),
            ("~~???}~~", "overlong graph6 length encoding", 0),  # n = 258047
            # the smallest n the 8-byte form may carry; only lengths are compared
            ("~~???~???", "expected 5549042688 payload characters for n=258048, found 1", 8),
        ],
    )
    def test_length_field_errors(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_graph6(text)
        assert (str(err.value), err.value.position) == (message, position)


class TestEdgeList:
    def test_parse_path(self):
        g = parse_edge_list("3\n0 1\n1 2")
        assert g == path_graph(3)

    def test_duplicates_collapse(self):
        g = parse_edge_list("3\n0 1\n1 0\n0 1")
        assert g.edges() == [(0, 1)]

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("2\n0 0")
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("2\n0 1\n0 5")
        with pytest.raises(ParseError):
            parse_edge_list("")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "missing vertex-count line", 1),
            ("x\n0 1", "bad vertex count 'x'", 1),
            ("-2\n", "negative vertex count -2", 1),
            ("3\n0 1 2", "expected 'u v' on line 2", 2),
            ("3\n0 1\n\n1", "expected 'u v' on line 4", 4),
            ("3\n0 a", "non-integer endpoint on line 2", 2),
        ],
    )
    def test_error_messages(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert (str(err.value), err.value.position) == (message, position)

    def test_round_trip_canonical(self):
        rng = SplitMix64(707)
        for _ in range(50):
            g = sample_gnp_half(rng.randbelow(12), rng.next_word())
            text = emit_edge_list(g)
            assert parse_edge_list(text) == g
            assert emit_edge_list(parse_edge_list(text)) == text
