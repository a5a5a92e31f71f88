import dataclasses
import gc
import math
import re
import sys
import tracemalloc
from itertools import combinations

import pytest

from widthlab import (
    CUT_BOOL_FUNCTION,
    CUT_RANK_FUNCTION,
    CapExceeded,
    ContractError,
    Cut,
    CutFunction,
    DecompositionTree,
    ExperimentConfig,
    Graph,
    ParseError,
    SplitMix64,
    StructureError,
    balanced_cut_lower_bound,
    booleanwidth,
    boolw_vs_rw_experiment,
    brute_force_f_width,
    complete_graph,
    cut_bool,
    cut_rank,
    cycle_graph,
    emit_graph6,
    emit_tree,
    empty_graph,
    exact_f_width,
    galois_number,
    log2_int,
    mix_seed,
    parse_tree,
    path_graph,
    rankwidth,
    sample_gnp_half,
    scaling_experiment,
    tree_cuts,
    tree_width_under,
)
from widthlab import boolspace, widths
from widthlab.boolspace import _cut_bool_count_bits
from widthlab.graphs import _cut_rank_bits
from widthlab.widths import (
    _best_split,
    _bits_eval,
    _exact_width,
    _half_table,
    _planes,
    _subset_dp,
    _transpose,
    _verified,
    _witness_tree,
)

from conftest import run_cli


def caterpillar(n):
    """Spine of n-2 internal nodes; end spine nodes carry two leaves each."""
    assert n >= 4
    spine = list(range(n, 2 * n - 2))
    edges = [(0, spine[0]), (1, spine[0])]
    edges += [(spine[j], spine[j + 1]) for j in range(len(spine) - 1)]
    for i in range(2, n - 2):
        edges.append((i, spine[i - 1]))
    edges.append((n - 2, spine[-1]))
    edges.append((n - 1, spine[-1]))
    return DecompositionTree(2 * n - 2, edges, {v: v for v in range(n)})


class TestDecompositionTree:
    def test_structural_validation(self):
        with pytest.raises(StructureError, match="degree"):
            # a 4-node star has an internal node of degree 3 but leaf count 3
            DecompositionTree(5, [(0, 4), (1, 4), (2, 4), (3, 4)], {0: 0, 1: 1, 2: 2, 3: 3})
        with pytest.raises(StructureError, match="connected"):
            DecompositionTree(4, [(0, 1), (1, 2), (2, 0)], {0: 0, 1: 1, 2: 2, 3: 3})
        with pytest.raises(StructureError, match="injective"):
            DecompositionTree(2, [(0, 1)], {0: 0, 1: 0})

    @pytest.mark.parametrize(
        "node_count, edges, leaf_map, message",
        [
            (2, [(1, 1)], {0: 0, 1: 1}, "self-loop at tree node 1"),
            (2, [(0, 2)], {0: 0, 1: 1}, "edge (0,2) out of node range"),
            (2, [(-1, 0)], {0: 0, 1: 1}, "edge (-1,0) out of node range"),
            (3, [(0, 1), (1, 0)], {0: 0, 1: 1}, "duplicate tree edge"),
            (3, [(0, 1)], {0: 0, 1: 1}, "3 nodes need 2 edges, got 1"),
            (2, [(0, 1)], {0: 0, 5: 1}, "leaf node 5 out of range"),
            (2, [(0, 1)], {0: 0, 1: 2}, "leaf labels must be exactly 0..n-1"),
            (3, [(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2}, "leaf node 1 has degree 2"),
            (2, [(0, 1)], {0: 0}, "internal node 1 has degree 1, not 3"),
        ],
    )
    def test_structure_error_messages(self, node_count, edges, leaf_map, message):
        with pytest.raises(StructureError) as err:
            DecompositionTree(node_count, edges, leaf_map)
        assert str(err.value) == message

    def test_equality_ignores_node_numbering(self):
        rng = SplitMix64(404)
        tree = caterpillar(6)  # leaf 2 hangs next to the cherry {0, 1}, leaf 3 does not
        assert tree == renumbered(6, tree.edges, rng)
        assert tree != renumbered(6, tree.edges, rng, labels=[0, 1, 3, 2, 4, 5])
        assert tree.__eq__("tree 6\n") is NotImplemented and tree != "tree 6\n"

    def test_leaf_bijection_checked_against_graph(self):
        t = caterpillar(4)
        with pytest.raises(StructureError):
            tree_width_under(path_graph(5), t, CUT_RANK_FUNCTION)

    def test_tree_cuts_exclude_vertex_zero(self):
        t = caterpillar(5)
        for cut in tree_cuts(t):
            assert not (cut.bits & 1)
        assert len(tree_cuts(t)) == 2 * 5 - 3


def random_tree_edges(n, rng):
    """A random tree with leaf v at node v: leaf k goes into a random edge."""
    edges = [(0, 1)]
    for k in range(2, n):
        a, b = edges.pop(rng.randbelow(len(edges)))
        node = n + k - 2
        edges += [(a, node), (node, b), (node, k)]
    return edges


def shuffled(k, rng):
    """A uniform permutation of range(k) (sample_indices returns sorted)."""
    perm = list(range(k))
    for i in range(k - 1, 0, -1):
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def renumbered(n, edges, rng, labels=None):
    """The tree with every node renumbered at random, leaves included.

    Leaf v keeps label v unless `labels` gives it labels[v].
    """
    perm = shuffled(2 * n - 2, rng)
    labels = labels or list(range(n))
    return DecompositionTree(
        2 * n - 2,
        [(perm[a], perm[b]) for a, b in edges],
        {perm[v]: labels[v] for v in range(n)},
    )


def cuts_by_edge_removal(tree):
    """For each sorted edge: the leaf labels on the side without leaf 0."""
    out = []
    for a, b in tree.edges:
        seen, stack = {a}, [a]
        while stack:
            u = stack.pop()
            for w in tree.neighbors(u):
                if w not in seen and {u, w} != {a, b}:
                    seen.add(w)
                    stack.append(w)
        labels = {tree.leaf_map[u] for u in seen if u in tree.leaf_map}
        if 0 in labels:
            labels = set(range(tree.n_leaves)) - labels
        out.append(Cut.from_vertices(tree.n_leaves, sorted(labels)))
    return out


class TestGeneralLeafMap:
    """Trees whose leaves sit on arbitrary node ids, not leaf v at node v."""

    def test_tree_cuts_match_edge_removal(self):
        rng = SplitMix64(2468)
        for n in range(2, 11):
            for _ in range(5):
                edges = random_tree_edges(n, rng)
                labels = shuffled(n, rng)
                tree = renumbered(n, edges, rng, labels)
                assert tree_cuts(tree) == cuts_by_edge_removal(tree)

    def test_emit_tree_ignores_node_numbering(self):
        rng = SplitMix64(1357)
        for n in range(2, 11):
            for _ in range(5):
                edges = random_tree_edges(n, rng)
                plain = DecompositionTree(2 * n - 2, edges, {v: v for v in range(n)})
                moved = renumbered(n, edges, rng)
                assert emit_tree(moved) == emit_tree(plain)
                assert emit_tree(parse_tree(emit_tree(moved))) == emit_tree(plain)

    def test_width_ignores_node_numbering(self):
        rng = SplitMix64(97531)
        for n in (5, 8):
            g = sample_gnp_half(n, rng.next_word())
            edges = random_tree_edges(n, rng)
            plain = DecompositionTree(2 * n - 2, edges, {v: v for v in range(n)})
            moved = renumbered(n, edges, rng)
            bits = sorted(c.bits for c in tree_cuts(plain))
            assert sorted(c.bits for c in tree_cuts(moved)) == bits
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                want = tree_width_under(g, plain, f).value
                assert tree_width_under(g, moved, f).value == want


class TestTreeWidthUnder:
    def test_complete_graph_any_tree(self):
        t = caterpillar(5)
        res = tree_width_under(complete_graph(5), t, CUT_RANK_FUNCTION)
        assert res.value == 1.0

    def test_edgeless_graph(self):
        t = caterpillar(6)
        assert tree_width_under(empty_graph(6), t, CUT_RANK_FUNCTION).value == 0.0
        assert tree_width_under(empty_graph(6), t, CUT_BOOL_FUNCTION).value == 0.0

    def test_path_with_caterpillar(self):
        # P4 under a caterpillar whose middle edge splits {0,1} | {2,3}:
        # hand-evaluated cut ranks over the 5 tree edges are 1,1,1,1,1
        t = caterpillar(4)
        res = tree_width_under(path_graph(4), t, CUT_RANK_FUNCTION)
        assert res.value == 1.0

    def test_single_vertex_and_empty(self):
        t1 = DecompositionTree(1, [], {0: 0})
        assert tree_width_under(Graph.from_edges(1, []), t1, CUT_RANK_FUNCTION).value == 0.0
        t0 = DecompositionTree(0, [], {})
        assert tree_width_under(Graph.from_edges(0, []), t0, CUT_RANK_FUNCTION).value == 0.0

    def test_witness_cut_achieves_value(self):
        g = sample_gnp_half(6, 17)
        t = caterpillar(6)
        res = tree_width_under(g, t, CUT_RANK_FUNCTION)
        assert float(cut_rank(g, res.witness_cut)) == res.value


class TestGlobalComplementSemantics:
    def test_worked_example(self):
        # P4 = 0-1-2-3.  The subset S = {0,3} of a split has f evaluated
        # against the GLOBAL complement {1,2}: both endpoints have a neighbor
        # there, and the cut matrix [[1,0],[0,1]] has rank 2.  Inside any
        # recursion on S the value stays 2; an engine that evaluated f
        # "within S" would see the empty graph on {0,3} and report 0.
        p4 = path_graph(4)
        assert cut_rank(p4, Cut.from_vertices(4, [0, 3])) == 2
        # The DP must therefore avoid {0,3}|{1,2} as the root split of an
        # optimal tree: rankwidth(P4) is 1.
        assert rankwidth(p4).value == 1.0
        # Verify every cut of the optimal tree avoids the rank-2 bipartition.
        res = rankwidth(p4)
        for cut in tree_cuts(res.witness_tree):
            assert cut_rank(p4, cut) <= 1


class TestExactFWidth:
    def test_named_graph_values(self):
        for n in range(2, 9):
            assert rankwidth(complete_graph(n)).value == 1.0
        assert rankwidth(cycle_graph(5)).value == 2.0
        assert rankwidth(path_graph(6)).value == 1.0
        assert booleanwidth(complete_graph(5)).value == 1.0
        assert rankwidth(Graph.from_edges(1, [])).value == 0.0
        assert rankwidth(Graph.from_edges(0, [])).value == 0.0

    def test_rankwidth_zero_iff_edgeless(self):
        rng = SplitMix64(271)
        for n in range(2, 8):
            assert rankwidth(empty_graph(n)).value == 0.0
            g = sample_gnp_half(n, rng.next_word())
            if g.edge_count() > 0:
                assert rankwidth(g).value >= 1.0

    def test_two_vertices(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert rankwidth(g).value == 1.0
        assert exact_f_width(empty_graph(2), CUT_RANK_FUNCTION).value == 0.0

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded, match="16"):
            exact_f_width(empty_graph(17), CUT_RANK_FUNCTION)
        with pytest.raises(CapExceeded, match="4"):
            exact_f_width(empty_graph(5), CUT_RANK_FUNCTION, n_cap=4)

    def test_witness_tree_reproduces_value(self):
        rng = SplitMix64(828)
        for _ in range(10):
            g = sample_gnp_half(7, rng.next_word())
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                res = exact_f_width(g, f)
                again = tree_width_under(g, res.witness_tree, f)
                assert again.value == res.value

    def test_asymmetric_function_rejected(self):
        bad = CutFunction(
            name="bad",
            evaluate=lambda g, c: float(c.size),
        )
        with pytest.raises(ContractError):
            exact_f_width(sample_gnp_half(5, 1), bad)

    def test_custom_symmetric_function(self):
        # min(|X|, n-|X|) is a legitimate symmetric cut function; its width
        # is the classic "carving-like" balance cost of the best tree.
        f = CutFunction(
            name="minside",
            evaluate=lambda g, c: float(min(c.size, g.n - c.size)),
        )
        res = exact_f_width(sample_gnp_half(6, 3), f)
        oracle = brute_force_f_width(sample_gnp_half(6, 3), f)
        assert res.value == oracle.value

    def test_deterministic_witness(self):
        g = sample_gnp_half(7, 55)
        a = exact_f_width(g, CUT_RANK_FUNCTION)
        b = exact_f_width(g, CUT_RANK_FUNCTION)
        assert emit_tree(a.witness_tree) == emit_tree(b.witness_tree)
        assert a.witness_cut == b.witness_cut


def _all_engines(graph, f):
    """Run f through each engine that audits the symmetry contract."""
    return [
        lambda: exact_f_width(graph, f),
        lambda: brute_force_f_width(graph, f),
        lambda: balanced_cut_lower_bound(graph, f),
        lambda: tree_width_under(graph, caterpillar(graph.n), f),
    ]


class TestSymmetryContract:
    def test_one_asymmetric_subset_outside_the_sample(self):
        # 0x11 and its complement are not among the 34 subsets the seeded
        # spot check draws at n = 6, so only the full audit can see them.
        def minside_but_one(graph, cut):
            k = float(min(cut.size, graph.n - cut.size))
            return k + 1.0 if cut.bits == 0x11 else k

        f = CutFunction(name="skew", evaluate=minside_but_one)
        g = sample_gnp_half(6, 1)
        assert tree_width_under(g, caterpillar(6), f).value == 3.0
        message = r"'skew' is not symmetric at subset 0x11: 3\.0 vs 2\.0"
        with pytest.raises(ContractError, match=message):
            exact_f_width(g, f)

    def test_balanced_bound_audits_every_pair(self):
        # the bound reads the half table, so a user function is audited on
        # every pair there, 0x11 included
        def minside_but_one(graph, cut):
            k = float(min(cut.size, graph.n - cut.size))
            return k + 1.0 if cut.bits == 0x11 else k

        f = CutFunction(name="skew", evaluate=minside_but_one)
        message = r"'skew' is not symmetric at subset 0x11: 3\.0 vs 2\.0"
        with pytest.raises(ContractError, match=message):
            balanced_cut_lower_bound(sample_gnp_half(6, 1), f)

    def test_the_pair_with_the_smallest_lower_side_is_reported(self):
        # 0x25 holds vertex 5, so its pair is reported from the lower side
        # 0x1a; with 0x11 skewed too, 0x11 is the pair reported
        def skewed_at(*sides):
            def f(graph, cut):
                k = float(min(cut.size, graph.n - cut.size))
                return k + 1.0 if cut.bits in sides else k

            return CutFunction(name="skew", evaluate=f)

        g = sample_gnp_half(6, 1)
        for sides, message in (
            ((0x25,), r"subset 0x1a: 3\.0 vs 4\.0"),
            ((0x11, 0x25), r"subset 0x11: 3\.0 vs 2\.0"),
        ):
            for run in (exact_f_width, balanced_cut_lower_bound):
                with pytest.raises(ContractError, match=message):
                    run(g, skewed_at(*sides))

    def test_nonzero_on_the_empty_side_rejected_by_every_engine(self):
        f = CutFunction(name="one", evaluate=lambda g, c: 1.0)
        for run in _all_engines(sample_gnp_half(6, 1), f):
            with pytest.raises(ContractError, match="'one' must vanish on the empty side"):
                run()

    def test_side_size_rejected_by_every_engine(self):
        f = CutFunction(name="size", evaluate=lambda g, c: float(c.size))
        for run in _all_engines(sample_gnp_half(6, 1), f):
            with pytest.raises(ContractError, match="'size' is not symmetric"):
                run()


class TestOneAuditPerCall:
    def test_each_engine_audits_once(self, monkeypatch):
        calls = []
        spot_check = widths._spot_check_symmetry
        monkeypatch.setattr(
            widths, "_spot_check_symmetry", lambda *args: calls.append(1) or spot_check(*args)
        )
        engines = ("exact", "brute force", "balanced", "tree")
        for name, run in zip(engines, _all_engines(sample_gnp_half(6, 1), CUT_RANK_FUNCTION)):
            calls.clear()
            run()
            assert len(calls) == 1, name


def reference_min_max_dp(graph, f):
    """The full-scan min-max subset DP with split tables: an oracle for exact_f_width.

    Every split of every subset is scanned; ties between optimal splits
    resolve to the numerically smallest side.  Returns (value, tree).
    """
    n = graph.n
    ev = _bits_eval(graph, f)
    size = 1 << n
    full = size - 1
    fval = [0.0] * size
    for s in range(1, full):
        fval[s] = ev(s)

    g = [0.0] * size  # g[S] = max(fval[S], c[S]) once S is finalized
    split = [0] * size
    best_val = [0.0] * size
    for s in range(1, size):
        if s.bit_count() == 1:
            g[s] = fval[s]
            continue
        low = s & -s
        rest = s ^ low
        best = math.inf
        best_side = 0
        sub = rest
        while True:
            s1 = sub | low
            s2 = s ^ s1
            if s2:
                a = g[s1]
                b = g[s2]
                m = a if a >= b else b
                if m < best:
                    best = m
                    best_side = s1 if s1 <= s2 else s2
                elif m == best:
                    cand = s1 if s1 <= s2 else s2
                    if cand < best_side:
                        best_side = cand
            if not sub:
                break
            sub = (sub - 1) & rest
        split[s] = best_side
        best_val[s] = best
        fs = fval[s]
        g[s] = best if best >= fs else fs

    edges = []
    counter = [n]

    def build(s):
        if s & (s - 1) == 0:
            return s.bit_length() - 1
        s1 = split[s]
        a = build(s1)
        b = build(s ^ s1)
        node = counter[0]
        counter[0] += 1
        edges.append((a, node))
        edges.append((node, b))
        return node

    s1 = split[full]
    a = build(s1)
    b = build(full ^ s1)
    edges.append((a, b))
    return best_val[full], DecompositionTree(counter[0], edges, {v: v for v in range(n)})


HALF_MIN_SIDE = CutFunction(
    name="halfminside",
    evaluate=lambda g, c: 0.5 * min(c.size, g.n - c.size),
)
INT_MIN_SIDE = CutFunction(
    name="intminside",
    evaluate=lambda g, c: min(c.size, g.n - c.size),
)
# an int on the sides without vertex 0 and an equal float on those with it
MIXED_MIN_SIDE = CutFunction(
    name="mixedminside",
    evaluate=lambda g, c: (float if c.bits & 1 else int)(min(c.size, g.n - c.size)),
)


class TestReferenceDPOracle:
    """exact_f_width prunes its scans and rebuilds the witness from g alone;
    value, value type and witness tree text must match the full-scan DP."""

    def assert_same(self, graph, f):
        res = exact_f_width(graph, f)
        value, tree = reference_min_max_dp(graph, f)
        assert repr(res.value) == repr(value)
        assert type(res.value) is type(value)
        assert emit_tree(res.witness_tree) == emit_tree(tree)
        assert res.witness_tree.edges == tree.edges

    def test_random_graphs(self):
        rng = SplitMix64(4242)
        for n in range(2, 12):
            for _ in range(6 if n <= 9 else 3):
                g = sample_gnp_half(n, rng.next_word())
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    self.assert_same(g, f)

    def test_named_graphs(self):
        for n in range(2, 12):
            named = [complete_graph(n), path_graph(n), empty_graph(n)]
            if n >= 3:
                named.append(cycle_graph(n))
            for g in named:
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    self.assert_same(g, f)

    def test_tie_heavy_custom_functions(self):
        rng = SplitMix64(5353)
        for n in range(2, 12):
            g = sample_gnp_half(n, rng.next_word())
            for f in (HALF_MIN_SIDE, INT_MIN_SIDE):
                self.assert_same(g, f)

    def test_int_function_keeps_int(self):
        res = exact_f_width(sample_gnp_half(8, 12), INT_MIN_SIDE)
        assert type(res.value) is int
        assert res.value == 3


def mirrored(low):
    """The 2^n table of a half table: table[full ^ s] = low[s]."""
    return low + low[::-1]


def scan_subset_dp(g, bound):
    """The DP below bound by the ascending scan alone: g[S] = f(S) becomes
    max(f(S), c(S)) for 2 < S < bound.  The oracle of _subset_dp, which
    settles most sets by layer certificates and decides the rest by threshold
    bitsets instead."""
    for s in range(3, bound):
        if s & (s - 1):
            fs = g[s]
            best = _best_split(g, s, fs)[0]
            if best > fs:
                g[s] = best


def assert_same_as_scan(low):
    """_subset_dp leaves every cell of a copy of low holding the very object
    that scan_subset_dp leaves there."""
    got, ref = list(low), list(low)
    _subset_dp(got)
    scan_subset_dp(ref, len(ref))
    assert all(a is b for a, b in zip(got, ref))


def full_table_f_width(graph, f):
    """exact_f_width by the scan DP over the mirrored 2^n table, the root side
    from _best_split over all of it: the oracle for its value and witness text."""
    n = graph.n
    g = mirrored(_half_table(graph, f))
    full = (1 << n) - 1
    scan_subset_dp(g, full)
    value, t = _best_split(g, full)
    return _verified(graph, f, value, _witness_tree(lambda s: _best_split(g, s)[1], n, t))


# X * (V \ X) as packed ints: symmetric, 0 on the empty side, and one distinct
# int per complementary pair, far more values than a byte can number
SPREAD_VALUES = CutFunction(
    name="spread",
    evaluate=lambda g, c: c.bits * (((1 << g.n) - 1) ^ c.bits),
)


class TestWideSetsByBitsets:
    """_subset_dp decides each set that the layer certificate leaves by
    probing its threshold bitsets upward from f(S); every cell must hold the
    very object that the scan DP leaves there.  A per-subset function gives
    each cell its own object, so the object pins the side that the value
    came from."""

    def test_random_graphs(self):
        rng = SplitMix64(1919)
        for n in range(10, 17):
            g = sample_gnp_half(n, rng.next_word())
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                assert_same_as_scan(_half_table(g, f))
                if n <= 13:
                    assert_same_as_scan(_half_table(g, dataclasses.replace(f)))

    def test_named_graphs(self):
        for n in (11, 13, 14):
            for g in (empty_graph(n), complete_graph(n), _star(n, 0), _star(n, n - 1)):
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    assert_same_as_scan(_half_table(g, f))

    def test_equal_values_of_two_types(self):
        rng = SplitMix64(2020)
        for n in (11, 12, 13):
            low = _half_table(sample_gnp_half(n, rng.next_word()), MIXED_MIN_SIDE)
            assert_same_as_scan(low)

    def test_more_than_a_byte_of_values(self):
        for n in (11, 12, 13):
            low = _half_table(empty_graph(n), SPREAD_VALUES)
            assert len(set(low)) > 256
            assert_same_as_scan(low)

    @pytest.mark.parametrize("count, bitsets", [(256, True), (257, False)])
    def test_bitsets_up_to_a_byte_of_values(self, monkeypatch, count, bitsets):
        # SPREAD_VALUES's table at n = 13 cut down to count distinct values,
        # in the same order; past 256 every set is scanned
        calls, layered_dp = [], widths._layered_dp
        monkeypatch.setattr(widths, "_layered_dp", lambda *a: calls.append(layered_dp(*a)))
        spread = _half_table(empty_graph(13), SPREAD_VALUES)
        values = sorted(set(spread))
        number = {v: k * count // len(values) for k, v in enumerate(values)}
        low = [number[v] for v in spread]
        assert len(set(low)) == count
        assert_same_as_scan(low)
        assert calls == ([None] if bitsets else [])

    @pytest.mark.parametrize("stream", [0, 1, 2, 3, 9])
    def test_every_size_by_bitsets(self, stream):
        # every set the layer certificate leaves, of whatever size, is
        # decided by its threshold bitsets; each case draws its graphs from
        # its own random stream, and stream 0 is the original case's
        rng = SplitMix64(2121 + stream)
        for n in range(4, 11):
            g = sample_gnp_half(n, rng.next_word())
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                assert_same_as_scan(_half_table(g, dataclasses.replace(f)))
            for f in (MIXED_MIN_SIDE, HALF_MIN_SIDE, SPREAD_VALUES):
                assert_same_as_scan(_half_table(g, f))


class TestLayerCertificate:
    """_subset_dp settles a popcount layer's sets by one-vertex splits in
    bitsets (_layered_dp) and works only the rest; every cell must hold the
    very object the scan DP leaves there."""

    @staticmethod
    def leaf_rooted(low):
        """The table that _exact_width hands the DP: f on the sets without vertex 0."""
        return low[::2] + low[::-2]

    def test_builtins(self, monkeypatch):
        calls, planes = [], widths._planes
        monkeypatch.setattr(widths, "_planes", lambda *a: calls.append(a) or planes(*a))
        rng = SplitMix64(2323)
        for n in range(3, 17):
            g = sample_gnp_half(n, rng.next_word())
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                low = _half_table(g, f)
                assert_same_as_scan(self.leaf_rooted(low))
                assert_same_as_scan(low)
        # the lanes ran on the tables of 8 cells or more: n = 4..16
        assert len(calls) == 2 * 2 * 13

    def test_copies_of_the_builtins(self):
        rng = SplitMix64(2424)
        for n in range(3, 14):
            g = sample_gnp_half(n, rng.next_word())
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                assert_same_as_scan(self.leaf_rooted(_half_table(g, dataclasses.replace(f))))

    def test_tie_heavy_custom_functions(self):
        rng = SplitMix64(2525)
        for n in range(3, 14):
            g = sample_gnp_half(n, rng.next_word())
            for f in (MIXED_MIN_SIDE, HALF_MIN_SIDE, INT_MIN_SIDE):
                low = _half_table(g, f)
                assert_same_as_scan(self.leaf_rooted(low))
                assert_same_as_scan(low)

    def test_named_graphs(self):
        for n in range(3, 15):
            for g in (empty_graph(n), complete_graph(n), _star(n, 0), _star(n, n - 1)):
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    assert_same_as_scan(self.leaf_rooted(_half_table(g, f)))

    def test_certifies_only_through_sets_that_kept_f(self):
        # f({0}) = f({1}) = 2 and f({0, 1, 2}) = 1 on 10 vertices, 0 elsewhere.
        # S = {0, 1, 2} and v = 2 have f(S - {v}) = 0 <= f(S) and f({v}) <= f(S),
        # but g[{0, 1}] rises to 2, as do g[{0, 2}] and g[{1, 2}], so every
        # split of S has value 2 and g[S] rises too.  A certificate read from
        # f alone would leave g[S] = f(S).
        low = [float(x) for x in [0] * (1 << 10)]
        low[0b1], low[0b10], low[0b111] = 2.0, 2.0, 1.0
        got = list(low)
        _subset_dp(got)
        assert got[0b11] == got[0b111] == 2.0
        assert_same_as_scan(low)

    @pytest.mark.parametrize(
        "n, function",
        [
            (10, CUT_RANK_FUNCTION),
            (10, CUT_BOOL_FUNCTION),
            (13, SPREAD_VALUES),
            (3, CUT_BOOL_FUNCTION),
        ],
    )
    def test_no_lane_planes_below_the_bound(self, monkeypatch, n, function):
        # a table of 2^9 cells, as is every DP at n = 10, runs on the lanes,
        # once per DP; a table of 4 cells and one of more than 256 values
        # are scanned set by set
        calls, planes = [], widths._planes
        monkeypatch.setattr(widths, "_planes", lambda *a: calls.append(a) or planes(*a))
        g = sample_gnp_half(n, 7)
        low = _half_table(g, function)
        assert len(low) == 1 << (n - 1)
        assert_same_as_scan(self.leaf_rooted(low))
        if n == 10:
            exact_f_width(g, function)
        assert len(calls) == (2 if n == 10 else 0)


class TestBitTranspose:
    """_transpose swaps bit j of byte 8b + i with bit i of byte 8b + j; the
    rank fill and _planes both read their bytes or planes through it."""

    def test_each_bit_moves_across_the_block_diagonal(self):
        for b in range(2):
            for i in range(8):
                for j in range(8):
                    rows = bytearray(16)
                    rows[8 * b + i] = 1 << j
                    want = bytearray(16)
                    want[8 * b + j] = 1 << i
                    assert _transpose(bytes(rows)) == want

    def test_its_own_inverse(self):
        rng = SplitMix64(2626)
        for words in (1, 2, 3, 64):
            for _ in range(20):
                rows = rng.next_bits(64 * words).to_bytes(8 * words, "little")
                assert _transpose(_transpose(rows)) == rows

    def test_planes_match_per_cell_bits(self):
        rng = SplitMix64(2727)
        for size in (8, 16, 512):
            code = bytes(rng.next_bits(8) for _ in range(size))
            planes = _planes(code, 8)
            for j, plane in enumerate(planes):
                assert plane == sum((c >> j & 1) << s for s, c in enumerate(code))
            assert _planes(code, 3) == planes[:3]


class TestFullTableOracle:
    """exact_f_width runs the DP on the sets without vertex 0 alone; value,
    value type, witness tree and witness cut must be the full-table DP's."""

    def assert_same(self, graph, f):
        res, ref = exact_f_width(graph, f), full_table_f_width(graph, f)
        assert repr(res.value) == repr(ref.value)
        assert type(res.value) is type(ref.value)
        assert emit_tree(res.witness_tree) == emit_tree(ref.witness_tree)
        assert res.witness_tree.edges == ref.witness_tree.edges
        assert res.witness_cut == ref.witness_cut

    def test_random_graphs(self):
        rng = SplitMix64(8686)
        for n in range(2, 16):
            for _ in range(4 if n <= 10 else 2 if n <= 12 else 1):
                g = sample_gnp_half(n, rng.next_word())
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    self.assert_same(g, f)

    def test_named_graphs(self):
        for n in range(3, 13):
            for g in _named_graphs(n) + [_star(n, n - 1), _star(n, 0)]:
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    self.assert_same(g, f)

    def test_tie_heavy_custom_functions(self):
        rng = SplitMix64(8787)
        for n in range(2, 12):
            for _ in range(3):
                g = sample_gnp_half(n, rng.next_word())
                for f in (HALF_MIN_SIDE, INT_MIN_SIDE, MIXED_MIN_SIDE):
                    self.assert_same(g, f)


class TestLeafRootedDP:
    """The DP rooted at the edge to leaf 0 on a given half table, which the
    experiments also call: the value of exact_f_width and of the full-scan
    DP, a witness that re-evaluates to it, and the half table left as it
    was, cell for cell, since the scaling trial's balanced bound reads it."""

    def assert_same(self, graph, f):
        n = graph.n
        low = _half_table(graph, f)
        assert len(low) == 1 << (n - 1)
        cells = list(low)
        res = _exact_width(graph, f, low)
        assert len(low) == len(cells) and all(a is b for a, b in zip(low, cells))
        ref = exact_f_width(graph, f)
        assert repr(res.value) == repr(ref.value)
        assert type(res.value) is type(ref.value)
        value = reference_min_max_dp(graph, f)[0]
        assert repr(res.value) == repr(value)
        assert type(res.value) is type(value)
        tree = res.witness_tree
        assert tree.n_leaves == n and tree.node_count == 2 * n - 2
        assert tree_width_under(graph, tree, f).value == res.value
        assert res.witness_cut in tree_cuts(tree)

    def test_random_graphs(self):
        rng = SplitMix64(9191)
        for n in range(2, 14):
            for _ in range(5 if n <= 9 else 2 if n <= 11 else 1):
                g = sample_gnp_half(n, rng.next_word())
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    self.assert_same(g, f)

    def test_named_graphs(self):
        for n in range(2, 12):
            named = [complete_graph(n), path_graph(n), empty_graph(n)]
            if n >= 3:
                named.append(cycle_graph(n))
            for g in named:
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    self.assert_same(g, f)

    def test_tie_heavy_custom_functions(self):
        rng = SplitMix64(9292)
        for n in range(2, 12):
            g = sample_gnp_half(n, rng.next_word())
            for f in (HALF_MIN_SIDE, INT_MIN_SIDE):
                self.assert_same(g, f)

    def test_trivial_graphs(self):
        for n in (0, 1):
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                res = _exact_width(empty_graph(n), f, [0.0])
                assert (res.value, res.witness_tree.n_leaves) == (0.0, n)


class TestBruteForceOracle:
    def test_matches_exact_on_corpus(self):
        rng = SplitMix64(9009)
        for n in (5, 6, 7):
            for _ in range(4):
                g = sample_gnp_half(n, rng.next_word())
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    assert exact_f_width(g, f).value == brute_force_f_width(g, f).value

    def test_cap(self):
        with pytest.raises(CapExceeded):
            brute_force_f_width(empty_graph(9), CUT_RANK_FUNCTION)

    def test_two_vertex_value(self):
        g = Graph.from_edges(2, [(0, 1)])
        res = brute_force_f_width(g, CUT_RANK_FUNCTION)
        assert res.value == float(cut_rank(g, Cut.from_vertices(2, [0])))

    @pytest.mark.parametrize("n", [0, 1])
    def test_below_two_vertices(self, n):
        # no cut to evaluate: width 0, the edgeless tree and the empty cut
        res = brute_force_f_width(Graph.from_edges(n, []), CUT_RANK_FUNCTION)
        assert res.value == 0.0
        assert emit_tree(res.witness_tree) == f"tree {n}\n"
        assert res.witness_tree.node_count == n
        assert res.witness_cut == Cut(0, n)


class TestBalancedCutLowerBound:
    def test_small_graphs(self):
        assert balanced_cut_lower_bound(complete_graph(6), CUT_RANK_FUNCTION)[0] == 1.0
        assert balanced_cut_lower_bound(empty_graph(6), CUT_RANK_FUNCTION)[0] == 0.0

    def test_pinned_seeded_value_and_bound(self):
        # golden value from the first enumeration run at n=10, seed 77
        g = sample_gnp_half(10, 77)
        lb, cut = balanced_cut_lower_bound(g, CUT_RANK_FUNCTION)
        assert lb == 3.0
        assert cut.members == (0, 1, 2, 8)
        assert lb <= rankwidth(g).value

    def test_size_range_is_balanced(self):
        g = sample_gnp_half(8, 4)
        _, cut = balanced_cut_lower_bound(g, CUT_RANK_FUNCTION)
        assert (8 + 2) // 3 <= cut.size <= 4

    def test_never_exceeds_width(self):
        rng = SplitMix64(1100)
        for n in (5, 6, 7, 8):
            for _ in range(3):
                g = sample_gnp_half(n, rng.next_word())
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    lb, _ = balanced_cut_lower_bound(g, f)
                    assert lb <= exact_f_width(g, f).value + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError, match="n >= 3"):
            balanced_cut_lower_bound(Graph.from_edges(2, [(0, 1)]), CUT_RANK_FUNCTION)
        with pytest.raises(CapExceeded):
            balanced_cut_lower_bound(empty_graph(23), CUT_RANK_FUNCTION)


class TestRelabelInvariance:
    def test_widths_invariant(self):
        rng = SplitMix64(616)
        for n in range(6, 11):
            for _ in range(2):
                g = sample_gnp_half(n, rng.next_word())
                perm = shuffled(n, rng)
                assert perm != list(range(n))
                h = g.relabel(perm)
                assert rankwidth(g).value == rankwidth(h).value
                assert booleanwidth(g).value == booleanwidth(h).value
                for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                    assert (
                        balanced_cut_lower_bound(g, f)[0] == balanced_cut_lower_bound(h, f)[0]
                    )


def _named_graphs(n):
    return [complete_graph(n), path_graph(n), cycle_graph(n), empty_graph(n)]


def _star(n, centre):
    return Graph.from_edges(n, [(centre, w) for w in range(n) if w != centre])


class TestIncrementalHalfFill:
    """_half_table fills cut-rank by bit-sliced elimination, a chunk of
    subsets at a time, and builds each boolean cell from its parent subset's
    state; the per-subset kernels, evaluated on the cell's own side, are its
    oracle."""

    def assert_cells_are_per_subset(self, g):
        n = g.n
        rank = _half_table(g, CUT_RANK_FUNCTION)
        boolean = _half_table(g, CUT_BOOL_FUNCTION)
        assert len(rank) == len(boolean) == 1 << (n - 1)
        for bits in range(1 << (n - 1)):
            cut = Cut(bits, n)
            assert type(rank[bits]) is type(boolean[bits]) is float
            assert repr(rank[bits]) == repr(float(cut_rank(g, cut))), (n, bits)
            assert repr(boolean[bits]) == repr(cut_bool(g, cut)), (n, bits)

    def test_random_graphs(self):
        rng = SplitMix64(8484)
        for n in range(1, 15):
            for _ in range(3 if n <= 12 else 1):
                self.assert_cells_are_per_subset(sample_gnp_half(n, rng.next_word()))

    def test_named_graphs(self):
        for n in range(1, 13):
            named = [empty_graph(n), complete_graph(n), path_graph(n)]
            if n >= 3:
                named.append(cycle_graph(n))
            for g in named:
                self.assert_cells_are_per_subset(g)

    def test_stars(self):
        # vertex n - 1 is never added to a cell, vertex 0 is in half of them
        for n in range(2, 13):
            for centre in (n - 1, 0):
                self.assert_cells_are_per_subset(_star(n, centre))

    def test_rank_across_chunks(self):
        # n = 15 is one full chunk of 2^14 lanes; n = 16, 17 and 18 are 2, 4
        # and 8 chunks, one for each setting of the vertices 14..n-2
        rng = SplitMix64(8585)
        for n in (15, 16, 17, 18):
            gnp = sample_gnp_half(n, rng.next_word())
            for g in (gnp, empty_graph(n), complete_graph(n), _star(n, 0), _star(n, n - 1)):
                table = _half_table(g, CUT_RANK_FUNCTION)
                assert table == [float(cut_rank(g, Cut(b, n))) for b in range(1 << (n - 1))], n
                # one float object per distinct value
                assert {type(v) for v in table} == {float}
                assert len(set(map(id, table))) == len(set(table))

    def test_rank_sample_at_the_balanced_cap(self):
        n = 22
        g = sample_gnp_half(n, 8686)
        table = _half_table(g, CUT_RANK_FUNCTION)
        assert len(table) == 1 << (n - 1)
        rng = SplitMix64(8787)
        for bits in (rng.next_bits(n - 1) for _ in range(2000)):
            assert table[bits] == float(cut_rank(g, Cut(bits, n))), bits


class TestHalfFilledCutTable:
    """Every function's full table is its half table mirrored; every function
    but the built-ins, copies of them included, is evaluated and audited on
    every subset."""

    def assert_table_is_per_subset(self, g):
        rank = mirrored(_half_table(g, CUT_RANK_FUNCTION))
        boolean = mirrored(_half_table(g, CUT_BOOL_FUNCTION))
        assert len(rank) == len(boolean) == 1 << g.n
        for bits in range(1 << g.n):
            cut = Cut(bits, g.n)
            assert rank[bits] == float(cut_rank(g, cut))
            assert boolean[bits] == cut_bool(g, cut)
            assert type(rank[bits]) is type(boolean[bits]) is float

    def test_random_graphs_every_subset(self):
        rng = SplitMix64(8181)
        for n in range(1, 13):
            self.assert_table_is_per_subset(sample_gnp_half(n, rng.next_word()))

    def test_named_graphs_every_subset(self):
        for g in _named_graphs(12):
            self.assert_table_is_per_subset(g)

    def test_copies_take_the_full_path(self):
        rng = SplitMix64(8282)
        for n in (2, 5, 9, 11):
            g = sample_gnp_half(n, rng.next_word())
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                seen = {}

                def counted(graph, bits, be=f.bits_evaluate):
                    seen[bits] = be(graph, bits)
                    return seen[bits]

                copy = dataclasses.replace(f, bits_evaluate=counted)
                table = mirrored(_half_table(g, f))
                assert mirrored(_half_table(g, copy)) == table
                # every subset evaluated, each to the mirrored built-in's value
                assert seen == dict(enumerate(table))
                res, ref = exact_f_width(g, copy), exact_f_width(g, f)
                assert repr(res.value) == repr(ref.value)
                assert emit_tree(res.witness_tree) == emit_tree(ref.witness_tree)
                assert res.witness_cut == ref.witness_cut

    def test_copy_is_audited_on_every_pair(self):
        # 0x11 lies outside the seeded sample at n = 6; a copy of a built-in
        # that is asymmetric only there must still be rejected.
        def skewed(graph, bits):
            return 9.0 if bits == 0x11 else float(_cut_rank_bits(graph, bits))

        copy = dataclasses.replace(CUT_RANK_FUNCTION, bits_evaluate=skewed)
        with pytest.raises(ContractError, match="'rank' is not symmetric at subset 0x11"):
            exact_f_width(sample_gnp_half(6, 1), copy)

    def test_copy_keeps_only_the_half(self):
        # each cell is a list slot and a float of its own, 32 bytes; the
        # upper half's values are dropped once audited, so the peak stays
        # under 40 bytes a cell, where the 2^n values would need 64
        n = 14
        g = sample_gnp_half(n, 1)
        copy = dataclasses.replace(CUT_RANK_FUNCTION)
        tracemalloc.start()
        try:
            table = _half_table(g, copy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table == _half_table(g, CUT_RANK_FUNCTION)
        assert peak < 40 << (n - 1)

    def test_rank_fill_keeps_its_scratch_small(self):
        # the elimination works on 2^14 subsets at a time, so its scratch
        # stays below the output list's 8 bytes a cell
        n = 18
        g = sample_gnp_half(n, 1)
        tracemalloc.start()
        try:
            table = _half_table(g, CUT_RANK_FUNCTION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sys.getsizeof(table)

    def test_own_exception_before_the_audit(self):
        # 0x20 is the upper half's first subset at n = 6, evaluated after the
        # asymmetric 0x1; every evaluation comes before the audit.
        def raises_late(graph, bits):
            if bits == 0x20:
                raise KeyError("upper half")
            return 9.0 if bits == 0x1 else float(_cut_rank_bits(graph, bits))

        copy = dataclasses.replace(CUT_RANK_FUNCTION, bits_evaluate=raises_late)
        with pytest.raises(KeyError, match="upper half"):
            exact_f_width(sample_gnp_half(6, 1), copy)

    def test_builtins_audited_once_per_call(self, monkeypatch):
        # The fill makes no per-subset kernel call.  The seeded sample audit
        # reads one side of each of its 34 pairs from the half table, so it
        # evaluates the other side and f(empty): 35 calls, at the witness
        # re-check (with the witness tree's 2n - 3 cuts) and after the lower
        # bound's fill.
        counts = {"rank": 0, "bool": 0}

        def counting(key, inner):
            def counted(*args):
                counts[key] += 1
                return inner(*args)

            return counted

        monkeypatch.setattr(widths, "_cut_rank_bits", counting("rank", _cut_rank_bits))
        monkeypatch.setattr(
            boolspace, "_cut_bool_count_bits", counting("bool", _cut_bool_count_bits)
        )
        n = 10
        g = sample_gnp_half(n, 4)
        for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
            exact_f_width(g, f)
            assert counts[f.name] == 35 + (2 * n - 3) == 52
            balanced_cut_lower_bound(g, f)
            assert counts[f.name] == 52 + 35

    def test_asymmetric_builtin_still_rejected(self, monkeypatch):
        # Skewed only on sides with more than n/2 vertices.  The fill never
        # calls the kernel, so the table is not skewed: the DP runs, and the
        # audit after it must object.
        def skewed(graph, bits):
            extra = 1 if 2 * bits.bit_count() > graph.n else 0
            return _cut_rank_bits(graph, bits) + extra

        monkeypatch.setattr(widths, "_cut_rank_bits", skewed)
        with pytest.raises(ContractError, match="'rank' is not symmetric"):
            exact_f_width(sample_gnp_half(8, 1), CUT_RANK_FUNCTION)


class TestTableSideAudit:
    """With the half table at hand, the spot check reads each sampled pair's
    side without vertex n - 1 from it and evaluates only the other side."""

    def test_sample_drawn_once_per_n_and_unchanged(self):
        for n in range(1, 23):
            rng = SplitMix64(mix_seed(0x5F, n))
            drawn = [0, (1 << n) - 1] + [rng.next_bits(n) for _ in range(min(32, 1 << n))]
            assert list(widths._symmetry_sample(n)) == drawn
            assert widths._symmetry_sample(n) is widths._symmetry_sample(n)

    def test_wrong_fill_cell_rejected(self, monkeypatch):
        # one cell of the fill is shifted at a sampled subset; the table side
        # of that pair no longer matches the kernel's value on the other side
        n = 10
        half, full = 1 << (n - 1), (1 << n) - 1
        sample = widths._symmetry_sample(n)
        cell = next(s for s in sample if 0 < s < half)
        assert next(s for s in sample if s in (cell, full ^ cell)) == cell
        fill = widths._half_table

        def shifted(graph, f):
            table = fill(graph, f)
            table[cell] += 1.0
            return table

        monkeypatch.setattr(widths, "_half_table", shifted)
        g = sample_gnp_half(n, 1)
        for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
            good = _bits_eval(g, f)(cell)
            pair = f"subset {cell:#x}: {good + 1.0} vs {good}"
            message = re.escape(f"'{f.name}' is not symmetric at {pair}")
            for run in (exact_f_width, balanced_cut_lower_bound):
                with pytest.raises(ContractError, match=message):
                    run(g, f)

    def test_kernel_skewed_on_the_upper_sides_rejected(self, monkeypatch):
        # the kernel is wrong only on sides holding vertex n - 1, the sides
        # the audit evaluates; the fill calls no kernel and stays right
        n = 10
        top = 1 << (n - 1)

        def skewed(inner):
            return lambda graph, bits: inner(graph, bits) + (1 if bits & top else 0)

        monkeypatch.setattr(widths, "_cut_rank_bits", skewed(_cut_rank_bits))
        monkeypatch.setattr(boolspace, "_cut_bool_count_bits", skewed(_cut_bool_count_bits))
        g = sample_gnp_half(n, 1)
        for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
            for run in (exact_f_width, balanced_cut_lower_bound):
                with pytest.raises(ContractError, match=f"'{f.name}' is not symmetric"):
                    run(g, f)

    def test_matches_the_two_sided_recheck(self):
        # tree_width_under keeps the two-sided audit: the slow path, an
        # oracle for the engine's re-check of its own witness
        for n in range(3, 13):
            g = sample_gnp_half(n, mix_seed(22, n))
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                res = exact_f_width(g, f)
                check = tree_width_under(g, res.witness_tree, f)
                assert repr(res.value) == repr(check.value)
                assert res.witness_cut == check.witness_cut
                assert emit_tree(res.witness_tree) == emit_tree(check.witness_tree)


def per_subset_balanced_min(graph, f):
    """The minimum of f over balanced sides, f evaluated on each side by size
    and then in `combinations` order, and the first side attaining it."""
    n = graph.n
    val = _bits_eval(graph, f)
    best, best_bits = math.inf, 0
    for size in range((n + 2) // 3, n // 2 + 1):
        for chosen in combinations(range(n), size):
            bits = sum(1 << v for v in chosen)
            value = val(bits)
            if value < best:
                best, best_bits = value, bits
    return best, best_bits


class TestBalancedMinOnTheTable:
    """balanced_cut_lower_bound reads f's half table; the kernel called on
    each balanced side is its oracle."""

    def test_matches_the_public_bound(self):
        # a G(n, 1/2) and the tie-heavy named graphs and stars at every n,
        # except that bool's oracle skips the named graphs at n = 15 and 16,
        # where its kernel calls alone take over 3 s
        rng = SplitMix64(8383)
        for n in range(3, 17):
            gnp = sample_gnp_half(n, rng.next_word())
            named = _named_graphs(n) + [_star(n, n - 1), _star(n, 0)]
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                skip = f is CUT_BOOL_FUNCTION and n > 14
                for g in [gnp] + ([] if skip else named):
                    value, bits = per_subset_balanced_min(g, f)
                    lb, cut = balanced_cut_lower_bound(g, f)
                    assert repr(lb) == repr(value), (n, f.name)
                    assert cut.bits == bits, (n, f.name)


class TestNoReferenceCycles:
    def test_engine_calls_leave_no_cyclic_garbage(self):
        # A cycle would keep each call's 2^n table alive until the cyclic
        # collector runs.  (brute_force_f_width is left out: its tree
        # generator recurses through a closure, as an oracle may.)
        g = sample_gnp_half(10, 5)
        cfg = ExperimentConfig(name="scaling", n_values=(8,), trials=1, master_seed=3)
        boolw_cfg = dataclasses.replace(cfg, name="boolw-rw")
        gc.collect()
        gc.disable()
        try:
            emit_tree(exact_f_width(g, CUT_RANK_FUNCTION).witness_tree)
            exact_f_width(g, CUT_BOOL_FUNCTION)
            low = _half_table(g, CUT_BOOL_FUNCTION)
            emit_tree(_exact_width(g, CUT_BOOL_FUNCTION, low).witness_tree)
            scaling_experiment(cfg)
            boolw_vs_rw_experiment(boolw_cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCliNoReferenceCycles:
    def test_reused_parser_leaves_no_cyclic_garbage(self, tmp_path):
        # the parser is built once, on the warm-up call; no later call may
        # leave objects for the cyclic collector
        path = tmp_path / "in.g6"
        path.write_text("".join(emit_graph6(sample_gnp_half(8, s)) + "\n" for s in (1, 2)))
        calls = [
            ["width", "--witness", "--input", str(path)],
            ["lb", "--input", str(path)],
            ["gen", "--n", "6", "--seed", "3", "--count", "2"],
            ["exp", "bell", "--n-list", "3..8"],
        ]
        assert run_cli(calls[0])[0] == 0
        gc.collect()
        gc.disable()
        try:
            for argv in calls:
                assert run_cli(argv)[0] == 0
                assert gc.collect() == 0, argv
        finally:
            gc.enable()


class TestTheoremChainPerCut:
    def test_subspace_bound_on_all_cuts(self):
        # 2^(boolean cut value) <= Galois number of the cut rank, exhaustively
        rng = SplitMix64(414)
        for n in range(2, 11):
            g = sample_gnp_half(n, rng.next_word())
            for bits in range(1 << n):
                count = _cut_bool_count_bits(g, bits)
                r = _cut_rank_bits(g, bits)
                assert count <= galois_number(r)

    def test_widths_chain(self):
        rng = SplitMix64(515)
        for n in range(2, 11):
            g = sample_gnp_half(n, rng.next_word())
            bw = booleanwidth(g).value
            rw = int(rankwidth(g).value)
            assert bw <= log2_int(galois_number(rw)) + 1e-12


class TestTreeSerialization:
    def test_round_trip_exact(self):
        rng = SplitMix64(717)
        for n in (2, 3, 5, 7):
            g = sample_gnp_half(n, rng.next_word())
            tree = rankwidth(g).witness_tree
            text = emit_tree(tree)
            assert emit_tree(parse_tree(text)) == text

    def test_small_forms(self):
        assert emit_tree(DecompositionTree(1, [], {0: 0})) == "tree 1\n"
        assert emit_tree(DecompositionTree(2, [(0, 1)], {0: 0, 1: 1})) == "tree 2\n"
        assert parse_tree("tree 2\n").n_leaves == 2

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_tree("")
        with pytest.raises(ParseError, match="header"):
            parse_tree("trees 4\n")
        with pytest.raises(ParseError, match="internal-node lines"):
            parse_tree("tree 4\ni0 0 1 i1\n")
        with pytest.raises(StructureError):
            # right line count, broken incidence
            parse_tree("tree 4\ni0 0 1 2\ni1 3 i0 i0\n")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("tree x\n", "bad leaf count 'x'", 1),
            ("tree -1\n", "negative leaf count", 1),
            ("tree 2\ni0 0 1 1\n", "no internal nodes expected for n = 2", 2),
            ("tree 1\ni0 0 0 0\n", "no internal nodes expected for n = 1", 2),
            ("tree 3\nix 0 1 2\n", "bad node token 'ix'", 2),
            ("tree 3\ni0 0 1 z\n", "bad node token 'z'", 2),
            ("tree 3\ni1 0 1 2\n", "internal node i1 out of range", 2),
            ("tree 3\ni0 0 1 3\n", "leaf index 3 out of range", 2),
            ("tree 3\ni0 0 1\n", "expected '<name> <nbr> <nbr> <nbr>' on line 2", 2),
            ("tree 3\ni0 0 1 2 2\n", "expected '<name> <nbr> <nbr> <nbr>' on line 2", 2),
            ("tree 3\n0 i0 1 2\n", "line 2 names a leaf, not an internal node", 2),
            # blank lines are counted, as in parse_edge_list
            ("tree 3\n\nix 0 1 2", "bad node token 'ix'", 3),
            ("tree 3\n\n \ni0 0 1\n", "expected '<name> <nbr> <nbr> <nbr>' on line 4", 4),
            ("\ntree x\n", "bad leaf count 'x'", 2),
            ("\n\nwood 3\n", "expected 'tree <n>' header, got 'wood 3'", 3),
            ("tree 2\n\ni0 0 1 1\n", "no internal nodes expected for n = 2", 3),
            ("tree 4\n\ni0 0 1 2\n", "expected 2 internal-node lines for n = 4, got 1", 3),
            ("tree 4\n", "expected 2 internal-node lines for n = 4, got 0", 2),
            ("tree 3\n\n0 i0 1 2\n", "line 3 names a leaf, not an internal node", 3),
        ],
    )
    def test_parse_error_messages(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_tree(text)
        assert (str(err.value), err.value.position) == (message, position)

    def test_lines_that_disagree_rejected(self):
        # the union of the lines' edges is a valid tree, but line 3 lists 2 twice
        with pytest.raises(ParseError, match="line 3 lists neighbors of i1") as err:
            parse_tree("tree 4\ni0 0 1 i1\ni1 2 3 2\n")
        assert err.value.position == 3
        with pytest.raises(ParseError, match="i0 named again on line 3") as err:
            parse_tree("tree 4\ni0 0 1 i1\ni0 2 3 i1\n")
        assert err.value.position == 3
        with pytest.raises(ParseError, match="line 4 lists neighbors of i2"):
            parse_tree("tree 5\ni0 0 1 i1\ni1 2 i0 i2\ni2 3 4 4\n")
        with pytest.raises(ParseError, match="i0 named again on line 5 .first on line 2.") as err:
            parse_tree("tree 4\ni0 0 1 i1\n\n\ni0 2 3 i1\n")
        assert err.value.position == 5

    def test_blank_lines_parse_to_the_same_tree(self):
        text = emit_tree(rankwidth(sample_gnp_half(7, 31)).witness_tree)
        spaced = "\n\n" + text.replace("\n", "\n \n")
        assert emit_tree(parse_tree(spaced)) == text

    def test_parse_emit_evaluates_identically(self):
        g = sample_gnp_half(6, 5150)
        res = rankwidth(g)
        tree = parse_tree(emit_tree(res.witness_tree))
        assert tree_width_under(g, tree, CUT_RANK_FUNCTION).value == res.value
