import dataclasses
import gc
import math

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
from widthlab.widths import _balanced_min, _bits_eval, _cut_table

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


class TestHalfFilledCutTable:
    """The built-ins' tables are filled from one side of each complementary
    pair; every other function, copies of the built-ins included, is filled
    and audited on every subset."""

    def assert_table_is_per_subset(self, g):
        rank = _cut_table(g, CUT_RANK_FUNCTION)
        boolean = _cut_table(g, CUT_BOOL_FUNCTION)
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
                seen = []

                def counted(graph, bits, be=f.bits_evaluate):
                    seen.append(bits)
                    return be(graph, bits)

                copy = dataclasses.replace(f, bits_evaluate=counted)
                assert _cut_table(g, copy) == _cut_table(g, f)
                assert sorted(set(seen)) == list(range(1 << n))
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


    def test_builtins_audited_once_per_call(self, monkeypatch):
        # 2^(n-1) table cells, the 69 evaluations of the seeded sample audit
        # at the witness re-check, and the witness tree's 2n - 3 cuts.
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
            assert counts[f.name] == 2 ** (n - 1) + 69 + (2 * n - 3) == 598

    def test_asymmetric_builtin_still_rejected(self, monkeypatch):
        # Skewed only on sides with more than n/2 vertices, which the fill
        # never evaluates: the DP runs, and the audit after it must object.
        def skewed(graph, bits):
            extra = 1 if 2 * bits.bit_count() > graph.n else 0
            return _cut_rank_bits(graph, bits) + extra

        monkeypatch.setattr(widths, "_cut_rank_bits", skewed)
        with pytest.raises(ContractError, match="'rank' is not symmetric"):
            exact_f_width(sample_gnp_half(8, 1), CUT_RANK_FUNCTION)


class TestBalancedMinOnTheTable:
    def test_matches_the_public_bound(self):
        rng = SplitMix64(8383)
        for n in range(3, 15):
            for g in [sample_gnp_half(n, rng.next_word())] + _named_graphs(n):
                value, bits = _balanced_min(_cut_table(g, CUT_RANK_FUNCTION).__getitem__, n)
                lb, cut = balanced_cut_lower_bound(g, CUT_RANK_FUNCTION)
                assert repr(value) == repr(lb)
                assert bits == cut.bits


class TestNoReferenceCycles:
    def test_engine_calls_leave_no_cyclic_garbage(self):
        # A cycle would keep each call's 2^n table alive until the cyclic
        # collector runs.  (brute_force_f_width is left out: its tree
        # generator recurses through a closure, as an oracle may.)
        g = sample_gnp_half(10, 5)
        cfg = ExperimentConfig(name="scaling", n_values=(8,), trials=1, master_seed=3)
        gc.collect()
        gc.disable()
        try:
            emit_tree(exact_f_width(g, CUT_RANK_FUNCTION).witness_tree)
            exact_f_width(g, CUT_BOOL_FUNCTION)
            scaling_experiment(cfg)
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

    def test_parse_emit_evaluates_identically(self):
        g = sample_gnp_half(6, 5150)
        res = rankwidth(g)
        tree = parse_tree(emit_tree(res.witness_tree))
        assert tree_width_under(g, tree, CUT_RANK_FUNCTION).value == res.value
