"""Width engine: decomposition trees and exact f-width for symmetric cut functions.

A decomposition tree is an unrooted tree whose internal nodes all have degree
3 and whose leaves are in bijection with the graph's vertices.  Every tree
edge induces a bipartition of the vertex set (the leaf sets of the two
components); the width of the tree under a cut function f is the maximum of f
over those bipartitions, and the f-width of the graph is the minimum width
over all trees.

The exact optimum is computed by dynamic programming over vertex subsets:

    c({v}) = 0
    c(S)   = min over bipartitions S = S1 (+) S2 of
             max(f(S1), f(S2), c(S1), c(S2))

where f(Si) is ALWAYS evaluated against the global complement V \\ Si, not
inside S.  This matches the edge semantics: the tree edge above the subtree
with leaf set Si separates Si from everything else in V.  Evaluating f
within S is the classic mistake and gives wrong widths; see the worked
example in tests/test_widths.py.

The engine tabulates only g[S] = max(f(S), c(S)), so that
c(S) = min max(g[T], g[S \\ T]).  For each S the side T runs in increasing
order over the non-empty subsets of S without its top bit, which visits
every bipartition once.  Two prunings leave g exact: a side with
g[T] >= best cannot strictly improve the best split found so far, and the
scan of S stops as soon as best <= f(S), because then g[S] = f(S) whatever
c(S) is.  Early stops leave c(S) itself unknown, so the witness tree is
rebuilt from the exact g afterwards, by a full ascending scan at each of the
tree's own n - 1 splits (the root and the n - 2 internal nodes): at most
n * 2^(n-1) lookups.  Ties between optimal splits resolve to the
numerically smallest side, so the witness is deterministic.

Every cut function is tabulated once, by _half_table, on the 2^(n-1)
subsets without vertex n - 1: exactly the indices below 2^(n-1), so this is
the lower half of the 2^n table.  The upper half is its mirror,
table[full ^ s] = table[s], which _mirrored appends where a full table is
read: exact_f_width runs its DP on the mirrored table.  The scaling and
boolw-rw experiment trials run the same loop on the half alone
(_leaf_rooted_width): every tree has the leaf edge {v} | V \\ {v} for
v = n - 1, so the width is g[V \\ {v}], which needs only the subsets
without v.  The values are exact_f_width's; the witness is another optimal
tree, and those reports hold no tree text.

The engine needs f(X) = f(V \\ X) and f(empty) = 0, and _audit_symmetry
checks both, in one of two ways:

- The built-in cut-rank and boolean cut functions (CUT_RANK_FUNCTION and
  CUT_BOOL_FUNCTION, recognised by identity) are symmetric by theorem: a
  matrix and its transpose have the same GF(2) rank, and a 0/1 matrix has
  as many distinct row unions as column unions.  Their half is filled by
  one walk over its subsets, each cell built from its parent subset's state
  in one step (_rank_step, _bool_step), with no per-subset kernel call.
  They are audited on a seeded sample of subsets, once per call, when
  tree_width_under re-checks the witness: the audit tree_width_under,
  brute_force_f_width and balanced_cut_lower_bound run for every f.
- Any other cut function, a copy of a built-in included, is evaluated on
  all 2^n subsets in ascending order, so an exception it raises comes
  before any ContractError; then every complementary pair and f(empty) are
  audited, and only the lower half is kept.  A pair that agrees only within
  the audit's tolerance, or as an int and an equal float, therefore takes
  the lower side's value on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional

from .boolspace import _cut_bool_bits, cut_bool
from .errors import CapExceeded, ContractError, ParseError, StructureError
from .graphs import Cut, Graph, _cut_rank_bits, cut_rank
from .rng import SplitMix64, mix_seed

DEFAULT_EXACT_CAP = 16
BRUTE_FORCE_CAP = 8
BALANCED_CAP = 22

_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class CutFunction:
    """A symmetric set function f on vertex subsets, with a display name.

    `evaluate` maps (Graph, Cut) to a real value; `bits_evaluate`, when
    given, is a faster path taking the cut as a packed int.  f must satisfy
    f(X) = f(V \\ X) and f(empty) = 0, or an engine raises ContractError;
    the module docstring says how each engine audits that.
    """

    name: str
    evaluate: Callable[[Graph, Cut], float]
    bits_evaluate: Optional[Callable[[Graph, int], float]] = None


CUT_RANK_FUNCTION = CutFunction(
    name="rank",
    evaluate=lambda graph, cut: float(cut_rank(graph, cut)),
    bits_evaluate=lambda graph, bits: float(_cut_rank_bits(graph, bits)),
)

CUT_BOOL_FUNCTION = CutFunction(
    name="bool",
    evaluate=cut_bool,
    bits_evaluate=_cut_bool_bits,
)


class DecompositionTree:
    """Unrooted tree with degree-3 internal nodes and labeled leaves.

    The constructor validates the tree and walks it once, rooted at the node
    with leaf label 0 (node 0 if there are no leaves).  That one pass decides
    connectivity and records each node's parent and the bitmask of leaf
    labels below it.  tree_cuts and emit_tree read both instead of walking
    the tree again.
    """

    __slots__ = ("node_count", "edges", "leaf_map", "_adj", "_parent", "_below")

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        leaf_map: dict[int, int],
    ):
        canon = []
        for a, b in edges:
            if a == b:
                raise StructureError(f"self-loop at tree node {a}")
            if not (0 <= a < node_count and 0 <= b < node_count):
                raise StructureError(f"edge ({a},{b}) out of node range")
            canon.append((a, b) if a < b else (b, a))
        canon.sort()
        if len(set(canon)) != len(canon):
            raise StructureError("duplicate tree edge")
        if node_count > 0 and len(canon) != node_count - 1:
            raise StructureError(
                f"{node_count} nodes need {node_count - 1} edges, got {len(canon)}"
            )

        for node in leaf_map:
            if not 0 <= node < node_count:
                raise StructureError(f"leaf node {node} out of range")
        if len(set(leaf_map.values())) != len(leaf_map):
            raise StructureError("leaf map is not injective")
        if set(leaf_map.values()) != set(range(len(leaf_map))):
            raise StructureError("leaf labels must be exactly 0..n-1")

        adj: list[list[int]] = [[] for _ in range(node_count)]
        for a, b in canon:
            adj[a].append(b)
            adj[b].append(a)

        # The one pass.  parent -2 marks a node not reached yet; the root's is -1.
        parent = [-2] * node_count
        below = [1 << leaf_map[u] if u in leaf_map else 0 for u in range(node_count)]
        if node_count > 0:
            root = next((u for u, v in leaf_map.items() if v == 0), 0)
            parent[root] = -1
            order = [root]
            for u in order:
                for w in adj[u]:
                    if parent[w] == -2:
                        parent[w] = u
                        order.append(w)
            if len(order) != node_count:
                raise StructureError("tree is not connected")
            for u in reversed(order[1:]):
                below[parent[u]] |= below[u]

        for u in range(node_count):
            deg = len(adj[u])
            if u in leaf_map:
                want = 0 if node_count == 1 else 1
                if deg != want:
                    raise StructureError(f"leaf node {u} has degree {deg}")
            elif deg != 3:
                raise StructureError(f"internal node {u} has degree {deg}, not 3")

        self.node_count = node_count
        self.edges = tuple(canon)
        self.leaf_map = dict(leaf_map)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._parent = tuple(parent)
        self._below = tuple(below)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_map)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecompositionTree):
            return NotImplemented
        return emit_tree(self) == emit_tree(other)

    def __repr__(self) -> str:
        return f"DecompositionTree(leaves={self.n_leaves}, nodes={self.node_count})"


@dataclass(frozen=True)
class WidthResult:
    """An f-width value with the tree and cut that realize it."""

    value: float
    witness_tree: DecompositionTree
    witness_cut: Cut


def tree_cuts(tree: DecompositionTree) -> list[Cut]:
    """Bipartitions induced by the tree's edges, read from the constructor's pass.

    Each cut is reported as the side NOT containing vertex 0 (the leaf labels
    below the endpoint farther from leaf 0), so the result does not depend on
    internal node numbering.  Order follows the canonical sorted edge list.
    """
    n = tree.n_leaves
    parent, below = tree._parent, tree._below
    return [Cut(below[b] if parent[b] == a else below[a], n) for a, b in tree.edges]


def _bits_eval(graph: Graph, f: CutFunction) -> Callable[[int], float]:
    if f.bits_evaluate is not None:
        be = f.bits_evaluate
        return lambda bits: be(graph, bits)
    n = graph.n
    ev = f.evaluate
    return lambda bits: ev(graph, Cut(bits, n))


def _audit_symmetry(
    f: CutFunction, val: Callable[[int], float], n: int, subsets: Iterable[int]
) -> None:
    """Check f(X) = f(V \\ X) for each X in `subsets`, then f(empty) = 0."""
    full = (1 << n) - 1
    for s in subsets:
        a, b = val(s), val(full ^ s)
        if not math.isclose(a, b, rel_tol=_SYMMETRY_TOL, abs_tol=_SYMMETRY_TOL):
            raise ContractError(
                f"cut function {f.name!r} is not symmetric at subset {s:#x}: {a} vs {b}"
            )
    if abs(val(0)) > _SYMMETRY_TOL:
        raise ContractError(f"cut function {f.name!r} must vanish on the empty side")


def _spot_check_symmetry(graph: Graph, f: CutFunction, ev: Callable[[int], float]) -> None:
    """Sampled symmetry audit: once per engine call, in tree_width_under or the lower bound."""
    n = graph.n
    rng = SplitMix64(mix_seed(0x5F, n))
    sample = [0, (1 << n) - 1] + [rng.next_bits(n) for _ in range(min(32, 1 << n))]
    _audit_symmetry(f, ev, n, sample)


def _half_table(graph: Graph, f: CutFunction) -> list[float]:
    """f on the 2^(n-1) subsets without vertex n - 1, audited as the module docstring says.

    The built-ins' walk visits each such subset Y once, as X + {v} with v
    above X's top vertex, and builds Y's state from X's by one step; its
    table holds one float object per distinct value.
    """
    n = graph.n
    if f is not CUT_RANK_FUNCTION and f is not CUT_BOOL_FUNCTION:
        table = list(map(_bits_eval(graph, f), range(1 << n)))
        _audit_symmetry(f, table.__getitem__, n, range(1 << (n - 1)))
        return table[: 1 << (n - 1)]
    table = [0.0] * (1 << (n - 1))
    if f is CUT_RANK_FUNCTION:
        step, state = _rank_step, ([0] * n, 0)
        values = [float(r) for r in range(n // 2 + 1)]
    else:
        step, state = _bool_step, {0}
        # a count is at least 1; index 0 is never read
        values = [0.0] + [math.log2(c) for c in range(1, (1 << n // 2) + 1)]
    adj, full, last = graph._adj, (1 << n) - 1, n - 1
    # (X, X's state, the next vertex to add to X); a stack, not recursion,
    # so it holds at most n entries and no reference cycle
    stack = [(0, state, 0)] if last else []
    while stack:
        x, state, v = stack.pop()
        more = v + 1 < last
        if more:
            stack.append((x, state, v + 1))
        y = x | 1 << v
        state, k = step(adj, state, v, full ^ y)
        table[y] = values[k]
        if more:
            stack.append((y, state, v + 1))
    return table


def _mirrored(low: list[float]) -> list[float]:
    """The 2^n table of a half table: table[full ^ s] = low[s]."""
    return low + low[::-1]


def _rank_step(adj: tuple[int, ...], state: tuple, v: int, m: int) -> tuple[tuple, int]:
    """X's (basis by top bit, cut-rank) to Y's, for Y = X + {v}; also Y's cut-rank.

    Y's basis spans A[w] and e_w for w in Y, and cutrk(Y) is its dimension
    minus |Y|: the e_w span Y's own columns, and the quotient by them is the
    row space of A[Y, V \\ Y].  m is unused.
    """
    basis, r = state
    basis = basis[:]
    r -= 1
    for x in (1 << v, adj[v]):
        while x:
            top = x.bit_length() - 1
            p = basis[top]
            if not p:
                basis[top] = x
                r += 1
                break
            x ^= p
    return (basis, r), r


def _bool_step(adj: tuple[int, ...], state: set[int], v: int, m: int) -> tuple[set[int], int]:
    """X's row unions to Y's, both on m = V \\ Y, for Y = X + {v}; also their count.

    Each union u of X's rows gives u & m and (u | A[v]) & m.  There are at
    most 2^min(|Y|, n - |Y|), far below DEFAULT_SPACE_CAP at any n whose
    table fits in memory.
    """
    unions = {u & m for u in state}
    a = adj[v] & m
    unions |= {u | a for u in unions}
    return unions, len(unions)


def tree_width_under(graph: Graph, tree: DecompositionTree, f: CutFunction) -> WidthResult:
    """Width of one decomposition tree: max of f over its edge-induced cuts."""
    if tree.n_leaves != graph.n:
        raise StructureError(f"tree has {tree.n_leaves} leaves for a graph on {graph.n} vertices")
    if graph.n <= 1:
        return WidthResult(0.0, tree, Cut(0, graph.n))
    ev = _bits_eval(graph, f)
    _spot_check_symmetry(graph, f, ev)
    best = -math.inf
    best_cut = None
    for cut in tree_cuts(tree):
        v = ev(cut.bits)
        if v > best:
            best = v
            best_cut = cut
    return WidthResult(best, tree, best_cut)


def _verified(
    graph: Graph, f: CutFunction, value: float, tree: DecompositionTree
) -> WidthResult:
    """An exact engine's width and witness, once tree_width_under re-evaluates the tree."""
    check = tree_width_under(graph, tree, f)
    if check.value != value:
        raise AssertionError(
            f"witness tree re-evaluates to {check.value}, the engine computed {value}"
        )
    return WidthResult(value, tree, check.witness_cut)


def _trivial_tree(n: int) -> DecompositionTree:
    """The edgeless tree on n <= 1 leaves."""
    return DecompositionTree(n, [], {v: v for v in range(n)})


def exact_f_width(
    graph: Graph, f: CutFunction, n_cap: int = DEFAULT_EXACT_CAP
) -> WidthResult:
    """Exact minimum f-width over all decomposition trees, with witnesses.

    The subset DP of the module docstring, at most O(3^n) side lookups on
    the mirrored half table of f.  The witness tree is rebuilt from g and
    re-evaluated with tree_width_under; ties between optimal splits resolve
    to the numerically smallest side, so it is deterministic.
    """
    n = graph.n
    if n > n_cap:
        raise CapExceeded(f"exact width needs n <= {n_cap}, got n = {n}")
    if n <= 1:
        return WidthResult(0.0, _trivial_tree(n), Cut(0, n))
    g = _mirrored(_half_table(graph, f))
    full = (1 << n) - 1
    _subset_dp(g, full)
    value, t = _best_split(g, full)
    return _verified(graph, f, value, _witness_tree(g, n, t))


def _leaf_rooted_width(graph: Graph, f: CutFunction, low: list[float]) -> WidthResult:
    """exact_f_width's value by the DP rooted at leaf n - 1 (see the module docstring).

    The DP overwrites low, f's _half_table, in place.  The witness is the
    optimal subtree on V \\ {n - 1} joined to leaf n - 1.  The caller checks
    n against the width cap.
    """
    n = graph.n
    if n <= 1:
        return WidthResult(0.0, _trivial_tree(n), Cut(0, n))
    rest = (1 << (n - 1)) - 1
    _subset_dp(low, rest + 1)
    return _verified(graph, f, low[rest], _witness_tree(low, n, rest))


def _subset_dp(g: list[float], bound: int) -> None:
    """The DP of both roots: g[S] = f(S) becomes max(f(S), c(S)) for 2 < S < bound."""
    for s in range(3, bound):
        if s & (s - 1):
            fs = g[s]
            best = _best_split(g, s, fs)[0]
            if best > fs:
                g[s] = best


def _best_split(g: list[float], s: int, stop: float = -math.inf) -> tuple[float, int]:
    """c(S) and the smallest side T realizing it, by an ascending scan of T.

    T runs over the non-empty subsets of S without its top bit.  The scan
    ends early at the first split whose value is <= stop.
    """
    rest = s ^ (1 << (s.bit_length() - 1))
    best = math.inf
    side = 0
    t = 0
    while True:
        t = (t - rest) & rest
        if not t:
            return best, side
        a = g[t]
        if a < best:
            b = g[s ^ t]
            if b < best:
                best = a if a >= b else b
                side = t
                if best <= stop:
                    return best, side


def _witness_tree(g: list[float], n: int, t: int) -> DecompositionTree:
    """An optimal tree whose root edge splits V into t and V \\ t, rebuilt from g.

    Only the tree's own nodes are scanned.  Leaf v is node v; internal nodes
    are numbered n, n+1, ... in post-order, smaller side first.  A singleton
    side is its leaf, so g need not hold it.
    """
    edges: list[tuple[int, int]] = []
    a = _subtree(g, t, n, edges)
    b = _subtree(g, ((1 << n) - 1) ^ t, n, edges)
    edges.append((a, b))
    return DecompositionTree(n + len(edges) // 2, edges, {v: v for v in range(n)})


def _subtree(g: list[float], s: int, n: int, edges: list[tuple[int, int]]) -> int:
    """Append the optimal subtree on leaf set s to edges; return its top node.

    A module function, not a closure: a recursive closure is a reference
    cycle that would keep the 2^n table g alive until the cyclic collector
    runs.  Each finished internal node adds two edges, so the next node
    number is n + len(edges) // 2.
    """
    if s & (s - 1) == 0:
        return s.bit_length() - 1
    t = _best_split(g, s)[1]
    a = _subtree(g, t, n, edges)
    b = _subtree(g, s ^ t, n, edges)
    node = n + len(edges) // 2
    edges.append((a, node))
    edges.append((node, b))
    return node


def _subcubic_trees(n: int):
    """All unrooted trees with n labeled leaves and degree-3 internal nodes.

    Leaf k is node k; internal nodes are appended from n upward.  Built by
    inserting leaf k into every edge of every tree on leaves 0..k-1, which
    yields each tree exactly once: (2n-5)!! trees in a fixed order.
    """
    if n == 2:
        yield [(0, 1)]
        return

    def rec(edges: list[tuple[int, int]], k: int):
        if k == n:
            yield edges
            return
        node = n + k - 2
        for i in range(len(edges)):
            a, b = edges[i]
            rest = edges[:i] + edges[i + 1 :]
            yield from rec(rest + [(a, node), (node, b), (node, k)], k + 1)

    yield from rec([(0, 1)], 2)


def brute_force_f_width(graph: Graph, f: CutFunction) -> WidthResult:
    """Minimum f-width over every decomposition tree, for n <= BRUTE_FORCE_CAP.

    Exponential ((2n-5)!! trees); the independent oracle for exact_f_width.
    """
    n = graph.n
    if n > BRUTE_FORCE_CAP:
        raise CapExceeded(f"tree enumeration needs n <= {BRUTE_FORCE_CAP}, got n = {n}")
    if n <= 1:
        return WidthResult(0.0, _trivial_tree(n), Cut(0, n))

    ev = _bits_eval(graph, f)
    full = (1 << n) - 1
    memo: dict[int, float] = {}

    def val(bits: int) -> float:
        key = bits if bits <= full ^ bits else full ^ bits
        v = memo.get(key)
        if v is None:
            v = ev(key)
            memo[key] = v
        return v

    node_total = 2 * n - 2
    best = math.inf
    best_edges: list[tuple[int, int]] | None = None
    for edges in _subcubic_trees(n):
        adj: list[list[int]] = [[] for _ in range(node_total)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        parent = [-2] * node_total
        parent[0] = -1
        order = [0]
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if parent[w] == -2:
                    parent[w] = u
                    order.append(w)
                    stack.append(w)
        mask = [0] * node_total
        width = -math.inf
        for u in reversed(order):
            if u < n:
                mask[u] |= 1 << u
            if parent[u] >= 0:
                mask[parent[u]] |= mask[u]
                v = val(mask[u])
                if v > width:
                    width = v
                    if width >= best:
                        break
        if width < best:
            best = width
            best_edges = [tuple(e) for e in edges]

    tree = DecompositionTree(node_total, best_edges, {v: v for v in range(n)})
    return _verified(graph, f, best, tree)


def balanced_cut_lower_bound(
    graph: Graph, f: CutFunction, n_cap: int = BALANCED_CAP
) -> tuple[float, Cut]:
    """Minimum of f over balanced cuts: a certified lower bound on f-width.

    Every decomposition tree contains an edge splitting the vertices into
    sides of size between ceil(n/3) and floor(n/2), so the minimum of f over
    that range bounds the f-width of the graph from below.
    """
    n = graph.n
    if n < 3:
        raise ValueError("balanced cuts need n >= 3 (the size range is empty below)")
    if n > n_cap:
        raise CapExceeded(f"balanced enumeration needs n <= {n_cap}, got n = {n}")
    ev = _bits_eval(graph, f)
    _spot_check_symmetry(graph, f, ev)
    best, bits = _balanced_min(ev, n)
    return best, Cut(bits, n)


def _balanced_min(val: Callable[[int], float], n: int) -> tuple[float, int]:
    """The minimum of val over balanced sides and the first side attaining it.

    Sides run by size ascending, then in `combinations` order; only a strict
    improvement replaces the best.  val is a cut function or a cut table's
    __getitem__.
    """
    best = math.inf
    best_bits = 0
    for size in range((n + 2) // 3, n // 2 + 1):
        for chosen in combinations(range(n), size):
            bits = 0
            for v in chosen:
                bits |= 1 << v
            value = val(bits)
            if value < best:
                best = value
                best_bits = bits
    return best, best_bits


def rankwidth(graph: Graph) -> WidthResult:
    """Exact rankwidth (f-width under GF(2) cut-rank), for n <= DEFAULT_EXACT_CAP."""
    return exact_f_width(graph, CUT_RANK_FUNCTION)


def booleanwidth(graph: Graph) -> WidthResult:
    """Exact booleanwidth (f-width under cut_bool), for n <= DEFAULT_EXACT_CAP."""
    return exact_f_width(graph, CUT_BOOL_FUNCTION)


# --- witness tree text format ---
#
# Header "tree <n>", then one line per internal node: its name (i0, i1, ...)
# followed by its three neighbors; leaves appear as vertex indices.  Trees
# with n <= 2 have no internal nodes and serialize as the bare header.  Emit
# is canonical (names assigned by a traversal ordered on smallest leaf
# labels), so parse/emit round-trips are textually exact.  Parse rejects a
# name given two lines and a line whose neighbors the other lines contradict.


def emit_tree(tree: DecompositionTree) -> str:
    n = tree.n_leaves
    header = f"tree {n}"
    if tree.node_count == n:
        return header + "\n"
    leaf_of = tree.leaf_map
    parent, below = tree._parent, tree._below
    # the constructor's pass is rooted at leaf 0; start at its one child
    start = parent.index(parent.index(-1))
    # pre-order numbering, children by smallest leaf below; a stack, not a
    # recursive closure, so that no reference cycle outlives the call
    number: dict[int, int] = {}
    stack = [start]
    while stack:
        u = stack.pop()
        number[u] = len(number)
        kids = [w for w in tree.neighbors(u) if w != parent[u] and w not in leaf_of]
        kids.sort(key=lambda w: below[w] & -below[w], reverse=True)
        stack.extend(kids)

    lines = [header]
    for u in number:
        toks = []
        for w in tree.neighbors(u):
            if w in leaf_of:
                toks.append((0, leaf_of[w], str(leaf_of[w])))
            else:
                toks.append((1, number[w], f"i{number[w]}"))
        toks.sort()
        lines.append(f"i{number[u]} " + " ".join(t[2] for t in toks))
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> DecompositionTree:
    # (line number, text) of the non-blank lines; blank lines are counted too
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ParseError("empty tree text", position=1)
    (head_no, head_line), body = lines[0], lines[1:]
    head = head_line.split()
    if len(head) != 2 or head[0] != "tree":
        raise ParseError(f"expected 'tree <n>' header, got {head_line!r}", position=head_no)
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(f"bad leaf count {head[1]!r}", position=head_no) from None
    if n < 0:
        raise ParseError("negative leaf count", position=head_no)
    if n <= 2:
        if body:
            raise ParseError(f"no internal nodes expected for n = {n}", position=body[0][0])
        if n <= 1:
            return _trivial_tree(n)
        return DecompositionTree(2, [(0, 1)], {0: 0, 1: 1})

    want_internal = n - 2
    if len(body) != want_internal:
        raise ParseError(
            f"expected {want_internal} internal-node lines for n = {n}, got {len(body)}",
            position=body[0][0] if body else head_no + 1,
        )

    def node_id(token: str, lineno: int) -> int:
        if token.startswith("i"):
            try:
                k = int(token[1:])
            except ValueError:
                raise ParseError(f"bad node token {token!r}", position=lineno) from None
            if not 0 <= k < want_internal:
                raise ParseError(f"internal node {token} out of range", position=lineno)
            return n + k
        try:
            v = int(token)
        except ValueError:
            raise ParseError(f"bad node token {token!r}", position=lineno) from None
        if not 0 <= v < n:
            raise ParseError(f"leaf index {v} out of range", position=lineno)
        return v

    edge_set = set()
    listed: dict[int, tuple[int, str, tuple[int, ...]]] = {}
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(
                f"expected '<name> <nbr> <nbr> <nbr>' on line {lineno}", position=lineno
            )
        name = parts[0]
        u = node_id(name, lineno)
        if u < n:
            raise ParseError(f"line {lineno} names a leaf, not an internal node", position=lineno)
        if u in listed:
            raise ParseError(
                f"{name} named again on line {lineno} (first on line {listed[u][0]})",
                position=lineno,
            )
        nbrs = tuple(sorted(node_id(tok, lineno) for tok in parts[1:]))
        listed[u] = (lineno, name, nbrs)
        edge_set.update((min(u, w), max(u, w)) for w in nbrs)
    tree = DecompositionTree(2 * n - 2, sorted(edge_set), {v: v for v in range(n)})
    # the edges are the union of all lines, so each line must match the tree
    for u, (lineno, name, nbrs) in listed.items():
        if nbrs != tree.neighbors(u):
            raise ParseError(
                f"line {lineno} lists neighbors of {name} that the other lines contradict",
                position=lineno,
            )
    return tree
