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
tree's own n - 2 internal nodes.  Ties between optimal splits resolve to
the numerically smallest side, so the witness is deterministic.

_subset_dp runs a table of at least 8 cells holding at most
256 distinct values a popcount layer at a time (_layered_dp), one bit per
set in big ints.  Nearly every set stops early, and most at a one-vertex
side: in the cut-rank DPs of G(14, 1/2), seeds mix_seed(1..3, 14, 0),
23,958 of the 24,534 sets stop early and 23,107 of them at a one-vertex
side.  The layer certificate settles those in bitsets.  A set S with a
vertex v such that f({v}) <= f(S), f(S - {v}) <= f(S) and g[S - {v}] still
f(S - {v})'s own object has the split {v}, S - {v} of value <= f(S), so
the scan of S would stop and leave g[S] = f(S), and the certificate leaves
that cell untouched.  Bit-sliced comparisons of f's numbers give, once per
vertex, the sets passing the two f tests; a layer's certified sets are
then a few hundred big-int operations, since every set S - {v} lies in the
layer below, whose sets that kept f's object are known.  Testing f(S - {v})
alone would be wrong: g[S - {v}] may have risen above f(S).  The other sets
of the layer are worked one by one, in any order, since only lower layers
are read.  Each is decided for all its sides at once, in threshold
bitsets.  For a distinct table value k, bit T of B_k is set iff
g[T] <= k.  Reversed over the table's bits, B_k turns the other side S \\ T
into a shift, so B_k, its reversal shifted and a mask of S's sides give, in
two ANDs, every side T with g[T] <= k and g[S \\ T] <= k.  The values are
probed upward from f(S), and the first k at which a side passes is
max(f(S), c(S)).  If that is f(S), the scan of S would stop early and g[S]
stays f(S).  Otherwise k is c(S), and the lowest side that passes at c(S)
is the first side of the ascending scan to reach c(S), where the scan's
strictly improving best settles, so g[S] is set to the scan's very object,
the larger of g[T] and g[S \\ T] (g[T] on a tie).  So every cell ends as
the object the plain scan leaves.  The bitsets are built when first asked
for, from bit planes of a one-byte number per cell in f, and a set whose g
rises clears its bit in the bitsets it no longer passes: its probe has
asked for all of them.

A table of 4 cells or fewer, whose lanes fill no byte, and a table of more
than 256 distinct values are scanned set by set in ascending order.  The
latter has no one-byte numbers, and each value probed would cost a pass
over all cells and two bitsets kept to the end: a weighted edge cut with
11,130 values took 10.3 s by bitsets against 0.21 s by the scan at n = 16.
The built-in functions stay far below that: on G(18, 1/2) cut-rank has 10
values and the boolean function 64-93.

Every cut function is tabulated once, by _half_table, on the 2^(n-1)
subsets without vertex n - 1: exactly the indices below 2^(n-1), so this is
the lower half of the 2^n table.  The upper half is never built: f of a set
u holding n - 1 is f_half[full ^ u].

The DP runs on the 2^(n-1) sets without vertex 0 alone (_exact_width) and
gives the value and witness of the DP over all 2^n sets.  That DP's root
side is {0}: the scan tries it first, and it is optimal, because every tree
has the leaf edge of vertex 0.  Every node below the root is a subset of
V \\ {0}, and g of such a set depends only on its own subsets.  The map
s -> s >> 1 keeps the ascending order of the sets, each set's top bit and
the ascending order of its sides, so the DP on g[s] = f(s << 1) leaves g[s]
equal to the full DP's g[s << 1], object for object.  That table is
f_half[::2] + f_half[::-2]: s << 1 is below 2^(n-1) for the lower half of
the s, and for the upper half full ^ (s << 1) runs down the odd indices.
The slices copy the cells' objects and leave f_half as it is, so
balanced_cut_lower_bound and the scaling trial can read it too, at
f_half[s] or f_half[full ^ s] (_balanced_min).  The width is the full
scan's first split, the larger of g[{0}] = f_half[1] and g[V \\ {0}], the
first on a tie: the very object the full DP returns, which matters only
for an f whose equal values differ in type.

The engine needs f(X) = f(V \\ X) and f(empty) = 0, and checks both in one
of two ways:

- The built-in cut-rank and boolean cut functions (CUT_RANK_FUNCTION and
  CUT_BOOL_FUNCTION, recognised by identity) are symmetric by theorem: a
  matrix and its transpose have the same GF(2) rank, and a 0/1 matrix has
  as many distinct row unions as column unions.  Their half is filled with
  no per-subset kernel call.  Cut-rank is one GF(2) elimination run on
  2^14 subsets at once, bit-sliced: each subset is one bit of every big int
  (_rank_half_table).  The boolean function is one walk over the subsets,
  each cell's row unions built from its parent subset's (_half_table).
  They are audited on a seeded sample of 34 subsets, drawn once per n
  (_symmetry_sample), once per call: when _verified re-checks the witness,
  or after the lower bound's fill.  Each sampled pair's side without vertex
  n - 1 is read from the half table and only the other side from the
  kernel, so the fill is checked against the kernel, in 35 kernel calls
  with f(empty), not 69.  A kernel wrong only on sides without n - 1
  escapes it: the engines call the kernel on such sides only at the
  witness's own cuts, which _verified compares with the DP's value.
  tree_width_under and brute_force_f_width hold no table and evaluate both
  sides of each pair.
- Any other cut function, a copy of a built-in included, is evaluated on
  all 2^n subsets in ascending order, so an exception it raises comes
  before any ContractError.  Every complementary pair and f(empty) are
  audited, and only the lower half is kept: an upper value is compared with
  its mirror when it is evaluated, then dropped.  A pair that agrees only within
  the audit's tolerance, or as an int and an equal float, therefore takes
  the lower side's value on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress
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


def _audit_pairs(
    f: CutFunction, val: Callable[[int], float], n: int, subsets: Iterable[int]
) -> None:
    """Check f(X) = f(V \\ X) for each X in `subsets`, f(X) read first."""
    full = (1 << n) - 1
    for s in subsets:
        a, b = val(s), val(full ^ s)
        if not _agree(a, b):
            raise _asymmetry(f, s, a, b)


def _audit_empty(f: CutFunction, value: float) -> None:
    """Check f(empty) = 0, given f(empty)."""
    if abs(value) > _SYMMETRY_TOL:
        raise ContractError(f"cut function {f.name!r} must vanish on the empty side")


def _agree(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_SYMMETRY_TOL, abs_tol=_SYMMETRY_TOL)


def _asymmetry(f: CutFunction, s: int, a: float, b: float) -> ContractError:
    return ContractError(f"cut function {f.name!r} is not symmetric at subset {s:#x}: {a} vs {b}")


@cache
def _symmetry_sample(n: int) -> tuple[int, ...]:
    """The spot check's subsets at n: empty, V and min(32, 2^n) seeded draws, drawn once per n."""
    rng = SplitMix64(mix_seed(0x5F, n))
    return (0, (1 << n) - 1) + tuple(rng.next_bits(n) for _ in range(min(32, 1 << n)))


def _spot_check_symmetry(
    graph: Graph, f: CutFunction, ev: Callable[[int], float], f_half: Optional[list[float]]
) -> None:
    """Sampled symmetry audit, once per engine call, then f(empty) = 0 by the kernel ev.

    With f's half table, each pair's side without vertex n - 1 is read from
    it and only the other side is evaluated; without one, both sides are.
    """
    n = graph.n
    val = ev
    if f_half is not None:
        half = len(f_half)

        def val(s: int) -> float:
            return f_half[s] if s < half else ev(s)

    _audit_pairs(f, val, n, _symmetry_sample(n))
    _audit_empty(f, ev(0))


def _half_table(graph: Graph, f: CutFunction) -> list[float]:
    """f on the 2^(n-1) subsets without vertex n - 1, audited as the module docstring says.

    The built-ins' tables hold one float object per distinct value.
    """
    n = graph.n
    if f is CUT_RANK_FUNCTION:
        return _rank_half_table(graph)
    if f is not CUT_BOOL_FUNCTION:
        val = _bits_eval(graph, f)
        half, full = 1 << (n - 1), (1 << n) - 1
        table = list(map(val, range(half)))
        # each upper value is compared with its mirror as it comes and then
        # dropped; the last failure seen has the smallest lower side, the
        # pair an ascending audit would report
        bad = None
        for u in range(half, full + 1):
            b = val(u)
            if not _agree(table[full ^ u], b):
                bad = full ^ u, b
        if bad is not None:
            raise _asymmetry(f, bad[0], table[bad[0]], bad[1])
        _audit_empty(f, table[0])
        return table
    # The walk visits each subset Y once, as X + {v} with v above X's top
    # vertex, and builds Y's row unions from X's, both on m = V \ Y: each
    # union u of X's rows gives u & m and (u | A[v]) & m.  There are at most
    # 2^min(|Y|, n - |Y|), far below DEFAULT_SPACE_CAP at any n whose table
    # fits in memory.  A count is at least 1; values[0] is never read.
    values = [0.0] + [math.log2(c) for c in range(1, (1 << n // 2) + 1)]
    table = [0.0] * (1 << (n - 1))
    adj, full, last = graph._adj, (1 << n) - 1, n - 1
    # (X, X's unions, the next vertex to add to X); a stack, not recursion,
    # so it holds at most n entries and no reference cycle
    stack = [(0, {0}, 0)] if last else []
    while stack:
        x, unions, v = stack.pop()
        more = v + 1 < last
        if more:
            stack.append((x, unions, v + 1))
        y = x | 1 << v
        m = full ^ y
        a = adj[v] & m
        unions = {u & m for u in unions}
        unions |= {u | a for u in unions}
        table[y] = values[len(unions)]
        if more:
            stack.append((y, unions, v + 1))
    return table


# 2^14 lanes a chunk: a matrix entry is a 2 KB int, so a chunk's n^2 entries
# take less than the half table's 8 bytes a cell from n = 18 up
_LANE_BITS = 14
# the delta swaps that transpose each 8 x 8 bit block of a 64-bit word
_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _rank_half_table(graph: Graph) -> list[float]:
    """Cut-rank on the 2^(n-1) subsets without vertex n - 1, 2^m of them at once.

    Chunk c, with m = min(n - 1, _LANE_BITS), fixes the vertices m..n-2 to
    the bits of c.  Bit y of each of its big ints, lane y, stands for the
    subset c * 2^m + y, so one big-int operation acts on all 2^m subsets
    of the chunk (_lane_ranks).
    """
    n = graph.n
    values = [float(r) for r in range(n // 2 + 1)]
    last = n - 1
    m = min(last, _LANE_BITS)
    ones = (1 << (1 << m)) - 1
    patterns = _bit_patterns(m)  # vertex i < m is in Y in the lanes whose bit i is set
    table = [0.0] * (1 << last)
    for c in range(1 << (last - m)):
        inside = patterns + [ones if c >> t & 1 else 0 for t in range(last - m)] + [0]
        ranks = _lane_ranks(graph._adj, inside, ones)
        table[c << m : (c + 1) << m] = map(values.__getitem__, ranks)
    return table


def _bit_patterns(m: int) -> list[int]:
    """For i < m, the int over 2^m bits whose bit y is set iff bit i of y is.

    Bit i of y repeats with period 2^(i+1), set in the upper 2^i of each.
    """
    ones = (1 << (1 << m)) - 1
    return [ones // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1 << (1 << i)) for i in range(m)]


def _lane_ranks(adj: tuple[int, ...], inside: list[int], ones: int) -> bytes:
    """The GF(2) rank of A[Y, V \\ Y] in each lane Y, one byte a lane.

    inside[i] holds the lanes with i in Y, so entry (i, j) is inside[i] &
    ~inside[j] where A has edge ij, else 0.  Forward elimination runs column
    by column: each lane takes its first unused row with a 1 in column j as
    pivot and clears column j from its other unused rows, about n^3 big-int
    operations in all.  A lane's pivots are its rank, at most n // 2, summed
    in bit planes and turned into bytes by _transpose.
    """
    n = len(adj)
    width = (n // 2).bit_length()
    outside = [ones ^ x for x in inside]
    rows = [[x & outside[j] if a >> j & 1 else 0 for j in range(n)] for x, a in zip(inside, adj)]
    unused = inside[:]  # row i is 0 in the lanes without i, so those never pick it
    planes = [0] * width
    for j in range(n):
        free = ones  # the lanes with no pivot in column j yet
        pivots = []
        for i, row in enumerate(rows):
            sel = row[j] & unused[i] & free
            if sel:
                free ^= sel
                unused[i] ^= sel
                pivots.append((sel, row))
        hits = [(row, h) for row, u in zip(rows, unused) if (h := row[j] & u)]
        for row in rows:
            row[j] = 0  # column j is never read again
        carry = ones ^ free
        for p in range(width):
            planes[p], carry = planes[p] ^ carry, planes[p] & carry
        if hits:
            for k in range(j + 1, n):
                # each lane's pivot row, in column k
                pk = 0
                for sel, row in pivots:
                    pk |= sel & row[k]
                if pk:
                    for row, h in hits:
                        row[k] ^= h & pk
    rows = bytearray(max(ones.bit_length(), 8))  # whole 8 x 8 blocks
    for p, plane in enumerate(planes):
        rows[p::8] = plane.to_bytes(len(rows) >> 3, "little")
    return _transpose(rows)[: ones.bit_length()]


def _transpose(rows: bytes) -> bytes:
    """rows with each 8 x 8 bit block transposed: bit j of byte 8b + i swaps with bit i
    of byte 8b + j (len(rows) a multiple of 8).  So one byte a cell becomes bit planes,
    plane j every eighth byte from j, and back."""
    x = int.from_bytes(rows, "little")
    words = len(rows) >> 3
    for shift, mask in _TRANSPOSE:
        t = (x ^ x >> shift) & int.from_bytes(mask.to_bytes(8, "little") * words, "little")
        x ^= t ^ t << shift
    return x.to_bytes(len(rows), "little")


def tree_width_under(graph: Graph, tree: DecompositionTree, f: CutFunction) -> WidthResult:
    """Width of one decomposition tree: max of f over its edge-induced cuts."""
    return _tree_width(graph, tree, f, None)


def _check_leaves(n: int, tree: DecompositionTree) -> None:
    """tree_width_under's check of n, also run by the CLI on an edge list's vertex count."""
    if tree.n_leaves != n:
        raise StructureError(f"tree has {tree.n_leaves} leaves for a graph on {n} vertices")


def _tree_width(
    graph: Graph, tree: DecompositionTree, f: CutFunction, f_half: Optional[list[float]]
) -> WidthResult:
    """tree_width_under, its spot check reading f_half if given."""
    _check_leaves(graph.n, tree)
    if graph.n <= 1:
        return WidthResult(0.0, tree, Cut(0, graph.n))
    ev = _bits_eval(graph, f)
    _spot_check_symmetry(graph, f, ev, f_half)
    best = -math.inf
    best_cut = None
    for cut in tree_cuts(tree):
        v = ev(cut.bits)
        if v > best:
            best = v
            best_cut = cut
    return WidthResult(best, tree, best_cut)


def _verified(
    graph: Graph,
    f: CutFunction,
    value: float,
    tree: DecompositionTree,
    f_half: Optional[list[float]] = None,
) -> WidthResult:
    """An exact engine's width and witness, once the kernel re-evaluates the tree's cuts."""
    check = _tree_width(graph, tree, f, f_half)
    if check.value != value:
        raise AssertionError(
            f"witness tree re-evaluates to {check.value}, the engine computed {value}"
        )
    return WidthResult(value, tree, check.witness_cut)


def _trivial_tree(n: int) -> DecompositionTree:
    """The edgeless tree on n <= 1 leaves."""
    return DecompositionTree(n, [], {v: v for v in range(n)})


def _check_exact_cap(n: int, n_cap: int) -> None:
    """exact_f_width's check of n, which the CLI also runs on an edge list's vertex count."""
    if n > n_cap:
        raise CapExceeded(f"exact width needs n <= {n_cap}, got n = {n}")


def exact_f_width(
    graph: Graph, f: CutFunction, n_cap: int = DEFAULT_EXACT_CAP
) -> WidthResult:
    """Exact minimum f-width over all decomposition trees, with witnesses.

    The subset DP of the module docstring, at most O(3^n) side lookups on
    f's half table, run on the sets without vertex 0 (_exact_width).  The
    witness tree is the full DP's, rebuilt and its cuts re-evaluated by the
    kernel (_verified); ties between optimal splits resolve to the
    numerically smallest side, so it is deterministic.
    """
    n = graph.n
    _check_exact_cap(n, n_cap)
    # below two vertices there is no half table; _exact_width returns the
    # edgeless tree without reading one
    return _exact_width(graph, f, _half_table(graph, f) if n > 1 else [0.0])


def _exact_width(graph: Graph, f: CutFunction, f_half: list[float]) -> WidthResult:
    """exact_f_width on f's half table, which it leaves as it is.

    g[s] = f(s << 1) is f on the sets without vertex 0, and the DP on g
    leaves g[s] equal to the full DP's g[s << 1], object for object (see
    the module docstring).  The root side is {0}, and the value is the
    full scan's first split, its best.  The caller checks n against the
    width cap.
    """
    n = graph.n
    if n <= 1:
        return WidthResult(0.0, _trivial_tree(n), Cut(0, n))
    g = f_half[::2] + f_half[::-2]
    _subset_dp(g)
    tree = _witness_tree(lambda s: _best_split(g, s >> 1)[1] << 1, n, 1)
    a, b = f_half[1], g[-1]
    return _verified(graph, f, a if a >= b else b, tree, f_half)


def _subset_dp(g: list[float]) -> None:
    """The DP over the whole table: g[S] = f(S) becomes max(f(S), c(S)) for every S.

    len(g) is a power of two.  A table of at least 8 cells, whole bytes of
    lanes, holding at most 256 distinct values is run a popcount layer at a
    time (_layered_dp); any other table is scanned set by set in ascending
    order.  Either way every subset of a set is final before the set is.
    """
    if len(g) >= 8:
        values = sorted(set(g))
        if len(values) <= 256:
            _layered_dp(g, values)
            return
    for s in range(3, len(g)):
        if s & (s - 1):
            fs = g[s]
            best = _best_split(g, s, fs)[0]
            if best > fs:
                g[s] = best


# byte b -> b with its 8 bits in reverse order
_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# byte b -> the positions of its set bits
_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]


def _planes(code: bytes, count: int) -> list[int]:
    """The lowest `count` bit planes of code: bit S of plane j is bit j of code[S]."""
    rows = _transpose(code)
    return [int.from_bytes(rows[j::8], "little") for j in range(count)]


def _not_above(a: list[int], b: list[int], lanes: int) -> int:
    """The bits of lanes where the number in planes a is <= the number in planes b."""
    less = 0
    for x, y in zip(reversed(a), reversed(b)):
        differ = lanes & (x ^ y)
        less |= differ & y
        lanes ^= differ
    return less | lanes


def _layered_dp(g: list[float], values: list[float]) -> None:
    """The DP a popcount layer at a time, most sets settled by bitsets.

    values are g's distinct values in order, at most 256 of them, and a
    set's number is that of its g among them.  A lane int has one bit per
    set, bit S for set S, and planes[j] holds bit j of every set's number
    in f, never updated.

    The layer certificate.  For a vertex v and a set S holding v, bit S of
    ok[v] is set iff f(S - {v}) <= f(S) and f({v}) <= f(S): the planes
    shifted by 2^v, whose bit S is that of set S - 2^v, compared bit-sliced
    with the planes themselves.  same holds the sets of the layer below
    whose g is still f's own object.  A set S of layer L with S - {v} in
    same and S in ok[v] has the split {v}, S - {v} of value <= f(S), so the
    scan of S stops early and leaves g[S] = f(S): those sets are settled
    by OR_v ((same << 2^v) & ok[v]), masked to layer L, and their cells are
    not touched.  A bit of same << 2^v that lands in layer L is a set
    R + 2^v with R in layer L - 1 and no carry, so v is not in R and the
    bits of ok[v] for sets without v are never read.

    The other sets of the layer are worked one at a time by threshold
    bitsets, and a set joins same when its g stays f(S).  For a number k,
    bit i of B_k is set iff g[i]'s number is <= k, and R_k is B_k reversed
    over the len(g) bits.
    For a set S with C = full ^ S and a side T of S, bit T of R_k >> C is
    bit S ^ T of B_k, so the sides passing at k, g[T] <= k and
    g[S ^ T] <= k, are the bits of B_k & (R_k >> C) & M_S, M_S holding the
    non-empty subsets of S without its top vertex.  k is probed upward from
    f(S)'s number; a side passing there leaves g[S] = f(S), and otherwise
    the first k with a passing side is c(S), its lowest such side the one
    the ascending scan keeps, so g[S] is the scan's object.  B_k and R_k
    are built from the planes when first asked for.  The probe of S has
    asked for every k from f(S) to c(S) before g[S] rises, and the rise
    clears bit S in those with k < c(S), so every B_k holds g's numbers:
    one built later either has k >= c(S), which S passes, or k < f(S),
    which it fails, by its number in f as by its number in g.
    """
    size = len(g)
    full = size - 1
    ones = (1 << size) - 1
    number = {v: k for k, v in enumerate(values)}
    code = bytearray(map(number.__getitem__, g))
    depth = (len(values) - 1).bit_length()
    planes = _planes(code, depth)

    def constant(k: int) -> list[int]:
        return [ones if k >> j & 1 else 0 for j in range(depth)]

    ok = []
    layers = [1]  # layers[L]: the sets of L vertices
    for v in range(full.bit_length()):
        step = 1 << v
        # code({v}) <= code(S), then code(S - 2^v) <= code(S)
        lanes = _not_above(constant(code[step]), planes, ones)
        ok.append(_not_above([p << step for p in planes], planes, lanes))
        layers = [a | b << step for a, b in zip(layers + [0], [0] + layers)]
    cache: dict = {}  # k -> [B_k, R_k]

    def passing(k: int, m: int, c: int) -> int:
        bits = cache.get(k)
        if bits is None:
            b = _not_above(planes, constant(k), ones)
            r = b.to_bytes(size >> 3, "little")[::-1].translate(_REVERSE)
            bits = cache[k] = [b, int.from_bytes(r, "little")]
        return m & bits[0] & (bits[1] >> c)

    same = layers[1]
    for layer in range(2, len(layers)):
        sets = layers[layer]
        certified = 0
        for v, passes in enumerate(ok):
            certified |= same << (1 << v) & passes
        certified &= sets
        todo = (sets ^ certified).to_bytes(size >> 3, "little")
        kept = bytearray(todo)  # the sets of todo whose g stays f(S)
        for i in compress(range(len(todo)), todo):
            for j in _BITS[todo[i]]:
                s = i << 3 | j
                # M_S by doubling over the vertices of S but its top one
                m, r = 1, s ^ (1 << (s.bit_length() - 1))
                while r:
                    bit = r & -r
                    m |= m << bit
                    r ^= bit
                m ^= 1
                c = full ^ s
                # the least k from f(S)'s number, code[s], up at which a
                # side passes
                low = hi = code[s]
                while not (p := passing(hi, m, c)):
                    hi += 1
                if hi == low:
                    continue
                t = (p & -p).bit_length() - 1
                a, b = g[t], g[s ^ t]
                g[s] = a if a >= b else b
                # the probe built B_k for every k it passed over
                for k in range(low, hi):
                    bits = cache[k]
                    bits[0] ^= 1 << s
                    bits[1] ^= 1 << c
                kept[i] ^= 1 << j
        same = certified | int.from_bytes(kept, "little")


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


def _witness_tree(split: Callable[[int], int], n: int, t: int) -> DecompositionTree:
    """An optimal tree whose root edge splits V into t and V \\ t.

    split(s) is the side an internal node on leaf set s splits off; only the
    tree's own nodes are split.  Leaf v is node v; internal nodes are
    numbered n, n+1, ... in post-order, smaller side first.
    """
    edges: list[tuple[int, int]] = []
    a = _subtree(split, t, n, edges)
    b = _subtree(split, ((1 << n) - 1) ^ t, n, edges)
    edges.append((a, b))
    return DecompositionTree(n + len(edges) // 2, edges, {v: v for v in range(n)})


def _subtree(split: Callable[[int], int], s: int, n: int, edges: list[tuple[int, int]]) -> int:
    """Append the optimal subtree on leaf set s to edges; return its top node.

    A module function, not a closure: a recursive closure is a reference
    cycle that would keep the DP's tables alive until the cyclic collector
    runs.  Each finished internal node adds two edges, so the next node
    number is n + len(edges) // 2.
    """
    if s & (s - 1) == 0:
        return s.bit_length() - 1
    t = split(s)
    a = _subtree(split, t, n, edges)
    b = _subtree(split, s ^ t, n, edges)
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


def _check_balanced_n(n: int, n_cap: int) -> None:
    """balanced_cut_lower_bound's check of n, run by the CLI as _check_exact_cap is."""
    if n < 3:
        raise ValueError("balanced cuts need n >= 3 (the size range is empty below)")
    if n > n_cap:
        raise CapExceeded(f"balanced enumeration needs n <= {n_cap}, got n = {n}")


def balanced_cut_lower_bound(
    graph: Graph, f: CutFunction, n_cap: int = BALANCED_CAP
) -> tuple[float, Cut]:
    """Minimum of f over balanced cuts: a certified lower bound on f-width.

    Every decomposition tree contains an edge splitting the vertices into
    sides of size between ceil(n/3) and floor(n/2), so the minimum of f over
    that range bounds the f-width of the graph from below.  f is read from
    its half table, audited as for exact_f_width.
    """
    n = graph.n
    _check_balanced_n(n, n_cap)
    f_half = _half_table(graph, f)
    _spot_check_symmetry(graph, f, _bits_eval(graph, f), f_half)
    best, bits = _balanced_min(f_half)
    return best, Cut(bits, n)


def _balanced_min(f_half: list[float]) -> tuple[float, int]:
    """The minimum of f over balanced sides and the first side attaining it.

    f_half is f's half table, so a side s holding vertex n - 1 reads
    f_half[full ^ s].  Sides run by size ascending, then in `combinations`
    order; only a strict improvement replaces the best.
    """
    half = len(f_half)
    n = half.bit_length()
    full = (half << 1) - 1
    vertex_bits = [1 << v for v in range(n)]
    best = math.inf
    best_bits = 0
    for size in range((n + 2) // 3, n // 2 + 1):
        for bits in map(sum, combinations(vertex_bits, size)):
            value = f_half[bits] if bits < half else f_half[full ^ bits]
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
