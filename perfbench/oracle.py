"""Independent reference computations for checking widthlab's outputs.

Nothing here imports widthlab.  Graphs are lists of packed adjacency rows
(bit j of row i is edge ij) and vertex sets are packed ints, the same data
a user of the library sees, but every routine is written from its
definition: the random streams from splitmix64's published constants, ranks
by XOR-basis reduction, subspace counts by the q-recurrence, widths by a
decision form of the subset DP.
"""

from __future__ import annotations

from itertools import combinations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class BitStream:
    """splitmix64 words, handed out as bits low bit first."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self.pending = 0
        self.pending_bits = 0

    def word(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix64(self.state)

    def bits(self, k: int) -> int:
        while self.pending_bits < k:
            self.pending |= self.word() << self.pending_bits
            self.pending_bits += 64
        out = self.pending & ((1 << k) - 1)
        self.pending >>= k
        self.pending_bits -= k
        return out


def fold_seed(*parts: int) -> int:
    """The per-trial seed widthlab documents: chained splitmix64 finalizer."""
    h = _GAMMA
    for p in parts:
        h = _mix64(((h ^ (p & _MASK64)) + _GAMMA) & _MASK64)
    return h


def gnp_half(n: int, seed: int) -> list[int]:
    """G(n,1/2): one stream bit per pair (u, v), u < v, in lexicographic order."""
    stream = BitStream(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if stream.bits(1):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def square_matrix(n: int, seed: int) -> list[int]:
    """n x n uniform GF(2) matrix, rows of n stream bits each."""
    stream = BitStream(seed)
    return [stream.bits(n) for _ in range(n)]


def gf2_rank(rows) -> int:
    """Rank over GF(2): reduce each row by an XOR basis sorted by leading bit."""
    basis: list[int] = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def union_count(rows) -> int:
    """Distinct OR-combinations of the rows, the empty union (0) included."""
    members = {0}
    for r in set(rows):
        members |= {m | r for m in members}
    return len(members)


def galois(r: int) -> int:
    """Number of subspaces of GF(2)^r: G(k+1) = 2 G(k) + (2^k - 1) G(k-1)."""
    prev, cur = 1, 2  # G(-1) is never used; G(0) = 1, G(1) = 2
    if r == 0:
        return 1
    for k in range(1, r):
        prev, cur = cur, 2 * cur + ((1 << k) - 1) * prev
    return cur


def cut_rows(adj: list[int], side: int) -> list[int]:
    """Rows of A[X, V \\ X]: each vertex of X masked to the other side."""
    comp = side ^ ((1 << len(adj)) - 1)
    return [adj[v] & comp for v in range(len(adj)) if side >> v & 1]


def rank_of_cut(adj: list[int], side: int) -> int:
    return gf2_rank(cut_rows(adj, side))


def unions_of_cut(adj: list[int], side: int) -> int:
    return union_count(cut_rows(adj, side))


def cut_table(adj: list[int], f) -> list[int]:
    """f(X) for every vertex set X, indexed by its packed bits."""
    return [f(adj, side) for side in range(1 << len(adj))]


def balanced_min(adj: list[int], f) -> int:
    """Minimum of f over sides X with ceil(n/3) <= |X| <= floor(n/2)."""
    n = len(adj)
    lo, hi = -(-n // 3), n // 2
    return min(f(adj, side) for side in range(1 << n) if lo <= side.bit_count() <= hi)


def width_at_most(table: list[int], n: int, k: int) -> bool:
    """Does some decomposition tree keep every edge's cut value <= k?

    ok[S] holds when the leaves S hang below one tree edge whose cut value
    f(S) is <= k and S is a leaf or splits into two ok halves.  The whole
    vertex set needs only a split into two ok halves, joined by one edge.
    """
    if n <= 1:
        return table[0] <= k  # no tree edges: the value of the empty cut
    full = (1 << n) - 1
    ok = bytearray(1 << n)
    for s in range(1, full + 1):
        if s != full and table[s] > k:
            continue
        if s & (s - 1) == 0:
            ok[s] = 1
            continue
        low = s & -s
        rest = s ^ low
        sub = (rest - 1) & rest
        while True:
            a = low | sub
            if ok[a] and ok[s ^ a]:
                ok[s] = 1
                break
            if not sub:
                break
            sub = (sub - 1) & rest
    return bool(ok[full])


def width(table: list[int], n: int) -> int:
    """Exact minimum over trees of the maximum cut value, by bisection on k."""
    values = sorted(set(table))
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if width_at_most(table, n, values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return values[lo]


def is_width(table: list[int], n: int, w: int) -> bool:
    """True iff w is exactly the width: feasible at w, not at the next value below."""
    if not width_at_most(table, n, w):
        return False
    below = [v for v in set(table) if v < w]
    return not below or not width_at_most(table, n, max(below))


# --- decomposition trees in widthlab's documented text form ---


def read_tree(text: str, n: int) -> list[tuple[int, int]]:
    """Edges of a 'tree <n>' text; leaves are 0..n-1, internal 'iK' is n+K.

    Raises ValueError unless the text describes a tree whose leaves are
    exactly 0..n-1 with degree 1 and whose other nodes have degree 3.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ["tree", str(n)]:
        raise ValueError(f"bad tree header {lines[:1]}")
    if n <= 2:
        if len(lines) != 1:
            raise ValueError("small trees have no internal nodes")
        return [(0, 1)] if n == 2 else []

    def node(tok: str) -> int:
        if tok.startswith("i"):
            k = int(tok[1:])
            if not 0 <= k < n - 2:
                raise ValueError(f"internal node {tok} out of range")
            return n + k
        v = int(tok)
        if not 0 <= v < n:
            raise ValueError(f"leaf {tok} out of range")
        return v

    edges = set()
    listed = set()
    for parts in lines[1:]:
        if len(parts) != 4 or not parts[0].startswith("i") or parts[0] in listed:
            raise ValueError(f"bad internal node line {parts}")
        listed.add(parts[0])
        u = node(parts[0])
        for tok in parts[1:]:
            w = node(tok)
            edges.add((min(u, w), max(u, w)))
    if len(listed) != n - 2:
        raise ValueError("wrong number of internal nodes")
    degree = [0] * (2 * n - 2)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    if degree[:n] != [1] * n or degree[n:] != [3] * (n - 2) or len(edges) != 2 * n - 3:
        raise ValueError("tree degrees are not leaves 1 / internal 3")
    return sorted(edges)


def tree_sides(edges: list[tuple[int, int]], n: int) -> list[int]:
    """For each tree edge, the packed set of leaves on the side away from leaf 0."""
    if n <= 1:
        return []
    nodes = 2 * n - 2
    nbrs: list[list[int]] = [[] for _ in range(nodes)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    parent = [-1] * nodes
    order = [0]
    seen = {0}
    for u in order:
        for w in nbrs[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
    if len(order) != nodes:
        raise ValueError("tree is not connected")
    below = [1 << u if u < n else 0 for u in range(nodes)]
    for u in reversed(order[1:]):
        below[parent[u]] |= below[u]
    return [below[u] for u in order[1:]]


def tree_value(adj: list[int], edges: list[tuple[int, int]], f) -> int:
    """Width of one tree: the maximum of f over the cuts of its edges."""
    return max((f(adj, side) for side in tree_sides(edges, len(adj))), default=0)


# --- minimum submatrix rank ---


def submatrix_rank(rows: list[int], rowset, colset) -> int:
    mask = sum(1 << c for c in colset)
    return gf2_rank(rows[r] & mask for r in rowset)


def min_submatrix_rank(rows: list[int], ncols: int, m: int, k: int) -> int:
    """Minimum rank over every m-row, k-column submatrix, by full scan."""
    masks = [sum(1 << c for c in cs) for cs in combinations(range(ncols), k)]
    best = min(m, k)
    for rs in combinations(range(len(rows)), m):
        sel = [rows[r] for r in rs]
        for mask in masks:
            r = gf2_rank(v & mask for v in sel)
            if r < best:
                best = r
                if best == 0:
                    return 0
    return best
