"""Simple undirected graphs on vertices 0..n-1, cuts, and bit-exact I/O.

Adjacency rows are packed ints (bit j of row i = edge ij), which makes the
cut-rank of a bipartition a mask-and-eliminate operation: zero columns do not
change GF(2) rank, so no bit gathering is needed on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import ParseError
from .gf2 import BitMatrix, _rank_of_words, submatrix
from .rng import SplitMix64


class Graph:
    """Immutable simple undirected graph with packed adjacency rows."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj_words: Iterable[int]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = tuple(adj_words)
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        for i, w in enumerate(adj):
            if w < 0 or w >> n:
                raise ValueError(f"adjacency row {i} has bits outside {n} vertices")
            if (w >> i) & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(n):
            for_bits = adj[i]
            while for_bits:
                low = for_bits & -for_bits
                j = low.bit_length() - 1
                if not (adj[j] >> i) & 1:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")
                for_bits ^= low
        self.n = n
        self._adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @classmethod
    def from_adjacency(cls, matrix: BitMatrix) -> "Graph":
        if matrix.rows != matrix.cols:
            raise ValueError("adjacency matrix must be square")
        return cls(matrix.rows, matrix.row_words)

    @property
    def adjacency(self) -> BitMatrix:
        return BitMatrix(self.n, self.n, self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographic."""
        out = []
        for u in range(self.n):
            w = self._adj[u] >> (u + 1)
            v = u + 1
            while w:
                if w & 1:
                    out.append((u, v))
                w >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(w.bit_count() for w in self._adj) // 2

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Graph with vertex v renamed to perm[v]; perm must be a permutation."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex set")
        return Graph.from_edges(self.n, [(p[u], p[v]) for u, v in self.edges()])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


@dataclass(frozen=True)
class Cut:
    """One side X of a bipartition (X, V \\ X), packed over vertices 0..n-1."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0 or self.bits < 0 or self.bits >> self.n:
            raise ValueError("cut bits outside the vertex range")

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "Cut":
        bits = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            bits |= 1 << v
        return cls(bits, n)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if (self.bits >> v) & 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def complement(self) -> "Cut":
        return Cut(self.bits ^ ((1 << self.n) - 1), self.n)


def sample_gnp_half(n: int, seed: int) -> Graph:
    """Random graph, each of the C(n,2) edges present with probability 1/2.

    Edge bits are drawn in lexicographic (u, v), u < v order from the seeded
    stream; deterministic per (n, seed).
    """
    rng = SplitMix64(seed)
    return _sample_gnp_from(rng, n)


def _sample_gnp_from(rng: SplitMix64, n: int) -> Graph:
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.next_bits(1)])


def _check_cut(graph: Graph, cut: Cut) -> None:
    if cut.n != graph.n:
        raise ValueError(f"cut over {cut.n} vertices used with a graph on {graph.n}")


def cut_matrix(graph: Graph, cut: Cut) -> BitMatrix:
    """Adjacency submatrix A[X, V \\ X].

    Rows follow ascending order of X, columns ascending order of V \\ X, so
    witnesses built from this matrix are reproducible.
    """
    _check_cut(graph, cut)
    return submatrix(graph.adjacency, cut.members, cut.complement().members)


def cut_rank(graph: Graph, cut: Cut) -> int:
    """GF(2) rank of the cut matrix; 0 iff no edge crosses the cut."""
    _check_cut(graph, cut)
    return _cut_rank_bits(graph, cut.bits)


def _cut_rank_bits(graph: Graph, bits: int) -> int:
    return _rank_of_words(_cut_rows(graph, bits))


def _cut_rows(graph: Graph, bits: int) -> list[int]:
    # Rows of the side `bits`, ascending, masked by the complement.  Masking
    # keeps column positions instead of gathering them: the extra zero columns
    # change neither the GF(2) rank nor the number of distinct unions.
    comp = bits ^ ((1 << graph.n) - 1)
    adj = graph._adj
    words = []
    b = bits
    while b:
        low = b & -b
        words.append(adj[low.bit_length() - 1] & comp)
        b ^= low
    return words


# --- named graphs used throughout tests and demos ---


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


# --- graph6 ---
#
# Standard format: optional ">>graph6<<" header, N(n) length field, then the
# upper triangle bits in column-major order (_g6_pairs), packed big-endian
# into 6-bit groups, zero-padded, each group offset by 63.

_G6_HEADER = ">>graph6<<"


def _g6_pairs(n: int) -> Iterator[tuple[int, int]]:
    """The pairs i < j in graph6 bit order: for j in 1..n-1, (0,j) .. (j-1,j)."""
    return ((i, j) for j in range(1, n) for i in range(j))


def emit_graph6(graph: Graph) -> str:
    bits = "".join("1" if graph.has_edge(i, j) else "0" for i, j in _g6_pairs(graph.n))
    bits += "0" * (-len(bits) % 6)
    body = (chr(63 + int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6))
    return _g6_encode_length(graph.n) + "".join(body)


def _g6_encode_length(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("graph too large for graph6")


def parse_graph6(text: str) -> Graph:
    s = text.rstrip("\n")
    offset = 0
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
        offset = len(_G6_HEADER)
    if not s:
        raise ParseError("empty graph6 string", position=offset)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(
                f"character {ch!r} outside graph6 range 63..126", position=offset + i
            )
    n, used = _g6_decode_length(s, offset)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[used:]
    if len(body) != need:
        raise ParseError(
            f"expected {need} payload characters for n={n}, found {len(body)}",
            position=offset + used,
        )
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    extra = bits.find("1", nbits)
    if extra >= 0:
        raise ParseError(
            "nonzero padding bits after the adjacency triangle",
            position=offset + used + extra // 6,
        )
    return Graph.from_edges(n, [e for e, bit in zip(_g6_pairs(n), bits) if bit == "1"])


def _g6_decode_length(s: str, offset: int) -> tuple[int, int]:
    """n and the field's width; the field must be the one _g6_encode_length(n) writes."""
    tildes = 2 if s.startswith("~~") else int(s[0] == "~")
    width = (1, 4, 8)[tildes]
    if len(s) < width:
        raise ParseError(f"truncated {width}-byte graph6 length field", position=offset)
    n = 0
    for ch in s[tildes:width]:
        n = (n << 6) | (ord(ch) - 63)
    if s[:width] != _g6_encode_length(n):
        raise ParseError("overlong graph6 length encoding", position=offset)
    return n, width


# --- edge-list text format ---
#
# First line "n", then one "u v" line per edge.  Duplicates collapse; emit
# lists edges with u < v in lexicographic order.


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing vertex-count line", position=1)
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"bad vertex count {lines[0]!r}", position=1) from None
    if n < 0:
        raise ParseError(f"negative vertex count {n}", position=1)
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v' on line {lineno}", position=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint on line {lineno}", position=lineno) from None
        if u == v:
            raise ParseError(f"self-loop on line {lineno}", position=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range on line {lineno}", position=lineno)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def emit_edge_list(graph: Graph) -> str:
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def all_cuts(n: int) -> Iterator[Cut]:
    """Every subset of the vertex set as a Cut (2^n of them, ascending bits)."""
    for bits in range(1 << n):
        yield Cut(bits, n)
