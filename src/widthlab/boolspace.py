"""Boolean (union-semiring) row-space counting and counting sequences.

The boolean row space of a 0/1 matrix is the set of distinct bitwise-OR
combinations of its rows.  The empty combination is always counted, so the
all-zero vector is a member even for the empty matrix; this makes the boolean
cut function exactly 0 on trivial cuts.  Some texts exclude the empty union;
this package does not.

Bell numbers, Gaussian binomials and Galois numbers are exact integers
(Python ints), never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BooleanSpaceOverflow, CapExceeded
from .gf2 import BitMatrix
from .graphs import Cut, Graph, _check_cut, _cut_rows

# Closure member cap of cut_bool, and boolean_row_space_size's default: 2^20
# members covers every cut of graphs up to n = 40.
DEFAULT_SPACE_CAP = 1 << 20

BELL_CAP = 500


@dataclass(frozen=True)
class BooleanSpaceSize:
    """Exact member count of a boolean row space, with its base-2 log."""

    count: int
    log2: float


def _closure_size(words: list[int], cap: int) -> int:
    """Distinct OR-combinations of `words`, including the empty combination.

    Grows the closure one row at a time (row order is fixed ascending, so the
    traversal is deterministic) and raises once the member count passes cap.
    """
    space = {0}
    for w in words:
        space |= {s | w for s in space}
        if len(space) > cap:
            raise BooleanSpaceOverflow(
                f"boolean row space exceeded cap {cap}", partial_count=len(space)
            )
    return len(space)


def boolean_row_space_size(matrix: BitMatrix, cap: int = DEFAULT_SPACE_CAP) -> BooleanSpaceSize:
    """Size of the boolean row space of `matrix`.

    Counts every distinct union of a subset of rows, the empty subset
    included, so the count is always >= 1.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    count = _closure_size(list(matrix.row_words), cap)
    return BooleanSpaceSize(count, math.log2(count))


def cut_bool(graph: Graph, cut: Cut) -> float:
    """Boolean cut function: log2 #(distinct neighborhood unions across the cut).

    Equals log2 of boolean_row_space_size of the cut matrix A[X, V \\ X];
    exactly 0.0 when X is empty or the whole vertex set.  Raises
    BooleanSpaceOverflow past DEFAULT_SPACE_CAP members.
    """
    _check_cut(graph, cut)
    return _cut_bool_bits(graph, cut.bits)


def _cut_bool_bits(graph: Graph, bits: int) -> float:
    return math.log2(_cut_bool_count_bits(graph, bits))


def _cut_bool_count_bits(graph: Graph, bits: int) -> int:
    return _closure_size(_cut_rows(graph, bits), DEFAULT_SPACE_CAP)


def bell(n: int) -> int:
    """Bell number B_n (partitions of an n-set), via the Bell triangle; n <= BELL_CAP."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > BELL_CAP:
        raise CapExceeded(f"bell({n}) exceeds the n <= {BELL_CAP} cap")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def gaussian_binomial(r: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^r, exact.

    Product formula prod_{i<k} (2^(r-i) - 1) / (2^(k-i) - 1), evaluated as an
    exact integer quotient.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not 0 <= k <= r:
        raise ValueError(f"need 0 <= k <= r, got k={k}, r={r}")
    num = 1
    den = 1
    for i in range(k):
        num *= (1 << (r - i)) - 1
        den *= (1 << (k - i)) - 1
    q, rem = divmod(num, den)
    assert rem == 0
    return q


def galois_number(r: int) -> int:
    """Total number of subspaces of GF(2)^r: sum of Gaussian binomials."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return sum(gaussian_binomial(r, k) for k in range(r + 1))


def log2_int(value: int) -> float:
    """log2 of a positive int of any size (math.log2 overflows past 2^1024)."""
    if value <= 0:
        raise ValueError("log2 of a nonpositive value")
    shift = value.bit_length() - 53
    if shift <= 0:
        return math.log2(value)
    return math.log2(value >> shift) + shift
