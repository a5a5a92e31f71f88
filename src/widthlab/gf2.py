"""Dense GF(2) matrices with bit-packed rows, plus rank machinery.

Each row is stored as one Python int (bit j = column j), so a row XOR is a
single word-packed operation and elimination never allocates per-entry.
Degenerate shapes (0 x k, k x 0, 0 x 0) are legal everywhere and have rank 0,
which spares the callers from special-casing empty cuts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapExceeded, ParseError
from .rng import SplitMix64

# Default ceiling on `exhaustive_work` of the exhaustive submatrix minimizer.
# Explicit configuration, never silently truncated.
DEFAULT_PAIR_CAP = 10**9

# Exhaustive rank-distribution enumeration walks all 2**(m*n) matrices.
ORACLE_BIT_CAP = 20


class BitMatrix:
    """Immutable dense matrix over GF(2).

    Rows are packed ints; bits at or beyond `cols` are guaranteed zero.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        packed = tuple(data)
        if len(packed) != rows:
            raise ValueError(f"expected {rows} packed rows, got {len(packed)}")
        for i, r in enumerate(packed):
            if r < 0 or r >> cols:
                raise ValueError(f"row {i} has bits outside {cols} columns")
        self.rows = rows
        self.cols = cols
        self._data = packed

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], cols: int | None = None) -> "BitMatrix":
        """Build from nested 0/1 lists; `cols` required only when empty."""
        if cols is None:
            if not entries:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(entries[0])
        data = []
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError(f"row {i} has length {len(row)}, expected {cols}")
            word = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError(f"entry ({i},{j}) is {e!r}, not a bit")
                word |= e << j
            data.append(word)
        return cls(len(entries), cols, data)

    def get(self, i: int, j: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(f"row index {i} out of range for {self.rows} rows")
        if not 0 <= j < self.cols:
            raise IndexError(f"column index {j} out of range for {self.cols} columns")
        return (self._data[i] >> j) & 1

    def row_bits(self, i: int) -> int:
        """Packed bits of row i."""
        return self._data[i]

    @property
    def row_words(self) -> tuple[int, ...]:
        return self._data

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self._data]

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.cols
        for i, r in enumerate(self._data):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return BitMatrix(self.cols, self.rows, cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _rank_of_words(words: Iterable[int]) -> int:
    """GF(2) rank of packed rows.

    Incremental elimination: each basis row is keyed by its lowest nonzero
    column (deterministic pivot choice); a new row is XOR-reduced against
    matching pivots until it is zero or contributes a fresh pivot.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for v in words:
        while v:
            low = v & -v
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                rank += 1
                break
            v ^= p
    return rank


def rank(matrix: BitMatrix) -> int:
    """GF(2) rank; the input is never modified."""
    return _rank_of_words(matrix.row_words)


def submatrix(matrix: BitMatrix, rowset: Iterable[int], colset: Iterable[int]) -> BitMatrix:
    """Submatrix on (possibly discontiguous) index sets, in ascending order."""
    rsel = sorted(set(rowset))
    csel = sorted(set(colset))
    for r in rsel:
        if not 0 <= r < matrix.rows:
            raise IndexError(f"row index {r} out of range for {matrix.rows} rows")
    for c in csel:
        if not 0 <= c < matrix.cols:
            raise IndexError(f"column index {c} out of range for {matrix.cols} columns")
    data = []
    for r in rsel:
        word = matrix.row_bits(r)
        out = 0
        for jj, c in enumerate(csel):
            out |= ((word >> c) & 1) << jj
        data.append(out)
    return BitMatrix(len(rsel), len(csel), data)


def sample_matrix(m: int, n: int, seed: int) -> BitMatrix:
    """Random m x n matrix, each entry independently 1 with probability 1/2.

    Entries are drawn row-major from the seeded splitmix64 bit stream, so the
    result is bit-identical for a given (m, n, seed) on every platform.
    """
    if m < 0 or n < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    rng = SplitMix64(seed)
    data = [rng.next_bits(n) if n else 0 for _ in range(m)]
    return BitMatrix(m, n, data)


def rank_distribution_oracle(m: int, n: int) -> list[Fraction]:
    """Exact rank distribution of the m x n model, by full enumeration.

    Entry r is (#matrices of rank r) / 2**(m*n), as an exact Fraction; the
    entries sum to exactly 1.  Requires m*n <= ORACLE_BIT_CAP.
    """
    if m < 0 or n < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    bits = m * n
    if bits > ORACLE_BIT_CAP:
        raise CapExceeded(
            f"enumerating 2^{bits} matrices exceeds the m*n <= {ORACLE_BIT_CAP} cap"
        )
    counts = [0] * (min(m, n) + 1)
    row_mask = (1 << n) - 1
    for code in range(1 << bits):
        words = [(code >> (i * n)) & row_mask for i in range(m)]
        counts[_rank_of_words(words)] += 1
    total = 1 << bits
    return [Fraction(c, total) for c in counts]


def exhaustive_work(rows: int, cols: int, m: int, k: int) -> int:
    """The certification rule's work count for an m x k minimum.

    C(rows, m) * 2**m row combinations plus C(cols, k) column sets: the work
    of a walk over every row set and a scan of every column set.
    `min_submatrix_rank_exhaustive` prunes both searches instead, so this
    does not count its steps.  The count stays as it was because the
    experiments compare it with their work cap to choose between an
    exhaustive and a sampled trial, and that choice is written into every
    report.
    """
    return math.comb(rows, m) * (1 << m) + math.comb(cols, k)


def _max_fit_dim(combos: list[tuple[int, int]], budget: int, floor: int) -> int:
    """Largest dim X_U over |U| <= budget, where X_U = {x : supp(xR) <= U}.

    `combos` holds the (x, xR) pairs whose product fits the budget alone.
    Returns `floor` when no X_U has a larger dimension.  The search runs over
    unions U of fitting supports, from U = 0 (whose X_U is the kernel), adding
    one support at a time; each U is visited once, and one whose fitting x
    span too little is not extended.  Independence is always tested on the
    combinations x, never on the products xR: dependent rows give distinct x
    with equal products.  `_first_rows` runs it only where `_dim_exceeds` has
    no cheaper test (floor >= 3), and on a full row set that improves the
    best, for its exact dimension.
    """
    best = floor
    seen = {0}
    stack = [(0, combos)]
    while stack:
        used, parent = stack.pop()
        fits = [c for c in parent if (used | c[1]).bit_count() <= budget]
        # a subspace of dimension best + 1 has 2**(best + 1) - 1 nonzero members
        if len(fits) < (1 << (best + 1)) - 1 or _rank_of_words(x for x, _ in fits) <= best:
            continue
        best = max(best, _rank_of_words(x for x, p in fits if not p & ~used))
        for _, p in fits:
            grown = used | p
            if grown not in seen:
                seen.add(grown)
                stack.append((grown, fits))
    return best


def _dim_exceeds(fits: list[tuple[int, int]], budget: int, floor: int) -> bool:
    """Whether some X_U with |U| <= budget has dimension above `floor`.

    The same answer as `_max_fit_dim(fits, budget, floor) > floor`, by the
    cheapest exact test.  Every x in `fits` is nonzero and listed once, with
    every fitting combination of the same rows.  At floor 0 one fit x is
    enough: it lies in X_U for U = supp(xR).  At floors 1 and 2 the test is
    for floor + 1 independent fits whose supports together fit the budget:
    their span lies in X_U for U the union of those supports, and any
    (floor + 1)-dimensional X_U holds such a basis.  Two distinct nonzero x
    are independent, and a third is independent of them unless it is their
    sum.  Fits with equal supports, kernel vectors (p = 0) included, take
    part like any others.  From floor 3 on, `_max_fit_dim` decides.
    """
    if floor <= 0:
        return floor < 0 or bool(fits)
    if floor == 1:
        supports = [p for _, p in fits]
        for i, p in enumerate(supports, 1):
            for q in supports[i:]:
                if (p | q).bit_count() <= budget:
                    return True
        return False
    if floor == 2:
        for i, (x, p) in enumerate(fits, 1):
            for j, (y, q) in enumerate(fits[i:], i + 1):
                pq = p | q
                if pq.bit_count() <= budget:
                    xy = x ^ y
                    for z, r in fits[j:]:
                        if z != xy and (pq | r).bit_count() <= budget:
                            return True
        return False
    return _max_fit_dim(fits, budget, floor) > floor


def _check_shape(matrix: BitMatrix, m: int, k: int) -> None:
    if not 0 <= m <= matrix.rows:
        raise ValueError(f"need 0 <= m <= {matrix.rows}, got {m}")
    if not 0 <= k <= matrix.cols:
        raise ValueError(f"need 0 <= k <= {matrix.cols}, got {k}")


def _first_rows(data: Sequence[int], m: int, budget: int, best: int) -> tuple[int, tuple[int, ...]]:
    """Least rank below `best` over m of the rows `data`, and the first row set reaching it.

    A row set's rank is its least over k = cols - budget columns.  Returns
    (mu, rowset), rowset first in `combinations` order, or (best, ()) when
    no row set beats `best`.  Row prefixes are searched depth first in that
    order.  A child writes its 2**j new products after its parent's and
    appends its fitting (x, xR) pairs to the shared list, which is cut back
    when the child is left.  A prefix R' whose own minimum |R'| - dim X_U is
    at least `best` is not extended: the minimum cannot drop as rows join.
    So each prefix asks `_dim_exceeds` whether some dim X_U exceeds
    floor = |R'| - best, always true below 0 (too few rows to reach rank
    `best`).  A full row set is taken only on a strict improvement, and only
    then does `_max_fit_dim` give its exact rank; the search stops at rank 0.
    """
    products = [0] * (1 << m)
    fits: list[tuple[int, int]] = []
    chosen: list[int] = []
    best_rows: tuple[int, ...] = ()

    def extend(start: int) -> None:
        nonlocal best, best_rows
        j = len(chosen)
        half = 1 << j
        for r in range(start, len(data) - m + j + 1):
            w = data[r]
            mark = len(fits)
            for x in range(half):
                p = products[x] ^ w
                products[half | x] = p
                if p.bit_count() <= budget:
                    fits.append((half | x, p))
            chosen.append(r)
            floor = j + 1 - best
            # a subspace of dimension floor + 1 has 2**(floor + 1) - 1 nonzero members
            enough = floor < 0 or len(fits) >= (1 << (floor + 1)) - 1
            if enough and _dim_exceeds(fits, budget, floor):
                if j + 1 < m:
                    extend(r + 1)
                else:
                    best, best_rows = m - _max_fit_dim(fits, budget, floor), tuple(chosen)
            chosen.pop()
            del fits[mark:]
            if best == 0:
                return

    extend(0)
    return best, best_rows


def _first_columns(rows: Sequence[int], cols: int, k: int, mu: int) -> tuple[int, ...] | None:
    """First k of `cols` columns, in `combinations` order, where `rows` have rank <= mu.

    Column prefixes are searched depth first.  Each column is reduced against
    the pivots of the prefix's columns (vectors over the rows), and a column
    outside their span that would raise the rank past mu is skipped: rank
    cannot drop as columns join.  Returns None when no k columns qualify.
    """
    vectors = [sum(((w >> c) & 1) << i for i, w in enumerate(rows)) for c in range(cols)]
    pivots: dict[int, int] = {}
    chosen: list[tuple[int, int]] = []  # (column, the pivot it added or 0)
    c = 0
    while len(chosen) < k:
        if c > cols - k + len(chosen):
            if not chosen:
                return None
            c, added = chosen.pop()
            if added:
                del pivots[added & -added]
            c += 1
            continue
        v = vectors[c]
        while v:
            p = pivots.get(v & -v)
            if p is None:
                break
            v ^= p
        if v:
            if len(pivots) == mu:
                c += 1
                continue
            pivots[v & -v] = v
        chosen.append((c, v))
        c += 1
    return tuple(c for c, _ in chosen)


def min_submatrix_rank_exhaustive(
    matrix: BitMatrix,
    m: int,
    k: int,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Exact minimum GF(2) rank over all m x k submatrices, with a witness.

    For a row set R and a column set C, rank(R[:,C]) = m - dim{x : supp(xR)
    is disjoint from C}.  So a row set's minimum is m minus the largest
    dim X_U = {x : supp(xR) <= U} over column sets U of at most cols - k
    columns, found from R's 2**m row combinations without scanning columns.

    The witness is the first pair achieving the minimum in lexicographic
    (rowset, colset) order, as a scan of every pair would find it.  Row
    prefixes are searched depth first in `combinations` order, a prefix that
    cannot strictly beat the best so far is not extended, and a row set is
    taken only on a strict improvement (`_first_rows`).  Whether a prefix
    can is decided by one fit, two fits or three independent fits where
    that suffices, and otherwise by the search over unions of supports
    (`_dim_exceeds`, `_max_fit_dim`).  Then the winning
    row set's column prefixes are searched in the same order, and the first
    k columns of that rank are the witness (`_first_columns`).  Raises
    CapExceeded when `exhaustive_work` exceeds `pair_cap`.
    """
    _check_shape(matrix, m, k)
    work = exhaustive_work(matrix.rows, matrix.cols, m, k)
    if work > pair_cap:
        raise CapExceeded(
            f"{work} work units exceed the work cap {pair_cap}; "
            "use min_submatrix_rank_sampled instead"
        )
    data = matrix.row_words
    best, best_rows = _first_rows(data, m, matrix.cols - k, min(m, k) + 1) if m else (0, ())
    cols = _first_columns([data[r] for r in best_rows], matrix.cols, k, best)
    if cols is None:
        raise AssertionError("no column set reaches the row set's minimum")
    return best, best_rows, cols


def min_submatrix_rank_sampled(
    matrix: BitMatrix,
    m: int,
    k: int,
    trials: int,
    seed: int,
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Minimum rank over `trials` uniformly sampled m x k submatrices.

    The result is an upper bound on the true minimum; callers that put it in
    a report must flag it as non-certified.
    """
    _check_shape(matrix, m, k)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = SplitMix64(seed)
    data = matrix.row_words
    best = min(m, k) + 1
    best_rows: tuple[int, ...] = ()
    best_cols: tuple[int, ...] = ()
    for _ in range(trials):
        rset = rng.sample_indices(matrix.rows, m)
        cset = rng.sample_indices(matrix.cols, k)
        cmask = 0
        for c in cset:
            cmask |= 1 << c
        r = _rank_of_words(data[i] & cmask for i in rset)
        if r < best:
            best = r
            best_rows = rset
            best_cols = cset
    return best, best_rows, best_cols


def parse_matrix_text(text: str) -> BitMatrix:
    """Parse the test fixture format: first line "m n", then m rows of 0/1.

    Only blank lines may follow the rows.  A ParseError's position is the
    1-based line it points at.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty matrix text", position=1)
    head = lines[0].split()
    if len(head) != 2 or not all(tok.isdecimal() for tok in head):
        raise ParseError(f"expected 'm n' on the first line, got {lines[0]!r}", position=1)
    m, n = int(head[0]), int(head[1])
    body = lines[1 : 1 + m]
    if len(body) != m:
        raise ParseError(f"expected {m} rows, found {len(body)}", position=len(body) + 2)
    for i, line in enumerate(body):
        if len(line) != n or set(line) - {"0", "1"}:
            raise ParseError(f"row {i} is not {n} characters of 0/1: {line!r}", position=i + 2)
    for lineno, line in enumerate(lines[1 + m :], start=m + 2):
        if line.strip():
            raise ParseError(f"text after the matrix: {line!r}", position=lineno)
    return BitMatrix.from_rows([[int(ch) for ch in line] for line in body], n)


def format_matrix_text(matrix: BitMatrix) -> str:
    lines = [f"{matrix.rows} {matrix.cols}"]
    lines.extend("".join(map(str, row)) for row in matrix.to_lists())
    return "\n".join(lines) + "\n"
