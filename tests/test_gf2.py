import math
from fractions import Fraction
from itertools import combinations

import pytest

from widthlab import (
    BitMatrix,
    CapExceeded,
    ParseError,
    SplitMix64,
    format_matrix_text,
    min_submatrix_rank_exhaustive,
    min_submatrix_rank_sampled,
    mix_seed,
    parse_matrix_text,
    rank,
    rank_distribution_oracle,
    sample_matrix,
    submatrix,
)
from widthlab.gf2 import DEFAULT_PAIR_CAP, exhaustive_work

from conftest import rank_by_row_space


def identity(n):
    return BitMatrix(n, n, [1 << i for i in range(n)])


class TestBitMatrix:
    def test_construction_masks_and_validates(self):
        with pytest.raises(ValueError):
            BitMatrix(1, 2, [4])  # bit outside 2 columns
        with pytest.raises(ValueError):
            BitMatrix(2, 2, [1])  # wrong row count
        with pytest.raises(ValueError):
            BitMatrix(-1, 2, [])

    def test_degenerate_shapes_are_legal(self):
        for m in (BitMatrix(0, 5, []), BitMatrix(5, 0, [0] * 5), BitMatrix(0, 0, [])):
            assert rank(m) == 0

    def test_from_rows_and_get(self):
        m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert m.get(0, 2) == 1 and m.get(1, 0) == 0
        assert m.to_lists() == [[1, 0, 1], [0, 1, 1]]
        with pytest.raises(IndexError):
            m.get(2, 0)

    def test_transpose(self):
        m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert m.transpose().to_lists() == [[1, 0], [0, 1], [1, 1]]

    def test_text_format_round_trip(self):
        m = sample_matrix(4, 7, 11)
        assert parse_matrix_text(format_matrix_text(m)) == m
        assert parse_matrix_text("2 3\n101\n010").to_lists() == [[1, 0, 1], [0, 1, 0]]


class TestMatrixText:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty matrix text"),
            ("2\n01", "expected 'm n' on the first line, got '2'"),
            ("2 3\n010", "expected 2 rows, found 1"),
            ("2 3\n000\n01", "row 1 is not 3 characters of 0/1: '01'"),
            ("2 3\n000\n012", "row 1 is not 3 characters of 0/1: '012'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_matrix_text(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "empty matrix text", 1),
            ("2\n01", "expected 'm n' on the first line, got '2'", 1),
            ("a 3\n010", "expected 'm n' on the first line, got 'a 3'", 1),
            ("-1 3\n", "expected 'm n' on the first line, got '-1 3'", 1),
            ("1 3 4\n010", "expected 'm n' on the first line, got '1 3 4'", 1),
            ("2 3\n010", "expected 2 rows, found 1", 3),
            ("2 3\n000\n012", "row 1 is not 3 characters of 0/1: '012'", 3),
            ("1 3\n010\n111\nhello", "text after the matrix: '111'", 3),
            ("1 3\n010\n\nhello", "text after the matrix: 'hello'", 4),
        ],
    )
    def test_strict_positions(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_matrix_text(text)
        assert (str(err.value), err.value.position) == (message, position)

    def test_trailing_blank_lines_allowed(self):
        assert parse_matrix_text("1 3\n010\n\n  \n").to_lists() == [[0, 1, 0]]

    @pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0), (0, 0)])
    def test_degenerate_round_trip(self, rows, cols):
        m = BitMatrix(rows, cols, [0] * rows)
        text = format_matrix_text(m)
        assert text == f"{rows} {cols}\n" + "\n" * rows
        assert parse_matrix_text(text) == m


class TestRank:
    def test_zero_identity_equal_rows(self):
        assert rank(BitMatrix(3, 3, [0, 0, 0])) == 0
        assert rank(identity(3)) == 3
        assert rank(BitMatrix.from_rows([[1, 1], [1, 1]])) == 1

    def test_rank_equals_transpose_rank(self):
        rng = SplitMix64(2024)
        for _ in range(1000):
            m = rng.next_bits(4) % 12 + 1
            n = rng.next_bits(4) % 12 + 1
            mat = sample_matrix(m, n, rng.next_word())
            assert rank(mat) == rank(mat.transpose())

    def test_rank_matches_row_space_oracle(self):
        rng = SplitMix64(7)
        for _ in range(300):
            m = rng.next_bits(3) + 1
            n = rng.next_bits(3) + 1
            mat = sample_matrix(m, n, rng.next_word())
            assert rank(mat) == rank_by_row_space(mat)

    def test_submatrix_rank_never_exceeds(self):
        rng = SplitMix64(13)
        for _ in range(200):
            mat = sample_matrix(6, 6, rng.next_word())
            rows = rng.sample_indices(6, rng.randbelow(7))
            cols = rng.sample_indices(6, rng.randbelow(7))
            assert rank(submatrix(mat, rows, cols)) <= rank(mat)


class TestSubmatrix:
    def test_direct_read_off(self):
        # off-diagonal picks from the identity are all zero
        assert submatrix(identity(4), {0, 2}, {1, 3}).to_lists() == [[0, 0], [0, 0]]
        assert submatrix(identity(4), {0, 2}, {1, 2}).to_lists() == [[0, 0], [0, 1]]
        m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert submatrix(m, {0, 1}, {2}).to_lists() == [[1], [1]]

    def test_empty_selection(self):
        m = sample_matrix(3, 4, 1)
        s = submatrix(m, set(), {0, 1, 2})
        assert (s.rows, s.cols) == (0, 3)

    def test_out_of_range_names_offender(self):
        m = sample_matrix(3, 4, 1)
        with pytest.raises(IndexError, match="row index 3"):
            submatrix(m, {3}, {0})
        with pytest.raises(IndexError, match="column index 9"):
            submatrix(m, {0}, {9})


class TestSampleMatrix:
    def test_deterministic_per_seed(self):
        assert sample_matrix(2, 2, 5) == sample_matrix(2, 2, 5)
        assert sample_matrix(8, 8, 5) != sample_matrix(8, 8, 6)

    def test_empty_cases(self):
        assert sample_matrix(0, 5, 9).rows == 0
        assert sample_matrix(5, 0, 9).cols == 0

    def test_ones_fraction_near_half(self):
        # law of large numbers over 1e5 8x8 samples
        ones = 0
        for i in range(100_000):
            m = sample_matrix(8, 8, mix_seed(404, i))
            ones += sum(w.bit_count() for w in m.row_words)
        frac = ones / (100_000 * 64)
        assert abs(frac - 0.5) < 0.01


class TestRankDistributionOracle:
    def test_one_by_one(self):
        assert rank_distribution_oracle(1, 1) == [Fraction(1, 2), Fraction(1, 2)]

    def test_two_by_two(self):
        assert rank_distribution_oracle(2, 2) == [
            Fraction(1, 16),
            Fraction(9, 16),
            Fraction(6, 16),
        ]

    def test_normalized_and_positive(self):
        dist = rank_distribution_oracle(2, 3)
        assert sum(dist) == 1
        assert all(p > 0 for p in dist)

    def test_cap_is_enforced(self):
        with pytest.raises(CapExceeded, match="20"):
            rank_distribution_oracle(5, 5)

    def test_histogram_of_samples_matches(self):
        dist = rank_distribution_oracle(2, 2)
        counts = [0, 0, 0]
        trials = 100_000
        for i in range(trials):
            counts[rank(sample_matrix(2, 2, mix_seed(777, i)))] += 1
        for r in range(3):
            assert abs(counts[r] / trials - float(dist[r])) < 0.01


class TestMinSubmatrixRank:
    def test_identity_has_disjoint_zero_block(self):
        mu, rows, cols = min_submatrix_rank_exhaustive(identity(9), 3, 6)
        assert mu == 0
        assert rows == (0, 1, 2) and cols == (3, 4, 5, 6, 7, 8)
        assert rank(submatrix(identity(9), rows, cols)) == 0

    def test_all_ones(self):
        ones = BitMatrix(9, 9, [(1 << 9) - 1] * 9)
        assert min_submatrix_rank_exhaustive(ones, 3, 6)[0] == 1
        assert min_submatrix_rank_sampled(ones, 3, 6, 20, 3)[0] == 1

    def test_pinned_seed_42(self):
        # golden value from the first exhaustive run over all 84*84 submatrices
        mu, rows, cols = min_submatrix_rank_exhaustive(sample_matrix(9, 9, 42), 3, 6)
        assert mu == 1
        assert rows == (0, 1, 4) and cols == (0, 2, 3, 4, 6, 7)

    def test_witness_achieves_minimum(self):
        m = sample_matrix(8, 8, 31)
        mu, rows, cols = min_submatrix_rank_exhaustive(m, 3, 5)
        assert rank(submatrix(m, rows, cols)) == mu

    def test_single_trial_equals_that_submatrix(self):
        m = sample_matrix(7, 7, 12)
        mu, rows, cols = min_submatrix_rank_sampled(m, 2, 5, 1, 99)
        assert mu == rank(submatrix(m, rows, cols))

    def test_sampled_upper_bounds_exhaustive(self):
        rng = SplitMix64(6060)
        for _ in range(25):
            m = sample_matrix(7, 7, rng.next_word())
            exact = min_submatrix_rank_exhaustive(m, 2, 4)[0]
            est = min_submatrix_rank_sampled(m, 2, 4, 5, rng.next_word())[0]
            assert est >= exact

    def test_work_cap(self):
        with pytest.raises(CapExceeded, match="sampled"):
            min_submatrix_rank_exhaustive(sample_matrix(9, 9, 1), 3, 6, pair_cap=100)

    def test_work_cap_is_the_exact_work_count(self):
        m = sample_matrix(9, 9, 1)
        work = exhaustive_work(9, 9, 3, 6)
        assert work == math.comb(9, 3) * 2**3 + math.comb(9, 6)
        assert min_submatrix_rank_exhaustive(m, 3, 6, pair_cap=work) == column_scan_oracle(m, 3, 6)
        with pytest.raises(CapExceeded, match="sampled"):
            min_submatrix_rank_exhaustive(m, 3, 6, pair_cap=work - 1)


# The column scan that the row-combination search replaced, kept verbatim
# (renamed) as the oracle: the (mu, rowset, colset) triple must match exactly.
def column_scan_oracle(
    matrix: BitMatrix,
    m: int,
    k: int,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Exact minimum GF(2) rank over all m x k submatrices, with a witness.

    Scans C(rows, m) * C(cols, k) submatrices; the witness is the first pair
    achieving the minimum in lexicographic (rowset, colset) order.  Raises
    CapExceeded when the scan would exceed `pair_cap`.
    """
    if not 0 <= m <= matrix.rows:
        raise ValueError(f"need 0 <= m <= {matrix.rows}, got {m}")
    if not 0 <= k <= matrix.cols:
        raise ValueError(f"need 0 <= k <= {matrix.cols}, got {k}")
    pairs = math.comb(matrix.rows, m) * math.comb(matrix.cols, k)
    if pairs > pair_cap:
        raise CapExceeded(
            f"{pairs} submatrices exceed the work cap {pair_cap}; "
            "use min_submatrix_rank_sampled instead"
        )
    col_masks = []
    for cset in combinations(range(matrix.cols), k):
        mask = 0
        for c in cset:
            mask |= 1 << c
        col_masks.append(mask)
    col_sets = list(combinations(range(matrix.cols), k))

    data = matrix.row_words
    best = min(m, k) + 1
    best_rows: tuple[int, ...] = ()
    best_cols: tuple[int, ...] = ()
    for rset in combinations(range(matrix.rows), m):
        rows = [data[r] for r in rset]
        for ci, cmask in enumerate(col_masks):
            # inline rank with early abort once it cannot beat `best`
            pivots: dict[int, int] = {}
            count = 0
            for v in rows:
                v &= cmask
                while v:
                    low = v & -v
                    p = pivots.get(low)
                    if p is None:
                        pivots[low] = v
                        count += 1
                        break
                    v ^= p
                if count >= best:
                    break
            if count < best:
                best = count
                best_rows = rset
                best_cols = col_sets[ci]
                if best == 0:
                    return 0, best_rows, best_cols
    return best, best_rows, best_cols


def _words(n, seed, count):
    rng = SplitMix64(seed)
    return [rng.next_bits(n) for _ in range(count)]


def _shape_cases():
    """Matrices with all-one, unit, zero, repeated, sparse and non-square rows."""
    cases = []
    for n in (5, 7, 8):
        half = _words(n, 100 + n, (n + 1) // 2)
        a, b, c = (_words(n, 200 + n + j, n) for j in range(3))
        cases += [
            pytest.param(BitMatrix(n, n, [(1 << n) - 1] * n), id=f"ones{n}"),
            pytest.param(identity(n), id=f"identity{n}"),
            pytest.param(BitMatrix(n, n, [0] * n), id=f"zero{n}"),
            pytest.param(BitMatrix(n, n, (half * 2)[:n]), id=f"repeated{n}"),
            pytest.param(BitMatrix(n, n, [x & y & z for x, y, z in zip(a, b, c)]), id=f"sparse{n}"),
        ]
    a, b, c = (_words(8, 31 + j, 6) for j in range(3))
    cases += [
        pytest.param(sample_matrix(5, 9, 17), id="wide5x9"),
        pytest.param(sample_matrix(9, 5, 18), id="tall9x5"),
        pytest.param(BitMatrix(6, 8, [x & y & z for x, y, z in zip(a, b, c)]), id="sparse6x8"),
    ]
    return cases


class TestColumnScanOracle:
    @pytest.mark.parametrize("n", range(3, 14))
    def test_seeded_lemma_shapes(self, n):
        m, k = n // 3, -(-2 * n // 3)
        for seed in range(6 if n <= 10 else 2 if n <= 12 else 1):
            matrix = sample_matrix(n, n, mix_seed(909, n, seed))
            assert min_submatrix_rank_exhaustive(matrix, m, k) == column_scan_oracle(
                matrix, m, k
            ), (n, seed)

    @pytest.mark.parametrize("matrix", _shape_cases())
    def test_every_shape(self, matrix):
        # m = 0, k = 0, k = cols, m > k and m <= k all occur below
        for m in range(matrix.rows + 1):
            for k in range(matrix.cols + 1):
                assert min_submatrix_rank_exhaustive(matrix, m, k) == column_scan_oracle(
                    matrix, m, k
                ), (m, k)


def _ones18():
    return BitMatrix(18, 18, [(1 << 18) - 1] * 18)


def _row_pairs18():
    # rows 2i and 2i + 1 are equal, so most row sets have dependent rows
    return BitMatrix(18, 18, [w for w in sample_matrix(9, 18, 7).row_words for _ in range(2)])


def _band18():
    # row i has ones in the six columns i, i+1, ..., i+5 (mod 18)
    return BitMatrix(18, 18, [(0b111111 << i | 0b111111 >> (18 - i)) & ((1 << 18) - 1) for i in range(18)])


class TestPathologicalInputs:
    """18 x 18, m = 6, k = 12: inputs with many tied or dependent combinations.

    Many fitting combinations share one support here, so a search over their
    bases would meet each basis of a large subspace in every row set; the
    search over unions of supports visits each union once, and takes well
    under a second on each.
    The triples were checked once against `column_scan_oracle`, which scans
    18,564^2 pairs and takes two to four minutes on each, too slow for the
    suite.
    """

    @pytest.mark.parametrize(
        "make,expected",
        [
            pytest.param(_ones18, (1, (0, 1, 2, 3, 4, 5), tuple(range(12))), id="all-ones"),
            pytest.param(
                _row_pairs18,
                (2, (0, 1, 2, 3, 12, 13), (0, 1, 3, 5, 6, 7, 9, 10, 12, 13, 15, 16)),
                id="row-pairs",
            ),
            pytest.param(
                _band18,
                (2, (0, 1, 2, 6, 7, 8), (2, 3, 4, 5, 8, 9, 10, 11, 14, 15, 16, 17)),
                id="band",
            ),
        ],
    )
    def test_pinned(self, make, expected):
        matrix = make()
        result = min_submatrix_rank_exhaustive(matrix, 6, 12)
        assert result == expected
        mu, rows, cols = result
        assert rank(submatrix(matrix, rows, cols)) == mu
