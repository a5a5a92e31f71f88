import math

import pytest

from widthlab import (
    BitMatrix,
    BooleanSpaceOverflow,
    CapExceeded,
    SplitMix64,
    bell,
    boolean_row_space_size,
    cut_bool,
    galois_number,
    gaussian_binomial,
    log2_int,
    sample_matrix,
)
from widthlab.graphs import (
    Cut,
    all_cuts,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    sample_gnp_half,
)

from conftest import count_set_partitions, enumerate_subspaces, union_count_by_subsets


class TestBooleanRowSpace:
    def test_small_examples(self):
        assert boolean_row_space_size(BitMatrix.from_rows([[1, 0, 0], [0, 1, 0]])).count == 4
        assert boolean_row_space_size(BitMatrix(3, 3, [1, 2, 4])).count == 8
        assert boolean_row_space_size(BitMatrix(2, 3, [7, 7])).count == 2

    def test_empty_union_always_counted(self):
        assert boolean_row_space_size(BitMatrix(0, 4, [])).count == 1
        assert boolean_row_space_size(BitMatrix(0, 4, [])).log2 == 0.0

    def test_matches_subset_enumeration(self):
        rng = SplitMix64(88)
        for _ in range(60):
            m = rng.next_bits(3) + 1
            n = rng.next_bits(3) + 1
            mat = sample_matrix(m, n, rng.next_word())
            expected = union_count_by_subsets(list(mat.row_words))
            assert boolean_row_space_size(mat).count == expected

    def test_invariant_under_permutation_and_duplication(self):
        rng = SplitMix64(99)
        for _ in range(40):
            m = rng.next_bits(3) + 2
            n = rng.next_bits(3) + 2
            mat = sample_matrix(m, n, rng.next_word())
            base = boolean_row_space_size(mat).count
            perm = list(mat.row_words)[::-1]
            assert boolean_row_space_size(BitMatrix(m, n, perm)).count == base
            doubled = list(mat.row_words) + [mat.row_bits(0)]
            assert boolean_row_space_size(BitMatrix(m + 1, n, doubled)).count == base

    def test_overflow_carries_partial_count(self):
        mat = BitMatrix(10, 10, [1 << i for i in range(10)])
        with pytest.raises(BooleanSpaceOverflow) as err:
            boolean_row_space_size(mat, cap=100)
        assert err.value.partial_count > 100

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            boolean_row_space_size(BitMatrix(1, 1, [1]), cap=0)


class TestCutBool:
    def test_complete_graph_is_one(self):
        k5 = complete_graph(5)
        assert cut_bool(k5, Cut.from_vertices(5, [0])) == 1.0
        assert cut_bool(k5, Cut.from_vertices(5, [1, 2, 4])) == 1.0

    def test_trivial_sides_are_zero(self):
        g = path_graph(4)
        assert cut_bool(g, Cut(0, 4)) == 0.0
        assert cut_bool(g, Cut((1 << 4) - 1, 4)) == 0.0

    def test_path_example(self):
        assert cut_bool(path_graph(4), Cut.from_vertices(4, [0, 1])) == 1.0

    def test_symmetric_under_complement_exhaustive(self):
        for n in range(1, 13):
            g = sample_gnp_half(n, 5000 + n)
            for cut in all_cuts(n):
                assert cut_bool(g, cut) == cut_bool(g, cut.complement())

    def test_named_graphs_symmetric_under_complement(self):
        named = [complete_graph(12), path_graph(12), cycle_graph(12), empty_graph(12)]
        for g in named:
            for cut in all_cuts(g.n):
                assert cut_bool(g, cut) == cut_bool(g, cut.complement())

    def test_bounded_by_small_side(self):
        for n in range(2, 9):
            g = sample_gnp_half(n, 6000 + n)
            for cut in all_cuts(n):
                assert cut_bool(g, cut) <= min(cut.size, n - cut.size) + 1e-12


class TestBell:
    def test_base_cases(self):
        assert bell(0) == 1
        assert bell(1) == 1

    def test_small_values(self):
        assert bell(3) == 5
        assert bell(5) == 52

    def test_matches_partition_enumeration(self):
        for n in range(9):
            assert bell(n) == count_set_partitions(n)

    def test_log_bound(self):
        for n in range(2, 31):
            assert log2_int(bell(n)) <= n * math.log2(n)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            bell(501)
        assert bell(500) > 0  # within cap, exact integer


class TestSubspaceCounts:
    def test_trivial_dimensions(self):
        for r in range(6):
            assert gaussian_binomial(r, 0) == 1
            assert gaussian_binomial(r, r) == 1

    def test_known_values(self):
        assert gaussian_binomial(2, 1) == 3
        assert gaussian_binomial(4, 2) == 35

    def test_k_above_r_rejected(self):
        with pytest.raises(ValueError):
            gaussian_binomial(2, 3)
        with pytest.raises(ValueError, match="^r must be nonnegative$"):
            gaussian_binomial(-1, 0)

    def test_galois_small(self):
        assert galois_number(0) == 1
        assert galois_number(1) == 2
        assert galois_number(2) == 5
        assert galois_number(4) == 67

    def test_galois_cap(self):
        with pytest.raises(CapExceeded, match=r"galois_number\(201\) exceeds the r <= 200 cap"):
            galois_number(201)
        assert len(str(galois_number(200))) == 3012  # within cap, prints as an exact integer

    def test_matches_subspace_enumeration(self):
        for r in range(5):
            spaces = enumerate_subspaces(r)
            assert galois_number(r) == len(spaces)
            by_dim = {}
            for s in spaces:
                d = (len(s)).bit_length() - 1
                by_dim[d] = by_dim.get(d, 0) + 1
            for k in range(r + 1):
                assert gaussian_binomial(r, k) == by_dim.get(k, 0)


class TestLog2Int:
    def test_matches_math_log2_in_range(self):
        for v in (1, 2, 3, 1000, 2**52 + 1):
            assert log2_int(v) == math.log2(v)

    def test_huge_values(self):
        v = 10**400
        assert abs(log2_int(v) - 400 * math.log2(10)) < 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_int(0)
