"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Quantitative checks are pinned to exact golden
values from the first oracle-verified runs (see tests/_golden.py); structural
inequalities are asserted unconditionally.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from fractions import Fraction

from widthlab import (
    CUT_BOOL_FUNCTION,
    CUT_RANK_FUNCTION,
    ExperimentConfig,
    all_cuts,
    balanced_cut_lower_bound,
    bell,
    booleanwidth,
    boolw_vs_rw_experiment,
    brute_force_f_width,
    complete_graph,
    cut_bool,
    cut_rank,
    cycle_graph,
    emit_graph6,
    envelope_curve,
    exact_f_width,
    galois_number,
    lemma1_experiment,
    log2_int,
    mix_seed,
    parse_graph6,
    path_graph,
    rank,
    rank_distribution_oracle,
    rankwidth,
    sample_gnp_half,
    sample_matrix,
    scaling_experiment,
    submatrix,
)

import _golden
from conftest import (
    count_set_partitions,
    enumerate_subspaces,
    rank_by_row_space,
    run_cli,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def test_criterion_1_width_oracle_equivalence():
    with criterion(1, "exact width equals all-trees oracle"):
        corpus = []
        for n in (5, 6, 7):
            for i in range(10):
                corpus.append(sample_gnp_half(n, mix_seed(0xACCE, n, i)))
        for n in range(2, 8):
            corpus.append(complete_graph(n))
            corpus.append(path_graph(n))
            if n >= 3:
                corpus.append(cycle_graph(n))
        for g in corpus:
            for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
                fast = exact_f_width(g, f)
                oracle = brute_force_f_width(g, f)
                assert fast.value == oracle.value, (g, f.name)


def test_criterion_2_rank_distribution_oracle():
    with criterion(2, "rank distribution matches samples and enumeration"):
        dist = rank_distribution_oracle(2, 2)
        assert dist == [Fraction(1, 16), Fraction(9, 16), Fraction(6, 16)]
        trials = 100_000
        counts = [0, 0, 0]
        for i in range(trials):
            counts[rank(sample_matrix(2, 2, mix_seed(2, i)))] += 1
        for r in range(3):
            assert abs(counts[r] / trials - float(dist[r])) < 0.01

        # full 2^16 enumeration at (4,4) through the independent
        # row-space-cardinality rank, bit layout independent of BitMatrix
        indep = [0] * 5
        for code in range(1 << 16):
            rows = [(code >> (4 * i)) & 0xF for i in range(4)]
            space = {0}
            for w in rows:
                space |= {s ^ w for s in space}
            indep[len(space).bit_length() - 1] += 1
        oracle44 = rank_distribution_oracle(4, 4)
        assert oracle44 == [Fraction(c, 1 << 16) for c in indep]


def test_criterion_3_lemma_desk_check():
    with criterion(3, "minimum submatrix rank experiment"):
        cfg = ExperimentConfig(
            name="lemma1", n_values=(6, 9, 12), trials=50, master_seed=1
        )
        report = lemma1_experiment(cfg, jobs=2)
        for rec in report.records:
            m = sample_matrix(rec["n"], rec["n"], rec["seed"])
            recomputed = rank(submatrix(m, rec["rowset"], rec["colset"]))
            assert recomputed == rec["mu"], rec
            assert rec["certified"] is True
        medians = {}
        for n in (6, 9, 12):
            mus = tuple(r["mu"] for r in report.records if r["n"] == n)
            assert mus == _golden.LEMMA1_MU[n], f"golden mismatch at n={n}"
            medians[n] = statistics.median(mus)
            assert medians[n] == _golden.LEMMA1_MEDIAN_MU[n]
        assert medians[6] <= medians[9] <= medians[12]


def test_criterion_4_scaling_desk_check():
    with criterion(4, "rankwidth growth with balanced-cut lower bounds"):
        cfg = ExperimentConfig(
            name="scaling", n_values=(8, 10, 12, 14), trials=20, master_seed=1
        )
        report = scaling_experiment(cfg, jobs=2)
        for rec in report.records:
            assert rec["lb"] <= rec["rw"] <= rec["n"] - 1, rec
        means = {}
        for n in (8, 10, 12, 14):
            rows = [r for r in report.records if r["n"] == n]
            assert tuple(r["rw"] for r in rows) == _golden.SCALING_RW[n]
            assert tuple(r["lb"] for r in rows) == _golden.SCALING_LB[n]
            assert (
                tuple(round(r["boolw"], 6) for r in rows)
                == _golden.SCALING_BOOLW_6DP[n]
            )
            means[n] = statistics.fmean(r["rw"] for r in rows)
        assert means[14] > means[8]


def test_criterion_5_boolw_vs_rw_desk_check():
    with criterion(5, "subspace bound audited on every optimal-tree cut"):
        cfg = ExperimentConfig(
            name="boolw-rw", n_values=(6, 7, 8, 9, 10), trials=20, master_seed=1
        )
        report = boolw_vs_rw_experiment(cfg, jobs=2)
        assert len(report.records) == 100
        for rec in report.records:
            assert rec["cut_violations"] == 0, rec
            assert rec["graph_ok"] is True
            assert rec["boolw"] <= rec["log2_galois_rw"] + 1e-12
        # complete-graph control
        for n in (4, 6, 8):
            assert rankwidth(complete_graph(n)).value == 1.0
            assert booleanwidth(complete_graph(n)).value == 1.0


def test_criterion_6_counting_sequences():
    with criterion(6, "Bell and Galois numbers against enumeration"):
        for n in range(9):
            assert bell(n) == count_set_partitions(n)
        for r in range(5):
            assert galois_number(r) == len(enumerate_subspaces(r))
        assert galois_number(4) == 67
        for n in range(2, 31):
            assert log2_int(bell(n)) <= n * math.log2(n)


def test_criterion_7_envelope():
    with criterion(7, "union-bound envelope value and monotonicity"):
        table = envelope_curve(range(1, 51))
        by_n = {row[0]: row for row in table.rows}
        assert abs(by_n[10][2] - 1.624e-16) / 1.624e-16 < 0.01
        for n in range(5, 50):
            assert by_n[n + 1][1] < by_n[n][1]


def test_criterion_8_symmetry_and_structure():
    with criterion(8, "complement symmetry, relabel invariance, graph6"):
        corpus = []
        for n in range(1, 9):
            for i in range(3):
                corpus.append(sample_gnp_half(n, mix_seed(0x8, n, i)))
        for n in (4, 6, 8):
            corpus.append(complete_graph(n))
            corpus.append(path_graph(n))
            corpus.append(cycle_graph(n))
        for g in corpus:
            for cut in all_cuts(g.n):
                comp = cut.complement()
                assert cut_rank(g, cut) == cut_rank(g, comp)
                assert cut_bool(g, cut) == cut_bool(g, comp)

        from widthlab import SplitMix64

        rng = SplitMix64(0x51)
        for i in range(20):
            g = sample_gnp_half(6, mix_seed(0x51, i))
            perm = list(range(6))  # Fisher-Yates: sample_indices returns sorted
            for j in range(5, 0, -1):
                k = rng.randbelow(j + 1)
                perm[j], perm[k] = perm[k], perm[j]
            assert perm != list(range(6))
            h = g.relabel(perm)
            assert rankwidth(g).value == rankwidth(h).value
            assert booleanwidth(g).value == booleanwidth(h).value

        for i in range(1000):
            r = SplitMix64(mix_seed(0x66, i))
            n = r.randbelow(31)
            g = sample_gnp_half(n, r.next_word())
            text = emit_graph6(g)
            assert parse_graph6(text) == g
            assert emit_graph6(parse_graph6(text)) == text


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "byte-identical CLI output, parallel included"):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text(
            "".join(
                emit_graph6(g) + "\n"
                for g in (cycle_graph(6), complete_graph(5), sample_gnp_half(8, 12))
            )
        )
        simple_invocations = [
            ["gen", "--n", "10", "--seed", "9", "--count", "5"],
            ["gen", "--n", "6", "--seed", "4", "--format", "edges"],
            ["width", "--input", str(graphs), "--witness"],
            ["width", "--measure", "bool", "--input", str(graphs)],
            ["lb", "--input", str(graphs)],
            ["oracle", "rankdist", "--m", "3", "--n", "3"],
            ["oracle", "bell", "--n", "8"],
            ["oracle", "galois", "--r", "6"],
            ["exp", "envelope", "--n-list", "3..30"],
            ["exp", "bell", "--n-list", "3..20"],
        ]
        for argv in simple_invocations:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second, argv
            assert first[0] == 0, argv

        # report-writing experiments, serial vs parallel, twice each
        for exp_args, out_name in (
            (["exp", "lemma1", "--seed", "1", "--n-list", "9", "--trials", "5"], "l"),
            (
                ["exp", "scaling", "--seed", "2", "--n-list", "8", "--trials", "3"],
                "s",
            ),
        ):
            outputs = []
            files = []
            for run_idx, jobs in ((0, "1"), (1, "1"), (2, "2")):
                out_file = tmp_path / f"{out_name}{run_idx}.jsonl"
                argv = exp_args + ["--jobs", jobs, "--out", str(out_file)]
                code, out, _ = run_cli(argv)
                assert code == 0
                outputs.append(out)
                files.append(out_file.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2]
            assert files[0] == files[1] == files[2]
