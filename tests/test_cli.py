import io
import os
import sys
import time
import tracemalloc

import pytest

from widthlab import Graph, complete_graph, cycle_graph, emit_edge_list, emit_graph6, path_graph
from widthlab import cli

from conftest import run_cli


def write_graphs(tmp_path, graphs, name="in.g6"):
    path = tmp_path / name
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    return str(path)


# each command's cap message for an edge list whose vertex count is above --cap
EDGE_LIST_CAPS = [
    ("width", "exact width needs n <= 16"),
    ("lb", "balanced enumeration needs n <= 22"),
]


# a caterpillar's decomposition tree on the leaves 0..4
FIVE_LEAF_TREE = "tree 5\ni0 0 1 i1\ni1 2 i0 i2\ni2 3 4 i1\n"


class TestGen:
    def test_single_vertex_is_at_sign(self):
        code, out, err = run_cli(["gen", "--n", "1", "--seed", "7"])
        assert (code, out) == (0, "@\n")

    def test_zero_vertices(self):
        code, out, _ = run_cli(["gen", "--n", "0", "--seed", "1"])
        assert (code, out) == (0, "?\n")

    def test_deterministic(self):
        a = run_cli(["gen", "--n", "12", "--seed", "5", "--count", "4"])
        b = run_cli(["gen", "--n", "12", "--seed", "5", "--count", "4"])
        assert a == b and a[0] == 0
        assert len(a[1].splitlines()) == 4

    def test_edges_format_parses_back(self):
        code, out, _ = run_cli(["gen", "--n", "6", "--seed", "3", "--format", "edges"])
        assert code == 0
        assert out.splitlines()[0] == "6"

    def test_env_seed_fallback(self):
        os.environ["WIDTHLAB_SEED"] = "7"
        try:
            code, out, _ = run_cli(["gen", "--n", "5"])
            explicit = run_cli(["gen", "--n", "5", "--seed", "7"])
            assert code == 0 and out == explicit[1]
        finally:
            del os.environ["WIDTHLAB_SEED"]

    def test_missing_seed_is_usage_error(self):
        os.environ.pop("WIDTHLAB_SEED", None)
        code, out, err = run_cli(["gen", "--n", "5"])
        assert code == 2
        assert out == ""

    def test_non_integer_env_seed_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_SEED", "abc")
        code, out, err = run_cli(["gen", "--n", "3"])
        assert (code, out) == (2, "")
        assert err.endswith("error: WIDTHLAB_SEED='abc' is not an integer\n")


class TestWidth:
    def test_complete_graph(self, tmp_path):
        path = write_graphs(tmp_path, [complete_graph(5)])
        code, out, _ = run_cli(["width", "--measure", "rank", "--input", path])
        assert (code, out) == (0, "0 1\n")

    def test_cycle_five(self, tmp_path):
        path = write_graphs(tmp_path, [cycle_graph(5)])
        code, out, _ = run_cli(["width", "--input", path])
        assert (code, out) == (0, "0 2\n")

    def test_bool_measure_six_decimals(self, tmp_path):
        path = write_graphs(tmp_path, [complete_graph(5)])
        code, out, _ = run_cli(["width", "--measure", "bool", "--input", path])
        assert (code, out) == (0, "0 1.000000\n")

    def test_multiple_graphs_indexed(self, tmp_path):
        path = write_graphs(tmp_path, [complete_graph(4), path_graph(5), cycle_graph(5)])
        code, out, _ = run_cli(["width", "--input", path])
        assert (code, out) == (0, "0 1\n1 1\n2 2\n")

    def test_stdin_input(self, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(emit_graph6(complete_graph(5)) + "\n"))
        code, out, _ = run_cli(["width", "--input", "-"])
        assert (code, out) == (0, "0 1\n")

    def test_over_cap_graph_fails_with_exit_2(self, tmp_path):
        path = write_graphs(tmp_path, [complete_graph(5), complete_graph(6)])
        code, out, err = run_cli(["width", "--input", path, "--cap", "5"])
        assert code == 2
        assert out == "0 1\n"  # the failing graph writes no stdout line
        assert "1 error:" in err

    def test_huge_edge_list_vertex_count_fails_fast(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("300000\n")
        start = time.perf_counter()
        result = run_cli(["width", "--input-format", "edges", "--input", str(path)])
        assert time.perf_counter() - start < 1.0
        assert result == (2, "", "0 error: exact width needs n <= 16, got n = 300000\n")

    @pytest.mark.parametrize("command, message", EDGE_LIST_CAPS)
    def test_edge_list_vertex_count_checked_before_the_graph(
        self, tmp_path, monkeypatch, command, message
    ):
        built = []
        from_edges = Graph.from_edges
        monkeypatch.setattr(
            Graph, "from_edges", classmethod(lambda cls, n, e: built.append(n) or from_edges(n, e))
        )
        path = tmp_path / "huge.txt"
        path.write_text("300000\n")
        result = run_cli([command, "--input-format", "edges", "--input", str(path)])
        assert result == (2, "", f"0 error: {message}, got n = 300000\n")
        assert built == []

    @pytest.mark.parametrize("command, message", EDGE_LIST_CAPS)
    def test_edge_list_of_a_billion_vertices_allocates_nothing(self, tmp_path, command, message):
        path = tmp_path / "huge.txt"
        path.write_text("1000000000\n")
        run_cli(["gen", "--n", "1", "--seed", "1"])  # the parser is built outside the trace
        tracemalloc.start()
        try:
            result = run_cli([command, "--input-format", "edges", "--input", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", f"0 error: {message}, got n = 1000000000\n")
        assert peak < 1 << 20

    def test_check_compares_the_leaf_count_before_the_graph(self, tmp_path, monkeypatch):
        built = []
        from_edges = Graph.from_edges
        monkeypatch.setattr(
            Graph, "from_edges", classmethod(lambda cls, n, e: built.append(n) or from_edges(n, e))
        )
        path = tmp_path / "huge.txt"
        path.write_text("300000\n")
        tpath = tmp_path / "five.tree"
        tpath.write_text(FIVE_LEAF_TREE)
        argv = ["check", "--input-format", "edges", "--input", str(path), "--tree", str(tpath)]
        result = run_cli(argv)
        assert result == (1, "", "error: tree has 5 leaves for a graph on 300000 vertices\n")
        assert built == []

    def test_check_on_a_billion_vertices_allocates_nothing(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1000000000\n")
        tpath = tmp_path / "five.tree"
        tpath.write_text(FIVE_LEAF_TREE)
        argv = ["check", "--input-format", "edges", "--input", str(path), "--tree", str(tpath)]
        run_cli(["gen", "--n", "1", "--seed", "1"])  # the parser is built outside the trace
        tracemalloc.start()
        try:
            result = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (1, "", "error: tree has 5 leaves for a graph on 1000000000 vertices\n")
        assert peak < 1 << 20

    def test_witness_check_round_trip(self, tmp_path):
        gpath = write_graphs(tmp_path, [cycle_graph(6)])
        code, out, _ = run_cli(["width", "--input", gpath, "--witness"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0 2"
        tree_text = "\n".join(lines[1:]) + "\n"
        tpath = tmp_path / "w.tree"
        tpath.write_text(tree_text)
        code2, out2, _ = run_cli(["check", "--input", gpath, "--tree", str(tpath)])
        assert (code2, out2) == (0, "2\n")


class TestLb:
    def test_complete_and_edgeless(self, tmp_path):
        from widthlab import empty_graph

        path = write_graphs(tmp_path, [complete_graph(6), empty_graph(6)])
        code, out, _ = run_cli(["lb", "--input", path])
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("0 1 ") and lines[1].startswith("1 0 ")

    def test_small_graph_error_line(self, tmp_path):
        path = write_graphs(tmp_path, [complete_graph(2)])
        code, out, err = run_cli(["lb", "--input", path])
        assert code == 2 and out == "" and "0 error:" in err

    def test_lb_below_width(self, tmp_path):
        from widthlab import sample_gnp_half

        graphs = [sample_gnp_half(9, 1000 + i) for i in range(3)]
        path = write_graphs(tmp_path, graphs)
        _, lb_out, _ = run_cli(["lb", "--input", path])
        _, w_out, _ = run_cli(["width", "--input", path])
        for lb_line, w_line in zip(lb_out.splitlines(), w_out.splitlines()):
            assert int(lb_line.split()[1]) <= int(w_line.split()[1])


class TestExp:
    def test_envelope_table(self):
        code, out, _ = run_cli(["exp", "envelope", "--n-list", "3..12"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n log2_envelope envelope"
        assert len(lines) == 11
        row10 = dict(zip(("n", "log2", "env"), lines[8].split()))
        assert row10["n"] == "10"
        assert float(row10["env"]) == pytest.approx(1.624e-16, rel=0.01)

    def test_bell_table(self):
        code, out, _ = run_cli(["exp", "bell", "--n-list", "3..10"])
        assert code == 0
        assert out.splitlines()[0] == "n log2_bell n_log2_n refined_bound margin"

    def test_bell_table_prints_the_listed_n_in_order(self):
        _, full, _ = run_cli(["exp", "bell", "--n-list", "3..10"])
        code, out, _ = run_cli(["exp", "bell", "--n-list", "9,4,7"])
        assert code == 0
        header, *rows = full.splitlines()
        by_n = {row.split()[0]: row for row in rows}
        assert out.splitlines() == [header, by_n["9"], by_n["4"], by_n["7"]]

    def test_lemma1_writes_byte_identical_files(self, tmp_path):
        args = [
            "exp", "lemma1", "--seed", "1", "--n-list", "9", "--trials", "5",
            "--format", "jsonl",
        ]
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        c1, o1, _ = run_cli(args + ["--out", p1])
        c2, o2, _ = run_cli(args + ["--out", p2])
        assert c1 == c2 == 0 and o1 == o2
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_scaling_lb_under_rw(self, tmp_path):
        out_path = str(tmp_path / "s.csv")
        code, out, _ = run_cli(
            ["exp", "scaling", "--seed", "1", "--n-list", "8,10", "--trials", "3",
             "--format", "csv", "--out", out_path, "--jobs", "1"]
        )
        assert code == 0
        with open(out_path) as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        for row in lines[1:]:
            rec = dict(zip(header, row.split(",")))
            assert int(rec["lb"]) <= int(rec["rw"])
        assert len(lines) == 1 + 6

    def test_default_out_naming(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            ["exp", "lemma1", "--seed", "3", "--n-list", "6", "--trials", "2"]
        )
        assert code == 0
        assert (tmp_path / "lemma1-3.jsonl").exists()

    def test_n_list_parsing_mixed(self, tmp_path):
        out_path = str(tmp_path / "m.csv")
        code, out, _ = run_cli(
            ["exp", "lemma1", "--seed", "2", "--n-list", "6,8..9", "--trials", "1",
             "--format", "csv", "--out", out_path]
        )
        assert code == 0
        with open(out_path) as fh:
            ns = [ln.split(",")[0] for ln in fh.read().splitlines()
                  if ln and not ln.startswith("#")][1:]
        assert ns == ["6", "8", "9"]


class TestOracle:
    def test_rankdist_unreduced_fractions(self):
        code, out, _ = run_cli(["oracle", "rankdist", "--m", "2", "--n", "2"])
        assert (code, out) == (0, "0 1/16\n1 9/16\n2 6/16\n")

    def test_bell(self):
        code, out, _ = run_cli(["oracle", "bell", "--n", "5"])
        assert (code, out) == (0, "52\n")

    def test_galois(self):
        code, out, _ = run_cli(["oracle", "galois", "--r", "2"])
        assert (code, out) == (0, "5\n")

    def test_galois_at_its_cap(self):
        code, out, _ = run_cli(["oracle", "galois", "--r", "200"])
        assert code == 0 and len(out) == 3012 + 1

    def test_cap_violation_exits_nonzero(self):
        code, out, err = run_cli(["oracle", "rankdist", "--m", "5", "--n", "5"])
        assert code == 1 and out == "" and "error" in err


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "command, engine", [("width", "exact_f_width"), ("lb", "balanced_cut_lower_bound")]
    )
    def test_batch_goes_on_to_the_next_graph(self, tmp_path, monkeypatch, command, engine):
        # the engine runs out of memory on the first graph only
        run = getattr(cli, engine)

        def engine_out_of_memory(graph, *args):
            if graph.n == 6:
                raise MemoryError
            return run(graph, *args)

        monkeypatch.setattr(cli, engine, engine_out_of_memory)
        path = write_graphs(tmp_path, [complete_graph(6), complete_graph(5)])
        code, out, err = run_cli([command, "--input", path])
        assert (code, err) == (2, "0 error: out of memory\n")
        assert out.startswith("1 1")

    def test_command_prints_one_line_exit_1(self, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_run_experiment", out_of_memory)
        argv = ["exp", "scaling", "--seed", "1", "--n-list", "6", "--trials", "1"]
        assert run_cli(argv) == (1, "", "error: out of memory\n")


class TestBrokenPipe:
    def test_closed_stdout_exits_1(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        assert cli.main(["gen", "--n", "5", "--seed", "1"]) == 1
        assert err.getvalue() == ""


class TestDeterminismAcrossCommands:
    def test_stdout_byte_identical(self, tmp_path):
        path = write_graphs(tmp_path, [cycle_graph(6), complete_graph(5)])
        for args in (
            ["gen", "--n", "10", "--seed", "9", "--count", "3"],
            ["width", "--input", path, "--witness"],
            ["width", "--measure", "bool", "--input", path],
            ["lb", "--input", path],
            ["oracle", "rankdist", "--m", "3", "--n", "3"],
            ["exp", "envelope", "--n-list", "3..20"],
        ):
            assert run_cli(args) == run_cli(args)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["exp", "lemma1", "--seed", "1", "--n-list", "5..3"],
            ["exp", "lemma1", "--seed", "1", "--n-list", "abc"],
            ["exp", "lemma1", "--seed", "1", "--n-list", "6.."],
            ["exp", "lemma1", "--seed", "1", "--n-list", "6", "--trials", "0"],
            ["width", "--input", "{missing}"],
            ["oracle", "bell", "--n", "-1"],
            ["oracle", "galois", "--r", "-1"],
            ["oracle", "rankdist", "--m", "-1", "--n", "2"],
            ["exp", "lemma1", "--seed", "1", "--n-list", "6", "--trials", "1",
             "--out", "{unwritable}"],
            ["exp", "envelope", "--n-list", "3..5", "--out", "{unwritable}"],
            ["exp", "bell", "--n-list", "600"],
            ["exp", "bell", "--n-list", "9,4,4"],
            ["exp", "bell", "--n-list", "2..5"],
            ["exp", "scaling", "--seed", "1", "--n-list", "6,6", "--trials", "2"],
            ["exp", "envelope", "--n-list", "6,6"],
            ["exp", "envelope", "--n-list", "3,501"],
            ["oracle", "galois", "--r", "201"],
            ["exp", "scaling", "--seed", "1", "--n-list", "6", "--trials", "1", "--jobs", "0"],
            ["exp", "lemma1", "--seed", "1", "--n-list", "6", "--trials", "1", "--jobs", "-2"],
        ],
    )
    def test_one_line_exit_1(self, tmp_path, argv):
        paths = {"{missing}": str(tmp_path / "missing.g6"),
                 "{unwritable}": str(tmp_path / "no-dir" / "out.csv")}
        code, out, err = run_cli([paths.get(a, a) for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_long_n_list_checked_in_linear_time(self):
        start = time.perf_counter()
        code, _, err = run_cli(
            ["exp", "scaling", "--seed", "1", "--trials", "1", "--n-list", "3..40000"]
        )
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (1, "error: n = 17 above the exact width cap 16\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["exp", "scaling", "--seed", "1", "--trials", "1", "--n-list", "3..1000000000"],
             "n = 17 above the exact width cap 16"),
            (["exp", "boolw-rw", "--seed", "1", "--width-cap", "9", "--n-list", "1..1000000000"],
             "n = 10 above the exact width cap 9"),
            (["exp", "bell", "--n-list", "3..1000000000"], "n = 501 above the maximum 500 for bell"),
            (["exp", "envelope", "--n-list", "7,0..1000000000"],
             "n = 7 appears more than once in the n list"),
        ],
    )
    def test_n_list_checked_before_it_is_expanded(self, argv, message):
        # Expanded first, a range to 10^9 would need about 90 GB, so the same
        # command with the range cut at 2*10^6 (about 75 MB if expanded)
        # must pass the bounds first.
        run_cli(["gen", "--n", "1", "--seed", "1"])  # the parser is built outside the trace
        for top in ("2000000", "1000000000"):
            cut = [a.replace("1000000000", top) for a in argv]
            tracemalloc.start()
            try:
                start = time.perf_counter()
                result = run_cli(cut)
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result == (1, "", f"error: {message}\n")
            assert elapsed < 1.0
            assert peak < 1 << 20

    def test_bad_n_list_is_named(self):
        _, _, err = run_cli(["exp", "envelope", "--n-list", "3,abc"])
        assert "'3,abc'" in err and "'abc'" in err
        assert run_cli(["exp", "envelope", "--n-list", ","]) == (1, "", "error: empty n list ','\n")


def _bad_graph_input(fmt):
    """Two good graphs around one malformed one; the bad graph's first line."""
    if fmt == "g6":
        good = [emit_graph6(cycle_graph(6)) + "\n", emit_graph6(complete_graph(5)) + "\n"]
        return good, good[0] + "I??bad\n" + good[1], 2
    good = [emit_edge_list(cycle_graph(6)), emit_edge_list(complete_graph(5))]
    return good, good[0] + "\n3\n0 x\n\n" + good[1], 9


class TestPerGraphParseErrors:
    @pytest.mark.parametrize("fmt", ["g6", "edges"])
    @pytest.mark.parametrize("command", [["width"], ["width", "--measure", "bool"], ["lb"]])
    def test_bad_graph_skipped_with_line(self, tmp_path, fmt, command):
        good, text, bad_line = _bad_graph_input(fmt)
        bad_path, good_path = tmp_path / "bad.txt", tmp_path / "good.txt"
        bad_path.write_text(text)
        good_path.write_text("\n".join(good) if fmt == "edges" else "".join(good))
        fmt_args = ["--input-format", fmt]
        code, out, err = run_cli(command + ["--input", str(bad_path)] + fmt_args)
        _, good_out, _ = run_cli(command + ["--input", str(good_path)] + fmt_args)
        assert code == 2
        assert [ln.split()[0] for ln in out.splitlines()] == ["0", "2"]
        assert [ln.split(" ", 1)[1] for ln in out.splitlines()] == [
            ln.split(" ", 1)[1] for ln in good_out.splitlines()
        ]
        assert err.startswith(f"1 error: line {bad_line}: ") and err.count("\n") == 1


class TestEdgeListBlocks:
    @pytest.mark.parametrize(
        "text",
        [
            "3\n0 1\n\n\n3\n1 2\n",
            "3\n0 1\n \n3\n1 2\n",
            "\n3\n0 1\n\n3\n1 2\n\n \n",
            "3\n0 1\n\t\n  \n\n3\n1 2",
        ],
    )
    def test_blank_line_runs_separate_graphs(self, tmp_path, text):
        path = tmp_path / "in.txt"
        path.write_text(text)
        code, out, err = run_cli(["width", "--input", str(path), "--input-format", "edges"])
        assert (code, out, err) == (0, "0 1\n1 1\n", "")

    def test_error_names_first_line_of_block(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("\n3\n0 1\n \n\n3\n0 x\n")
        code, out, err = run_cli(["width", "--input", str(path), "--input-format", "edges"])
        assert (code, out) == (2, "0 1\n")
        assert err.startswith("1 error: line 6: ") and err.count("\n") == 1


class TestCounts:
    def test_check_rejects_two_graphs(self, tmp_path):
        gpath = write_graphs(tmp_path, [cycle_graph(6), cycle_graph(6)])
        one = write_graphs(tmp_path, [cycle_graph(6)], "one.g6")
        _, out, _ = run_cli(["width", "--input", one, "--witness"])
        tpath = tmp_path / "w.tree"
        tpath.write_text("\n".join(out.splitlines()[1:]) + "\n")
        code, out, err = run_cli(["check", "--input", gpath, "--tree", str(tpath)])
        assert (code, out) == (2, "")
        assert "exactly one graph" in err

    def test_gen_negative_count_is_usage_error(self):
        code, out, err = run_cli(["gen", "--n", "3", "--seed", "1", "--count", "-1"])
        assert (code, out) == (2, "")
        assert "--count" in err
        code, out, err = run_cli(["gen", "--n", "-1", "--seed", "1"])
        assert (code, out) == (2, "")
        assert err.endswith("error: --n must be nonnegative\n")

    def test_gen_zero_count_writes_nothing(self):
        assert run_cli(["gen", "--n", "3", "--seed", "1", "--count", "0"]) == (0, "", "")


class TestReusedParser:
    """The parser is built once per process; no call may leave state for the next."""

    def test_witness_flag_does_not_stick(self, tmp_path):
        path = write_graphs(tmp_path, [cycle_graph(6)])
        code, out, _ = run_cli(["width", "--witness", "--input", path])
        assert code == 0 and out.splitlines()[1] == "tree 6"
        assert run_cli(["width", "--input", path]) == (0, "0 2\n", "")

    def test_cap_does_not_stick(self, tmp_path):
        from widthlab import sample_gnp_half

        path = write_graphs(tmp_path, [sample_gnp_half(10, 7)])
        code, out, err = run_cli(["lb", "--cap", "5", "--input", path])
        assert (code, out) == (2, "") and err.startswith("0 error:")
        code, out, err = run_cli(["lb", "--input", path])
        assert (code, err) == (0, "") and out.startswith("0 ")
