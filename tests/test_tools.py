"""The scripts under tools/ stay runnable against the current package."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_code_lines_total_is_the_sum_of_the_modules():
    run = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py")], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    *modules, (name, total) = rows
    assert name == "total"
    assert modules and all(module.endswith(".py") for module, _ in modules)
    assert int(total) == sum(int(count) for _, count in modules)


def test_fill_timing_imports_resolve():
    # loaded without running main: its imports of private engine names
    # must still resolve
    namespace = runpy.run_path(str(TOOLS / "fill_timing.py"), run_name="tools")
    assert callable(namespace["main"])
    assert callable(namespace["_scaling_trial"])
    assert callable(namespace["_scaling_trial_row"])


def test_minimizer_timing_imports_resolve():
    namespace = runpy.run_path(str(TOOLS / "minimizer_timing.py"), run_name="tools")
    assert callable(namespace["main"])


def test_minimizer_timing_loads_a_second_tree():
    # the repo's own src, loaded as a second package: its modules are new
    # objects, imported relatively from that tree, and give the same triple
    import widthlab

    namespace = runpy.run_path(str(TOOLS / "minimizer_timing.py"), run_name="tools")
    src = Path(widthlab.__file__).resolve().parent.parent
    other = namespace["load_tree"](src, "widthlab_tools_test")
    assert other is not widthlab and other.gf2 is not widthlab.gf2
    assert other.gf2.__name__ == "widthlab_tools_test.gf2"
    matrix = widthlab.sample_matrix(9, 9, widthlab.mix_seed(1, 9, 0))
    assert other.min_submatrix_rank_exhaustive(matrix, 3, 6) == (
        widthlab.min_submatrix_rank_exhaustive(matrix, 3, 6)
    )


def test_fill_timing_rows_against_a_second_tree(capsys):
    # the repo's own src, loaded as a second package through
    # minimizer_timing.load_tree: each row alternates the two trees' calls,
    # times both and compares their results; with one tree a row carries
    # this tree's times alone
    import widthlab

    namespace = runpy.run_path(str(TOOLS / "fill_timing.py"), run_name="tools")
    src = Path(widthlab.__file__).resolve().parent.parent
    other = namespace["load_tree"](src, "widthlab_fill_timing_test")
    trees = [namespace["_tree"](widthlab), namespace["_tree"](other)]
    assert trees[1].rank is other.CUT_RANK_FUNCTION is not widthlab.CUT_RANK_FUNCTION
    rows = [
        namespace["_balanced_min_row"](trees, 9),
        namespace["_witness_row"](trees, 9, "bool"),
        namespace["_lb_row"](trees, 9),
        namespace["_split_loop_row"](trees, 9, "rank"),
        namespace["_half_table_row"](trees, 9, "rank"),
    ]
    for row in rows:
        timed = [key[:-2] for key in row if key.endswith("_s") and "_against" not in key]
        assert timed, row
        for name in timed:
            assert row[f"{name}_against_s"] > 0
            assert row[f"{name}_ratio"] == round(row[f"{name}_s"] / row[f"{name}_against_s"], 3)
    assert [row.get("same") for row in rows] == [True, True, True, None, None]
    assert other.widths._witness_tree.__module__ == "widthlab_fill_timing_test.widths"
    alone = namespace["_balanced_min_row"](trees[:1], 9)
    assert set(alone) == {"layer", "n", "scan_s"}
    with pytest.raises(SystemExit) as stop:
        namespace["main"](["--help"])
    assert stop.value.code == 0
    assert "--against SRC" in capsys.readouterr().out


def test_knobs_are_exactly_the_pinned_list():
    # a new public default shows up in review as an edit to this list
    run = subprocess.run(
        [sys.executable, str(TOOLS / "knobs.py")], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "BitMatrix.from_rows(cols)",
        "min_submatrix_rank_exhaustive(pair_cap)",
        "boolean_row_space_size(cap)",
        "CutFunction(bits_evaluate)",
        "exact_f_width(n_cap)",
        "balanced_cut_lower_bound(n_cap)",
        "ExperimentConfig(mode)",
        "ExperimentConfig(work_cap)",
        "ExperimentConfig(width_cap)",
        "ExperimentConfig(sample_trials)",
        "lemma1_experiment(jobs)",
        "scaling_experiment(jobs)",
        "boolw_vs_rw_experiment(jobs)",
        "render_table(float_formats)",
        "total 14",
    ]


def test_knobs_total_is_the_number_of_listed_parameters():
    run = subprocess.run(
        [sys.executable, str(TOOLS / "knobs.py")], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    *listed, last = run.stdout.splitlines()
    word, total = last.split()
    assert word == "total"
    assert listed and all(line.endswith(")") and "(" in line for line in listed)
    assert int(total) == len(listed)
