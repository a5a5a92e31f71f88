"""Byte-exact CLI goldens: reports, summaries, witness trees, bounds and tables.

`golden_bytes.json` holds the exit code, stdout, stderr and written file of
every invocation below, captured before the experiment runner, the cut-row
gather and the CLI batch loop were folded into one each.  Criterion 9 only
compares two runs of the same code, so these goldens are what pins a byte
across a refactor.  A mismatch is a behaviour change: fix the code, do not
recapture the file.  `python tests/test_golden_bytes.py` prints the current
capture as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import pytest

from widthlab import (
    complete_graph,
    cycle_graph,
    emit_edge_list,
    emit_graph6,
    path_graph,
    sample_gnp_half,
)

from conftest import run_cli

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_bytes.json")

REPORTS = {
    "lemma1": ["exp", "lemma1", "--seed", "4", "--n-list", "6,9", "--trials", "3"],
    "lemma1-sampled": [
        "exp", "lemma1", "--seed", "5", "--n-list", "6", "--trials", "2", "--mode", "sampled",
    ],
    "scaling": ["exp", "scaling", "--seed", "2", "--n-list", "6,8", "--trials", "2"],
    "boolw-rw": ["exp", "boolw-rw", "--seed", "3", "--n-list", "5,7", "--trials", "2"],
}

TABLES = {
    "envelope": ["exp", "envelope", "--n-list", "0,3..12"],
    "bell": ["exp", "bell", "--n-list", "3..15"],
}

GRAPHS = (
    cycle_graph(6),
    complete_graph(5),
    path_graph(7),
    complete_graph(2),
    sample_gnp_half(8, 12),
    sample_gnp_half(9, 5),
)

BATCH = {
    "width-rank-witness": ["width", "--measure", "rank", "--witness"],
    "width-bool-witness": ["width", "--measure", "bool", "--witness"],
    "width-cap": ["width", "--cap", "7"],
    "lb-rank": ["lb"],
    "lb-bool": ["lb", "--measure", "bool"],
}


def _invoke(argv, out_path=None) -> dict:
    code, out, err = run_cli(argv + (["--out", out_path] if out_path else []))
    case = {"code": code, "stdout": out, "stderr": err}
    if out_path:
        with open(out_path, encoding="utf-8", newline="") as fh:
            case["file"] = fh.read()
    return case


def capture(tmp: str, jobs: str = "1") -> dict:
    """Every golden case, keyed by name; report experiments run with `jobs`."""
    cases = {}
    for name, argv in REPORTS.items():
        for fmt in ("csv", "jsonl"):
            out = os.path.join(tmp, f"{name}-{jobs}.{fmt}")
            cases[f"exp-{name}-{fmt}"] = _invoke(argv + ["--format", fmt, "--jobs", jobs], out)
    for name, argv in TABLES.items():
        cases[f"exp-{name}"] = _invoke(argv)
        for fmt in ("csv", "jsonl"):
            out = os.path.join(tmp, f"{name}.{fmt}")
            cases[f"exp-{name}-{fmt}"] = _invoke(argv + ["--format", fmt], out)
    g6 = os.path.join(tmp, "graphs.g6")
    with open(g6, "w", encoding="utf-8") as fh:
        fh.write("".join(emit_graph6(g) + "\n" for g in GRAPHS))
    edges = os.path.join(tmp, "graphs.edges")
    with open(edges, "w", encoding="utf-8") as fh:
        fh.write("\n".join(emit_edge_list(g) for g in GRAPHS))
    for name, argv in BATCH.items():
        cases[name] = _invoke(argv + ["--input", g6])
        cases[f"{name}-edges"] = _invoke(argv + ["--input", edges, "--input-format", "edges"])
    for fmt in ("g6", "edges"):
        cases[f"gen-{fmt}"] = _invoke(
            ["gen", "--n", "7", "--seed", "11", "--count", "3", "--format", fmt]
        )
    return cases


with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.fixture(scope="module", params=["1", "2"], ids=["jobs1", "jobs2"])
def captured(request, tmp_path_factory):
    return capture(str(tmp_path_factory.mktemp(f"golden-jobs{request.param}")), request.param)


def test_case_names_match(captured):
    assert sorted(captured) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(captured, name):
    assert captured[name] == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(capture(tmp), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
