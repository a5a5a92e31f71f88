"""Tests of the benchmark's oracle, checks and tracer.

    python3 -m pytest -q perfbench

The oracle is pinned to values known apart from widthlab; widthlab is used
here only to produce real outputs for the checks to accept or reject.
"""

from __future__ import annotations

import json
import math
import os
import random

import pytest

import checks
import oracle
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _edges_to_adj(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _widths(adj):
    n = len(adj)
    rank = oracle.width(oracle.cut_table(adj, oracle.rank_of_cut), n)
    unions = oracle.width(oracle.cut_table(adj, oracle.unions_of_cut), n)
    return rank, math.log2(unions)


def test_cycle_c5():
    # Three distinct non-empty neighbourhood unions across the best cuts: boolw
    # is log2 3 where the empty union is left out, and log2(3 + 1) = 2 in
    # widthlab's convention, which counts it.
    assert _widths(_edges_to_adj(5, [(i, (i + 1) % 5) for i in range(5)])) == (2, math.log2(3 + 1))


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_complete_and_path_have_rankwidth_1(n):
    complete = _edges_to_adj(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    path = _edges_to_adj(n, [(i, i + 1) for i in range(n - 1)])
    assert _widths(complete)[0] == 1
    assert _widths(path)[0] == 1


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_edgeless_graphs_have_width_0(n):
    assert _widths([0] * n) == (0, 0.0)


def test_galois_numbers():
    assert [oracle.galois(r) for r in range(5)] == [1, 2, 5, 16, 67]


def test_rank_and_unions_by_hand():
    assert oracle.gf2_rank([0b011, 0b110, 0b101]) == 2
    assert oracle.gf2_rank([0b001, 0b010, 0b100]) == 3
    assert oracle.union_count([0b001, 0b010, 0b100]) == 8
    assert oracle.union_count([0b011, 0b001, 0b010]) == 4
    assert oracle.union_count([]) == 1


def test_width_matches_is_width():
    adj = oracle.gnp_half(9, 5)
    table = oracle.cut_table(adj, oracle.rank_of_cut)
    w = oracle.width(table, 9)
    assert oracle.is_width(table, 9, w)
    assert not oracle.is_width(table, 9, w + 1)
    assert not oracle.is_width(table, 9, w - 1)


def test_read_tree_rejects_malformed_trees():
    good = "tree 4\ni0 0 1 i1\ni1 2 3 i0\n"
    assert oracle.read_tree(good, 4) == [(0, 4), (1, 4), (2, 5), (3, 5), (4, 5)]
    for bad in ("tree 5\ni0 0 1 i1\ni1 2 3 i0\n", "tree 4\ni0 0 1 i1\n", "tree 4\ni0 0 1 2\ni1 2 3 i0\n"):
        with pytest.raises(ValueError):
            oracle.read_tree(bad, 4)


def test_graph6_writer_round_trips_through_widthlab():
    wl = workloads.load_widthlab(os.path.join(ROOT, "src"))
    adj = workloads.random_graph(10, random.Random(3))
    assert list(wl.parse_graph6(workloads.graph6(adj))._adj) == adj


# --- each workload's check accepts widthlab's output and rejects it changed by one ---


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    wl = workloads.load_widthlab(os.path.join(ROOT, "src"))
    workdir = str(tmp_path_factory.mktemp("work"))
    out = {}
    for name, work in workloads.WORKLOADS.items():
        inp = work.make_input(7, 0)
        work.prepare(inp, workdir)
        out[name] = (inp, work.collect(inp, work.call(wl, inp, workdir), workdir))
    workloads.remove_files(workdir)
    return out


@pytest.mark.parametrize("seed", [7, 8])
def test_checks_pass_on_real_outputs(outputs, seed, tmp_path):
    wl = workloads.load_widthlab(os.path.join(ROOT, "src"))
    for name, work in workloads.WORKLOADS.items():
        if seed == 7:
            inp, out = outputs[name]
        else:
            inp = work.make_input(seed, 1)
            work.prepare(inp, str(tmp_path))
            out = work.collect(inp, work.call(wl, inp, str(tmp_path)), str(tmp_path))
        checks.check(name, inp, out, exact=True)


def _reject(name, inp, out):
    with pytest.raises(checks.CheckFailed):
        checks.check(name, inp, out, exact=True)


@pytest.mark.parametrize("delta", [1, -1])
def test_scaling_check_rejects_off_by_one(outputs, delta):
    inp, rec = outputs["scaling-n14"]
    for key in ("rw", "lb"):
        _reject("scaling-n14", inp, dict(rec, **{key: rec[key] + delta}))
    count = round(2 ** rec["boolw"])
    _reject("scaling-n14", inp, dict(rec, boolw=math.log2(count + delta)))


@pytest.mark.parametrize("delta", [1, -1])
def test_lemma1_check_rejects_off_by_one(outputs, delta):
    inp, rec = outputs["lemma1-n13"]
    _reject("lemma1-n13", inp, dict(rec, mu=rec["mu"] + delta))


def _bump(value: str, measure: str, delta: int) -> str:
    """A printed value changed by one: the integer, or the union count behind log2."""
    if measure == "bool":
        return f"{math.log2(round(2 ** float(value)) + delta):.6f}"
    return str(int(value) + delta)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("which,measure", [(0, "rank"), (1, "bool"), (2, "lb")])
def test_cli_check_rejects_off_by_one(outputs, delta, which, measure):
    inp, runs = outputs["cli-width-n10"]
    runs = [dict(r) for r in runs]
    first, rest = runs[which]["stdout"].split("\n", 1)
    idx, value, *members = first.split()
    runs[which]["stdout"] = " ".join([idx, _bump(value, measure, delta), *members]) + "\n" + rest
    _reject("cli-width-n10", inp, runs)


# --- tracer ---


def test_every_layer_metric_reported_and_missing_spans_read_zero():
    class Empty:
        experiments = cli = widths = object()

    tracer = spans.Tracer(Empty())
    tracer.install()
    metrics = tracer.layer_metrics(1)
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(spans.LAYER_METRICS)
    assert all(v["value"] == 0 for v in metrics.values())


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_traced_counts_repeat(tmp_path):
    wl = workloads.load_widthlab(os.path.join(ROOT, "src"))
    work = workloads.WORKLOADS["cli-width-n10"]
    counts = []
    for _ in range(2):
        tracer = spans.Tracer(wl)
        tracer.install()
        try:
            for i in (1, 2):
                tracer.item = i
                inp = work.make_input(3, i)
                work.prepare(inp, str(tmp_path))
                work.call(wl, inp, str(tmp_path))
        finally:
            tracer.uninstall()
        m = tracer.layer_metrics(2)
        counts.append({k: v["value"] for k, v in m.items() if v["unit"] == "count"})
    workloads.remove_files(str(tmp_path))
    assert counts[0] == counts[1]
    assert counts[0]["widths.f_evals"] > 0 and counts[0]["boolspace.union_members"] > 0
