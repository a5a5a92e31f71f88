"""Time the cut-table fill, the DP split loop, the witness rebuild and the engines in one process.

For G(n, 1/2) at n = 14 and 16 (seed 1, as every row), times
widths._half_table for the two built-in cut functions, which fill the
2^(n-1) subsets without vertex n - 1 with no per-subset kernel call:
cut-rank by a bit-sliced GF(2) elimination over 2^14 of them at a time, the
boolean cut function by one walk, each cell built from its parent subset's
state.  It times the same for a dataclasses.replace copy of each, which
calls the per-subset kernel on all 2^n subsets and audits every pair.  At
n = 10 (the size of the CLI benchmark's graphs), 18 and 22 it times the
built-in cut-rank fill alone (the boolean walk takes half a minute at
n = 22).  At n = 10, 12, 14, 16 and 18 it times the split loop alone for
each built-in (widths._subset_dp on the re-indexed copy of a filled half
table that widths._exact_width makes, the sets without vertex 0), as every
engine runs it from n = 4 up: a popcount layer at a time, the sets that a
one-vertex split stops settled in bitsets, each other set decided by
threshold bitsets probed upward from its own f value (the built-ins' tables
hold at most 256 distinct values).  At n = 14 and 16 it times the witness
rebuild alone for each built-in (widths._witness_tree with the split rule
that one _exact_width call hands it).  At n = 10, 14 and 16 it times
exact_f_width and balanced_cut_lower_bound end to end for each built-in,
and at n = 20 and 22 balanced_cut_lower_bound under cut-rank.  At n = 14,
18 and 22 it times widths._balanced_min alone on the cut-rank half table.
At n = 10 and 14 it times the witness re-check alone for each built-in
(widths._verified on exact_f_width's witness, VERIFY_LOOPS calls a timing):
the engines' audit, which reads one side of each sampled pair from the half
table, against the two-sided audit of tree_width_under.  At n = 14 it times
whole experiments._scaling_trial calls (both half tables, the balanced bound
and both DPs), the mean over the graphs of seeds mix_seed(1..5, 14, 0).
Each figure is the median of REPEATS wall times per call, to 4 significant
digits, the calls of one row alternating.  Prints one JSON object.

    PYTHONPATH=src python3 tools/fill_timing.py

With --against SRC it also imports the widthlab package under SRC (the
`src` directory of another checkout) as a second package,
`widthlab_against` (minimizer_timing.load_tree), and alternates the two
trees' calls within each row.  Each time `x_s` then has the other tree's
`x_against_s` and the ratio `x_ratio` (this tree over SRC's) beside it,
and the balanced, witness and lb rows say whether the two trees returned
the same value and side or the same tree edges (`same`).  Each tree runs
on its own graphs and cut functions, since an engine knows its built-ins
by identity.  One process timing both trees resolves changes that two
separate processes' spread would hide.

    PYTHONPATH=src python3 tools/fill_timing.py --against ../parent/src
"""

import argparse
import dataclasses
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import widthlab  # noqa: E402
from minimizer_timing import load_tree  # noqa: E402
from widthlab.experiments import _scaling_trial  # noqa: E402
from widthlab.widths import (  # noqa: E402
    _balanced_min,
    _exact_width,
    _half_table,
    _subset_dp,
    _verified,
    balanced_cut_lower_bound,
    exact_f_width,
)

REPEATS = 5
VERIFY_LOOPS = 100
# the engine names the rows call, looked up by module and name in each tree
TIMED = (
    _balanced_min,
    _exact_width,
    _half_table,
    _subset_dp,
    _verified,
    _scaling_trial,
    balanced_cut_lower_bound,
    exact_f_width,
)


def _tree(package) -> SimpleNamespace:
    """The TIMED names as `package` defines them, with its sampler, cut functions and widths."""
    names = {
        fn.__name__: getattr(getattr(package, fn.__module__.rpartition(".")[2]), fn.__name__)
        for fn in TIMED
    }
    return SimpleNamespace(
        **names,
        widths=package.widths,
        sample=package.sample_gnp_half,
        config=package.ExperimentConfig,
        rank=package.CUT_RANK_FUNCTION,
        bool=package.CUT_BOOL_FUNCTION,
    )


def _median_s(calls, loops=1):
    """Median wall time per call, REPEATS rounds of `loops` calls each, the calls alternating."""
    times = [[] for _ in calls]
    for _ in range(REPEATS):
        for call, ts in zip(calls, times):
            t = time.perf_counter()
            for _ in range(loops):
                call()
            ts.append((time.perf_counter() - t) / loops)
    return [float(f"{statistics.median(ts):.4g}") for ts in times]


def _row(row: dict, calls: dict, loops: int = 1, results=None) -> dict:
    """row with `name_s` for each named list of calls, one call per tree, all alternating.

    With a second tree, `name_against_s` and `name_ratio` follow, and `same`
    says whether `results`, one per tree, agree.
    """
    times = iter(_median_s([call for each in calls.values() for call in each], loops))
    for name, each in calls.items():
        row[f"{name}_s"] = mine = next(times)
        if len(each) > 1:
            row[f"{name}_against_s"] = theirs = next(times)
            row[f"{name}_ratio"] = round(mine / theirs, 3)
    if results is not None and len(results) > 1:
        row["same"] = all(r == results[0] for r in results)
    return row


def _split_loop_row(trees, n: int, name: str) -> dict:
    calls = []
    for e in trees:
        low = e._half_table(e.sample(n, 1), getattr(e, name))
        calls.append(lambda e=e, low=low: e._subset_dp(low[::2] + low[::-2]))
    return _row({"layer": f"split_loop.{name}", "n": n}, {"leaf": calls})


def _half_table_row(trees, n: int, name: str, copy: bool = True) -> dict:
    """The built-in's fill, and with `copy` that of a copy, which takes the per-subset path."""
    calls = {"full": [], "half": []} if copy else {"half": []}
    for e in trees:
        g, f = e.sample(n, 1), getattr(e, name)
        if copy:
            calls["full"].append(lambda e=e, g=g, c=dataclasses.replace(f): e._half_table(g, c))
        calls["half"].append(lambda e=e, g=g, f=f: e._half_table(g, f))
    return _row({"layer": f"half_table.{name}", "n": n}, calls)


def _engines_row(trees, n: int, name: str) -> dict:
    calls = {"width": [], "lb": []}
    for e in trees:
        g, f = e.sample(n, 1), getattr(e, name)
        calls["width"].append(lambda e=e, g=g, f=f: e.exact_f_width(g, f))
        calls["lb"].append(lambda e=e, g=g, f=f: e.balanced_cut_lower_bound(g, f))
    return _row({"layer": f"engines.{name}", "n": n}, calls)


def _reverify_row(trees, n: int, name: str) -> dict:
    calls = {"table": [], "two_sided": []}
    for e in trees:
        g, f = e.sample(n, 1), getattr(e, name)
        table, res = e._half_table(g, f), e.exact_f_width(g, f)
        calls["table"].append(
            lambda e=e, g=g, f=f, r=res, t=table: e._verified(g, f, r.value, r.witness_tree, t)
        )
        calls["two_sided"].append(
            lambda e=e, g=g, f=f, r=res: e._verified(g, f, r.value, r.witness_tree)
        )
    return _row({"layer": f"reverify.{name}", "n": n}, calls, VERIFY_LOOPS)


def _witness_call(e, n: int, name: str):
    """The tree's own witness rebuild on G(n, 1/2): _witness_tree with the split rule
    that one _exact_width call hands it, over the DP's finished table."""
    build, args = e.widths._witness_tree, []
    e.widths._witness_tree = lambda *a: args.append(a) or build(*a)
    try:
        g, f = e.sample(n, 1), getattr(e, name)
        e._exact_width(g, f, e._half_table(g, f))
    finally:
        e.widths._witness_tree = build
    return lambda: build(*args[0])


def _witness_row(trees, n: int, name: str) -> dict:
    calls = [_witness_call(e, n, name) for e in trees]
    edges = [call().edges for call in calls]
    return _row({"layer": f"witness.{name}", "n": n}, {"rebuild": calls}, results=edges)


def _balanced_min_row(trees, n: int) -> dict:
    calls = []
    for e in trees:
        table = e._half_table(e.sample(n, 1), e.rank)
        calls.append(lambda e=e, t=table: e._balanced_min(t))
    results = [call() for call in calls]
    return _row({"layer": "balanced_min.rank", "n": n}, {"scan": calls}, results=results)


def _lb_row(trees, n: int) -> dict:
    calls = []
    for e in trees:
        calls.append(lambda e=e, g=e.sample(n, 1): e.balanced_cut_lower_bound(g, e.rank))
    results = [(value, cut.bits) for value, cut in (call() for call in calls)]
    return _row({"layer": "lb.rank", "n": n}, {"lb": calls}, results=results)


def _scaling_trial_row(trees, n: int) -> dict:
    seeds = [widthlab.mix_seed(s, n, 0) for s in range(1, 6)]
    calls = []
    for e in trees:
        cfg = e.config(name="scaling", n_values=(n,), trials=1, master_seed=1)
        calls.append(lambda e=e, cfg=cfg: [e._scaling_trial(cfg, n, s) for s in seeds])
    row = _row({"layer": "scaling_trial", "n": n}, {"trial": calls})
    for key in [k for k in row if k.endswith("_s")]:  # the mean over the graphs
        row[key] = float(f"{row[key] / len(seeds):.4g}")
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC", help="src directory of a second widthlab tree")
    args = parser.parse_args(argv)
    trees = [_tree(widthlab)] + ([_tree(load_tree(args.against))] if args.against else [])
    names = ("rank", "bool")
    rows = [_split_loop_row(trees, 12, name) for name in names]
    for n in (10, 14, 16):
        for name in names:
            if n > 10:
                rows.append(_half_table_row(trees, n, name))
            rows.append(_split_loop_row(trees, n, name))
            if n > 10:
                rows.append(_witness_row(trees, n, name))
            rows.append(_engines_row(trees, n, name))
            if n < 16:
                rows.append(_reverify_row(trees, n, name))
        if n == 14:
            rows.append(_scaling_trial_row(trees, n))
    for n in (10, 18, 22):
        rows.append(_half_table_row(trees, n, "rank", copy=False))
        if n == 18:
            rows += [_split_loop_row(trees, n, name) for name in names]
    rows += [_balanced_min_row(trees, n) for n in (14, 18, 22)]
    rows += [_lb_row(trees, n) for n in (20, 22)]
    out = {"python": platform.python_version(), "repeats": REPEATS, "rows": rows}
    if args.against:
        out["against"] = str(Path(args.against).resolve())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
