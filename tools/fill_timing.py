"""Time the cut-table fill, the DP split loop and the two public engines in one process.

For G(n, 1/2) at n = 14 and 16 (seed 1), times widths._half_table for the
two built-in cut functions, which fill the 2^(n-1) subsets without vertex
n - 1 with no per-subset kernel call: cut-rank by a bit-sliced GF(2)
elimination over 2^14 of them at a time, the boolean cut function by one walk,
each cell built from its parent subset's state.  It times the same for a
dataclasses.replace copy of each, which calls the per-subset kernel on all
2^n subsets and audits every pair.  At n = 10 (the size of the CLI
benchmark's graphs), 18 and 22 it times the built-in cut-rank fill alone (the
boolean walk takes half a minute at n = 22).  At
n = 10, 12, 14, 16 and 18 it times the split loop alone for each built-in
(widths._subset_dp on the re-indexed copy of a filled half table that
widths._exact_width makes, the sets without vertex 0), as every engine runs
it from n = 4 up: a popcount layer at a time, the sets that a one-vertex
split stops settled in bitsets, each other set decided by threshold
bitsets probed upward from its own f value (the built-ins' tables hold at
most 256 distinct values).  At n = 10, 14 and 16 it times exact_f_width and
balanced_cut_lower_bound end to end for each built-in.  At n = 10 and 14
it times the witness re-check alone for each built-in (widths._verified on
exact_f_width's witness, VERIFY_LOOPS calls a timing): the engines' audit,
which reads one side of each sampled pair from the half table, against the
two-sided audit of tree_width_under.  At n = 14 it times whole
experiments._scaling_trial calls (both half tables, the balanced bound and
both DPs), the mean over the graphs of seeds mix_seed(1..5, 14, 0).  Each
figure is the median of REPEATS wall times per call, to 4 significant
digits, the calls of one row alternating.  Prints one JSON object.

    PYTHONPATH=src python3 tools/fill_timing.py
"""

import dataclasses
import json
import platform
import statistics
import time

from widthlab import (
    CUT_BOOL_FUNCTION,
    CUT_RANK_FUNCTION,
    ExperimentConfig,
    mix_seed,
    sample_gnp_half,
)
from widthlab.experiments import _scaling_trial
from widthlab.widths import (
    _half_table,
    _subset_dp,
    _verified,
    balanced_cut_lower_bound,
    exact_f_width,
)

REPEATS = 5
VERIFY_LOOPS = 100


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


def _split_loop_row(g, f) -> dict:
    low = _half_table(g, f)
    (leaf,) = _median_s([lambda: _subset_dp(low[::2] + low[::-2])])
    return {"layer": f"split_loop.{f.name}", "n": g.n, "leaf_s": leaf}


def _reverify_row(g, f) -> dict:
    table = _half_table(g, f)
    res = exact_f_width(g, f)
    table_side, two_sided = _median_s(
        [
            lambda: _verified(g, f, res.value, res.witness_tree, table),
            lambda: _verified(g, f, res.value, res.witness_tree),
        ],
        VERIFY_LOOPS,
    )
    return {
        "layer": f"reverify.{f.name}",
        "n": g.n,
        "table_s": table_side,
        "two_sided_s": two_sided,
    }


def _scaling_trial_row(n: int) -> dict:
    cfg = ExperimentConfig(name="scaling", n_values=(n,), trials=1, master_seed=1)
    seeds = [mix_seed(s, n, 0) for s in range(1, 6)]
    (total,) = _median_s([lambda: [_scaling_trial(cfg, n, seed) for seed in seeds]])
    return {"layer": "scaling_trial", "n": n, "trial_s": float(f"{total / len(seeds):.4g}")}


def main() -> None:
    g = sample_gnp_half(12, 1)
    rows = [_split_loop_row(g, f) for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION)]
    for n in (10, 14, 16):
        g = sample_gnp_half(n, 1)
        for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
            if n > 10:
                copy = dataclasses.replace(f)
                full, half = _median_s([lambda: _half_table(g, copy), lambda: _half_table(g, f)])
                rows.append({"layer": f"half_table.{f.name}", "n": n, "full_s": full, "half_s": half})
            rows.append(_split_loop_row(g, f))
            width, bound = _median_s(
                [lambda: exact_f_width(g, f), lambda: balanced_cut_lower_bound(g, f)]
            )
            rows.append({"layer": f"engines.{f.name}", "n": n, "width_s": width, "lb_s": bound})
            if n < 16:
                rows.append(_reverify_row(g, f))
        if n == 14:
            rows.append(_scaling_trial_row(n))
    for n in (10, 18, 22):
        g = sample_gnp_half(n, 1)
        (half,) = _median_s([lambda: _half_table(g, CUT_RANK_FUNCTION)])
        rows.append({"layer": "half_table.rank", "n": n, "half_s": half})
        if n == 18:
            rows += [_split_loop_row(g, f) for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION)]
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS, "rows": rows}))


if __name__ == "__main__":
    main()
