"""Time the cut-table fill, the DP split loop and the balanced-cut scan in one process.

For G(n, 1/2) at n = 14 and 16 (seed 1), times widths._half_table for the
two built-in cut functions, which fill the 2^(n-1) subsets without vertex
n - 1 by one walk, each cell built from its parent subset's state; and for
a dataclasses.replace copy of each, which calls the per-subset kernel on
all 2^n subsets and audits every pair.  For each built-in it times the
split loop alone (widths._subset_dp on a fresh copy of a filled table):
over the full 2^n table (widths._mirrored), as exact_f_width runs it, and
over the 2^(n-1) half table, as the leaf-rooted DP of the experiments runs
it.  At each n it also times balanced_cut_lower_bound under cut-rank
against widths._balanced_min on the mirrored rank table.  Each figure is
the median of REPEATS wall times, the paths alternating.  Prints one JSON
object.

    PYTHONPATH=src python3 tools/fill_timing.py
"""

import dataclasses
import json
import platform
import statistics
import time

from widthlab import CUT_BOOL_FUNCTION, CUT_RANK_FUNCTION, sample_gnp_half
from widthlab.widths import (
    _balanced_min,
    _half_table,
    _mirrored,
    _subset_dp,
    balanced_cut_lower_bound,
)

REPEATS = 5


def _median_s(calls):
    """Median wall time of each call, REPEATS rounds, the calls alternating."""
    times = [[] for _ in calls]
    for _ in range(REPEATS):
        for call, ts in zip(calls, times):
            t = time.perf_counter()
            call()
            ts.append(time.perf_counter() - t)
    return [round(statistics.median(ts), 4) for ts in times]


def main() -> None:
    rows = []
    for n in (14, 16):
        g = sample_gnp_half(n, 1)
        for f in (CUT_RANK_FUNCTION, CUT_BOOL_FUNCTION):
            copy = dataclasses.replace(f)
            full, half = _median_s([lambda: _half_table(g, copy), lambda: _half_table(g, f)])
            rows.append({"layer": f"half_table.{f.name}", "n": n, "full_s": full, "half_s": half})
            low = _half_table(g, f)
            table = _mirrored(low)
            full, leaf = _median_s(
                [
                    lambda: _subset_dp(list(table), len(table) - 1),
                    lambda: _subset_dp(list(low), len(low)),
                ]
            )
            rows.append({"layer": f"split_loop.{f.name}", "n": n, "full_s": full, "leaf_s": leaf})
        table = _mirrored(_half_table(g, CUT_RANK_FUNCTION))
        evaluated, read = _median_s(
            [
                lambda: balanced_cut_lower_bound(g, CUT_RANK_FUNCTION),
                lambda: _balanced_min(table.__getitem__, n),
            ]
        )
        rows.append({"layer": "balanced.rank", "n": n, "evaluated_s": evaluated, "table_s": read})
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS, "rows": rows}))


if __name__ == "__main__":
    main()
