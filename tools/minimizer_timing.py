"""Time the exhaustive submatrix-rank minimizer and one lemma1 trial in one process.

For n = 13, 16, 18 and 21, with m = n // 3 and k = ceil(2n / 3) as in the
lemma1 experiment, times min_submatrix_rank_exhaustive on the n x n matrix
sample_matrix(n, n, mix_seed(s, n, 0)) for s = 1 and 2, and prints each
call's (mu, rowset, colset) beside its time.  It also times one
lemma1_experiment trial at n = 13 (seed 1), the matrix draw and report build
included.  Each figure is the median of REPEATS wall times, the calls of one
row alternating.  Only public names are imported, so the script runs against
any version of the package.  Prints one JSON object.

    PYTHONPATH=src python3 tools/minimizer_timing.py
"""

import json
import platform
import statistics
import time

from widthlab import (
    ExperimentConfig,
    lemma1_experiment,
    min_submatrix_rank_exhaustive,
    mix_seed,
    sample_matrix,
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
    for n in (13, 16, 18, 21):
        m, k = n // 3, -(-2 * n // 3)
        matrices = [sample_matrix(n, n, mix_seed(s, n, 0)) for s in (1, 2)]
        times = _median_s([lambda a=a: min_submatrix_rank_exhaustive(a, m, k) for a in matrices])
        for s, a, t in zip((1, 2), matrices, times):
            mu, rset, cset = min_submatrix_rank_exhaustive(a, m, k)
            triple = {"mu": mu, "rowset": list(rset), "colset": list(cset)}
            rows.append({"layer": "minimizer", "n": n, "seed": s, **triple, "s": t})
    cfg = ExperimentConfig("lemma1", (13,), 1, 1)
    (trial,) = _median_s([lambda: lemma1_experiment(cfg)])
    rows.append({"layer": "lemma1_trial", "n": 13, "seed": 1, "s": trial})
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS, "rows": rows}))


if __name__ == "__main__":
    main()
