"""Time the exhaustive submatrix-rank minimizer and one lemma1 trial in one process.

For n = 13, 16, 18 and 21, with m = n // 3 and k = ceil(2n / 3) as in the
lemma1 experiment, times min_submatrix_rank_exhaustive on the n x n matrix
sample_matrix(n, n, mix_seed(s, n, 0)) for s = 1 and 2, and prints each
call's (mu, rowset, colset) beside its time.  It also times one
lemma1_experiment trial at n = 13 (seed 1), the matrix draw and report build
included.  Each figure is the median of REPEATS wall times, to 4
significant digits, the calls of one row alternating.  Only public names are
imported, so the script runs against any version of the package.  Prints one
JSON object.

    PYTHONPATH=src python3 tools/minimizer_timing.py

With --against SRC it also imports the widthlab package under SRC (the `src`
directory of another checkout) as a second package, `widthlab_against`, and
alternates the two trees' calls within each row: every row then carries
both times, their ratio (this tree over SRC's) and whether the two trees
returned the same triple.  One process timing both trees resolves changes
that two separate processes' spread would hide.

    PYTHONPATH=src python3 tools/minimizer_timing.py --against ../parent/src
"""

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import widthlab

REPEATS = 5


def load_tree(src, name="widthlab_against"):
    """The widthlab package under the directory `src`, imported as `name`.

    The modules import each other relatively, so each resolves inside the
    loaded tree; the package on sys.path is left as it is.
    """
    init = Path(src) / "widthlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _median_s(calls):
    """Median wall time of each call, REPEATS rounds, the calls alternating."""
    times = [[] for _ in calls]
    for _ in range(REPEATS):
        for call, ts in zip(calls, times):
            t = time.perf_counter()
            call()
            ts.append(time.perf_counter() - t)
    return [float(f"{statistics.median(ts):.4g}") for ts in times]


def _row(row, times, results=None):
    """`row` with this tree's time; with a second tree, its time, the ratio and a triple check."""
    row["s"] = times[0]
    if len(times) > 1:
        row["against_s"] = times[1]
        row["ratio"] = round(times[0] / times[1], 3)
        if results:
            row["same_triple"] = results[0] == results[1]
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC", help="src directory of a second widthlab tree")
    args = parser.parse_args(argv)
    trees = [widthlab] + ([load_tree(args.against)] if args.against else [])
    rows = []
    for n in (13, 16, 18, 21):
        m, k = n // 3, -(-2 * n // 3)
        for s in (1, 2):
            a = widthlab.sample_matrix(n, n, widthlab.mix_seed(s, n, 0))
            calls = [lambda t=t: t.min_submatrix_rank_exhaustive(a, m, k) for t in trees]
            results = [call() for call in calls]
            mu, rset, cset = results[0]
            row = {"layer": "minimizer", "n": n, "seed": s, "mu": mu, "rowset": list(rset),
                   "colset": list(cset)}
            rows.append(_row(row, _median_s(calls), results))
    calls = [
        lambda t=t: t.lemma1_experiment(t.ExperimentConfig("lemma1", (13,), 1, 1)) for t in trees
    ]
    rows.append(_row({"layer": "lemma1_trial", "n": 13, "seed": 1}, _median_s(calls)))
    out = {"python": platform.python_version(), "repeats": REPEATS, "rows": rows}
    if args.against:
        out["against"] = str(Path(args.against).resolve())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
