"""widthlab benchmark: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh worker processes
(see worker.py) that import widthlab from ./src, checks every output they
produce against the independent oracle (checks.py, oracle.py), and prints
one JSON object as the last line of stdout:

  --trace 0  items_per_s, item_p50_s, setup_s (median over SETUP_PROCESSES
             fresh processes) and peak_rss_mb;
  --trace 1  the per-layer numbers of spans.LAYER_METRICS.

A failed check prints the result with "correct": false and exits 1.  A
checkout without widthlab's source exits 2 and prints no result.  The
result and the trace spans are also written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads
from reference import REFERENCE_S

SETUP_PROCESSES = 5
DEADLINE_S = 170  # the whole run, checks included, ends before this
CHECK_RESERVE_S = 25

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")


class WorkerFailed(Exception):
    pass


def _prime() -> None:
    """Byte-compile widthlab once, so every measured set-up reads cached bytecode."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = "import sys; sys.path.insert(0, sys.argv[1]); import widthlab.cli"
    subprocess.run([sys.executable, "-c", code, SRC], env=env, check=True, timeout=60)


def _worker(name: str, seed: int, mode: str, seconds: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, name, str(seed), mode, str(seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - CHECK_RESERVE_S - time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1)
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the deadline") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _check_outputs(name: str, seed: int, runs: list[dict]) -> list[str]:
    """Every output checked once; repeats of one input must match byte for byte.

    The oracle recomputes the warm-up item and the first timed item exactly.
    """
    work = workloads.WORKLOADS[name]
    seen: dict[tuple[int, int], object] = {}
    failures = []

    def check(item_seed: int, i: int, out, exact: bool) -> None:
        key = (item_seed, i)
        if key in seen:
            if out != seen[key]:
                failures.append(f"item {key}: output differs between repeats")
            return
        seen[key] = out
        try:
            checks.check(name, work.make_input(item_seed, i), out, exact)
        except checks.CheckFailed as exc:
            failures.append(f"item {key}: {exc}")

    for run in runs:
        check(workloads.WARMUP_SEED, 0, run["warmup"], exact=True)
    for item in runs[-1]["items"]:
        if "out" in item:
            check(seed, item["i"], item["out"], exact=item["i"] == 1)
    return failures


def _end_to_end(runs: list[dict], scaled: bool) -> dict:
    """The end-to-end metrics; with scaled=True times are at reference speed."""

    def at_ref(seconds: float, ref: float) -> float:
        return seconds * REFERENCE_S / ref if scaled else seconds

    times = [at_ref(item["s"], item["ref"]) for item in runs[-1]["items"] if "s" in item]
    setups = [at_ref(run["setup_s"], run["setup_ref"]) for run in runs]
    values = {
        "items_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "item_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (runs[-1]["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "widthlab", "__init__.py")):
        print(f"perfbench: no widthlab source under {SRC}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= DEADLINE_S - 2 * CHECK_RESERVE_S:
        parser.error("--seconds out of range")
    os.makedirs(OUT, exist_ok=True)

    try:
        _prime()
        if args.trace:
            runs = [_worker(args.workload, args.seed, "trace", args.seconds, deadline)]
        else:
            runs = [
                _worker(args.workload, args.seed, "setup", 0, deadline)
                for _ in range(SETUP_PROCESSES - 1)
            ]
            runs.append(_worker(args.workload, args.seed, "run", args.seconds, deadline))
    except (WorkerFailed, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = _check_outputs(args.workload, args.seed, runs)
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    items = runs[-1]["items"]
    for item in items:
        if "error" in item:
            print(f"perfbench: item {item['i']} failed: {item['error']}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(items),
        "failed": sum(1 for item in items if "error" in item),
        "metrics": runs[-1]["layers"] if args.trace else _end_to_end(runs, scaled=True),
    }
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
        if not args.trace:
            fh.write(json.dumps({"unscaled": _end_to_end(runs, scaled=False)}) + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
