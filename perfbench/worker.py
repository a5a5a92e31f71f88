"""One workload process: set-up, then timed or traced items.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE SECONDS

Modes:
  setup  import widthlab and run the warm-up item (item 0 of WARMUP_SEED), then stop;
  run    the same, then time items 1, 2, ... until S seconds have passed;
  trace  the same as run but with spans on, over whole rounds of the
         workload's first `trace_round` items, and per-layer numbers out.

Set-up time runs from just before `import widthlab` to the end of the
warm-up item.  Each timed call runs under a SpeedProbe (reference.py); its
time is reported less the probe's own time, with the median reference-kernel
time seen around and during it.  The arguments are positional so that no
module widthlab itself imports (argparse, json) is loaded before that clock
starts.

The last line of stdout is one JSON object with the set-up time, the
warm-up output, each item's time and output (or error), the process's peak
resident set and, when tracing, the per-layer numbers.
"""

from __future__ import annotations

import os
import sys
import time

import workloads
from reference import SpeedProbe


def main() -> int:
    root, name, seed_arg, mode, seconds_arg = sys.argv[1:]
    seed, seconds = int(seed_arg), float(seconds_arg)
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    work = workloads.WORKLOADS[name]
    workdir = os.path.join(root, ".perfbench-out")

    def prepared(item_seed: int, i: int) -> dict:
        inp = work.make_input(item_seed, i)
        work.prepare(inp, workdir)
        return inp

    warm_input = prepared(workloads.WARMUP_SEED, 0)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        wl = workloads.load_widthlab(os.path.join(root, "src"))
        raw = work.call(wl, warm_input, workdir)
        setup_s = time.perf_counter() - t0 - probe.spent_s
    result = {
        "setup_s": setup_s,
        "setup_ref": probe.kernel_s,
        "warmup": work.collect(warm_input, raw, workdir),
        "items": [],
    }
    if mode == "setup":
        return _emit(result, workdir)

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer(wl)
        tracer.install()

    start = time.perf_counter()
    k = 0
    while True:
        i = k + 1 if tracer is None else k % work.trace_round + 1
        inp = prepared(seed, i)
        if tracer is not None:
            tracer.item = i
        try:
            # No in-call samples while tracing: they would land in the spans.
            with SpeedProbe(interval=0.0 if tracer is not None else 0.1) as probe:
                t = time.perf_counter()
                raw = work.call(wl, inp, workdir)
                elapsed = time.perf_counter() - t - probe.spent_s
        except Exception as exc:  # an operation that fails is counted, not fatal
            result["items"].append({"i": i, "error": f"{type(exc).__name__}: {exc}"})
        else:
            out = work.collect(inp, raw, workdir)
            result["items"].append({"i": i, "s": elapsed, "ref": probe.kernel_s, "out": out})
        k += 1
        whole_round = tracer is None or k % work.trace_round == 0
        if whole_round and time.perf_counter() - start >= seconds:
            break

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(len(result["items"]))
        tracer.write(os.path.join(workdir, f"trace-{name}-seed{seed}.json"))
    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return _emit(result, workdir)


def _emit(result: dict, workdir: str) -> int:
    import json

    workloads.remove_files(workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
