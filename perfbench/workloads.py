"""The three workloads: how an item's inputs follow from the seed, and the item's call.

An item is the unit the end-to-end metrics count and time.  Its inputs are a
pure function of (seed, index), so the checking process can rebuild them
without trusting the process that ran them.  Timed items are 1, 2, ... of the
run's seed.  The warm-up item of every workload process is item 0 of
WARMUP_SEED, whatever the run's seed: one item's cost varies with its
inputs, and set-up should time the same work in every run.

widthlab is imported only by `load_widthlab`, after the worker has started
its set-up clock.  Calls go through module attributes (`experiments.X`,
`cli.main`) so that the traced run can wrap them where callers look them up.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys

SCALING_N = 14
LEMMA1_N = 13
CLI_N = 10
CLI_BATCH = 8
WARMUP_SEED = 0


def load_widthlab(src: str):
    """Import widthlab from the checkout's source tree, never from site-packages."""
    sys.path.insert(0, src)
    import widthlab
    import widthlab.cli
    import widthlab.experiments

    if not os.path.abspath(widthlab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"widthlab imported from {widthlab.__file__}, not {src}")
    return widthlab


def master_seed(seed: int, i: int) -> int:
    """Experiment master seed of item i; distinct across seeds for i below 1,000,003."""
    return seed * 1_000_003 + i


# --- benchmark-side graph source for the CLI workload (not widthlab's sampler) ---


def random_graph(n: int, rng: random.Random) -> list[int]:
    """Packed adjacency rows of G(n,1/2), one getrandbits(1) per pair u < v."""
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def graph6(adj: list[int]) -> str:
    """graph6 text for n <= 62: N(n), then the upper triangle column by column,
    six bits per character, big-endian, offset 63."""
    n = len(adj)
    if n > 62:
        raise ValueError("this writer only handles n <= 62")
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[g : g + 6])), 2)) for g in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


class Workload:
    name = ""
    trace_round = 1  # items per traced round

    def make_input(self, seed: int, i: int) -> dict:
        return {"master_seed": master_seed(seed, i)}

    def prepare(self, inp: dict, workdir: str) -> None:
        """Write the item's input files; runs outside the timed call."""

    def call(self, wl, inp: dict, workdir: str):
        raise NotImplementedError

    def collect(self, inp: dict, raw, workdir: str):
        """The item's output as a user sees it; runs outside the timed call."""
        return raw


class Experiment(Workload):
    """One trial of a seeded widthlab experiment per item, written as JSON lines."""

    def __init__(self, name: str, experiment: str, n: int, trace_round: int):
        self.name = name
        self.experiment = experiment
        self.n = n
        self.trace_round = trace_round

    def call(self, wl, inp: dict, workdir: str):
        cfg = wl.experiments.ExperimentConfig(
            name=self.experiment, n_values=(self.n,), trials=1, master_seed=inp["master_seed"]
        )
        report = getattr(wl.experiments, f"{self.experiment}_experiment")(cfg, jobs=1)
        wl.experiments.write_report(report, "jsonl", _report_path(workdir))

    def collect(self, inp: dict, raw, workdir: str) -> dict:
        return _first_record(workdir)


class CliWidth(Workload):
    name = "cli-width-n10"
    trace_round = 10
    commands = (
        ("width", "--measure", "rank", "--witness"),
        ("width", "--measure", "bool", "--witness"),
        ("lb",),
    )

    def make_input(self, seed: int, i: int) -> dict:
        rng = random.Random(master_seed(seed, i))
        adj = [random_graph(CLI_N, rng) for _ in range(CLI_BATCH)]
        return {"adj": adj, "g6": [graph6(a) for a in adj]}

    def prepare(self, inp: dict, workdir: str) -> None:
        with open(_batch_path(workdir), "w", encoding="utf-8") as fh:
            fh.write("\n".join(inp["g6"]) + "\n")

    def call(self, wl, inp: dict, workdir: str):
        path = _batch_path(workdir)
        runs = []
        for command in self.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = wl.cli.main([*command, "--input", path])
            runs.append({"code": code, "stdout": buf.getvalue()})
        return runs


WORKLOADS = {
    w.name: w
    for w in (
        Experiment("scaling-n14", "scaling", SCALING_N, trace_round=3),
        Experiment("lemma1-n13", "lemma1", LEMMA1_N, trace_round=10),
        CliWidth(),
    )
}


def _report_path(workdir: str) -> str:
    return os.path.join(workdir, f"report-{os.getpid()}.jsonl")


def _batch_path(workdir: str) -> str:
    return os.path.join(workdir, f"batch-{os.getpid()}.g6")


def remove_files(workdir: str) -> None:
    """Delete this process's report and batch files."""
    for path in (_report_path(workdir), _batch_path(workdir)):
        if os.path.exists(path):
            os.remove(path)


def _first_record(workdir: str) -> dict:
    import json

    with open(_report_path(workdir), encoding="utf-8") as fh:
        return json.loads(fh.readline())
