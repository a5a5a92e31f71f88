"""Seeded randomized experiments with machine-readable, byte-stable reports.

Every trial seed derives as mix_seed(master, n, trial), so any subset of
trials can be recomputed independently and a report is reproducible from its
own config echo.  Reports never present a sampled (non-exhaustive) minimum as
certified: sampled results carry certified=false.

Trial workers are top-level functions and configs are plain frozen
dataclasses, so trials can run in a process pool; records are assembled in
(n, trial) order, which makes the output independent of scheduling.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from ._version import __version__
from .boolspace import BELL_CAP, _cut_bool_count_bits, bell, galois_number, log2_int
from .errors import CapExceeded
from .gf2 import (
    DEFAULT_PAIR_CAP,
    exhaustive_work,
    min_submatrix_rank_exhaustive,
    min_submatrix_rank_sampled,
    sample_matrix,
)
from .graphs import _cut_rank_bits, sample_gnp_half
from .rng import GENERATOR_NAME, mix_seed
from .widths import (
    CUT_BOOL_FUNCTION,
    CUT_RANK_FUNCTION,
    DEFAULT_EXACT_CAP,
    _balanced_min,
    _exact_width,
    _half_table,
    tree_cuts,
)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    n_values: tuple[int, ...]
    trials: int
    master_seed: int
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    work_cap: int = DEFAULT_PAIR_CAP
    width_cap: int = DEFAULT_EXACT_CAP
    sample_trials: int = 2000


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    generator: str
    version: str
    columns: tuple[str, ...]
    records: tuple[dict, ...]
    summaries: tuple[dict, ...]


@dataclass(frozen=True)
class Table:
    """Plain column/row table for the non-randomized tabulations."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _check_n_values(
    n_values: Iterable[int],
    name: str,
    low: int,
    high: float = math.inf,
    width_cap: float = math.inf,
) -> tuple[int, ...]:
    """n_values as a tuple, once no n is outside low..high, above width_cap or listed before.

    The first such n in list order is reported.  n_values is read one n at a
    time, so a lazy list stops at its first bad n without being expanded.
    """
    seen: set[int] = set()
    out = []
    for n in n_values:
        if n < low:
            raise ValueError(f"n = {n} below the minimum {low} for {name}")
        if n > high:
            raise ValueError(f"n = {n} above the maximum {high} for {name}")
        if n > width_cap:
            raise CapExceeded(f"n = {n} above the exact width cap {width_cap}")
        if n in seen:
            raise ValueError(f"n = {n} appears more than once in the n list")
        seen.add(n)
        out.append(n)
    return tuple(out)


def _spread(key: str, values: list) -> dict:
    """min_, median_, mean_ and max_<key>, in order; the median is a float for any count."""
    return {
        f"min_{key}": min(values),
        f"median_{key}": float(statistics.median(values)),
        f"mean_{key}": statistics.fmean(values),
        f"max_{key}": max(values),
    }


@dataclass(frozen=True)
class _Spec:
    """What sets one experiment apart; `_run_experiment` does the rest.

    `name` is the experiment's, which its config must carry.
    `trial(cfg, n, seed)` returns a record's columns after n, trial and seed,
    in report order;
    `summarize(n, rows)` returns a summary's fields after n and trials.
    """

    name: str
    trial: Callable[[ExperimentConfig, int, int], dict]
    summarize: Callable[[int, list[dict]], dict]
    min_n: int
    width_capped: bool

    def check_n_values(self, n_values: Iterable[int], width_cap: int) -> tuple[int, ...]:
        """n_values checked against min_n, and width_cap if capped, by _check_n_values."""
        cap = width_cap if self.width_capped else math.inf
        return _check_n_values(n_values, self.name, self.min_n, width_cap=cap)


def _call_trial(args) -> dict:
    trial, cfg, n, t = args
    seed = mix_seed(cfg.master_seed, n, t)
    return {"n": n, "trial": t, "seed": seed, **trial(cfg, n, seed)}


def _run_trials(cfg: ExperimentConfig, trial: Callable, jobs: int) -> list[dict]:
    tasks = [(trial, cfg, n, t) for n in cfg.n_values for t in range(cfg.trials)]
    if jobs > 1 and len(tasks) > 1:
        # imported here: multiprocessing costs serial runs memory and start-up time
        from concurrent.futures import ProcessPoolExecutor

        try:
            # under fork every worker starts at once, so no more than there are trials
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                records = list(pool.map(_call_trial, tasks, chunksize=1))
        except OSError as exc:
            print(f"process pool unavailable ({exc}); running trials serially", file=sys.stderr)
            records = [_call_trial(t) for t in tasks]
    else:
        records = [_call_trial(t) for t in tasks]
    records.sort(key=lambda r: (r["n"], r["trial"]))
    return records


def _run_experiment(spec: _Spec, cfg: ExperimentConfig, jobs: int) -> ExperimentReport:
    if cfg.name != spec.name:
        raise ValueError(f"the {spec.name} experiment was given a config named {cfg.name!r}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not cfg.n_values:
        raise ValueError("config has an empty n list")
    if cfg.trials < 1:
        raise ValueError("config must request at least one trial")
    if cfg.mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    spec.check_n_values(cfg.n_values, cfg.width_cap)
    records = _run_trials(cfg, spec.trial, jobs)
    summaries = []
    for n in cfg.n_values:
        rows = [r for r in records if r["n"] == n]
        summaries.append({"n": n, "trials": len(rows), **spec.summarize(n, rows)})
    return ExperimentReport(
        config=cfg,
        generator=GENERATOR_NAME,
        version=__version__,
        columns=tuple(records[0]),
        records=tuple(records),
        summaries=tuple(summaries),
    )


# --- minimum submatrix rank under the square random-matrix model ---

def _lemma1_trial(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    matrix = sample_matrix(n, n, seed)
    m = n // 3
    k = -(-2 * n // 3)
    certified = cfg.mode == "exhaustive" and exhaustive_work(n, n, m, k) <= cfg.work_cap
    if certified:
        mu, rset, cset = min_submatrix_rank_exhaustive(matrix, m, k, cfg.work_cap)
    else:
        mu, rset, cset = min_submatrix_rank_sampled(
            matrix, m, k, cfg.sample_trials, mix_seed(seed, 1)
        )
    return {"mu": mu, "rowset": list(rset), "colset": list(cset), "certified": certified}


def _lemma1_summary(n: int, rows: list[dict]) -> dict:
    mus = [r["mu"] for r in rows]
    return {
        **_spread("mu", mus),
        "frac_mu_le_n6": sum(1 for v in mus if v <= n // 6) / len(mus),
        "certified_all": all(r["certified"] for r in rows),
    }


_LEMMA1 = _Spec("lemma1", _lemma1_trial, _lemma1_summary, min_n=3, width_capped=False)


def lemma1_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Distribution of the minimum floor(n/3) x ceil(2n/3) submatrix rank.

    Samples square random matrices and minimizes rank over all (or, above the
    work cap, sampled) submatrices of the stated shape; summarizes the
    minimum's distribution and how often it falls at or below floor(n/6).
    """
    return _run_experiment(_LEMMA1, cfg, jobs)


# --- widths of random graphs ---

def _scaling_trial(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    graph = sample_gnp_half(n, seed)
    # The balanced bound and the DP read one rank half table, which the DP
    # leaves as it is; _run_experiment has already checked n against the
    # width cap.
    rank = _half_table(graph, CUT_RANK_FUNCTION)
    lb = int(_balanced_min(rank)[0])
    rw = int(_exact_width(graph, CUT_RANK_FUNCTION, rank).value)
    boolw = _exact_width(graph, CUT_BOOL_FUNCTION, _half_table(graph, CUT_BOOL_FUNCTION)).value
    if lb > rw:
        raise AssertionError(f"balanced lower bound {lb} above exact rankwidth {rw}")
    return {"rw": rw, "boolw": boolw, "lb": lb, "rw_over_n": rw / n}


def _scaling_summary(n: int, rows: list[dict]) -> dict:
    return {
        **_spread("rw", [r["rw"] for r in rows]),
        "mean_boolw": statistics.fmean(r["boolw"] for r in rows),
        "max_lb": max(r["lb"] for r in rows),
        "min_rw_over_n": min(r["rw_over_n"] for r in rows),
    }


_SCALING = _Spec("scaling", _scaling_trial, _scaling_summary, min_n=3, width_capped=True)


def scaling_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Exact rankwidth/booleanwidth of random graphs as n grows.

    Per trial records rankwidth, booleanwidth, the balanced-cut lower bound
    under cut-rank (asserted <= rankwidth), and rw/n.  Both widths are
    exact_f_width's DP on a half table (widths._exact_width), and the bound
    is read from the rank DP's half table, not evaluated again.
    """
    return _run_experiment(_SCALING, cfg, jobs)


# --- booleanwidth against the subspace-count bound ---

def _boolw_rw_trial(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    graph = sample_gnp_half(n, seed)
    rw_res = _exact_width(graph, CUT_RANK_FUNCTION, _half_table(graph, CUT_RANK_FUNCTION))
    bw_res = _exact_width(graph, CUT_BOOL_FUNCTION, _half_table(graph, CUT_BOOL_FUNCTION))
    rw = int(rw_res.value)
    log2_g = log2_int(galois_number(rw))
    violations = 0
    for tree in (rw_res.witness_tree, bw_res.witness_tree):
        for cut in tree_cuts(tree):
            count = _cut_bool_count_bits(graph, cut.bits)
            r = _cut_rank_bits(graph, cut.bits)
            if count > galois_number(r):
                violations += 1
    return {
        "rw": rw,
        "boolw": bw_res.value,
        "log2_galois_rw": log2_g,
        "cut_violations": violations,
        "graph_ok": bw_res.value <= log2_g + 1e-12,
    }


def _boolw_rw_summary(n: int, rows: list[dict]) -> dict:
    return {
        "max_rw": max(r["rw"] for r in rows),
        "max_boolw": max(r["boolw"] for r in rows),
        "total_cut_violations": sum(r["cut_violations"] for r in rows),
        "all_graphs_ok": all(r["graph_ok"] for r in rows),
    }


_BOOLW_RW = _Spec("boolw-rw", _boolw_rw_trial, _boolw_rw_summary, min_n=1, width_capped=True)

# name -> spec, for the CLI, which checks an n list as it expands it
_SPECS = {spec.name: spec for spec in (_LEMMA1, _SCALING, _BOOLW_RW)}


def boolw_vs_rw_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Audit of the per-cut subspace bound linking boolean counts to rank.

    For every cut X of both optimal witness trees, checks that the number of
    distinct neighborhood unions is at most the number of subspaces of a
    cut_rank(X)-dimensional GF(2) space, and per graph that booleanwidth is
    at most log2 of the Galois number of the rankwidth.
    """
    return _run_experiment(_BOOLW_RW, cfg, jobs)


# --- deterministic tabulations ---


def envelope_curve(n_values) -> Table:
    """Union-bound envelope 3^(3n) * 2^(-n^2), exactly and in log space, n <= BELL_CAP.

    The log2 column is the closed form 3n*log2(3) - n^2; the value column is
    the exact rational rounded to the nearest float (0.0 once it underflows).
    """
    n_values = _check_n_values(n_values, "envelope", 0, BELL_CAP)
    # int / int is correctly rounded
    rows = tuple((n, 3 * n * math.log2(3) - n * n, 3 ** (3 * n) / 2 ** (n * n)) for n in n_values)
    return Table(columns=("n", "log2_envelope", "envelope"), rows=rows)


def bell_asymptotic_check(n_max: int) -> Table:
    """Tabulate log2 of the Bell numbers against their n*log2(n) envelope.

    Asserts log2 B_n <= n*log2(n) on 3..n_max and reports the margin of the
    sharper n*(log2 n - log2 log2 (n-1)) form without asserting any constant.
    """
    if not 3 <= n_max <= BELL_CAP:
        raise ValueError(f"n_max must be between 3 and {BELL_CAP}")
    return _bell_table(range(3, n_max + 1))


def _bell_table(n_values) -> Table:
    """bell_asymptotic_check's rows for the listed n, in list order."""
    n_values = _check_n_values(n_values, "bell", 3, BELL_CAP)
    rows = []
    for n in n_values:
        log2_bell = log2_int(bell(n))
        n_log2_n = n * math.log2(n)
        refined = n * (math.log2(n) - math.log2(math.log2(n - 1)))
        margin = log2_bell / n - math.log2(n) + math.log2(math.log2(n - 1))
        if log2_bell > n_log2_n:
            raise AssertionError(f"log2 B_{n} = {log2_bell} exceeds n*log2(n) = {n_log2_n}")
        rows.append((n, log2_bell, n_log2_n, refined, margin))
    return Table(
        columns=("n", "log2_bell", "n_log2_n", "refined_bound", "margin"),
        rows=tuple(rows),
    )


# --- serialization ---


def _cell(value, float_format: Callable[[float], str] = repr) -> str:
    """One report or table cell: lists space-joined, floats by float_format."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if isinstance(value, float):
        return float_format(value)
    return str(value)


def _write(path, fmt: str, what: str, columns, rows, objects, preamble=()) -> None:
    """Write rows as CSV (preamble, header, full-precision cells) or objects as JSON lines."""
    if fmt == "csv":
        lines = [*preamble, ",".join(columns)]
        lines += (",".join(_cell(v) for v in row) for row in rows)
    elif fmt == "jsonl":
        lines = [json.dumps(obj, separators=(",", ":")) for obj in objects]
    else:
        raise ValueError(f"unknown {what} format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + "\n" for line in lines))
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def write_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write a report as CSV or JSON lines; identical inputs, identical bytes.

    CSV: '#' config preamble, header row, one row per trial (summaries live
    in the JSON form and on stdout).  JSONL: one object per trial, then a
    final object carrying config, generator, version and summaries.
    """
    cfg = report.config
    preamble = (
        f"# experiment={cfg.name}",
        f"# generator={report.generator}",
        f"# version={report.version}",
        f"# master_seed={cfg.master_seed}",
        "# n_values=" + " ".join(str(n) for n in cfg.n_values),
        f"# trials={cfg.trials}",
        f"# mode={cfg.mode}",
    )
    rows = ([rec[c] for c in report.columns] for rec in report.records)
    tail = {
        "config": asdict(cfg),
        "generator": report.generator,
        "version": report.version,
        "summaries": list(report.summaries),
    }
    _write(path, fmt, "report", report.columns, rows, [*report.records, tail], preamble)


def render_summary(report: ExperimentReport) -> str:
    """Fixed-precision human summary block (stdout companion to the files)."""
    lines = [
        f"experiment {report.config.name}: seed={report.config.master_seed} "
        f"trials={report.config.trials} mode={report.config.mode} "
        f"generator={report.generator}"
    ]
    for summary in report.summaries:
        cells = (f"{key}={_cell(value, '{:.6f}'.format)}" for key, value in summary.items())
        lines.append("  " + " ".join(cells))
    return "\n".join(lines) + "\n"


def render_table(table: Table, float_formats: dict[str, str] | None = None) -> str:
    """Deterministic text for a Table.

    Floats print with 6 fixed decimals unless float_formats overrides the
    format per column (the envelope column uses scientific notation).
    """
    fmts = float_formats or {}
    formats = [fmts.get(col, "{:.6f}").format for col in table.columns]
    rows = (" ".join(map(_cell, row, formats)) for row in table.rows)
    return "\n".join([" ".join(table.columns), *rows]) + "\n"


def write_table(table: Table, fmt: str, path) -> None:
    """Write a Table as CSV (full-precision cells) or JSON lines."""
    objects = (dict(zip(table.columns, row)) for row in table.rows)
    _write(path, fmt, "table", table.columns, table.rows, objects)
