"""Command-line front end.

Subcommands: gen, width, lb, exp, oracle, check.  Output on stdout is
deterministic for identical arguments and inputs; diagnostics go to stderr
only.  Integer widths print bare; real-valued widths print with 6 decimals.
WIDTHLAB_SEED serves as the master seed when --seed is not given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import groupby

from ._version import __version__
from .boolspace import bell, galois_number
from .errors import ParseError, WidthlabError
from .gf2 import DEFAULT_PAIR_CAP, rank_distribution_oracle
from .graphs import Graph, emit_edge_list, emit_graph6, parse_edge_list, parse_graph6, _sample_gnp_from
from .rng import SplitMix64
from .experiments import (
    ExperimentConfig,
    bell_asymptotic_check,
    boolw_vs_rw_experiment,
    envelope_curve,
    lemma1_experiment,
    render_summary,
    render_table,
    scaling_experiment,
    write_report,
    write_table,
)
from .widths import (
    BALANCED_CAP,
    CUT_BOOL_FUNCTION,
    CUT_RANK_FUNCTION,
    DEFAULT_EXACT_CAP,
    balanced_cut_lower_bound,
    emit_tree,
    exact_f_width,
    parse_tree,
    tree_width_under,
)

_MEASURES = {"rank": CUT_RANK_FUNCTION, "bool": CUT_BOOL_FUNCTION}


def _format_value(measure: str, value: float) -> str:
    if measure == "rank":
        return str(int(round(value)))
    return f"{value:.6f}"


def _resolve_seed(args, parser: argparse.ArgumentParser) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("WIDTHLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            parser.error(f"WIDTHLAB_SEED={env!r} is not an integer")
    parser.error("a seed is required: pass --seed or set WIDTHLAB_SEED")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _graph_texts(path: str, fmt: str) -> list[tuple[int, str]]:
    """(first line number, text) of each graph in the input, counted from 1.

    A graph6 graph is one non-blank line; an edge-list graph is a block of
    lines, and blocks are separated by runs of blank or whitespace-only lines.
    """
    numbered = list(enumerate(_read_text(path).splitlines(), 1))
    if fmt == "g6":
        return [(i, line) for i, line in numbered if line.strip()]
    chunks = []
    for blank, run in groupby(numbered, key=lambda item: not item[1].strip()):
        if not blank:
            block = list(run)
            chunks.append((block[0][0], "\n".join(line for _, line in block)))
    return chunks


def _parse_graph(lineno: int, text: str, fmt: str) -> Graph:
    try:
        return parse_graph6(text) if fmt == "g6" else parse_edge_list(text)
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}", position=lineno) from exc


def _parse_n_list(spec: str) -> tuple[int, ...]:
    """Parse '6,9,12' or '3..12' (inclusive), or a mix of both."""
    out: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        lo, dots, hi = token.partition("..")
        try:
            values = range(int(lo), int(hi) + 1) if dots else [int(lo)]
        except ValueError:
            raise ValueError(f"bad n list {spec!r}: {token!r} is not n or lo..hi") from None
        if not values:
            raise ValueError(f"bad n list {spec!r}: range {token!r} is empty")
        out.extend(values)
    if not out:
        raise ValueError(f"empty n list {spec!r}")
    return tuple(out)


def _cmd_gen(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    if args.n < 0:
        parser.error("--n must be nonnegative")
    if args.count < 0:
        parser.error("--count must be nonnegative")
    rng = SplitMix64(seed)
    emit = emit_graph6 if args.format == "g6" else emit_edge_list
    text = "\n".join(emit(_sample_gnp_from(rng, args.n)) for _ in range(args.count))
    if text:
        sys.stdout.write(text.rstrip("\n") + "\n")
    return 0


def _width_text(graph: Graph, args) -> str:
    result = exact_f_width(graph, _MEASURES[args.measure], args.cap)
    text = f"{_format_value(args.measure, result.value)}\n"
    if args.witness:
        text += emit_tree(result.witness_tree)
    return text


def _lb_text(graph: Graph, args) -> str:
    value, cut = balanced_cut_lower_bound(graph, _MEASURES[args.measure], args.cap)
    members = " ".join(str(v) for v in cut.members)
    return f"{_format_value(args.measure, value)} {members}\n"


def _cmd_batch(args, parser) -> int:
    """Run `width` or `lb` per input graph; a failed graph prints only to stderr."""
    failed = False
    for idx, (lineno, text) in enumerate(_graph_texts(args.input, args.input_format)):
        try:
            graph = _parse_graph(lineno, text, args.input_format)
            sys.stdout.write(f"{idx} {args.text(graph, args)}")
        except (WidthlabError, ValueError) as exc:
            print(f"{idx} error: {exc}", file=sys.stderr)
            failed = True
    return 2 if failed else 0


def _cmd_check(args, parser) -> int:
    texts = _graph_texts(args.input, args.input_format)
    if len(texts) != 1:
        parser.error(f"check takes exactly one graph, input has {len(texts)}")
    graph = _parse_graph(*texts[0], args.input_format)
    tree = parse_tree(_read_text(args.tree))
    result = tree_width_under(graph, tree, _MEASURES[args.measure])
    sys.stdout.write(f"{_format_value(args.measure, result.value)}\n")
    return 0


_EXPERIMENTS = {
    "lemma1": lemma1_experiment,
    "scaling": scaling_experiment,
    "boolw-rw": boolw_vs_rw_experiment,
}

# table name -> (n list -> Table, per-column float formats for stdout)
_TABLES = {
    "bell": (lambda ns: bell_asymptotic_check(max(ns)), None),
    "envelope": (envelope_curve, {"envelope": "{:.6e}"}),
}


def _cmd_exp(args, parser) -> int:
    n_values = _parse_n_list(args.n_list)
    if args.experiment in _TABLES:
        make, float_formats = _TABLES[args.experiment]
        table = make(n_values)
        if args.out:
            write_table(table, args.format, args.out)
        sys.stdout.write(render_table(table, float_formats))
        return 0

    seed = _resolve_seed(args, parser)
    cfg = ExperimentConfig(
        name=args.experiment,
        n_values=n_values,
        trials=args.trials,
        master_seed=seed,
        mode=args.mode,
        width_cap=args.width_cap,
        work_cap=args.work_cap,
    )
    report = _EXPERIMENTS[args.experiment](cfg, jobs=args.jobs)
    out = args.out or f"{args.experiment}-{seed}.{args.format}"
    write_report(report, args.format, out)
    sys.stdout.write(render_summary(report))
    return 0


def _cmd_oracle(args, parser) -> int:
    if args.oracle == "rankdist":
        dist = rank_distribution_oracle(args.m, args.n)
        total = 1 << (args.m * args.n)
        for r, frac in enumerate(dist):
            count = frac.numerator * (total // frac.denominator)
            sys.stdout.write(f"{r} {count}/{total}\n")
        return 0
    if args.oracle == "bell":
        sys.stdout.write(f"{bell(args.n)}\n")
        return 0
    sys.stdout.write(f"{galois_number(args.r)}\n")
    return 0


# One parser per process, built on first use so that importing the module
# stays cheap.  Each subcommand carries its handler as `run`; width and lb
# also carry their per-graph `text`.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="Exact graph width measures and seeded randomized experiments.",
    )
    parser.add_argument("--version", action="version", version=f"widthlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="sample random graphs (each edge fair-coin)")
    p_gen.add_argument("--n", type=int, required=True, help="vertex count")
    p_gen.add_argument("--seed", type=int, help="master seed (or WIDTHLAB_SEED)")
    p_gen.add_argument("--count", type=int, default=1, help="number of graphs")
    p_gen.add_argument("--format", choices=("g6", "edges"), default="g6")
    p_gen.set_defaults(run=_cmd_gen)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--measure", choices=("rank", "bool"), default="rank")
    inputs.add_argument("--input", required=True, help="path or - for stdin")
    inputs.add_argument("--input-format", choices=("g6", "edges"), default="g6")

    p_width = sub.add_parser("width", parents=[inputs], help="exact width per input graph")
    p_width.add_argument("--witness", action="store_true", help="print the optimal tree")
    p_width.add_argument(
        "--cap", type=int, default=DEFAULT_EXACT_CAP, help="exact engine vertex cap"
    )
    p_width.set_defaults(run=_cmd_batch, text=_width_text)

    p_lb = sub.add_parser("lb", parents=[inputs], help="balanced-cut lower bound per input graph")
    p_lb.add_argument("--cap", type=int, default=BALANCED_CAP, help="balanced enumeration cap")
    p_lb.set_defaults(run=_cmd_batch, text=_lb_text)

    p_check = sub.add_parser(
        "check", parents=[inputs], help="re-evaluate a serialized tree on a graph"
    )
    p_check.add_argument("--tree", required=True, help="path to a serialized tree")
    p_check.set_defaults(run=_cmd_check)

    p_exp = sub.add_parser("exp", help="run a seeded experiment, write a report")
    p_exp.add_argument("experiment", choices=(*_EXPERIMENTS, *_TABLES))
    p_exp.add_argument("--seed", type=int, help="master seed (or WIDTHLAB_SEED)")
    p_exp.add_argument("--n-list", required=True, help="e.g. 6,9,12 or 3..12")
    p_exp.add_argument("--trials", type=int, default=10)
    p_exp.add_argument("--out", help="report path (default <experiment>-<seed>.<ext>)")
    p_exp.add_argument("--format", choices=("csv", "jsonl"), default="jsonl")
    p_exp.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p_exp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_exp.add_argument("--width-cap", type=int, default=DEFAULT_EXACT_CAP)
    p_exp.add_argument(
        "--work-cap",
        type=int,
        default=DEFAULT_PAIR_CAP,
        help="lemma1 runs exhaustively while C(n,m)*2^m + C(n,k) is at most this",
    )
    p_exp.set_defaults(run=_cmd_exp)

    p_oracle = sub.add_parser("oracle", help="exact counting oracles")
    p_oracle.set_defaults(run=_cmd_oracle)
    oracle_sub = p_oracle.add_subparsers(dest="oracle", required=True)
    p_rd = oracle_sub.add_parser("rankdist", help="exact rank distribution of m x n")
    p_rd.add_argument("--m", type=int, required=True)
    p_rd.add_argument("--n", type=int, required=True)
    p_bell = oracle_sub.add_parser("bell", help="Bell number")
    p_bell.add_argument("--n", type=int, required=True)
    p_gal = oracle_sub.add_parser("galois", help="Galois number (subspace count)")
    p_gal.add_argument("--r", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except BrokenPipeError:
        return 1
    except (WidthlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
