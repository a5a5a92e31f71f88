"""Per-item checks of widthlab's outputs against the independent oracle.

`check(workload, inp, out, exact)` raises CheckFailed when an output is
wrong.  The cheap properties are checked on every item; with exact=True the
oracle also recomputes the item's widths or minimum rank from scratch, which
the benchmark does for the warm-up item and the first timed item of a run.
"""

from __future__ import annotations

import math

import oracle
from workloads import CLI_N, LEMMA1_N, SCALING_N


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_scaling(inp: dict, rec: dict, exact: bool) -> None:
    n = SCALING_N
    seed = oracle.fold_seed(inp["master_seed"], n, 0)
    _expect((rec["n"], rec["trial"], rec["seed"]) == (n, 0, seed), f"record header {rec}")
    adj = oracle.gnp_half(n, seed)
    rw, boolw, lb = rec["rw"], rec["boolw"], rec["lb"]
    want_lb = oracle.balanced_min(adj, oracle.rank_of_cut)
    _expect(lb == want_lb, f"lb {lb}, oracle balanced-cut minimum {want_lb}")
    _expect(lb <= rw, f"lb {lb} above rw {rw}")
    _expect(
        math.log2(rw + 1) <= boolw <= math.log2(oracle.galois(rw)),
        f"boolw {boolw} outside [log2(rw+1), log2 G(rw)] for rw {rw}",
    )
    _expect(rec["rw_over_n"] == rw / n, f"rw_over_n {rec['rw_over_n']}")
    if exact:
        ranks = oracle.cut_table(adj, oracle.rank_of_cut)
        _expect(oracle.is_width(ranks, n, rw), f"rw {rw} is not the oracle's rankwidth")
        counts = oracle.cut_table(adj, oracle.unions_of_cut)
        match = [c for c in set(counts) if math.log2(c) == boolw]
        _expect(
            len(match) == 1 and oracle.is_width(counts, n, match[0]),
            f"boolw {boolw} is not the oracle's booleanwidth",
        )


def check_lemma1(inp: dict, rec: dict, exact: bool) -> None:
    n = LEMMA1_N
    m, k = n // 3, -(-2 * n // 3)
    seed = oracle.fold_seed(inp["master_seed"], n, 0)
    _expect((rec["n"], rec["trial"], rec["seed"]) == (n, 0, seed), f"record header {rec}")
    _expect(rec["certified"] is True, "minimum not certified")
    rows, cols, mu = rec["rowset"], rec["colset"], rec["mu"]
    for name, idx, size in (("rowset", rows, m), ("colset", cols, k)):
        _expect(
            len(idx) == size and idx == sorted(set(idx)) and all(0 <= x < n for x in idx),
            f"{name} {idx} is not {size} distinct sorted indices below {n}",
        )
    matrix = oracle.square_matrix(n, seed)
    at_witness = oracle.submatrix_rank(matrix, rows, cols)
    _expect(at_witness == mu, f"mu {mu}, oracle rank at the witness {at_witness}")
    if exact:
        want = oracle.min_submatrix_rank(matrix, n, m, k)
        _expect(mu == want, f"mu {mu}, oracle minimum {want}")


def _format(measure: str, value) -> str:
    return str(value) if measure == "rank" else f"{math.log2(value):.6f}"


_CUT = {"rank": oracle.rank_of_cut, "bool": oracle.unions_of_cut}


def _check_width_output(adj: list, run: dict, measure: str, exact: bool) -> None:
    _expect(run["code"] == 0, f"width --measure {measure} exited {run['code']}")
    lines = run["stdout"].splitlines()
    per_graph = CLI_N  # value line, "tree n" header, n - 2 internal nodes
    _expect(len(lines) == per_graph * len(adj), f"width {measure}: {len(lines)} lines")
    f = _CUT[measure]
    for idx, a in enumerate(adj):
        block = lines[idx * per_graph : (idx + 1) * per_graph]
        head = block[0].split()
        _expect(len(head) == 2 and head[0] == str(idx), f"width {measure}: line {block[0]!r}")
        try:
            edges = oracle.read_tree("\n".join(block[1:]), CLI_N)
        except ValueError as exc:
            raise CheckFailed(f"width {measure} graph {idx}: bad witness tree: {exc}") from None
        value = oracle.tree_value(a, edges, f)
        _expect(
            head[1] == _format(measure, value),
            f"width {measure} graph {idx}: printed {head[1]}, witness re-evaluates to "
            f"{_format(measure, value)}",
        )
        if exact:
            best = oracle.width(oracle.cut_table(a, f), CLI_N)
            _expect(
                head[1] == _format(measure, best),
                f"width {measure} graph {idx}: printed {head[1]}, oracle {_format(measure, best)}",
            )


def _check_lb_output(adj: list, run: dict) -> None:
    _expect(run["code"] == 0, f"lb exited {run['code']}")
    lines = run["stdout"].splitlines()
    _expect(len(lines) == len(adj), f"lb: {len(lines)} lines for {len(adj)} graphs")
    lo, hi = -(-CLI_N // 3), CLI_N // 2
    for idx, (a, line) in enumerate(zip(adj, lines)):
        parts = line.split()
        want = oracle.balanced_min(a, oracle.rank_of_cut)
        _expect(parts[:2] == [str(idx), str(want)], f"lb line {line!r}, oracle minimum {want}")
        side = sum(1 << int(v) for v in parts[2:])
        _expect(
            lo <= len(parts) - 2 <= hi and oracle.rank_of_cut(a, side) == want,
            f"lb graph {idx}: side {parts[2:]} is not a balanced cut of rank {want}",
        )


def check_cli(inp: dict, runs: list, exact: bool) -> None:
    _expect(len(runs) == 3, f"{len(runs)} command outputs")
    _check_width_output(inp["adj"], runs[0], "rank", exact)
    _check_width_output(inp["adj"], runs[1], "bool", exact)
    _check_lb_output(inp["adj"], runs[2])


CHECKS = {
    "scaling-n14": check_scaling,
    "lemma1-n13": check_lemma1,
    "cli-width-n10": check_cli,
}


def check(workload: str, inp: dict, out, exact: bool = False) -> None:
    CHECKS[workload](inp, out, exact)
