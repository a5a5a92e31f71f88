"""Outside-in tracing: spans around calls into widthlab's public functions.

`Tracer.install` replaces functions at the names their callers look them up
by (for example `widthlab.cli.parse_graph6` and, inside the engine,
`widthlab.widths.tree_width_under`) with wrappers that record a span: name,
start, end, parent span and item id.  Engine calls that take a cut function
are handed a counting copy with the same name and values, so every
evaluation is counted and timed and charged to the innermost open span.
Spans stay in memory until `write`.  No code under src/ changes.

A target that no longer exists is skipped, and a span that never fires
leaves its metrics at 0, so moving a call does not break the trace.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import defaultdict

# (module, attribute, span name, position of the cut-function argument)
TARGETS = (
    ("experiments", "scaling_experiment", "experiments.run", None),
    ("experiments", "lemma1_experiment", "experiments.run", None),
    ("experiments", "write_report", "experiments.write_report", None),
    ("experiments", "exact_f_width", "widths.exact_f_width", 1),
    ("experiments", "balanced_cut_lower_bound", "widths.balanced_cut_lower_bound", 1),
    ("experiments", "min_submatrix_rank_exhaustive", "gf2.min_submatrix_rank_exhaustive", None),
    ("cli", "main", "cli.main", None),
    ("cli", "parse_graph6", "graphs.parse_graph6", None),
    ("cli", "emit_tree", "widths.emit_tree", None),
    ("cli", "exact_f_width", "widths.exact_f_width", 1),
    ("cli", "balanced_cut_lower_bound", "widths.balanced_cut_lower_bound", 1),
    ("widths", "tree_width_under", "widths.tree_width_under", 2),
)

# Every per-layer metric, in the order printed, with its unit.  Values are
# per timed item: totals over the traced items divided by their number.
LAYER_METRICS = (
    ("widths.exact_s", "s"),
    ("widths.exact_self_s", "s"),
    ("widths.f_evals", "count"),
    ("widths.verify_s", "s"),
    ("widths.lb_s", "s"),
    ("widths.lb_evals", "count"),
    ("graphs.cut_rank_evals", "count"),
    ("graphs.cut_rank_s", "s"),
    ("graphs.cut_rank_us", "us/eval"),
    ("boolspace.cut_bool_evals", "count"),
    ("boolspace.cut_bool_s", "s"),
    ("boolspace.cut_bool_us", "us/eval"),
    ("boolspace.union_members", "count"),
    ("gf2.minimizer_calls", "count"),
    ("gf2.minimizer_s", "s"),
    ("gf2.minimizer_us_per_submatrix", "us"),
    ("experiments.run_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.write_report_s", "s"),
    ("cli.invocation_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.emit_tree_s", "s"),
    ("cli.self_s", "s"),
)

# cut-function name -> metric prefix
_CUT_LAYER = {"rank": "graphs.cut_rank", "bool": "boolspace.cut_bool"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "evals", "submatrices")

    def __init__(self, name: str, parent: int | None, item: int):
        self.name = name
        self.parent = parent
        self.item = item
        self.start = self.end = 0.0
        self.evals: dict[str, list] = {}  # cut name -> [count, seconds, union members]
        self.submatrices = 0


class Tracer:
    def __init__(self, wl):
        self.wl = wl
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item = 0
        self._saved: list[tuple[object, str, object]] = []
        self._copies: dict[int, object] = {}  # id(cut function) -> counting copy
        self._copy_ids: set[int] = set()

    def install(self) -> None:
        for module_name, attr, span_name, f_pos in TARGETS:
            module = getattr(self.wl, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name, f_pos))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span_name: str, f_pos):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if f_pos is not None:
                if "f" in kwargs:
                    kwargs["f"] = self._counted(kwargs["f"])
                elif len(args) > f_pos:
                    args = (*args[:f_pos], self._counted(args[f_pos]), *args[f_pos + 1 :])
            span = Span(span_name, stack[-1] if stack else None, self.item)
            if span_name == "gf2.min_submatrix_rank_exhaustive":
                matrix, m, k = args[:3]
                span.submatrices = math.comb(matrix.rows, m) * math.comb(matrix.cols, k)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _counted(self, f):
        """A copy of cut function f whose evaluations are counted and timed."""
        if id(f) in self._copy_ids:
            return f
        if id(f) in self._copies:
            return self._copies[id(f)]
        spans, stack = self.spans, self.stack
        name = f.name

        def counting(evaluate):
            def ev(graph, cut, *rest):
                t = time.perf_counter()
                value = evaluate(graph, cut, *rest)
                elapsed = time.perf_counter() - t
                if not stack:  # an evaluation outside every wrapped call
                    return value
                rec = spans[stack[-1]].evals.setdefault(name, [0, 0.0, 0])
                rec[0] += 1
                rec[1] += elapsed
                if name == "bool":
                    rec[2] += round(2.0**value)
                return value

            return ev

        fields = {"evaluate": counting(f.evaluate)}
        if f.bits_evaluate is not None:
            fields["bits_evaluate"] = counting(f.bits_evaluate)
        copy = dataclasses.replace(f, **fields)
        self._copies[id(f)] = copy
        self._copy_ids.add(id(copy))
        return copy

    def layer_metrics(self, items: int) -> dict:
        """Per-item layer numbers over the spans of items >= 1."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            child_time[i] += sum(rec[1] for rec in s.evals.values())
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start

        def within(i: int, name: str) -> bool:
            while i is not None:
                if spans[i].name == name:
                    return True
                i = spans[i].parent
            return False

        tot: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            if s.item < 1:
                continue
            dur = s.end - s.start
            own = dur - child_time[i]
            for cut_name, (count, secs, members) in s.evals.items():
                layer = _CUT_LAYER.get(cut_name)
                if layer:
                    tot[layer + "_evals"] += count
                    tot[layer + "_s"] += secs
                    if cut_name == "bool":
                        tot["boolspace.union_members"] += members
                if within(i, "widths.exact_f_width"):
                    tot["widths.f_evals"] += count
                if within(i, "widths.balanced_cut_lower_bound"):
                    tot["widths.lb_evals"] += count
            if s.name == "widths.exact_f_width":
                tot["widths.exact_s"] += dur
                tot["widths.exact_self_s"] += own
            elif s.name == "widths.tree_width_under" and within(i, "widths.exact_f_width"):
                tot["widths.verify_s"] += dur
            elif s.name == "widths.balanced_cut_lower_bound":
                tot["widths.lb_s"] += dur
            elif s.name == "gf2.min_submatrix_rank_exhaustive":
                tot["gf2.minimizer_calls"] += 1
                tot["gf2.minimizer_s"] += dur
                tot["gf2.submatrices"] += s.submatrices
            elif s.name == "experiments.run":
                tot["experiments.run_s"] += dur
                tot["experiments.self_s"] += own
            elif s.name == "experiments.write_report":
                tot["experiments.write_report_s"] += dur
            elif s.name == "cli.main":
                tot["cli.invocation_s"] += dur
                tot["cli.self_s"] += own
            elif s.name == "graphs.parse_graph6":
                tot["cli.parse_s"] += dur
            elif s.name == "widths.emit_tree":
                tot["cli.emit_tree_s"] += dur

        def per_eval(secs: str, count: str) -> float:
            return 1e6 * tot[secs] / tot[count] if tot[count] else 0.0

        tot["graphs.cut_rank_us"] = per_eval("graphs.cut_rank_s", "graphs.cut_rank_evals")
        tot["boolspace.cut_bool_us"] = per_eval("boolspace.cut_bool_s", "boolspace.cut_bool_evals")
        tot["gf2.minimizer_us_per_submatrix"] = per_eval("gf2.minimizer_s", "gf2.submatrices")
        ratios = {"graphs.cut_rank_us", "boolspace.cut_bool_us", "gf2.minimizer_us_per_submatrix"}
        return {
            name: {"value": tot[name] if name in ratios else tot[name] / items, "unit": unit}
            for name, unit in LAYER_METRICS
        }

    def write(self, path: str) -> None:
        """Spans as [name, start, end, parent, item] rows, one JSON document."""
        rows = [[s.name, s.start, s.end, s.parent, s.item] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
