"""Stage-by-stage mirror of the CLI commands, with one span per stage.

``run`` parses the same argv as ``clustereval.cli.main`` and repeats what
the matching ``cmd_*`` does, calling the same package functions in the same
order, but wraps each call in a span named ``<layer>.<stage>``. The layers
are the package's modules: ``cli`` (file reads, rendering and the glue of
the root span), ``model``, ``mapping``, ``aggregate`` and ``metrics``. The
package itself is not changed. The benchmark asserts that ``run`` renders
byte-identical output to ``cli.main``, which shows the mirror did the same
work.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from clustereval import cli
from clustereval.aggregate import aggregate
from clustereval.mapping import build_f_table, initial_potentials, resolve_conflicts
from clustereval.metrics import co_classified_pairs, pair_baseline
from clustereval.model import (
    Clustering,
    ExpertHierarchy,
    flatten,
    parse_clustering,
    parse_hierarchy,
)

ROOT_SPAN = "cli.main"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: int


class Tracer:
    """Records spans in memory; ``run`` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def summary(self, run: int) -> dict[str, float]:
        """Per-run totals: ``<span>_s`` summed over spans of that name,
        ``self.<layer>_s`` self time per layer, and the root span's
        ``trace.total_s`` and ``trace.coverage`` (the share of it that
        its child spans cover)."""
        spans = {i: s for i, s in enumerate(self.spans) if s is not None and s.run == run}
        child_time = dict.fromkeys(spans, 0.0)
        for s in spans.values():
            if s.parent in child_time:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for i, s in spans.items():
            duration = s.end - s.start
            layer = s.name.split(".")[0]
            out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + duration
            out[f"self.{layer}_s"] = out.get(f"self.{layer}_s", 0.0) + duration - child_time[i]
            if s.name == ROOT_SPAN:
                out["trace.total_s"] = duration
                out["trace.coverage"] = child_time[i] / duration
        return out


@dataclass
class Record:
    """The objects one mirrored run produced, kept for counting afterwards."""

    system: Clustering | None = None
    experts: list = field(default_factory=list)  # ExpertHierarchy, or Clustering for baseline
    columns: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    mappings: list = field(default_factory=list)  # (FTable, MappingResult)
    reports: list = field(default_factory=list)
    pairs: int = 0


def _read_inputs(args, tr: Tracer, rec: Record, expert_parser) -> list:
    with tr.span("cli.read"):
        text = cli._read(args.system)
    with tr.span("model.parse_system"):
        rec.system = parse_clustering(text)
    experts = []
    for path in args.expert if isinstance(args.expert, list) else [args.expert]:
        with tr.span("cli.read"):
            text = cli._read(path)
        with tr.span("model.parse_expert"):
            experts.append((path, expert_parser(text)))
    rec.experts = [expert for _, expert in experts]
    return experts


def _pipeline(args, tr: Tracer, rec: Record, hierarchy):
    with tr.span("model.flatten"):
        columns = flatten(hierarchy, args.flatten)
    with tr.span("mapping.ftable"):
        table = build_f_table(rec.system, columns)
    rec.columns.append(columns)
    rec.tables.append(table)
    return columns, table


def _resolve_and_aggregate(args, tr: Tracer, rec: Record, columns, table, threshold):
    with tr.span("mapping.resolve"):
        mapping = resolve_conflicts(table, threshold)
    with tr.span("aggregate.aggregate"):
        report = aggregate(rec.system, columns, mapping, args.unmapped_cols)
    rec.mappings.append((table, mapping))
    rec.reports.append(report)
    return mapping, report


def _evaluate(args, tr: Tracer, rec: Record) -> str:
    experts = _read_inputs(args, tr, rec, parse_hierarchy)
    blocks, docs, summary = [], [], []
    for expert_path, hierarchy in experts:
        columns, table = _pipeline(args, tr, rec, hierarchy)
        mapping, report = _resolve_and_aggregate(args, tr, rec, columns, table, args.threshold)
        summary.append((expert_path, report))
        with tr.span("cli.render"):
            if args.format == "json":
                docs.append(cli.evaluation_to_dict(expert_path, report, table, mapping, args.trace))
            else:
                block = cli.render_evaluation_text(args.system, expert_path, report)
                if args.trace:
                    block += cli.render_trace_text(table, mapping)
                blocks.append(block)
    with tr.span("cli.render"):
        if args.format == "json":
            return json.dumps({"system": args.system, "experts": docs}, indent=2) + "\n"
        out = "\n".join(blocks)
        if len(summary) > 1:
            out += "\n" + cli.render_summary_text(summary)
        return out


def _table(args, tr: Tracer, rec: Record) -> str:
    if args.format != "text":
        raise ValueError("the mirror covers table's text format only")
    experts = _read_inputs(args, tr, rec, parse_hierarchy)
    blocks = []
    for expert_path, hierarchy in experts:
        _columns, table = _pipeline(args, tr, rec, hierarchy)
        with tr.span("mapping.resolve"):
            mapping = resolve_conflicts(table, args.threshold)
        rec.mappings.append((table, mapping))
        with tr.span("cli.render"):
            block = cli.render_table_text(args.system, expert_path, table, mapping)
            if args.trace:
                block += cli.render_trace_text(table, mapping)
            blocks.append(block)
    with tr.span("cli.render"):
        return "\n".join(blocks)


def _sweep(args, tr: Tracer, rec: Record) -> str:
    experts = _read_inputs(args, tr, rec, parse_hierarchy)
    lines = [cli.SWEEP_HEADER]
    for expert_path, hierarchy in experts:
        columns, table = _pipeline(args, tr, rec, hierarchy)
        for threshold in args.thresholds:
            mapping, report = _resolve_and_aggregate(args, tr, rec, columns, table, threshold)
            s = report.overall_scores
            with tr.span("cli.render"):
                lines.append(
                    f"{expert_path},{threshold!r},{len(mapping.pairs)}"
                    f",{s.precision!r},{s.recall!r},{s.f_measure!r}"
                )
    with tr.span("cli.render"):
        return "\n".join(lines) + "\n"


def _baseline(args, tr: Tracer, rec: Record) -> str:
    ((_, expert),) = _read_inputs(args, tr, rec, parse_clustering)
    system = rec.system
    with tr.span("metrics.pair_baseline"):
        table, s = pair_baseline(system, expert)
    rec.pairs = 2 * table.yy + table.yn + table.ny
    with tr.span("metrics.pair_count"):
        system_pairs = len(co_classified_pairs(system))
        expert_pairs = len(co_classified_pairs(expert))
    with tr.span("cli.render"):
        lines = [f"pair baseline: {args.system} vs {args.expert}"]
        lines.append(f"system pairs={system_pairs} expert pairs={expert_pairs}")
        lines.append(f"contingency: yy={table.yy} yn={table.yn} ny={table.ny}")
        lines.append(
            f"precision={cli._pct(s.precision)} recall={cli._pct(s.recall)}"
            f" f-measure={cli._f2(s.f_measure)}"
        )
    with tr.span("model.partition_check"):
        overlapping = [
            path
            for path, clustering in ((args.system, system), (args.expert, expert))
            if not clustering.is_partition()
        ]
    with tr.span("cli.render"):
        for path in overlapping:
            lines.append(
                f"warning: {path} is not a partition; overlapping pairs were deduplicated"
            )
        return "\n".join(lines) + "\n"


_COMMANDS = {"evaluate": _evaluate, "table": _table, "sweep": _sweep, "baseline": _baseline}


def run(argv: list[str], tr: Tracer) -> tuple[str, Record]:
    """Run one CLI command stage by stage; return its stdout and objects."""
    rec = Record()
    with tr.span(ROOT_SPAN):
        args = cli.build_parser().parse_args(argv)
        out = _COMMANDS[args.command](args, tr, rec)
    return out, rec


def _tokens(doc: Clustering | ExpertHierarchy) -> int:
    """Member tokens parsed from one document."""
    if isinstance(doc, Clustering):
        return doc.total_incidences()
    total, stack = 0, list(doc.roots)
    while stack:
        node = stack.pop()
        total += len(node.own_members)
        stack.extend(node.children)
    return total


def counts(rec: Record, out: str) -> dict[str, float]:
    """Work done per layer, counted from the run's objects after the fact."""
    cells = sum(t.n_rows * t.n_cols for t in rec.tables)
    nonzero = sum(1 for t in rec.tables for row in t.cells for f in row if f > 0)
    conflicts = 0
    for table, mapping in rec.mappings:
        claims = Counter(initial_potentials(table, mapping.threshold))
        conflicts += sum(1 for col, n in claims.items() if col is not None and n > 1)
    return {
        "model.tokens": sum(_tokens(x) for x in [rec.system, *rec.experts]),
        "model.columns": sum(len(c) for c in rec.columns),
        "model.column_incidences": sum(len(col.members) for c in rec.columns for col in c),
        "mapping.ftable_cells": cells,
        "mapping.ftable_nonzero": nonzero,
        "mapping.ftable_nonzero_ratio": nonzero / cells if cells else 0.0,
        "mapping.resolve_calls": len(rec.mappings),
        "mapping.initial_conflicts": conflicts,
        "mapping.remaps": sum(len(m.trace) for _, m in rec.mappings),
        "mapping.mapped_pairs": sum(len(m.pairs) for _, m in rec.mappings),
        "aggregate.calls": len(rec.reports),
        "metrics.pairs": rec.pairs,
        "cli.output_bytes": len(out.encode("utf-8")),
    }
