"""Command-line front end: evaluate, table, sweep, and baseline commands.

Each ``cmd_*`` returns its whole report as one string, and ``main`` alone
writes it, once, to stdout as UTF-8 on every locale, so identical inputs and
flags always produce byte-identical output. Text reports round
precision/recall to two-decimal percentages and F to two decimals; JSON
reports carry full precision. A JSON report is written directly, for its
fixed shape, with exactly the bytes ``json.dumps(doc, indent=2)`` gives
its document: strings with ASCII escapes, numbers as their ``repr``.

A command runs with the cyclic garbage collector paused, and ``main``
restores its previous state on the way out. The pause is safe because the
pipeline builds no reference cycles: its parsed trees, columns and tables
are freed by reference counting alone, so the collector would only rescan
them. The argument parser is cyclic; ``main`` builds one, and the collector
frees it once it is back on. It gives options only to the command that
``argv[0]`` names, if any: the top-level parser takes no value before it.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .aggregate import ALL_COLUMNS, UNMAPPED_POLICIES, EvaluationReport, _overall, aggregate
from .mapping import DEFAULT_THRESHOLD, FTable, MappingResult, RemapEvent, _decimal
from .mapping import build_f_table, resolve_conflicts
from .metrics import ContingencyTable, Scores, pair_baseline, scores
from .model import (
    FLATTEN_MODES,
    INHERIT,
    Clustering,
    ColumnList,
    DocumentError,
    flatten,
    parse_clustering,
    parse_hierarchy,
)

SWEEP_HEADER = "expert,threshold,mapped_pairs,precision,recall,f_measure"

_T = TypeVar("_T")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load(path: str, parse: Callable[[str], _T]) -> _T:
    """Read and parse one input file; an input error is prefixed with its path."""
    try:
        return parse(_read(path))
    except (DocumentError, UnicodeDecodeError) as exc:
        raise DocumentError(path, str(exc)) from exc


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def _f2(x: float) -> str:
    return f"{x:.2f}"


def _cell(x: float) -> str:
    return f"{x:.4f}"


def _threshold_text(t: float) -> str:
    return repr(t).removesuffix(".0")


def _path_str(path: tuple[str, ...]) -> str:
    return "/".join(path)


def _counts_text(t: ContingencyTable) -> str:
    return f"yy={t.yy} yn={t.yn} ny={t.ny}"


def _scores_text(s: Scores) -> str:
    return f"precision={_pct(s.precision)} recall={_pct(s.recall)} f-measure={_f2(s.f_measure)}"


def render_evaluation_text(system_path: str, expert_path: str, report: EvaluationReport) -> str:
    lines = [f"evaluation: {system_path} vs {expert_path}"]
    lines.append(
        f"config: threshold={_threshold_text(report.threshold)} flatten={report.flatten_mode}"
        f" unmapped-cols={report.unmapped_policy}"
    )
    lines.append(f"mapped pairs ({len(report.per_pair)}):")
    for pair in report.per_pair:
        s = pair.scores
        lines.append(
            f"  {pair.system_label} -> {_path_str(pair.expert_path)}  {_counts_text(pair.table)}"
            f"  P={_pct(s.precision)} R={_pct(s.recall)} F={_f2(s.f_measure)}"
        )
    if report.unmapped_system:
        listed = ", ".join(f"{label}({size})" for label, size in report.unmapped_system)
        lines.append(f"unmapped system classes: {listed}")
    if report.unmapped_expert:
        listed = ", ".join(f"{_path_str(path)}({size})" for path, size in report.unmapped_expert)
        lines.append(f"unmapped expert columns: {listed}")
    lines.append(f"overall: {_counts_text(report.overall)}")
    lines.append(_scores_text(report.overall_scores))
    return "\n".join(lines) + "\n"


def render_summary_text(entries: list[tuple[str, EvaluationReport]]) -> str:
    width = max(len("expert"), *(len(path) for path, _ in entries))
    lines = ["summary:"]
    lines.append(f"{'expert':<{width}}  {'precision':>9}  {'recall':>9}  {'f-measure':>9}")
    for path, report in entries:
        s = report.overall_scores
        lines.append(
            f"{path:<{width}}  {_pct(s.precision):>9}  {_pct(s.recall):>9}"
            f"  {_f2(s.f_measure):>9}"
        )
    return "\n".join(lines) + "\n"


def render_trace_text(table: FTable, mapping: MappingResult) -> str:
    lines = ["trace:"]
    if not mapping.trace:
        lines.append("  (no re-maps)")
    for event in mapping.trace:
        source = _path_str(table.col_paths[event.from_col])
        dest = "unmapped" if event.to_col is None else _path_str(table.col_paths[event.to_col])
        lines.append(
            f"  {table.row_labels[event.row]}: {source} -> {dest}  loss={event.loss:.4f}"
        )
    return "\n".join(lines) + "\n"


def render_table_text(
    system_path: str, expert_path: str, table: FTable, mapping: MappingResult
) -> str:
    headers = [_path_str(p) for p in table.col_paths]
    row_width = max(len(label) for label in table.row_labels)
    widths = [max(len(h), 6) for h in headers]
    lines = [
        f"f-table: {system_path} vs {expert_path} ({table.n_rows} rows x {table.n_cols} cols,"
        f" threshold={_threshold_text(mapping.threshold)})"
    ]
    lines.append(" " * row_width + "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    zeros = [_cell(0.0).rjust(w) for w in widths]  # each column's zero cell, padded once
    for label, ranked in zip(table.row_labels, table.rows):
        cells = zeros.copy()
        for c, f, _, _ in ranked:
            cells[c] = _cell(f).rjust(widths[c])
        lines.append(f"{label:<{row_width}}  {'  '.join(cells)}")
    remapped = {event.row for event in mapping.trace}
    lines.append("mapping:")
    if not mapping.pairs:
        lines.append("  (none)")
    for row, col, f, _ in mapping.pairs:
        marker = "  (re-mapped)" if row in remapped else ""
        lines.append(
            f"  {table.row_labels[row]} -> {_path_str(table.col_paths[col])}  F={_cell(f)}{marker}"
        )
    if mapping.unmapped_rows:
        listed = ", ".join(table.row_labels[r] for r in mapping.unmapped_rows)
        lines.append(f"unmapped rows: {listed}")
    if mapping.unmapped_cols:
        listed = ", ".join(_path_str(table.col_paths[c]) for c in mapping.unmapped_cols)
        lines.append(f"unmapped cols: {listed}")
    return "\n".join(lines) + "\n"


def evaluation_to_dict(
    expert_path: str,
    report: EvaluationReport,
    table: FTable,
    mapping: MappingResult,
    include_trace: bool,
) -> dict:
    """The ``evaluate`` document of one expert, read back from the bytes
    ``_evaluation_json`` writes. No command calls it; only the benchmark's
    traced mirror does."""
    return json.loads(_evaluation_json(expert_path, report, table, mapping, include_trace))


# The JSON writer: the bytes json.dumps(doc, indent=2) writes for each
# command's document, written directly for its fixed shape. Each function
# returns a value already encoded and laid out for the depth its caller
# nests it at: ``pad`` is the indent of the value's own items, and its
# closing bracket sits two spaces to the left. Strings go through the C
# escaper json.dumps itself uses, and numbers, all finite, are their repr.


def _json_list(items: Iterable[str], pad: str) -> str:
    """A JSON array of encoded items, one a line after ``pad``; ``[]`` when
    there is none. No encoded value is empty, so an empty join means no
    item. Items from a generator are freed once joined, before the copy."""
    body = (",\n" + pad).join(items)
    return f"[\n{pad}{body}\n{pad[2:]}]" if body else "[]"


def _counts_json(t: ContingencyTable, s: Scores, pad: str) -> str:
    """The members yy, yn, ny, precision, recall and f_measure, each after
    ``pad`` but the first."""
    return (
        f'"yy": {t.yy!r},\n{pad}"yn": {t.yn!r},\n{pad}"ny": {t.ny!r},\n{pad}"precision": '
        f'{s.precision!r},\n{pad}"recall": {s.recall!r},\n{pad}"f_measure": {s.f_measure!r}'
    )


def _trace_json(rows: Sequence[str], cols: Sequence[str], trace: Sequence[RemapEvent]) -> str:
    """The re-map events, from the encoded row labels and column paths."""
    p8, p10 = " " * 8, " " * 10
    return _json_list(
        (
            f'{{\n{p10}"system_class": {rows[e.row]},\n{p10}"from_column": {cols[e.from_col]},'
            f'\n{p10}"to_column": {"null" if e.to_col is None else cols[e.to_col]},'
            f'\n{p10}"loss": {e.loss!r}\n{p8}}}'
            for e in trace
        ),
        p8,
    )


def _encoded(table: FTable) -> tuple[list[str], list[str]]:
    """The table's row labels and column paths, each encoded once."""
    return list(map(_quote, table.row_labels)), [_quote(_path_str(p)) for p in table.col_paths]


def _evaluation_json(
    expert_path: str,
    report: EvaluationReport,
    table: FTable,
    mapping: MappingResult,
    include_trace: bool,
) -> str:
    """One expert's ``evaluate`` document, written as an item of the report's experts."""
    p4, p6, p8, p10 = " " * 4, " " * 6, " " * 8, " " * 10
    pairs = (
        f'{{\n{p10}"system_class": {_quote(pair.system_label)},\n{p10}"expert_column": '
        f"{_quote(_path_str(pair.expert_path))},\n{p10}{_counts_json(pair.table, pair.scores, p10)}"
        f"\n{p8}}}"
        for pair in report.per_pair
    )
    unmapped_system = (
        f'{{\n{p10}"label": {_quote(label)},\n{p10}"size": {size!r}\n{p8}}}'
        for label, size in report.unmapped_system
    )
    unmapped_expert = (
        f'{{\n{p10}"column": {_quote(_path_str(path))},\n{p10}"size": {size!r}\n{p8}}}'
        for path, size in report.unmapped_expert
    )
    trace = ""
    if include_trace:
        trace = f',\n{p6}"trace": {_trace_json(*_encoded(table), mapping.trace)}'
    return (
        f'{{\n{p6}"expert": {_quote(expert_path)},\n{p6}"config": {{\n'
        f'{p8}"threshold": {report.threshold!r},\n'
        f'{p8}"flatten_mode": {_quote(report.flatten_mode)},\n'
        f'{p8}"unmapped_columns_policy": {_quote(report.unmapped_policy)}\n{p6}}},\n'
        f'{p6}"overall": {{\n{p8}{_counts_json(report.overall, report.overall_scores, p8)}'
        f'\n{p6}}},\n{p6}"pairs": {_json_list(pairs, p8)},\n'
        f'{p6}"unmapped_system": {_json_list(unmapped_system, p8)},\n'
        f'{p6}"unmapped_expert": {_json_list(unmapped_expert, p8)}{trace}\n{p4}}}'
    )


def _cells_json(table: FTable, pad: str) -> str:
    """The dense table as a JSON array, ``pad`` the indent of its rows, in
    one join over pre-padded cell lines: one zero row, copied for each row,
    with only that row's nonzero cells written over. A parsed document holds
    a class, so the table has a row and a column and no array here is empty."""
    first, rest = f"[\n{pad}  ", f",\n{pad}  "  # the line of a row's first cell opens the row
    zeros = [first + "0.0", *[rest + "0.0"] * (table.n_cols - 1)]
    lines = ["[\n" + pad]
    for ranked in table.rows:
        row = zeros.copy()
        for c, f, _, _ in ranked:
            row[c] = f"{rest if c else first}{f!r}"
        lines += row
        lines.append(f"\n{pad}],\n{pad}")
    lines[-1] = f"\n{pad}]\n{pad[2:]}]"
    return "".join(lines)


def _table_json(
    expert_path: str, table: FTable, mapping: MappingResult, include_trace: bool
) -> str:
    """The F-table, zeros included, and its mapping, written as an item of
    the report's experts: the members expert, threshold, rows, columns,
    cells, mapping and, with ``include_trace``, trace."""
    p4, p6, p8, p10, p12 = " " * 4, " " * 6, " " * 8, " " * 10, " " * 12
    rows, cols = _encoded(table)
    pairs = (
        f'{{\n{p12}"system_class": {rows[r]},\n{p12}"expert_column": {cols[c]},\n'
        f'{p12}"f_measure": {f!r}\n{p10}}}'
        for r, c, f, _ in mapping.pairs
    )
    trace = f',\n{p6}"trace": {_trace_json(rows, cols, mapping.trace)}' if include_trace else ""
    return (
        f'{{\n{p6}"expert": {_quote(expert_path)},\n{p6}"threshold": {mapping.threshold!r},\n'
        f'{p6}"rows": {_json_list(rows, p8)},\n{p6}"columns": {_json_list(cols, p8)},\n'
        f'{p6}"cells": {_cells_json(table, p8)},\n'
        f'{p6}"mapping": {{\n{p8}"pairs": {_json_list(pairs, p10)},\n'
        f'{p8}"unmapped_rows": {_json_list([rows[r] for r in mapping.unmapped_rows], p10)},\n'
        f'{p8}"unmapped_cols": {_json_list([cols[c] for c in mapping.unmapped_cols], p10)}\n'
        f"{p6}}}{trace}\n{p4}}}"
    )


def _experts(
    args: argparse.Namespace, thresholds: Sequence[float]
) -> Iterator[tuple[Clustering, str, ColumnList, FTable, MappingResult]]:
    """Yield (system, expert path, columns, F-table, mapping) per expert, in
    argument order, and per threshold, in the given order. Every input file
    is parsed before the first item is yielded, so a malformed later expert
    fails the command before any work is done."""
    system = _load(args.system, parse_clustering)
    experts = [(path, _load(path, parse_hierarchy)) for path in args.expert]
    for expert_path, hierarchy in experts:
        columns = flatten(hierarchy, args.flatten)
        table = build_f_table(system, columns)
        for threshold in thresholds:
            yield system, expert_path, columns, table, resolve_conflicts(table, threshold)


def _report(args: argparse.Namespace, items: list, summary: Sequence = ()) -> str:
    """Per-expert JSON blocks, or text blocks plus the (path, report)
    summary when there is more than one expert, as one report."""
    if args.format == "json":
        experts = ",\n    ".join(items)  # never empty; one expert's block is not copied here
        return f'{{\n  "system": {_quote(args.system)},\n  "experts": [\n    {experts}\n  ]\n}}\n'
    out = "\n".join(items)
    if len(summary) > 1:
        out += "\n" + render_summary_text(summary)
    return out


def cmd_evaluate(args: argparse.Namespace) -> str:
    items: list = []
    summary: list[tuple[str, EvaluationReport]] = []
    for system, expert_path, columns, table, mapping in _experts(args, [args.threshold]):
        report = aggregate(system, columns, mapping, args.unmapped_cols)
        summary.append((expert_path, report))
        if args.format == "json":
            items.append(_evaluation_json(expert_path, report, table, mapping, args.trace))
        else:
            block = render_evaluation_text(args.system, expert_path, report)
            items.append(block + render_trace_text(table, mapping) if args.trace else block)
    return _report(args, items, summary)


def cmd_table(args: argparse.Namespace) -> str:
    items: list = []
    for _system, expert_path, _columns, table, mapping in _experts(args, [args.threshold]):
        if args.format == "json":
            items.append(_table_json(expert_path, table, mapping, args.trace))
        else:
            block = render_table_text(args.system, expert_path, table, mapping)
            items.append(block + render_trace_text(table, mapping) if args.trace else block)
    return _report(args, items)


def cmd_sweep(args: argparse.Namespace) -> str:
    """One CSV row per expert and threshold. A row reads only the overall
    table, so no per-pair report is built."""
    out = io.StringIO()
    out.write(SWEEP_HEADER + "\n")
    rows = csv.writer(out, lineterminator="\n")
    for system, expert_path, columns, _table, mapping in _experts(args, args.thresholds):
        s = scores(_overall(system, columns, mapping, args.unmapped_cols))
        rows.writerow(
            [expert_path, mapping.threshold, len(mapping.pairs), s.precision, s.recall, s.f_measure]
        )
    return out.getvalue()


def cmd_baseline(args: argparse.Namespace) -> str:
    system = _load(args.system, parse_clustering)
    expert = _load(args.expert, parse_clustering)
    table, s = pair_baseline(system, expert)

    lines = [f"pair baseline: {args.system} vs {args.expert}"]
    lines.append(f"system pairs={table.yy + table.yn} expert pairs={table.yy + table.ny}")
    lines.append(f"contingency: {_counts_text(table)}")
    lines.append(_scores_text(s))
    for path, clustering in ((args.system, system), (args.expert, expert)):
        if not clustering.is_partition():
            lines.append(
                f"warning: {path} is not a partition; overlapping pairs were deduplicated"
            )
    return "\n".join(lines) + "\n"


def _threshold_arg(raw: str) -> float:
    if not raw.strip().isascii():  # float() reads every script's digits, _decimal ASCII's
        raise argparse.ArgumentTypeError(f"threshold must be written in ASCII, got {raw!r}")
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"threshold must be in [0, 1], got {raw}")
    if _decimal(raw) != _decimal(repr(value)):
        raise argparse.ArgumentTypeError(f"no double holds {raw} exactly; the nearest is {value!r}")
    return abs(value)  # -0 echoes as 0


def _threshold_list_arg(raw: str) -> list[float]:
    items = [part for part in raw.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty threshold list")
    return [_threshold_arg(part.strip()) for part in items]


_COMMANDS = {  # each command's function and help line, in the top-level help's order
    "evaluate": (cmd_evaluate, "overall precision/recall/F per expert"),
    "table": (cmd_table, "dump the F-measure table and resolved mapping"),
    "sweep": (cmd_sweep, "CSV of scores across thresholds"),
    "baseline": (cmd_baseline, "pair-cooccurrence baseline (flat inputs only)"),
}


def _add_options(add: Callable[..., object], name: str) -> None:
    """Give command ``name`` its options through its parser's ``add_argument``."""
    path = {"required": True, "metavar": "PATH"}
    if name == "baseline":
        add("--system", **path)
        add("--expert", **path)
        return
    add("--system", **path, help="system clustering file")
    add("--expert", **path, action="append", help="expert hierarchy file (repeatable)")
    add("--flatten", choices=FLATTEN_MODES, default=INHERIT, help="hierarchy flattening mode")
    if name != "table":
        add(
            "--unmapped-cols",
            choices=UNMAPPED_POLICIES,
            default=ALL_COLUMNS,
            help="which unmapped expert columns count toward NO-YES",
        )
    if name == "sweep":
        add(
            "--thresholds",
            type=_threshold_list_arg,
            required=True,
            metavar="LIST",
            help="comma-separated thresholds, each in [0, 1]",
        )
        return
    add("--threshold", type=_threshold_arg, default=DEFAULT_THRESHOLD)
    add("--format", choices=("text", "json"), default="text")
    add("--trace", action="store_true", help="include re-map events")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command is registered with its help line, so the top-level help
    and errors do not depend on ``command``, but only ``command``'s subparser
    gets options, or every one when ``command`` names no command."""
    parser = argparse.ArgumentParser(
        prog="clustereval",
        description="Evaluate system word classes against expert gold clusterings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if command == name or command not in _COMMANDS:
            _add_options(p.add_argument, name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)  # see the module docstring
    collecting = gc.isenabled()
    gc.disable()  # the command builds no reference cycles; see the module docstring
    try:
        text = args.func(args)
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text-only stream, such as an io.StringIO
            sys.stdout.write(text)
        else:  # UTF-8 whatever the locale; an argv path's undecodable bytes as they came
            sys.stdout.flush()
            out.write(text.encode("utf-8", "surrogateescape"))
        return 0
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violations; anything unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
