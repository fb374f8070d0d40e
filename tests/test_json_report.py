"""The JSON reports of ``evaluate`` and ``table`` against ``json.dumps``.

``cli`` writes a JSON report directly, for its fixed shape. Its stdout must
be the very bytes ``json.dumps(doc, indent=2)`` writes for the document that
``evaluation_to_dict`` or ``table_to_dict`` below builds on its own from the
same pipeline objects, on inputs whose labels and paths need every kind of
escape. The CLI itself never builds a document and never calls
``json.dumps``.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from itertools import count
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustereval import cli
from clustereval.aggregate import UNMAPPED_POLICIES, EvaluationReport, aggregate
from clustereval.mapping import FTable, MappingResult, build_f_table, resolve_conflicts
from clustereval.metrics import ContingencyTable, Scores
from clustereval.model import FLATTEN_MODES, HierarchyNode, flatten, parse_clustering
from clustereval.model import parse_hierarchy

from conftest import clustering_doc, hierarchy_doc, node
from testkit import GenSpec, gen_clustering, gen_hierarchy


def _path(path: tuple[str, ...]) -> str:
    return "/".join(path)


def _trace_doc(table: FTable, mapping: MappingResult) -> list[dict]:
    """The re-map events, as both commands report them."""
    return [
        {
            "system_class": table.row_labels[event.row],
            "from_column": _path(table.col_paths[event.from_col]),
            "to_column": None if event.to_col is None else _path(table.col_paths[event.to_col]),
            "loss": event.loss,
        }
        for event in mapping.trace
    ]


def _counts_doc(t: ContingencyTable, s: Scores) -> dict:
    return {
        "yy": t.yy,
        "yn": t.yn,
        "ny": t.ny,
        "precision": s.precision,
        "recall": s.recall,
        "f_measure": s.f_measure,
    }


def evaluation_to_dict(
    expert_path: str,
    report: EvaluationReport,
    table: FTable,
    mapping: MappingResult,
    include_trace: bool,
) -> dict:
    """The ``evaluate`` command's JSON document for one expert."""
    doc = {
        "expert": expert_path,
        "config": {
            "threshold": report.threshold,
            "flatten_mode": report.flatten_mode,
            "unmapped_columns_policy": report.unmapped_policy,
        },
        "overall": _counts_doc(report.overall, report.overall_scores),
        "pairs": [
            {
                "system_class": pair.system_label,
                "expert_column": _path(pair.expert_path),
                **_counts_doc(pair.table, pair.scores),
            }
            for pair in report.per_pair
        ],
        "unmapped_system": [
            {"label": label, "size": size} for label, size in report.unmapped_system
        ],
        "unmapped_expert": [
            {"column": _path(path), "size": size} for path, size in report.unmapped_expert
        ],
    }
    if include_trace:
        doc["trace"] = _trace_doc(table, mapping)
    return doc


def table_to_dict(
    expert_path: str, table: FTable, mapping: MappingResult, include_trace: bool
) -> dict:
    """The ``table`` command's JSON document for one expert, zeros included."""
    doc = {
        "expert": expert_path,
        "threshold": mapping.threshold,
        "rows": table.row_labels,
        "columns": [_path(p) for p in table.col_paths],
        "cells": table.cells,
        "mapping": {
            "pairs": [
                {
                    "system_class": table.row_labels[row],
                    "expert_column": _path(table.col_paths[col]),
                    "f_measure": f,
                }
                for row, col, f, _ in mapping.pairs
            ],
            "unmapped_rows": [table.row_labels[r] for r in mapping.unmapped_rows],
            "unmapped_cols": [_path(table.col_paths[c]) for c in mapping.unmapped_cols],
        },
    }
    if include_trace:
        doc["trace"] = _trace_doc(table, mapping)
    return doc


def _pipeline(args) -> Iterator[tuple[str, EvaluationReport | None, FTable, MappingResult]]:
    """Per expert: its path, ``evaluate`` report (None for ``table``),
    F-table and mapping, built from the library as the CLI builds them."""
    system = parse_clustering(Path(args.system).read_text(encoding="utf-8"))
    for path in args.expert:
        columns = flatten(parse_hierarchy(Path(path).read_text(encoding="utf-8")), args.flatten)
        table = build_f_table(system, columns)
        mapping = resolve_conflicts(table, args.threshold)
        report = None
        if args.command == "evaluate":
            report = aggregate(system, columns, mapping, args.unmapped_cols)
        yield path, report, table, mapping


def oracle(argv: list[str]) -> bytes:
    """The report ``json.dumps`` writes for the command's documents."""
    args = cli.build_parser().parse_args(argv)
    docs = [
        table_to_dict(path, table, mapping, args.trace)
        if report is None
        else evaluation_to_dict(path, report, table, mapping, args.trace)
        for path, report, table, mapping in _pipeline(args)
    ]
    text = json.dumps({"system": args.system, "experts": docs}, indent=2) + "\n"
    return text.encode("ascii")


def stdout(argv: list[str]) -> bytes:
    """The bytes ``cli.main`` writes to stdout."""
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(sink):
        assert cli.main(argv) == 0
    return sink.buffer.getvalue()


@pytest.fixture(scope="module")
def home(tmp_path_factory) -> Path:
    """A directory whose name is not ASCII, so every path in a report needs escapes."""
    home = tmp_path_factory.mktemp("json") / "Ω-𝔸"
    home.mkdir()
    return home


def _argv(command: str, files: list[Path], *flags: str) -> list[str]:
    system, *experts = files
    argv = [command, "--system", str(system), *flags]
    for expert in experts:
        argv += ["--expert", str(expert)]
    return argv


# Each label is a number and a colon, then pieces that json.dumps escapes:
# quote, backslash, control characters, U+2028, accents, composed or not,
# and characters outside the BMP, which become surrogate pairs.
PIECES = ['"', "\\", "\x00", "\x08", "\x1f", "\x7f", "\t", "\u2028", " ", "x"]
PIECES += ["\u00e9", "e\u0301", "\u03a9", "\U0001d538", "\U0001f600"]
hostile = st.lists(st.lists(st.sampled_from(PIECES), max_size=4).map("".join), min_size=1)


def _labels(pieces: list[str]):
    return (f"{i}:{pieces[i % len(pieces)]}" for i in count())


def _node_doc(tree: HierarchyNode, labels) -> dict:
    return node(next(labels), tree.own_members, [_node_doc(kid, labels) for kid in tree.children])


specs = st.builds(
    GenSpec,
    seed=st.integers(0, 2**32),
    vocab_size=st.just(20),
    n_classes=st.integers(1, 6),
    class_size=st.sampled_from([(1, 3), (2, 6)]),
    overlap_rate=st.sampled_from([0.0, 0.4]),
    hierarchy_depth=st.integers(1, 3),
)
thresholds = st.one_of(st.sampled_from(["0", "1.0", "0.2"]), st.floats(0.0, 1.0).map(repr))


@settings(deadline=None)
@given(
    st.sampled_from(["evaluate", "table"]),
    specs,
    st.lists(specs, min_size=1, max_size=2),
    hostile,
    thresholds,
    st.sampled_from(FLATTEN_MODES),
    st.sampled_from(UNMAPPED_POLICIES),
)
def test_json_report_is_what_json_dumps_writes(
    home, command, system_spec, expert_specs, pieces, threshold, mode, policy
):
    labels = _labels(pieces)
    system = gen_clustering(system_spec)
    files = [home / "s.json"]
    files[0].write_text(
        clustering_doc([(next(labels), c.members) for c in system.classes]), encoding="utf-8"
    )
    for i, spec in enumerate(expert_specs):
        labels = _labels(pieces)  # each expert's labels are unique on their own
        files.append(home / f"e{i}.json")
        roots = [_node_doc(root, labels) for root in gen_hierarchy(spec).roots]
        files[-1].write_text(hierarchy_doc(roots), encoding="utf-8")
    flags = ["--threshold", threshold, "--flatten", mode]
    if command == "evaluate":
        flags += ["--unmapped-cols", policy]
    for trace in ([], ["--trace"]):
        argv = _argv(command, files, "--format", "json", *flags, *trace)
        assert stdout(argv) == oracle(argv)


# Inputs that reach the writer's edge cases: empty lists, the threshold
# bounds, F values whose repr needs 17 digits, and a drop-out to null.
EDGES = {
    # every class maps to its twin: no unmapped class and no trace event
    "self": ([("S", ["a", "b"])], [("S", ["a", "b"])]),
    # no word in common: no pair, every class unmapped
    "disjoint": ([("S", ["a", "b"])], [("X", ["c"])]),
    # F = 4/11 = 0.36363636363636365, precision 2/9, recall 1
    "seventeen-digits": ([("S", list("abcdefghi"))], [("X", ["a", "b"])]),
    # S2 loses X to S1 and drops out of the mapping
    "drop-out": ([("S1", ["a", "b"]), ("S2", list("abcde"))], [("X", ["a", "b"])]),
}


def _edge_files(home: Path, edge: str) -> list[Path]:
    files = [home / "edge-s.json", home / "edge-e.json"]
    for path, classes in zip(files, EDGES[edge]):
        path.write_text(clustering_doc(classes), encoding="utf-8")
    return files


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("threshold", ["0", "0.2", "1.0"])
@pytest.mark.parametrize("command", ["evaluate", "table"])
def test_json_report_edge_cases(home, command, threshold, edge):
    system, expert = _edge_files(home, edge)
    for experts in ([expert], [expert, expert]):
        for trace in ([], ["--trace"]):
            argv = _argv(command, [system, *experts], "--format", "json", *trace)
            argv += ["--threshold", threshold]
            assert stdout(argv) == oracle(argv)
            if command == "evaluate":  # the benchmark's traced mirror reads the bytes back
                args = cli.build_parser().parse_args(argv)
                for path, report, table, mapping in _pipeline(args):
                    doc = evaluation_to_dict(path, report, table, mapping, args.trace)
                    assert cli.evaluation_to_dict(path, report, table, mapping, args.trace) == doc


@pytest.mark.parametrize(
    "edge, promise",
    [
        ("self", '"unmapped_system": [],\n      "unmapped_expert": [],\n      "trace": []\n'),
        ("disjoint", '"pairs": [],'),
        ("seventeen-digits", '"f_measure": 0.36363636363636365'),
        ("drop-out", '"to_column": null,'),
    ],
)
def test_json_report_edge_cases_reach_their_edge(home, edge, promise):
    argv = _argv("evaluate", _edge_files(home, edge), "--format", "json", "--trace")
    out = stdout(argv).decode("ascii")
    assert promise in out
    assert "/\\u03a9-\\ud835\\udd38/" in out  # the path's Ω and 𝔸, escaped


def test_no_command_builds_a_document_or_calls_json_dumps(home, monkeypatch):
    """Every command writes the same report with ``cli.evaluation_to_dict``
    and ``json.dumps`` made to raise: neither is on the CLI's path."""
    system, expert = _edge_files(home, "drop-out")
    argvs = [
        _argv(command, [system, expert], "--format", "json", *trace)
        for command in ("evaluate", "table")
        for trace in ([], ["--trace"])
    ]
    argvs.append(_argv("sweep", [system, expert], "--thresholds", "0,0.5"))
    argvs.append(_argv("baseline", [system, expert]))
    expected = [stdout(argv) for argv in argvs]

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the CLI path")

    monkeypatch.setattr(cli, "evaluation_to_dict", forbidden)
    monkeypatch.setattr(json, "dumps", forbidden)
    assert [stdout(argv) for argv in argvs] == expected
