from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import clustereval
from clustereval import (
    aggregate,
    brute_force_mapping,
    build_f_table,
    evaluate,
    flatten,
    initial_potentials,
    pair_baseline,
    parse_clustering,
    parse_hierarchy,
    resolve_conflicts,
)
from clustereval.model import INHERIT, OWN_ONLY

from conftest import clustering_doc, cyclic_garbage, hierarchy_doc, node

DOCUMENTED = [
    "DocumentError",
    "EvaluationReport",
    "aggregate",
    "brute_force_mapping",
    "build_f_table",
    "evaluate",
    "flatten",
    "initial_potentials",
    "pair_baseline",
    "parse_clustering",
    "parse_hierarchy",
    "resolve_conflicts",
]


def test_public_surface_is_the_documented_names():
    assert clustereval.__all__ == DOCUMENTED
    for name in DOCUMENTED:
        assert getattr(clustereval, name) is not None


# Per submodule: its top-level names and its classes' methods, leaving out
# every name with a leading underscore. Dataclass fields are not listed.
SUBMODULE_PUBLIC = {
    "aggregate": [
        "ALL_COLUMNS",
        "EvaluationReport",
        "LEAVES",
        "PairOutcome",
        "TOP_LEVEL",
        "UNMAPPED_POLICIES",
        "aggregate",
        "evaluate",
    ],
    "cli": [
        "SWEEP_HEADER",
        "build_parser",
        "cmd_baseline",
        "cmd_evaluate",
        "cmd_sweep",
        "cmd_table",
        "evaluation_to_dict",
        "main",
        "render_evaluation_text",
        "render_summary_text",
        "render_table_text",
        "render_trace_text",
        "table_to_dict",
    ],
    "mapping": [
        "BRUTE_FORCE_LIMIT",
        "DEFAULT_THRESHOLD",
        "FTable",
        "FTable.cells",
        "FTable.n_cols",
        "FTable.n_rows",
        "MappingResult",
        "RemapEvent",
        "brute_force_mapping",
        "build_f_table",
        "initial_potentials",
        "resolve_conflicts",
    ],
    "metrics": [
        "ContingencyTable",
        "Scores",
        "co_classified_pairs",
        "contingency",
        "f_measure",
        "pair_baseline",
        "scores",
    ],
    "model": [
        "Clustering",
        "Clustering.is_partition",
        "Clustering.labels",
        "Clustering.total_incidences",
        "Column",
        "Column.members",
        "ColumnList",
        "ColumnList.is_leaf",
        "ColumnList.is_top_level",
        "DocumentError",
        "ExpertHierarchy",
        "FLATTEN_MODES",
        "HierarchyNode",
        "INHERIT",
        "LabeledClass",
        "OWN_ONLY",
        "flatten",
        "parse_clustering",
        "parse_hierarchy",
    ],
}


def _public_names(module: str) -> list[str]:
    source = (Path(clustereval.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    names: list[str] = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            names.append(stmt.name)
            names += [f"{stmt.name}.{f.name}" for f in stmt.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(stmt, ast.FunctionDef):
            names.append(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names += [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return sorted(n for n in names if not any(part.startswith("_") for part in n.split(".")))


def test_every_submodule_is_pinned():
    modules = {p.stem for p in Path(clustereval.__file__).parent.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(SUBMODULE_PUBLIC)


@pytest.mark.parametrize("module", sorted(SUBMODULE_PUBLIC))
def test_submodule_public_names_are_pinned(module):
    assert _public_names(module) == SUBMODULE_PUBLIC[module]


def test_runtime_imports_only_the_standard_library():
    # -I ignores PYTHONPATH and user site-packages; site hooks may still
    # preload third-party modules, so only modules new after the snapshot count
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import clustereval, clustereval.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'clustereval'}))\n"
    )
    src = str(Path(clustereval.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src], check=True, capture_output=True, text=True
    )
    assert done.stdout == "[]\n"


LIBRARY_CALLS = [
    "parse_clustering",
    "parse_hierarchy",
    "flatten inherit",
    "flatten own-only",
    "build_f_table",
    "resolve_conflicts",
    "initial_potentials",
    "brute_force_mapping",
    "aggregate",
    "evaluate",
    "pair_baseline partitions",
    "pair_baseline overlapping",
]


@pytest.mark.parametrize("call", LIBRARY_CALLS)
def test_library_functions_leave_no_cyclic_garbage(call):
    # What a public function builds is freed by reference counting alone, so
    # a caller may pause the cyclic collector, as cli.main does.
    system_doc = clustering_doc([("S1", ["a", "b", "c"]), ("S2", ["d", "e"]), ("S3", ["f", "g"])])
    tree = node("A", ["a"], [node("B", ["b", "c"], [node("C", ["d", "a"])]), node("D", ["e", "f"])])
    expert_doc = hierarchy_doc([tree, node("E", ["g"])])
    system, expert = parse_clustering(system_doc), parse_hierarchy(expert_doc)
    flat = parse_clustering(clustering_doc([("E1", ["a", "b", "d"]), ("E2", ["c", "e", "f", "g"])]))
    overlapping = parse_clustering(clustering_doc([("O1", ["a", "b", "c"]), ("O2", ["c", "d"])]))
    columns = flatten(expert)
    table = build_f_table(system, columns)
    mapping = resolve_conflicts(table)
    calls = {
        "parse_clustering": lambda: parse_clustering(system_doc),
        "parse_hierarchy": lambda: parse_hierarchy(expert_doc),
        "flatten inherit": lambda: [c.members for c in flatten(expert, INHERIT)],
        "flatten own-only": lambda: [c.members for c in flatten(expert, OWN_ONLY)],
        "build_f_table": lambda: build_f_table(system, columns),
        "resolve_conflicts": lambda: resolve_conflicts(table),
        "initial_potentials": lambda: initial_potentials(table),
        "brute_force_mapping": lambda: brute_force_mapping(table),
        "aggregate": lambda: aggregate(system, columns, mapping),
        "evaluate": lambda: evaluate(system, expert),
        "pair_baseline partitions": lambda: pair_baseline(system, flat),
        "pair_baseline overlapping": lambda: pair_baseline(overlapping, flat),
    }
    assert list(calls) == LIBRARY_CALLS
    assert cyclic_garbage(calls[call]) == 0
