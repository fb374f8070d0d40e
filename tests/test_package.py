from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import clustereval

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
