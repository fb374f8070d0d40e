from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def test_testkit_is_imported_only_on_request():
    code = (
        "import sys, clustereval\n"
        "assert 'clustereval.testkit' not in sys.modules\n"
        "import clustereval.testkit\n"
    )
    src = str(Path(clustereval.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_runtime_imports_only_the_standard_library():
    # -I ignores PYTHONPATH and user site-packages; site hooks may still
    # preload third-party modules, so only modules new after the snapshot count
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import clustereval, clustereval.cli, clustereval.testkit\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'clustereval'}))\n"
    )
    src = str(Path(clustereval.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src], check=True, capture_output=True, text=True
    )
    assert done.stdout == "[]\n"
