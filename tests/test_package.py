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
