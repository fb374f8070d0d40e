"""Tests of the benchmark itself: every workload at a tiny size, generator
determinism, the output checks against planted faults, and the refusal to
run without the package source."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from bench import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TINY = {
    "flat-noisy": {"classes": 20},
    "conflict-cascade": {"rows": 6},
    "deep-gold": {"roots": 2, "depth": 4, "own": 3, "classes": 3, "class_level": 3},
    "pair-baseline": {"classes": 4, "size": 10},
}


def _stdout(name: str, tmp_path: Path, seed: int = 5):
    workload = WORKLOADS[name]
    inputs = workload.generate(seed, **TINY[name])
    system_path, expert_path = map(str, inputs.write(tmp_path))
    code, out, _, _ = bench.invoke(workload.argv(system_path, expert_path))
    assert code == 0
    return out, inputs, expert_path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(bench, "RSS_CHILDREN", 1)
    result = bench.measure(WORKLOADS[name], 7, 0.0, trace, tmp_path, SRC, TINY[name])
    assert result.correct, result.notes
    assert result.failed == 0 and result.attempted > bench.MIN_SAMPLES
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: u for k, (_, u) in result.metrics.items()} == units
    if trace:
        spans = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert {json.loads(s)["name"] for s in spans} >= {"cli.main", "cli.read", "cli.render"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    make = WORKLOADS[name].generate
    first = make(3, **TINY[name]).write(tmp_path / "a")
    again = make(3, **TINY[name]).write(tmp_path / "b")
    other = make(4, **TINY[name]).write(tmp_path / "c")
    for a, b in zip(first, again):
        assert a.read_bytes() == b.read_bytes()
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


def _bump_overall_yy(out: str) -> str:
    doc = json.loads(out)
    doc["experts"][0]["overall"]["yy"] += 1
    return json.dumps(doc)


def _duplicate_column(out: str) -> str:
    doc = json.loads(out)
    pairs = doc["experts"][0]["pairs"]
    pairs[1]["expert_column"] = pairs[0]["expert_column"]
    return json.dumps(doc)


def _bump_system_pairs(out: str) -> str:
    head, rest = out.split("system pairs=", 1)
    count, tail = rest.split(" ", 1)
    return f"{head}system pairs={int(count) + 1} {tail}"


def _drop_last_line(out: str) -> str:
    return "".join(out.splitlines(keepends=True)[:-1])


@pytest.mark.parametrize(
    "name, plant",
    [
        ("flat-noisy", _bump_overall_yy),
        ("flat-noisy", _duplicate_column),
        ("pair-baseline", _bump_system_pairs),
        ("conflict-cascade", _drop_last_line),  # one re-map missing from the trace
        ("deep-gold", _drop_last_line),  # one threshold missing from the sweep
    ],
)
def test_checks_flag_planted_faults(name, plant, tmp_path):
    out, inputs, expert_path = _stdout(name, tmp_path)
    check = WORKLOADS[name].check
    assert check(out, inputs, expert_path) == []
    assert check(plant(out), inputs, expert_path) != []


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-noisy", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
