"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured greedy-vs-optimal gap.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import pytest

from clustereval.aggregate import ALL_COLUMNS, aggregate, evaluate
from clustereval.mapping import (
    brute_force_mapping,
    build_f_table,
    initial_potentials,
    resolve_conflicts,
)
from clustereval.metrics import f_measure, pair_baseline
from clustereval.model import INHERIT, flatten, parse_clustering

from conftest import (
    CLASS_A_MEMBERS,
    CLASS_B_MEMBERS,
    as_dict,
    as_flat_hierarchy,
    clustering_doc,
    make_clustering,
    pair_oracle,
    random_partition,
    total_f,
)
from testkit import GenSpec, gen_clustering, gen_hierarchy

THRESHOLD = 0.20


def _ok(line: str) -> None:
    print(f"PASS: {line}")


def _system_spec(seed: int) -> GenSpec:
    return GenSpec(
        seed=seed,
        vocab_size=14 + (seed % 5) * 6,
        n_classes=2 + seed % 7,
        class_size=(1 + seed % 3, 3 + (seed // 3) % 4),
        overlap_rate=(seed % 4) * 0.25,
    )


def _expert_columns(seed: int):
    """Expert side for one instance: flat two times out of three, else a
    hierarchy of depth 2-3."""
    if seed % 3 == 0:
        depth = 2 + (seed // 3) % 2
        hierarchy = gen_hierarchy(
            GenSpec(
                seed=seed + 10_000,
                vocab_size=14 + (seed % 5) * 6,
                n_classes=1 + seed % 3,
                class_size=(1, 3),
                overlap_rate=0.25,
                hierarchy_depth=depth,
            )
        )
    else:
        hierarchy = as_flat_hierarchy(
            gen_clustering(
                GenSpec(
                    seed=seed + 10_000,
                    vocab_size=14 + (seed % 5) * 6,
                    n_classes=2 + (seed // 2) % 7,
                    class_size=(1, 4),
                    overlap_rate=0.25,
                )
            )
        )
    return flatten(hierarchy, INHERIT)


def test_golden_contingency_reproduction():
    started = time.perf_counter()
    system = parse_clustering(clustering_doc([("A", CLASS_A_MEMBERS)]))
    expert = parse_clustering(clustering_doc([("B", CLASS_B_MEMBERS)]))
    report = evaluate(system, as_flat_hierarchy(expert))
    elapsed = time.perf_counter() - started
    assert (report.overall.yy, report.overall.yn, report.overall.ny) == (6, 2, 5)
    assert elapsed < 1.0
    _ok(f"golden contingency (yy=6, yn=2, ny=5) in {1000 * elapsed:.1f} ms")


@pytest.mark.parametrize(
    "p_pct,r_pct,expected",
    [(75.38, 29.09, "0.42"), (77.08, 25.23, "0.38"), (73.85, 37.88, "0.50")],
)
def test_reported_percent_triples_are_formula_consistent(p_pct, r_pct, expected):
    # counts whose precision and recall are exactly p_pct% and r_pct%
    p, r = round(p_pct * 100), round(r_pct * 100)
    assert f"{f_measure(p * r, 10_000 * r, 10_000 * p):.2f}" == expected
    _ok(f"({p_pct}, {r_pct}) -> {expected} at 2-decimal rounding")


def test_mapping_invariant_suite_1000_instances():
    started = time.perf_counter()
    for seed in range(1000):
        system = gen_clustering(_system_spec(seed))
        columns = _expert_columns(seed)
        table = build_f_table(system, columns)
        first = resolve_conflicts(table, THRESHOLD)
        second = resolve_conflicts(table, THRESHOLD)
        assert first == second and repr(first) == repr(second)

        rows = [r for r, _, _, _ in first.pairs]
        cols = [c for _, c, _, _ in first.pairs]
        assert len(rows) == len(set(rows))
        assert len(cols) == len(set(cols))
        assert all(f >= THRESHOLD for _, _, f, _ in first.pairs)
        assert sorted(rows + list(first.unmapped_rows)) == list(range(table.n_rows))
        assert sorted(cols + list(first.unmapped_cols)) == list(range(table.n_cols))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(f"mapping invariants on 1000 instances in {elapsed:.1f} s (< 60 s)")


def test_greedy_bounded_by_brute_force_200_instances():
    started = time.perf_counter()
    checked = conflict_free = 0
    gaps = []
    seed = 0
    while checked < 200:
        system = gen_clustering(_system_spec(seed))
        columns = _expert_columns(seed)
        seed += 1
        if len(system.classes) > 8 or len(columns) > 8:
            continue
        table = build_f_table(system, columns)
        greedy = resolve_conflicts(table, THRESHOLD)
        optimal = brute_force_mapping(table, THRESHOLD)
        assert total_f(greedy) <= total_f(optimal) + 1e-9  # float-summation slack
        gaps.append(total_f(optimal) - total_f(greedy))

        potentials = initial_potentials(table, THRESHOLD)
        claimed = [c for c in potentials if c is not None]
        if len(claimed) == len(set(claimed)):
            conflict_free += 1
            assert (
                tuple(as_dict(greedy).get(r) for r in range(table.n_rows)) == potentials
            )
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    assert conflict_free > 0
    mean_gap = sum(gaps) / len(gaps)
    _ok(
        f"greedy <= optimal on {checked} instances"
        f" ({conflict_free} conflict-free kept their argmax) in {elapsed:.1f} s (< 120 s);"
        f" gap mean={mean_gap:.4f} max={max(gaps):.4f}"
    )


def test_self_evaluation_identity_100_golds():
    for seed in range(100):
        gold = gen_clustering(
            GenSpec(
                seed=seed,
                vocab_size=12 + (seed % 6) * 5,
                n_classes=2 + seed % 7,
                class_size=(1 + seed % 2, 3 + seed % 3),
                overlap_rate=(seed % 3) * 0.25,
            )
        )
        columns = flatten(as_flat_hierarchy(gold), INHERIT)
        table = build_f_table(gold, columns)
        mapping = resolve_conflicts(table, THRESHOLD)
        assert mapping.pairs == tuple(
            (i, i, 1.0, len(cls)) for i, cls in enumerate(gold.classes)
        )
        report = aggregate(gold, columns, mapping, ALL_COLUMNS)
        s = report.overall_scores
        assert (s.precision, s.recall, s.f_measure) == (1.0, 1.0, 1.0)
        assert [(p.system_label,) + p.expert_path[-1:] for p in report.per_pair] == [
            (lbl, lbl) for lbl in gold.labels()
        ]
    _ok("self-evaluation on 100 golds: P = R = F = 1.0 with identity mapping")


def test_aggregation_marginal_identities():
    for seed in range(300):
        system = gen_clustering(_system_spec(seed))
        columns = _expert_columns(seed)
        mapping = resolve_conflicts(build_f_table(system, columns), THRESHOLD)
        report = aggregate(system, columns, mapping, ALL_COLUMNS)
        assert report.overall.yy + report.overall.yn == system.total_incidences()
        assert report.overall.yy + report.overall.ny == sum(len(c.members) for c in columns)
    _ok("marginal identities exact on 300 instances under all-columns")


def test_pair_baseline_matches_enumeration_100_partitions():
    for seed in range(100):
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(rng.randint(4, 30))]
        system = random_partition(rng, words, 6)
        expert = random_partition(rng, words, 6)
        table, _ = pair_baseline(system, expert)
        assert (table.yy, table.yn, table.ny) == pair_oracle(system, expert)
    _ok("pair baseline equals exhaustive pair enumeration on 100 partitions")


def test_cli_determinism_and_cross_command_consistency(tmp_path):
    system = tmp_path / "sys.json"
    expert = tmp_path / "exp.json"
    system.write_text(
        clustering_doc([("A", CLASS_A_MEMBERS), ("D", ["horse", "lamb", "mare"])]),
        encoding="utf-8",
    )
    expert.write_text(
        clustering_doc([("B", CLASS_B_MEMBERS), ("E", ["stomach", "hair"])]),
        encoding="utf-8",
    )

    def run_cli(*argv: str) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "clustereval", *argv], capture_output=True, check=True
        )
        return proc.stdout

    eval_argv = ("evaluate", "--system", str(system), "--expert", str(expert), "--format", "json")
    sweep_argv = ("sweep", "--system", str(system), "--expert", str(expert), "--thresholds", "0.2")
    assert run_cli(*eval_argv) == run_cli(*eval_argv)
    assert run_cli(*sweep_argv) == run_cli(*sweep_argv)
    text_argv = ("evaluate", "--system", str(system), "--expert", str(expert), "--trace")
    assert run_cli(*text_argv) == run_cli(*text_argv)

    overall = json.loads(run_cli(*eval_argv))["experts"][0]["overall"]
    row = run_cli(*sweep_argv).decode().splitlines()[1].split(",")
    assert float(row[3]) == overall["precision"]
    assert float(row[4]) == overall["recall"]
    assert float(row[5]) == overall["f_measure"]
    _ok("CLI byte-identical across runs; evaluate and sweep agree at full precision")
