from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clustereval.aggregate import (
    ALL_COLUMNS,
    LEAVES,
    TOP_LEVEL,
    UNMAPPED_POLICIES,
    _overall,
    aggregate,
    evaluate,
)
from clustereval.mapping import MappingResult, build_f_table, resolve_conflicts
from clustereval.metrics import ContingencyTable, contingency, f_measure
from clustereval.model import FLATTEN_MODES, INHERIT, ExpertHierarchy, HierarchyNode, flatten

from conftest import CLASS_A_MEMBERS, CLASS_B_MEMBERS, as_flat_hierarchy, make_clustering
from testkit import GenSpec, gen_clustering, gen_hierarchy


def test_single_mapped_pair_golden_counts():
    system = make_clustering(("A", CLASS_A_MEMBERS))
    report = evaluate(system, as_flat_hierarchy(make_clustering(("B", CLASS_B_MEMBERS))))
    assert (report.overall.yy, report.overall.yn, report.overall.ny) == (6, 2, 5)
    s = report.overall_scores
    assert f"{100 * s.precision:.2f}" == "75.00"
    assert f"{100 * s.recall:.2f}" == "54.55"
    assert f"{s.f_measure:.2f}" == "0.63"
    assert report.unmapped_system == () and report.unmapped_expert == ()


def test_empty_mapping_fills_unmapped_cells():
    system = make_clustering(("A", ["x", "y", "z"]))
    expert = as_flat_hierarchy(make_clustering(("B", ["p", "q", "r", "s"])))
    report = evaluate(system, expert)
    assert (report.overall.yy, report.overall.yn, report.overall.ny) == (0, 3, 4)
    assert report.overall_scores.f_measure == 0.0
    assert report.unmapped_system == (("A", 3),)
    assert report.unmapped_expert == ((("B",), 4),)


def test_mapped_pair_tables_add_up():
    system = make_clustering(("A", CLASS_A_MEMBERS), ("D", ["x", "y"]))
    expert = as_flat_hierarchy(make_clustering(("B", CLASS_B_MEMBERS), ("E", ["x", "y"])))
    report = evaluate(system, expert)
    assert [(p.system_label, p.expert_path) for p in report.per_pair] == [
        ("A", ("B",)),
        ("D", ("E",)),
    ]
    assert (report.overall.yy, report.overall.yn, report.overall.ny) == (8, 2, 5)


def _policy_fixture():
    system = make_clustering(("S", ["zzz"]))
    expert = ExpertHierarchy(
        "e", (HierarchyNode("ANIMAL", ("cat", "horse"), (HierarchyNode("PET", ("dog",)),)),)
    )
    columns = flatten(expert, INHERIT)
    mapping = resolve_conflicts(build_f_table(system, columns), 0.2)
    return system, columns, mapping


@pytest.mark.parametrize(
    "policy,expected_ny", [(ALL_COLUMNS, 4), (TOP_LEVEL, 3), (LEAVES, 1)]
)
def test_unmapped_column_policies(policy, expected_ny):
    system, columns, mapping = _policy_fixture()
    report = aggregate(system, columns, mapping, policy)
    assert report.overall.yn == 1
    assert report.overall.ny == expected_ny
    assert sum(size for _, size in report.unmapped_expert) == expected_ny
    assert report.unmapped_policy == policy


def test_unknown_policy_rejected():
    system, columns, mapping = _policy_fixture()
    with pytest.raises(ValueError, match="policy"):
        aggregate(system, columns, mapping, "firsts")


def test_mapping_mismatch_rejected():
    system, columns, _ = _policy_fixture()
    other_system = make_clustering(("S", ["zzz"]), ("T", ["qqq"]))
    other_mapping = resolve_conflicts(
        build_f_table(other_system, columns), 0.2
    )
    with pytest.raises(ValueError, match="does not match"):
        aggregate(system, columns, other_mapping)


@pytest.mark.parametrize(
    "scored, passed, f, shared",
    [
        # 1 shared word scores 0.4, not 0.5, for sizes 2 and 3
        (["a"], ["a", "b"], 0.5, 1),
        # 3 shared words do not fit in a class of 1
        (["a", "b", "c"], ["a"], 1.0, 3),
    ],
    ids=["impossible-f", "overlap-above-class-size"],
)
def test_mapping_from_other_class_sizes_rejected(scored, passed, f, shared):
    columns = flatten(as_flat_hierarchy(make_clustering(("E", ["a", "b", "c"]))), INHERIT)
    mapping = resolve_conflicts(build_f_table(make_clustering(("S", scored)), columns), 0.2)
    assert mapping.pairs == ((0, 0, f, shared),)
    with pytest.raises(ValueError, match="does not match"):
        aggregate(make_clustering(("S", passed)), columns, mapping)


@pytest.mark.parametrize("shared, marked, actual", [(1, 1, 48), (7, 7, 18)])
def test_pair_counts_round_a_product_that_misses_by_an_ulp(shared, marked, actual):
    # F·(m+a)/2 lands just below yy for the first case and just above it for
    # the second, so truncating or rounding up would miscount the pair
    assert f_measure(shared, marked, actual) * (marked + actual) / 2 != shared
    words = [f"w{i}" for i in range(marked + actual - shared)]
    system = make_clustering(("S", words[:marked]))
    expert = as_flat_hierarchy(make_clustering(("E", words[marked - shared :])))
    report = evaluate(system, expert, threshold=0.0)
    assert report.per_pair[0].table == ContingencyTable(shared, marked - shared, actual - shared)


@pytest.mark.parametrize("seed", range(30))
def test_pair_tables_match_a_recount_of_the_word_sets(seed):
    system = gen_clustering(
        GenSpec(
            seed=seed,
            vocab_size=30,
            n_classes=2 + seed % 5,
            class_size=(1, 8),
            overlap_rate=(seed % 3) * 0.3,
        )
    )
    expert = gen_hierarchy(
        GenSpec(
            seed=seed + 555,
            vocab_size=30,
            n_classes=1 + seed % 4,
            class_size=(1, 6),
            overlap_rate=(seed % 4) * 0.3,
            hierarchy_depth=1 + seed % 3,
        )
    )
    for mode in FLATTEN_MODES:
        columns = flatten(expert, mode)
        table = build_f_table(system, columns)
        for threshold in (0.0, 0.2, 0.5):
            mapping = resolve_conflicts(table, threshold)
            for policy in UNMAPPED_POLICIES:
                report = aggregate(system, columns, mapping, policy)
                assert len(report.per_pair) == len(mapping.pairs)
                for (row, col, _, _), pair in zip(mapping.pairs, report.per_pair):
                    words = frozenset(system.classes[row].members)
                    assert pair.table == contingency(words, columns[col].members)


def test_aggregate_invariant_to_pair_order():
    system = make_clustering(("A", ["a", "b"]), ("B", ["c", "d"]))
    columns = flatten(as_flat_hierarchy(system), INHERIT)
    mapping = resolve_conflicts(build_f_table(system, columns), 0.2)
    reversed_mapping = MappingResult(
        pairs=tuple(reversed(mapping.pairs)),
        unmapped_rows=mapping.unmapped_rows,
        unmapped_cols=mapping.unmapped_cols,
        threshold=mapping.threshold,
        trace=mapping.trace,
    )
    assert aggregate(system, columns, mapping).overall == (
        aggregate(system, columns, reversed_mapping).overall
    )


def test_self_evaluation_is_perfect():
    system = make_clustering(("A", ["a", "b"]), ("B", ["b", "c", "d"]))
    report = evaluate(system, as_flat_hierarchy(system))
    s = report.overall_scores
    assert (s.precision, s.recall, s.f_measure) == (1.0, 1.0, 1.0)
    assert [(p.system_label, p.expert_path) for p in report.per_pair] == [
        ("A", ("A",)),
        ("B", ("B",)),
    ]


def test_report_echoes_configuration():
    system = make_clustering(("A", ["a"]))
    report = evaluate(
        system,
        as_flat_hierarchy(system),
        threshold=0.35,
        flatten_mode=INHERIT,
        policy=LEAVES,
    )
    assert report.threshold == 0.35
    assert report.flatten_mode == INHERIT
    assert report.unmapped_policy == LEAVES


@pytest.mark.parametrize("seed", range(60))
def test_marginal_identities_on_generated_instances(seed):
    system = gen_clustering(
        GenSpec(
            seed=seed,
            vocab_size=20,
            n_classes=2 + seed % 4,
            class_size=(1, 4),
            overlap_rate=(seed % 3) * 0.3,
        )
    )
    expert = gen_hierarchy(
        GenSpec(
            seed=seed + 999,
            vocab_size=20,
            n_classes=1 + seed % 3,
            class_size=(1, 3),
            hierarchy_depth=1 + seed % 2,
        )
    )
    columns = flatten(expert, INHERIT)
    mapping = resolve_conflicts(build_f_table(system, columns), 0.2)
    for policy in (ALL_COLUMNS, TOP_LEVEL, LEAVES):
        report = aggregate(system, columns, mapping, policy)
        assert report.overall.yy + report.overall.yn == system.total_incidences()
    report = aggregate(system, columns, mapping, ALL_COLUMNS)
    assert report.overall.yy + report.overall.ny == sum(len(c.members) for c in columns)
    assert 0.0 <= report.overall_scores.f_measure <= 1.0
    assert (report.overall_scores.f_measure == 0.0) == all(
        p.table.yy == 0 for p in report.per_pair
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    overlap=st.floats(0.3, 1.0),
)
@example(seed=6, depth=3, overlap=1.0)  # its one tree repeats four words
def test_overall_matches_the_report_it_summarizes(seed, depth, overlap):
    system = gen_clustering(
        GenSpec(
            seed=seed,
            vocab_size=20,
            n_classes=2 + seed % 4,
            class_size=(1, 4),
            overlap_rate=(seed % 3) * 0.3,
        )
    )
    expert = gen_hierarchy(
        GenSpec(
            seed=seed + 1,
            vocab_size=20,
            n_classes=1 + seed % 3,
            class_size=(1, 4),
            overlap_rate=overlap,
            hierarchy_depth=depth,
        )
    )
    incidences = sum(len(c.members) for c in system.classes)
    for mode in FLATTEN_MODES:
        columns = flatten(expert, mode)
        table = build_f_table(system, columns)
        for threshold in (0.0, 0.2, 0.5, 1.0):
            mapping = resolve_conflicts(table, threshold)
            for policy in UNMAPPED_POLICIES:
                report = aggregate(system, columns, mapping, policy)
                # the overall table as the sum of the report's own parts
                yy = sum(pair.table.yy for pair in report.per_pair)
                ny = sum(pair.table.ny for pair in report.per_pair)
                ny += sum(size for _, size in report.unmapped_expert)
                expected = ContingencyTable(yy, incidences - yy, ny)
                assert _overall(system, columns, mapping, policy) == report.overall == expected
