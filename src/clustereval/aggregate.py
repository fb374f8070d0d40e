"""Fold mapped pairs and unmapped classes into one overall score.

Each mapped (system class, expert column) pair carries its YES-YES from the
F-table, and its other counts follow from the two class sizes. The overall
YES-YES is the sum of the pairs' YES-YES. Every system word incidence that
no pair counts as YES-YES is YES-NO, whether its class is mapped or not.
NO-YES is the pairs' NO-YES plus every member of each counted unmapped
expert column.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .mapping import DEFAULT_THRESHOLD, MappingResult, build_f_table, resolve_conflicts
from .metrics import ContingencyTable, Scores, f_measure, scores
from .model import INHERIT, Clustering, ColumnList, ExpertHierarchy, flatten

ALL_COLUMNS = "all-columns"
TOP_LEVEL = "top-level"
LEAVES = "leaves"
UNMAPPED_POLICIES = (ALL_COLUMNS, TOP_LEVEL, LEAVES)


@dataclass(frozen=True)
class PairOutcome:
    system_label: str
    expert_path: tuple[str, ...]
    table: ContingencyTable
    scores: Scores


@dataclass(frozen=True)
class EvaluationReport:
    """Overall counts and scores for one system-vs-expert run, plus the
    per-pair breakdown and the unmapped remainders that fed them."""

    overall: ContingencyTable
    overall_scores: Scores
    per_pair: tuple[PairOutcome, ...]
    unmapped_system: tuple[tuple[str, int], ...]
    unmapped_expert: tuple[tuple[tuple[str, ...], int], ...]
    threshold: float
    flatten_mode: str
    unmapped_policy: str


def aggregate(
    system: Clustering,
    columns: ColumnList,
    mapping: MappingResult,
    policy: str = ALL_COLUMNS,
) -> EvaluationReport:
    """Build the overall contingency table and scores for one run.

    ``policy`` selects which unmapped expert columns feed NO-YES:
    ``all-columns`` counts every one (the literal reading), ``top-level``
    only root-level columns, ``leaves`` only childless columns. With
    inherited flattening a word below an unmapped parent and an unmapped
    child is otherwise counted once per column, which is what the
    narrower policies exist to probe.
    """
    if policy not in UNMAPPED_POLICIES:
        raise ValueError(f"unknown unmapped-column policy {policy!r}")
    counted = {TOP_LEVEL: columns.is_top_level, LEAVES: columns.is_leaf}.get(policy)
    rows = sorted([pair[0] for pair in mapping.pairs] + list(mapping.unmapped_rows))
    cols = sorted([pair[1] for pair in mapping.pairs] + list(mapping.unmapped_cols))
    if rows != list(range(len(system.classes))) or cols != list(range(len(columns))):
        raise ValueError("mapping does not match this system clustering and column list")

    per_pair: list[PairOutcome] = []
    for row, col, f, shared in mapping.pairs:
        cls = system.classes[row]
        column = columns.columns[col]
        if shared > min(len(cls), column.size) or f_measure(shared, len(cls), column.size) != f:
            raise ValueError("mapping does not match this system clustering and column list")
        table = ContingencyTable(shared, len(cls) - shared, column.size - shared)
        per_pair.append(PairOutcome(cls.label, column.path, table, scores(table)))

    unmapped_system = tuple(
        (system.classes[row].label, len(system.classes[row])) for row in mapping.unmapped_rows
    )
    unmapped = mapping.unmapped_cols if counted is None else filter(counted, mapping.unmapped_cols)
    unmapped_expert = tuple(map(columns._path_sizes.__getitem__, unmapped))
    # The check above puts each system class in exactly one pair or in the
    # unmapped rows, so every incidence not counted as yy is yn.
    yy = sum(pair.table.yy for pair in per_pair)
    ny = sum(pair.table.ny for pair in per_pair) + sum(map(itemgetter(1), unmapped_expert))
    overall = ContingencyTable(yy, system.total_incidences() - yy, ny)
    return EvaluationReport(
        overall=overall,
        overall_scores=scores(overall),
        per_pair=tuple(per_pair),
        unmapped_system=unmapped_system,
        unmapped_expert=unmapped_expert,
        threshold=mapping.threshold,
        flatten_mode=columns.mode,
        unmapped_policy=policy,
    )


def evaluate(
    system: Clustering,
    expert: ExpertHierarchy,
    threshold: float = DEFAULT_THRESHOLD,
    flatten_mode: str = INHERIT,
    policy: str = ALL_COLUMNS,
) -> EvaluationReport:
    """Full pipeline: flatten, score all pairs, resolve the mapping, aggregate."""
    columns = flatten(expert, flatten_mode)
    table = build_f_table(system, columns)
    mapping = resolve_conflicts(table, threshold)
    return aggregate(system, columns, mapping, policy)
