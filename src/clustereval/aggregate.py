"""Fold mapped pairs and unmapped classes into one overall score.

Each mapped (system class, expert column) pair carries its YES-YES from the
F-table, and its other counts follow from the two class sizes. The overall
YES-YES is the sum of the pairs' YES-YES. Every system word incidence that
no pair counts as YES-YES is YES-NO, whether its class is mapped or not.
NO-YES is the pairs' NO-YES plus every member of each counted unmapped
expert column.

``_overall`` states that table from the mapped pairs and totals summed once
per input. ``sweep`` reads only it; ``aggregate`` adds the per-pair report.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable

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
    counted, _ = _counted(columns, policy)
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
    path_size = attrgetter("path", "size")
    unmapped_expert = tuple(map(path_size, map(columns.columns.__getitem__, unmapped)))
    overall = _overall(system, columns, mapping, policy)
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


def _counted(columns: ColumnList, policy: str) -> tuple[Callable[[int], bool] | None, int]:
    """Which columns ``policy`` counts toward NO-YES (``None``: all of them),
    and their summed size, which ``columns`` caches."""
    if policy == TOP_LEVEL:
        return columns.is_top_level, columns._top_level_size
    if policy == LEAVES:
        return columns.is_leaf, columns._leaf_size
    return None, columns._total_size


def _overall(
    system: Clustering, columns: ColumnList, mapping: MappingResult, policy: str
) -> ContingencyTable:
    """The overall table of a mapping that ``aggregate`` accepts, in O(mapped pairs).

    Each system class is in one pair or unmapped, so every incidence not
    counted as YES-YES is YES-NO. NO-YES is the policy's total counted size,
    plus the sizes of the mapped columns it does not count, less YES-YES.
    """
    counted, total = _counted(columns, policy)
    yy = sum(map(itemgetter(3), mapping.pairs))
    if counted is not None:
        sizes = columns.columns
        total += sum(sizes[col].size for _, col, _, _ in mapping.pairs if not counted(col))
    return ContingencyTable(yy, system.total_incidences() - yy, total - yy)


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
