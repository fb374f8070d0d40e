"""Element-based contingency counts, precision/recall/F, and the pair baseline.

Closeness between two classes is scored from the presence or absence of
individual words in each, never from word pairs; the pair-cooccurrence
scheme is kept only as a baseline because it undercounts overlapping
classes (a pair appearing in several classes is still one pair). The
baseline costs O(incidences) when both sides are partitions and O(pairs)
only when either side overlaps.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .model import Clustering


@dataclass(frozen=True)
class ContingencyTable:
    """YES-YES / YES-NO / NO-YES counts; the NO-NO cell carries no signal."""

    yy: int
    yn: int
    ny: int

    def __post_init__(self):
        if self.yy < 0 or self.yn < 0 or self.ny < 0:
            raise ValueError("contingency counts must be nonnegative")


@dataclass(frozen=True)
class Scores:
    precision: float
    recall: float
    f_measure: float


def contingency(a: AbstractSet, b: AbstractSet) -> ContingencyTable:
    """Cross-tabulate element membership of two sets: (|a∩b|, |a\\b|, |b\\a|)."""
    yy = len(a & b)
    return ContingencyTable(yy, len(a) - yy, len(b) - yy)


def f_measure(yy: int, marked: int, actual: int) -> float:
    """Balanced F of precision yy/marked and recall yy/actual, as the one
    correctly rounded division 2·yy / (marked + actual); 0 when yy is 0."""
    return 2 * yy / (marked + actual) if yy else 0.0


def scores(table: ContingencyTable) -> Scores:
    """Precision, recall, and F for one table; zero denominators score 0."""
    marked = table.yy + table.yn
    actual = table.yy + table.ny
    p = table.yy / marked if marked else 0.0
    r = table.yy / actual if actual else 0.0
    return Scores(p, r, f_measure(table.yy, marked, actual))


def co_classified_pairs(clustering: Clustering) -> frozenset[tuple[str, str]]:
    """All unordered word pairs sharing at least one class, deduplicated."""
    pairs: set[tuple[str, str]] = set()
    for cls in clustering.classes:
        pairs.update(combinations(sorted(cls.members), 2))
    return frozenset(pairs)


def pair_baseline(
    system: Clustering, expert: Clustering
) -> tuple[ContingencyTable, Scores]:
    """Compare two clusterings by co-classified word pairs.

    Sound for partitions; for overlapping input the counts are lossy
    because each pair is counted once no matter how many classes repeat
    it. Callers should check ``Clustering.is_partition`` and warn.

    Two partitions are counted in closed form in O(incidences), without
    listing a pair; the pair sets, O(pairs), are built only when either
    side overlaps.
    """
    if system.is_partition() and expert.is_partition():
        table = _partition_contingency(system, expert)
    else:
        table = contingency(co_classified_pairs(system), co_classified_pairs(expert))
    return table, scores(table)


def _partition_contingency(system: Clustering, expert: Clustering) -> ContingencyTable:
    """Pair counts of two partitions from the words n_ij that system class i
    and expert class j share: yy = Σ C(n_ij, 2), and each side's pairs are
    Σ C(|class|, 2) (the identity behind the Rand index; Rand 1971, Hubert &
    Arabie 1985)."""
    expert_class = {word: j for j, cls in enumerate(expert.classes) for word in cls.members}
    yy = 0
    for cls in system.classes:
        shared = Counter(map(expert_class.get, cls.members))
        shared.pop(None, None)
        yy += sum(comb(n, 2) for n in shared.values())
    system_pairs = sum(comb(len(cls), 2) for cls in system.classes)
    expert_pairs = sum(comb(len(cls), 2) for cls in expert.classes)
    return ContingencyTable(yy, system_pairs - yy, expert_pairs - yy)
