"""F-measure table construction and the one-to-one class mapping.

Each system class starts on its best-scoring expert column; columns
claimed by several classes are repaired one re-map at a time, always
executing the re-map that sacrifices the least F-measure, until the
mapping is one-to-one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

from .model import INHERIT, Clustering, ColumnList

DEFAULT_THRESHOLD = 0.20
BRUTE_FORCE_LIMIT = 8


@dataclass(frozen=True)
class FTable:
    """Pairwise F-measures: one row per system class, one column per
    flattened expert class or subclass.

    ``rows[r]`` holds only row r's nonzero cells, best F first, equal F
    toward the smaller column index, as ``(column, F, yy, n)``: the pair
    shares yy words, n = |a| + |b|, and F is the one rounded division 2·yy/n.
    """

    row_labels: tuple[str, ...]
    col_paths: tuple[tuple[str, ...], ...]
    rows: tuple[tuple[tuple[int, float, int, int], ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_paths)

    @property
    def cells(self) -> tuple[tuple[float, ...], ...]:
        """The dense table, zeros included, built anew on each access."""
        dense = []
        for ranked in self.rows:
            row = [0.0] * self.n_cols
            for col, f, _, _ in ranked:
                row[col] = f
            dense.append(tuple(row))
        return tuple(dense)


class RemapEvent(NamedTuple):
    """One conflict resolution step: ``row`` gave up ``from_col`` for
    ``to_col`` (None = dropped out), sacrificing ``loss`` F: the exact loss, rounded once."""

    row: int
    from_col: int
    to_col: int | None
    loss: float


@dataclass(frozen=True)
class MappingResult:
    """An injective partial map from system rows to expert columns."""

    pairs: tuple[tuple[int, int, float, int], ...]  # (row, column, F, yy)
    unmapped_rows: tuple[int, ...]
    unmapped_cols: tuple[int, ...]
    threshold: float
    trace: tuple[RemapEvent, ...]


def _decimal(text: str) -> tuple[int, int] | None:
    """An ASCII numeral ``float`` accepts as (m, e), its exact value m·10^e with m 0
    or no multiple of 10: equal values give equal pairs, and no power of ten.

    None when no double's ``repr`` has that value: the numeral has more than
    17 significant digits, or it is nonzero and its exponent has more than 20
    digits, more than the length of any string can offset. Zeros are stripped
    as text, so ``int`` never reads more than 20 digits.
    """
    mantissa, _, exponent = text.strip().lower().replace("_", "").partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole.lstrip("+-") + fraction).lstrip("0")
    significant = digits.rstrip("0")
    if not significant:
        return (0, 0)
    power = exponent.lstrip("+-").lstrip("0")
    if len(significant) > 17 or len(power) > 20:
        return None
    m = -int(significant) if whole.startswith("-") else int(significant)
    e = int(power or 0)
    if exponent.startswith("-"):
        e = -e
    return m, e - len(fraction) + len(digits) - len(significant)


# A ranked cell, and the end of every preference list: dropping out, F 0.0.
_Cell = tuple[int | None, float, int, int]
_DROP: _Cell = (None, 0.0, 0, 1)


def _result(
    table: FTable,
    current: list[_Cell],
    threshold: float,
    trace: tuple[RemapEvent, ...] = (),
) -> MappingResult:
    """Package each row's cell, or ``_DROP`` when the row is unmapped, as a
    MappingResult."""
    pairs = tuple((r, c, f, yy) for r, (c, f, yy, _) in enumerate(current) if c is not None)
    free = [True] * table.n_cols
    for pair in pairs:
        free[pair[1]] = False
    return MappingResult(
        pairs=pairs,
        unmapped_rows=tuple(row for row, cell in enumerate(current) if cell[0] is None),
        unmapped_cols=tuple(compress(range(table.n_cols), free)),
        threshold=threshold,
        trace=trace,
    )


def build_f_table(system: Clustering, columns: ColumnList) -> FTable:
    """Score every (system class, expert column) pair by F-measure.

    Only pairs that share a word are scored. The system vocabulary is
    partitioned into word groups, the words that lie in exactly the same
    columns, by refinement: every word starts in group 0, which has no
    columns, and each column in pre-order moves the vocabulary words it owns
    out of their groups, one new group per old group it touches, whose
    columns are the old group's columns and the column's lineage. The
    lineage is the column and, under ``inherit``, its ancestor columns, since
    a column holds every word of its descendants. In pre-order those
    ancestors are the first ``len(path) - 1`` open columns, so the lineage is
    read from depth, never from a label. Each system class counts its words
    per group and adds each group's count to the group's columns. The build
    costs one set intersection per column, one group move per vocabulary word
    that a column owns, one new group per (column, old group) pair, and, per
    class, one count per word, one addition per column of each group the
    class touches and one sort of its nonzero cells; no row holds a cell for
    a column it shares no word with. A cell's yy and F are
    ``contingency(a, b).yy`` and ``f_measure`` of it for the class and column
    word sets; pairs that share no word score 0.0 and are not stored.
    """
    if not system.classes or not len(columns):
        raise ValueError("need at least one system class and one expert column")
    sizes = [col.size for col in columns]
    vocab = frozenset().union(*(cls.members for cls in system.classes))
    group = dict.fromkeys(vocab, 0)  # a word -> its group id
    spans: list[frozenset[int]] = [frozenset()]  # a group id -> its columns
    inherit = columns.mode == INHERIT
    lineage: list[int] = []  # the open columns, root first
    for col, column in enumerate(columns):
        del lineage[len(column.path) - 1 if inherit else 0 :]
        lineage.append(col)
        split: dict[int, int] = {}  # an old group -> the new group its words move to
        for word in vocab.intersection(column.own):
            old = group[word]
            if old not in split:
                split[old] = len(spans)
                spans.append(spans[old].union(lineage))
            group[word] = split[old]
    rows = []
    for cls in system.classes:
        overlaps: dict[int, int] = {}
        for gid, k in Counter(map(group.__getitem__, cls.members)).items():
            for c in spans[gid]:
                overlaps[c] = overlaps.get(c, 0) + k
        # F is f_measure's division 2·k/t, inline, with t = |a| + |b|. Rank by
        # column, then stably by F, best first: equal F keeps the smaller
        # column, whatever the group ids were.
        size = len(cls)
        ranked = [(c, 2 * k / (t := size + sizes[c]), k, t) for c, k in sorted(overlaps.items())]
        ranked.sort(key=itemgetter(1), reverse=True)
        rows.append(tuple(ranked))
    return FTable(system.labels(), tuple(col.path for col in columns), tuple(rows))


def _preferences(table: FTable, threshold: float) -> list[list[_Cell]]:
    """Per row, its eligible cells, best first, then ``_DROP``: the one
    statement of the rule. A cell is eligible when its pair shares a word,
    which is when the row stores it, at threshold 0 too, and its exact F,
    2·yy/n, reaches the threshold's decimal ``repr(threshold)``, so 0.2 means
    1/5. F is 2·yy/n rounded once and rounding is monotone, so only an F
    equal to the threshold needs the integer test. Rows keep their order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    m, e = _decimal(repr(threshold))  # e <= 0, as the threshold is at most 1
    return [
        [c for c in row if c[1] > threshold or c[1] == threshold and 2 * c[2] * 10**-e >= m * c[3]]
        + [_DROP]
        for row in table.rows
    ]


def initial_potentials(
    table: FTable, threshold: float = DEFAULT_THRESHOLD
) -> tuple[int | None, ...]:
    """Per row, its best-F eligible column, as ``_preferences`` decides (ties
    go to the smaller column index); None when no column qualifies."""
    return tuple(ranked[0][0] for ranked in _preferences(table, threshold))


def resolve_conflicts(table: FTable, threshold: float = DEFAULT_THRESHOLD) -> MappingResult:
    """Compute the one-to-one mapping by iterative minimal-loss repair.

    Start from every row's potential mapping. While some column has two
    or more claimants, work out what each claimant would lose by stepping
    down to the next column in its preference list; a claimant at the end
    of its list loses its whole current F-measure and drops out. Execute
    the single cheapest re-map (ties toward the smaller row, then column
    index) and look for conflicts again. A row only ever steps down its
    list, so a column it gave up stays off limits and the loop ends.

    Each row was ranked once, when the table was built, and a call keeps
    only its eligible cells (``_preferences``), so a re-map reads its two
    cells by position. The claimant rows of each column and a heap of
    candidate re-maps are then kept up to date: a re-map changes only the
    column a row leaves and the column it reaches, so it costs O(log n) heap
    work for n candidates pushed.
    """
    prefs = _preferences(table, threshold)
    rank = [0] * table.n_rows
    claimants: dict[int, set[int]] = {}
    for row, ranked in enumerate(prefs):
        col = ranked[0][0]
        if col is not None:
            claimants.setdefault(col, set()).add(row)

    def candidate(row: int) -> tuple[float, int, int, int | None]:
        """The row's step down, keyed on its exact loss rounded once, so equal
        losses tie; ``_DROP``'s counts make dropping out lose exactly F."""
        ranked, k = prefs[row], rank[row]
        col, _, y, p = ranked[k]
        alt, _, z, q = ranked[k + 1]
        return (2 * (y * q - z * p) / (p * q), row, col, alt)

    # A (row, col) pair fixes its alternative, so heap order is (loss, row, col).
    heap = [candidate(row) for rows in claimants.values() if len(rows) > 1 for row in rows]
    heapify(heap)
    trace: list[RemapEvent] = []
    while heap:
        loss, row, col, alt = heappop(heap)
        rows = claimants[col]
        if len(rows) < 2 or row not in rows:
            continue  # the conflict cleared, or the row already stepped down
        rows.remove(row)
        rank[row] += 1
        trace.append(RemapEvent(row, col, alt, loss))
        if alt is None:
            continue
        rows = claimants.setdefault(alt, set())
        rows.add(row)
        if len(rows) > 1:
            # A column that just reached two claimants opens a conflict for
            # both; one already in conflict only gains the arriving row.
            for claimant in rows if len(rows) == 2 else (row,):
                heappush(heap, candidate(claimant))

    return _result(table, [ranked[r] for ranked, r in zip(prefs, rank)], threshold, tuple(trace))


def brute_force_mapping(table: FTable, threshold: float = DEFAULT_THRESHOLD) -> MappingResult:
    """Exhaustively optimal one-to-one mapping, for cross-checking the
    greedy resolver on small instances.

    Considers every injective partial mapping whose pairs are eligible as
    ``_preferences`` defines it and returns one with maximal total F; equal
    totals resolve toward assigning earlier rows to smaller column indices,
    assignment preferred over leaving a row out. Implemented as a memoized
    search over (row, used columns), which covers the same search space as
    literal enumeration in at most rows x 2^columns states.
    """
    # each row's eligible cells, smaller column first; dropping out comes last
    eligible = [sorted(ranked[:-1]) for ranked in _preferences(table, threshold)]
    n, m = table.n_rows, table.n_cols
    if n > BRUTE_FORCE_LIMIT or m > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"instance too large to enumerate: {n}x{m} exceeds "
            f"{BRUTE_FORCE_LIMIT}x{BRUTE_FORCE_LIMIT}"
        )
    return _result(table, list(_best(0, 0, eligible, {})[1]), threshold)


def _best(r: int, used: int, eligible: list[list[_Cell]], memo: dict) -> tuple:
    """Max total F over rows r.. with the columns in ``used`` taken, and the
    first cells chosen that reach it (free columns ascending, then unmapped),
    memoized in ``memo``: no closure that refers to itself, so no cycle."""
    if r == len(eligible):
        return 0.0, ()
    if (r, used) not in memo:
        options = []
        for cell in eligible[r]:
            bit = 1 << cell[0]
            if not used & bit:
                total, rest = _best(r + 1, used | bit, eligible, memo)
                options.append((cell[1] + total, (cell, *rest)))
        total, rest = _best(r + 1, used, eligible, memo)
        options.append((total, (_DROP, *rest)))
        memo[r, used] = max(options, key=itemgetter(0))  # the first maximal option
    return memo[r, used]
