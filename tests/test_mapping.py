from __future__ import annotations

import ast
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustereval.mapping import (
    FTable,
    MappingResult,
    RemapEvent,
    _decimal,
    _preferences,
    brute_force_mapping,
    build_f_table,
    initial_potentials,
    resolve_conflicts,
)
from clustereval.metrics import contingency, scores
from clustereval.model import (
    FLATTEN_MODES,
    INHERIT,
    Clustering,
    ExpertHierarchy,
    HierarchyNode,
    LabeledClass,
    flatten,
)

from conftest import (
    CLASS_A_MEMBERS,
    CLASS_B_MEMBERS,
    as_dict,
    as_flat_hierarchy,
    dyadic_cell,
    make_clustering,
    total_f,
    tree,
)
from testkit import GenSpec, gen_clustering, gen_hierarchy


def _ranked(row) -> tuple[tuple[int, float, int, int], ...]:
    """A dense row's nonzero (column, F, yy, n) cells, F descending, then
    column ascending: the oracle for one of FTable.rows."""
    return tuple(sorted((cell for cell in row if cell[1]), key=lambda cell: (-cell[1], cell[0])))


def table_of(cells) -> FTable:
    """A table of the given dense floats, each a ``dyadic_cell``, each row
    ranked as build_f_table ranks it."""
    rows = tuple(f"R{i}" for i in range(len(cells)))
    cols = tuple((f"K{j}",) for j in range(len(cells[0])))
    ranked = (_ranked(dyadic_cell(c, f) for c, f in enumerate(row)) for row in cells)
    return FTable(rows, cols, tuple(ranked))


def test_build_f_table_golden_single_pair():
    system = make_clustering(("A", CLASS_A_MEMBERS))
    columns = flatten(as_flat_hierarchy(make_clustering(("B", CLASS_B_MEMBERS))), INHERIT)
    table = build_f_table(system, columns)
    assert table.n_rows == table.n_cols == 1
    assert table.cells[0][0] == float(Fraction(12, 19))


def test_build_f_table_identical_class_scores_one():
    system = make_clustering(("A", ["a", "b"]), ("B", ["c"]))
    columns = flatten(as_flat_hierarchy(system), INHERIT)
    table = build_f_table(system, columns)
    assert table.cells[0][0] == 1.0
    assert table.cells[1][1] == 1.0


def test_build_f_table_disjoint_row_is_zero():
    system = make_clustering(("A", ["x", "y"]))
    expert = make_clustering(("B", ["a"]), ("C", ["b"]))
    table = build_f_table(system, flatten(as_flat_hierarchy(expert), INHERIT))
    assert table.cells[0] == (0.0, 0.0)


def test_build_f_table_rejects_an_empty_side():
    system = make_clustering(("A", ["x"]))
    columns = flatten(as_flat_hierarchy(system), INHERIT)
    with pytest.raises(ValueError, match="at least one system class"):
        build_f_table(make_clustering(), columns)
    with pytest.raises(ValueError, match="at least one system class"):
        build_f_table(system, flatten(ExpertHierarchy("empty", ()), INHERIT))


def test_cell_that_reaches_the_threshold_exactly_is_mapped():
    # one word against a nine-word column that holds it: F = 2/10, exactly 0.2
    system = make_clustering(("S", ["x"]))
    expert = make_clustering(("C", ["x", *(f"c{i}" for i in range(8))]))
    table = build_f_table(system, flatten(as_flat_hierarchy(expert), INHERIT))
    assert table.cells[0][0] == 0.2
    assert as_dict(resolve_conflicts(table, 0.2)) == {0: 0}


def test_equal_fractions_tie_toward_the_smaller_column():
    # 2·1/(2+4) and 2·2/(2+10) are both 1/3, so the smaller column wins
    system = make_clustering(("S", ["x", "y"]))
    expert = make_clustering(
        ("C0", ["x", "p0", "p1", "p2"]), ("C1", ["x", "y", *(f"q{i}" for i in range(8))])
    )
    table = build_f_table(system, flatten(as_flat_hierarchy(expert), INHERIT))
    assert initial_potentials(table) == (0,)
    assert table.cells[0] == (1 / 3, 1 / 3)


def _dense_cells(system, columns):
    """Every cell as (column, F, yy, |a| + |b|), counted one by one from the
    word sets: the oracle for build_f_table."""
    dense = []
    for cls in system.classes:
        row = []
        for c, col in enumerate(columns):
            t = contingency(frozenset(cls.members), col.members)
            row.append((c, scores(t).f_measure, t.yy, 2 * t.yy + t.yn + t.ny))
        dense.append(tuple(row))
    return tuple(dense)


def _dense_f(dense):
    """The F of every cell of ``_dense_cells``, as ``FTable.cells`` holds it."""
    return tuple(tuple(cell[1] for cell in row) for row in dense)


def _differential_instance(seed):
    system = gen_clustering(
        GenSpec(
            seed=seed,
            vocab_size=40,
            n_classes=6 + seed % 10,
            class_size=(1, 6),
            overlap_rate=0.25 * (1 + seed % 3),
        )
    )
    expert = gen_hierarchy(
        GenSpec(
            seed=seed + 9000,
            vocab_size=30,  # system words w30.. are in no column
            n_classes=1 + seed % 4,
            class_size=(1, 4),
            overlap_rate=0.3,
            hierarchy_depth=2 + seed % 2,
        )
    )
    first = expert.roots[0]
    # a row that shares a word with column 1, the first child of the first
    # root, and a row and a column that share no word with the other side
    shared = LabeledClass("SHARED", first.children[0].own_members[:1])
    system = Clustering(
        system.name, system.classes + (shared, LabeledClass("ROW", ("row-only",)))
    )
    roots = (
        replace(first, own_members=()),  # an empty column under own-only
        *expert.roots[1:],
        HierarchyNode("COL", ("col-only",)),
    )
    return system, ExpertHierarchy(expert.name, roots)


@pytest.mark.parametrize("seed", range(40))
def test_build_f_table_matches_dense_oracle(seed):
    system, expert = _differential_instance(seed)
    assert not system.is_partition()
    assert len(system.classes) <= 60
    for mode in FLATTEN_MODES:
        columns = flatten(expert, mode)
        assert len(columns) <= 60
        table = build_f_table(system, columns)
        assert table.row_labels == system.labels()
        assert table.col_paths == tuple(col.path for col in columns)
        dense = _dense_cells(system, columns)
        assert table.cells == _dense_f(dense)
        assert table.rows == tuple(map(_ranked, dense))
        assert table.cells[-2][1] > 0.0  # SHARED, so no case is all zeros
        assert table.cells[-1] == (0.0,) * len(columns)  # ROW
        assert all(row[-1] == 0.0 for row in table.cells)  # COL
        assert bool(columns[0].members) == (mode == INHERIT)


_PREFIX = [f"u{i}" for i in range(9)]


@pytest.mark.parametrize(
    "rows, roots",
    [
        # every row word lies in every column, so all words form one group
        (
            [_PREFIX[:4], _PREFIX[:5], _PREFIX[:6]],
            [tree(f"E{j}", " ".join(_PREFIX[: 9 - j])) for j in range(3)],
        ),
        # the same family as a chain: each column also inherits the next
        (
            [_PREFIX[:4], _PREFIX[:6], _PREFIX[6:]],
            [tree("C0", "u8", tree("C1", "u7", tree("C2", " ".join(_PREFIX[:7]))))],
        ),
        # "a" in a node, its child and its grandchild; "b" and "c" once each
        (
            [["a"], ["a", "c"], ["b", "x"]],
            [tree("P", "a b", tree("C", "a c", tree("G", "a")))],
        ),
        # "a" in a node and its child, and "c" in the child only, next to six
        # more roots: "a" lies in the node's group and then in the child's,
        # whose columns already hold the node, so the node counts it once
        (
            [["a", "c"], ["c"]],
            [tree("P", "a b", tree("C", "a c")), *(tree(f"X{i}", f"x{i}") for i in range(6))],
        ),
        # "a" in two roots, once at a root and once below the other root
        (
            [["a", "c"], ["a", "d"], ["a"]],
            [tree("R1", "a b", tree("K", "c")), tree("R2", "d", tree("L", "a e"))],
        ),
        # "a" and "b" both owned by X and Y: one group for the two words
        (
            [["a", "b"], ["a", "p"], ["b", "q", "r"]],
            [tree("X", "a b p", tree("Z", "r")), tree("Y", "a b q")],
        ),
        # "z" lies in no column, on its own and next to a held word
        (
            [["z"], ["a", "z"]],
            [tree("A", "a b"), tree("B", "c")],
        ),
        # two children with the same label and so the same path: each is
        # below its parent, so the parent holds both children's words
        (
            [["b2"], ["a", "b1"]],
            [tree("A", "a", tree("B", "b1"), tree("B", "b2"))],
        ),
    ],
    ids=[
        "prefix-family",
        "prefix-chain",
        "node-and-descendant",
        "node-and-child-among-roots",
        "two-roots",
        "same-owners",
        "unheld",
        "repeated-sibling-labels",
    ],
)
@pytest.mark.parametrize("mode", FLATTEN_MODES)
def test_build_f_table_counts_word_groups(rows, roots, mode):
    system = Clustering("s", tuple(LabeledClass(f"S{i}", tuple(r)) for i, r in enumerate(rows)))
    columns = flatten(ExpertHierarchy("e", tuple(roots)), mode)
    table = build_f_table(system, columns)
    dense = _dense_cells(system, columns)
    assert table.cells == _dense_f(dense)
    assert table.rows == tuple(map(_ranked, dense))
    assert any(map(any, table.cells))


_TINY_WORDS = ("a", "b", "c", "d", "e", "f")
_TINY_LABELS = ("N0", "N1", "N2", "N3")


@st.composite
def _tiny_instances(draw):
    """Up to 21 nodes over six words, so most words have several owners, and
    labels drawn from four, so siblings and cousins can share a label and a
    path, which the parser rejects but ``flatten`` accepts."""

    def grow(depth: int) -> HierarchyNode:
        label = draw(st.sampled_from(_TINY_LABELS))
        n_children = draw(st.integers(0, 2 if depth < 3 else 0))
        children = tuple(grow(depth + 1) for _ in range(n_children))
        # a leaf needs a word of its own; an inner node may have none
        min_size = 0 if children else 1
        own = draw(st.lists(owned, unique=True, min_size=min_size, max_size=4))
        return HierarchyNode(label, tuple(own), children)

    owned = st.sampled_from(_TINY_WORDS)
    roots = tuple(grow(1) for _ in range(draw(st.integers(1, 3))))
    word = st.sampled_from(_TINY_WORDS + ("z",))
    row = st.lists(word, unique=True, min_size=1, max_size=5)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    system = Clustering("s", tuple(LabeledClass(f"S{i}", tuple(r)) for i, r in enumerate(rows)))
    return system, ExpertHierarchy("e", roots)


@given(_tiny_instances())
def test_build_f_table_matches_dense_oracle_on_tiny_vocabularies(instance):
    system, expert = instance
    for mode in FLATTEN_MODES:
        columns = flatten(expert, mode)
        table = build_f_table(system, columns)
        dense = _dense_cells(system, columns)
        assert table.cells == _dense_f(dense)
        assert table.rows == tuple(map(_ranked, dense))


# Twelve rows and 21 columns over twelve words, three words a node: most
# words have several owners, so the word groups are many and their ids
# follow the hash seed, and equal F within a row is common.
_HASH_SEED_TABLE = """
import random, sys
sys.path.insert(0, sys.argv[1])
from clustereval.mapping import build_f_table
from clustereval.model import FLATTEN_MODES, Clustering, ExpertHierarchy, HierarchyNode
from clustereval.model import LabeledClass, flatten
rng = random.Random(7)
words = [f"w{i}" for i in range(12)]
def node(label, depth):
    children = tuple(node(f"{label}.{i}", depth + 1) for i in range(2 if depth < 3 else 0))
    return HierarchyNode(label, tuple(rng.sample(words, 3)), children)
expert = ExpertHierarchy("e", tuple(node(f"N{i}", 1) for i in range(3)))
rows = tuple(LabeledClass(f"S{i}", tuple(rng.sample(words, 3))) for i in range(12))
for mode in FLATTEN_MODES:
    print(build_f_table(Clustering("s", rows), flatten(expert, mode)).rows)
"""


def test_ranked_rows_do_not_follow_the_hash_seed():
    src = str(Path(build_f_table.__code__.co_filename).parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_TABLE, src],
            env={**os.environ, "PYTHONHASHSEED": seed},
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    tables = outputs[0].splitlines()
    assert len(tables) == len(FLATTEN_MODES)
    for rows in map(ast.literal_eval, tables):
        assert any(len({cell[1] for cell in row}) < len(row) for row in rows)  # ties within a row


def _dense_preferences(table, threshold):
    """Per row, a stable reverse sort by F of the columns whose exact F,
    Fraction(2·yy, n) from the cell's counts, reaches the threshold's
    decimal, Fraction(repr(threshold)), then None: the oracle for
    _preferences. Only stored cells, which share a word, are candidates."""
    floor = Fraction(repr(threshold))
    dense = []
    for ranked in table.rows:
        counts = dict.fromkeys(range(table.n_cols), (0.0, 0, 1))
        counts.update((c, (f, yy, n)) for c, f, yy, n in ranked)
        eligible = [c for c, (_, yy, n) in counts.items() if yy and Fraction(2 * yy, n) >= floor]
        dense.append(sorted(eligible, key=lambda c: counts[c][0], reverse=True) + [None])
    return dense


@pytest.mark.parametrize("seed", range(230))
def test_preferences_match_dense_stable_sort(seed):
    # Each F is a threshold, as are its two neighbouring doubles, so a cell
    # meets thresholds just above, at and just below its own F.
    table = _oracle_table(seed)
    cells = table.cells
    rng = random.Random(seed)
    exact = sorted({f for row in cells for f in row})
    near = [math.nextafter(f, to) for f in exact for to in (0.0, 1.0)]
    for threshold in (0.0, 1.0, rng.random(), rng.random(), *exact, *near):
        prefs = _preferences(table, threshold)
        assert [[cell[0] for cell in ranked] for ranked in prefs] == (
            _dense_preferences(table, threshold)
        )
        for row, ranked in zip(cells, prefs):
            assert ranked[-1] == (None, 0.0, 0, 1)
            assert all(f == row[c] for c, f, _, _ in ranked[:-1])


def test_threshold_zero_leaves_a_zero_overlap_row_unmapped():
    # A pair that shares no word is never eligible, at threshold 0 too: S2
    # shares no word with any column, so it stays unmapped beside free columns.
    system = make_clustering(("S1", ["a", "b"]), ("S2", ["z"]))
    expert = make_clustering(("X", ["a", "b"]), ("Y", ["c"]), ("W", ["d"]))
    table = build_f_table(system, flatten(as_flat_hierarchy(expert), INHERIT))
    m = resolve_conflicts(table, 0.0)
    assert m.pairs == ((0, 0, 1.0, 2),)
    assert m.unmapped_rows == (1,)
    assert m.unmapped_cols == (1, 2)
    assert m.trace == ()
    assert resolve_conflicts(table, 0.2) == replace(m, threshold=0.2)


def test_initial_potentials_single_eligible_cell():
    assert initial_potentials(table_of([[0.6316]]), 0.20) == (0,)


def test_initial_potentials_all_below_threshold():
    assert initial_potentials(table_of([[0.19, 0.15]]), 0.20) == (None,)


def test_initial_potentials_tie_goes_to_smaller_index():
    assert initial_potentials(table_of([[0.5, 0.5]]), 0.2) == (0,)


def test_threshold_out_of_range_rejected():
    for solve in (resolve_conflicts, initial_potentials, brute_force_mapping):
        for threshold in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="threshold must be in"):
                solve(table_of([[0.5]]), threshold)


@pytest.mark.parametrize(
    "size, words, below, at",
    [
        # F = 5/6, whose double, printed 0.8333333333333334, lies above 5/6
        (5, 7, 0.8333333333333333, 0.8333333333333334),
        # F = 2/3, whose double, printed 0.6666666666666666, lies below 2/3
        (1, 2, 0.6666666666666666, 0.6666666666666667),
    ],
    ids=["5/6", "2/3"],
)
def test_pair_maps_when_its_exact_f_reaches_the_threshold_decimal(size, words, below, at):
    # A class of the column's first `size` words. A threshold means its own
    # decimal: the pair maps at the largest decimal below its exact F and not
    # at the smallest one above it, whichever of the two prints as F.
    column = [f"w{i}" for i in range(words)]
    system = make_clustering(("s", column[:size]))
    expert = as_flat_hierarchy(make_clustering(("e", column)))
    table = build_f_table(system, flatten(expert, INHERIT))
    ((cell,),) = table.rows
    assert Fraction(repr(below)) < Fraction(2 * cell[2], cell[3]) < Fraction(repr(at))
    assert cell[1] in (below, at)
    for solve in (resolve_conflicts, brute_force_mapping):
        assert solve(table, below).pairs == ((0, 0, cell[1], cell[2]),)
        assert solve(table, at).pairs == ()
    assert initial_potentials(table, below) == (0,)
    assert initial_potentials(table, at) == (None,)


@given(st.floats(0.0, 1.0))
def test_decimal_is_the_exact_value_of_a_float_repr(x):
    text = repr(x)
    m, e = _decimal(text)
    assert Fraction(m) * Fraction(10) ** e == Fraction(text)
    assert m % 10 or (m, e) == (0, 0)
    # zeros past the 4,300 digits that int() reads are stripped as text
    zeros = "0" * 5000
    for spelling in (f"{m}e{e}", f"+{m}_0E{e - 1}", f" 0{text} ", f"{zeros}{m}{zeros}e{e - 5000}"):
        assert float(spelling) == x
        assert _decimal(spelling) == (m, e)
    assert _decimal(f"{m}1e{e - 1}") != (m, e)


def test_resolve_two_row_conflict_minimal_loss_remaps():
    table = table_of([[0.80, 0.50], [0.70, 0.65]])
    m = resolve_conflicts(table, 0.20)
    assert as_dict(m) == {0: 0, 1: 1}
    assert m.unmapped_rows == () and m.unmapped_cols == ()
    assert len(m.trace) == 1
    event = m.trace[0]
    assert (event.row, event.from_col, event.to_col) == (1, 0, 1)
    assert event.loss == pytest.approx(0.05)


def test_resolve_single_column_loser_drops_out():
    table = table_of([[0.9], [0.3]])
    m = resolve_conflicts(table, 0.20)
    assert as_dict(m) == {0: 0}
    assert m.unmapped_rows == (1,)
    assert m.trace == (type(m.trace[0])(1, 0, None, 0.3),)


def test_resolve_without_conflicts_equals_potentials():
    table = table_of([[0.9, 0.1], [0.1, 0.8]])
    m = resolve_conflicts(table, 0.20)
    potentials = initial_potentials(table, 0.20)
    assert tuple(as_dict(m).get(r) for r in range(table.n_rows)) == potentials
    assert m.trace == ()


def test_resolve_cascading_conflicts():
    # all three rows open on K0; sixteenths keep the r1/r2 losses exactly
    # tied, so the row-index tie-break decides who steps down first
    table = table_of([[0.875, 0.0625], [0.75, 0.625], [0.5625, 0.4375]])
    m = resolve_conflicts(table, 0.20)
    assert as_dict(m) == {0: 0, 1: 1}
    assert m.unmapped_rows == (2,)
    steps = [(e.row, e.from_col, e.to_col) for e in m.trace]
    assert steps == [(1, 0, 1), (2, 0, 1), (2, 1, None)]
    assert m.trace[0].loss == 0.125
    assert m.trace[1].loss == 0.125
    assert m.trace[2].loss == 0.4375


def _banned_set_best_column(row, threshold, banned):
    best = None
    best_f = -1.0
    for col, f in enumerate(row):
        if col in banned or not f or f < threshold:
            continue
        if f > best_f:  # strict: equal cells keep the smaller column index
            best, best_f = col, f
    return best


def _banned_set_resolver(table, threshold, exact=None):
    """The earlier resolver, which rescans each claimant's whole row past a
    per-row set of abandoned columns: the oracle for resolve_conflicts.
    Losses are differences of the dense cells, or of ``exact``'s, a dense
    table of the cells' fractions, compared exactly and rounded once."""
    exact = table.cells if exact is None else exact
    current = [_banned_set_best_column(row, threshold, set()) for row in table.cells]
    potentials = tuple(current)
    banned = [set() for _ in range(table.n_rows)]
    trace = []
    while True:
        claimants = {}
        for row, col in enumerate(current):
            if col is not None:
                claimants.setdefault(col, []).append(row)
        candidates = []
        for col, rows in claimants.items():
            if len(rows) < 2:
                continue
            for row in rows:
                alt = _banned_set_best_column(table.cells[row], threshold, banned[row] | {col})
                here = exact[row][col]
                loss = here if alt is None else here - exact[row][alt]
                candidates.append((loss, row, col, alt))
        if not candidates:
            break
        loss, row, col, alt = min(candidates, key=lambda c: (c[0], c[1], c[2]))
        banned[row].add(col)
        current[row] = alt
        trace.append(RemapEvent(row, col, alt, float(loss)))
    return potentials, _as_result(table, current, threshold, tuple(trace))


def _as_result(table, current, threshold, trace=()):
    """A row -> column list (None = unmapped) as a MappingResult, for the oracles."""
    cells = [{cell[0]: cell for cell in ranked} for ranked in table.rows]
    pairs = tuple((r, c, *cells[r][c][1:3]) for r, c in enumerate(current) if c is not None)
    return MappingResult(
        pairs=pairs,
        unmapped_rows=tuple(r for r, c in enumerate(current) if c is None),
        unmapped_cols=tuple(c for c in range(table.n_cols) if c not in {p[1] for p in pairs}),
        threshold=threshold,
        trace=trace,
    )


# A small value set makes ties within a row common; 0.19999999999999998 is
# one ulp below 0.2, the default threshold.
_TIE_VALUES = (0.0, 0.1, 0.19999999999999998, 0.2, 0.25, 0.5, 0.75, 1.0)


def _tie_heavy_table(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 12)  # R != C in most cases
    cells = [[rng.choice(_TIE_VALUES) for _ in range(n_cols)] for _ in range(n_rows)]
    if seed % 3 == 0:  # every row prefers column 0
        for row in cells:
            row[0] = max(row)
    for row in rng.sample(cells, k=n_rows // 4):  # no eligible cell at threshold 0.2 and up
        row[:] = [rng.choice((0.0, 0.1)) for _ in row]
    return table_of(cells)


def _cascade_table(seed):
    """Every row ranks the columns in one shared order, so each re-map sends
    a row down onto the next contested column; sixteenths (odd seeds) make
    re-map losses tie exactly."""
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(2, 30), rng.randint(1, 30)
    draw = (lambda: rng.randint(0, 16) / 16) if seed % 2 else rng.random
    order = rng.sample(range(n_cols), n_cols)
    cells = []
    for _ in range(n_rows):
        row = [0.0] * n_cols
        for col, f in zip(order, sorted((draw() for _ in order), reverse=True)):
            row[col] = f
        cells.append(row)
    return table_of(cells)


def _reforming_table(seed):
    """More rows than columns, each with one to three eligible columns: a
    column's claimants drop from two to one and later grow back to two as
    other rows step down onto it."""
    rng = random.Random(seed)
    n_cols = rng.randint(2, 6)
    cells = []
    for _ in range(rng.randint(n_cols, 2 * n_cols)):
        row = [0.0] * n_cols
        k = rng.randint(1, min(3, n_cols))
        values = sorted(rng.sample(range(4, 17), k), reverse=True)
        for col, f in zip(rng.sample(range(n_cols), k), values):
            row[col] = f / 16
        cells.append(row)
    return table_of(cells)


def _oracle_table(seed):
    if seed >= 180:
        return _reforming_table(seed)
    if seed >= 150:
        return _cascade_table(seed)
    return _tie_heavy_table(seed) if seed % 5 else _instance(seed)


@pytest.mark.parametrize("seed", range(230))
def test_resolve_conflicts_matches_banned_set_oracle(seed):
    table = _oracle_table(seed)
    for threshold in (0.0, 0.2, 0.5, 1.0):
        potentials, expected = _banned_set_resolver(table, threshold)
        assert initial_potentials(table, threshold) == potentials
        assert resolve_conflicts(table, threshold) == expected  # every RemapEvent.loss too


def test_equal_exact_losses_remap_the_smaller_row():
    # F(R0, X) = 2/10 and F(R1, X) - F(R1, Y) = 6/20 - 2/20: both losses are
    # exactly 1/5, so the tie rule re-maps R0. Each loss is one rounded
    # division of integers, so both are 0.2; the float difference 0.3 - 0.1
    # would be 0.19999999999999998, one ulp below, and re-map R1 instead.
    x = [f"x{i}" for i in range(1, 10)]
    system = make_clustering(("R0", ["x1"]), ("R1", [*x[:3], "y1", *(f"o{i}" for i in range(7))]))
    expert = make_clustering(("X", x), ("Y", [f"y{i}" for i in range(1, 10)]))
    table = build_f_table(system, flatten(as_flat_hierarchy(expert), INHERIT))
    assert table.cells == ((0.2, 0.0), (0.3, 0.1))
    m = resolve_conflicts(table, 0.1)
    assert m.trace == (RemapEvent(0, 0, None, 0.2),)


@pytest.mark.parametrize("seed", range(120))
def test_remap_losses_are_exact_fractions_rounded_once(seed):
    system, columns = _instance_parts(seed)
    table = build_f_table(system, columns)
    # each cell's fraction 2·yy/(|a|+|b|), counted from the word sets
    exact = [
        [Fraction(2 * len(words & col.members), len(words) + col.size) for col in columns]
        for words in (frozenset(cls.members) for cls in system.classes)
    ]
    for threshold in (0.0, 0.1, 0.2, 0.5):
        m = resolve_conflicts(table, threshold)
        for e in m.trace:
            there = 0 if e.to_col is None else exact[e.row][e.to_col]
            assert e.loss == float(exact[e.row][e.from_col] - there), (threshold, e)
        assert m == _banned_set_resolver(table, threshold, exact)[1]


def test_brute_force_on_conflict_fixture():
    table = table_of([[0.80, 0.50], [0.70, 0.65]])
    m = brute_force_mapping(table, 0.20)
    assert as_dict(m) == {0: 0, 1: 1}
    assert total_f(m) == pytest.approx(1.45)


def test_brute_force_single_cell():
    m = brute_force_mapping(table_of([[0.63]]), 0.20)
    assert as_dict(m) == {0: 0}


def test_brute_force_all_below_threshold():
    m = brute_force_mapping(table_of([[0.1, 0.19], [0.05, 0.0]]), 0.20)
    assert m.pairs == ()
    assert m.unmapped_rows == (0, 1)
    assert m.unmapped_cols == (0, 1)


def test_brute_force_size_guard():
    cells = [[0.0] * 9 for _ in range(2)]
    with pytest.raises(ValueError, match="too large"):
        brute_force_mapping(table_of(cells), 0.2)


def _bitmask_dp_oracle(table, threshold):
    """The earlier exhaustive optimum: a best[row][used-column mask] table,
    then a pass that takes, row by row, the smallest free column that still
    reaches the optimum, or leaves the row out. The oracle for
    brute_force_mapping."""
    n, m = table.n_rows, table.n_cols
    size = 1 << m
    best = [[0.0] * size for _ in range(n + 1)]
    for r in range(n - 1, -1, -1):
        row = table.cells[r]
        for mask in range(size):
            top = best[r + 1][mask]  # leave row r unmapped
            for c in range(m):
                bit = 1 << c
                if mask & bit or not row[c] or row[c] < threshold:
                    continue
                value = row[c] + best[r + 1][mask | bit]
                if value > top:
                    top = value
            best[r][mask] = top
    current = []
    mask = 0
    for r in range(n):
        row = table.cells[r]
        choice = None
        for c in range(m):
            bit = 1 << c
            if mask & bit or not row[c] or row[c] < threshold:
                continue
            if row[c] + best[r + 1][mask | bit] == best[r][mask]:
                choice = c
                mask |= bit
                break
        current.append(choice)
    return _as_result(table, current, threshold)


def _search_table(seed):
    """Up to 8 x 8: tie-heavy cells for even seeds, else random floats with
    about 40 % zeros."""
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)

    def draw():
        if seed % 2 == 0:
            return rng.choice(_TIE_VALUES)
        return 0.0 if rng.random() < 0.4 else rng.random()

    return table_of([[draw() for _ in range(n_cols)] for _ in range(n_rows)])


@pytest.mark.parametrize("batch", range(20))
def test_brute_force_matches_bitmask_dp_oracle(batch):
    for seed in range(batch * 100, batch * 100 + 100):
        table = _search_table(seed)
        for threshold in (0.0, 0.1, 0.2, 0.5, 1.0):
            expected = _bitmask_dp_oracle(table, threshold)
            assert brute_force_mapping(table, threshold) == expected, (seed, threshold)


@pytest.mark.parametrize("seed", range(230))
def test_threshold_zero_maps_as_the_smallest_positive_threshold(seed):
    # F >= 5e-324 holds exactly for the nonzero cells, the pairs that share a
    # word, so threshold 0 may not make any further cell eligible
    tiny = 5e-324
    for table in (_oracle_table(seed), _search_table(seed)):
        assert initial_potentials(table, 0.0) == initial_potentials(table, tiny)
        assert replace(resolve_conflicts(table, 0.0), threshold=tiny) == resolve_conflicts(
            table, tiny
        )
        if table.n_rows <= 8 and table.n_cols <= 8:
            assert replace(brute_force_mapping(table, 0.0), threshold=tiny) == (
                brute_force_mapping(table, tiny)
            )


def _naive_best_mapping(cells, threshold):
    """Literal depth-first enumeration; first maximal mapping wins, with
    per-row options ordered smallest column first and 'unmapped' last."""
    n, m = len(cells), len(cells[0])
    best = {"total": -1.0, "assign": None}
    assign: list[int | None] = [None] * n

    def rec(r, used, total):
        if r == n:
            if total > best["total"]:
                best["total"] = total
                best["assign"] = assign.copy()
            return
        for c in range(m):
            if c in used or not cells[r][c] or cells[r][c] < threshold:
                continue
            assign[r] = c
            rec(r + 1, used | {c}, total + cells[r][c])
        assign[r] = None
        rec(r + 1, used, total)

    rec(0, frozenset(), 0.0)
    return best["assign"], best["total"]


@pytest.mark.parametrize("seed", range(60))
def test_brute_force_matches_naive_enumeration(seed):
    # cells on a 1/64 grid keep every partial sum exact, so the two
    # search orders cannot disagree through rounding
    rng = random.Random(seed)
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    cells = [[rng.randint(0, 64) / 64.0 for _ in range(m)] for _ in range(n)]
    threshold = rng.choice([0.0, 0.2, 0.5])
    got = brute_force_mapping(table_of(cells), threshold)
    assign, total = _naive_best_mapping(cells, threshold)
    assert [as_dict(got).get(r) for r in range(n)] == assign
    assert total_f(got) == total


def _instance(seed):
    return build_f_table(*_instance_parts(seed))


def _instance_parts(seed):
    system = gen_clustering(
        GenSpec(
            seed=seed,
            vocab_size=16 + (seed % 3) * 8,
            n_classes=2 + seed % 5,
            class_size=(1 + seed % 2, 3 + seed % 3),
            overlap_rate=(seed % 3) * 0.25,
        )
    )
    expert = gen_hierarchy(
        GenSpec(
            seed=seed + 5000,
            vocab_size=16 + (seed % 3) * 8,
            n_classes=1 + seed % 3,
            class_size=(1, 3),
            overlap_rate=0.25,
            hierarchy_depth=1 + seed % 3,
        )
    )
    return system, flatten(expert, INHERIT)


def assert_mapping_invariants(m: MappingResult, table: FTable, threshold: float):
    rows = [r for r, _, _, _ in m.pairs]
    cols = [c for _, c, _, _ in m.pairs]
    assert len(rows) == len(set(rows)), "mapping not injective in rows"
    assert len(cols) == len(set(cols)), "mapping not injective in columns"
    for r, c, f, yy in m.pairs:
        assert (c, f, yy) in {cell[:3] for cell in table.rows[r]}
        assert f >= threshold
        assert f, "a pair that shares no word was mapped"
    assert sorted(rows + list(m.unmapped_rows)) == list(range(table.n_rows))
    assert sorted(cols + list(m.unmapped_cols)) == list(range(table.n_cols))
    assert m.threshold == threshold
    for event in m.trace:
        assert event.loss >= 0.0
        if event.to_col is not None:
            assert table.cells[event.row][event.to_col] <= table.cells[event.row][event.from_col]


@pytest.mark.parametrize("seed", range(120))
def test_resolve_conflicts_invariants_on_generated_instances(seed):
    table = _instance(seed)
    for threshold in (0.0, 0.2, 0.5):
        m = resolve_conflicts(table, threshold)
        assert_mapping_invariants(m, table, threshold)
        assert m == resolve_conflicts(table, threshold)


@pytest.mark.parametrize("seed", range(60))
def test_greedy_never_beats_brute_force(seed):
    table = _instance(seed)
    if table.n_rows > 8 or table.n_cols > 8:
        pytest.skip("instance larger than the enumeration guard")
    greedy = resolve_conflicts(table, 0.2)
    optimal = brute_force_mapping(table, 0.2)
    assert total_f(greedy) <= total_f(optimal) + 1e-9  # float-summation slack


@pytest.mark.parametrize("seed", range(60))
def test_conflict_free_instances_keep_their_argmax(seed):
    table = _instance(seed)
    potentials = initial_potentials(table, 0.2)
    claimed = [c for c in potentials if c is not None]
    if len(claimed) != len(set(claimed)):
        pytest.skip("instance has an initial conflict")
    m = resolve_conflicts(table, 0.2)
    assert tuple(as_dict(m).get(r) for r in range(table.n_rows)) == potentials
    assert m.trace == ()
