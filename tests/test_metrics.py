from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clustereval import metrics
from clustereval.metrics import (
    ContingencyTable,
    co_classified_pairs,
    contingency,
    f_measure,
    pair_baseline,
    scores,
)

from conftest import (
    CLASS_A_MEMBERS,
    CLASS_B_MEMBERS,
    make_clustering,
    pair_oracle,
    random_partition,
)

word_sets = st.frozensets(st.sampled_from([f"w{i}" for i in range(12)]))


def test_golden_contingency_counts():
    t = contingency(frozenset(CLASS_A_MEMBERS), frozenset(CLASS_B_MEMBERS))
    assert (t.yy, t.yn, t.ny) == (6, 2, 5)


def test_contingency_identical_sets():
    assert contingency({"a", "b"}, {"a", "b"}) == ContingencyTable(2, 0, 0)


def test_contingency_disjoint_sets():
    assert contingency({"a"}, {"b"}) == ContingencyTable(0, 1, 1)


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ContingencyTable(1, -1, 0)


def test_scores_from_golden_counts():
    # independent oracle: exact rational arithmetic
    p, r = Fraction(6, 8), Fraction(6, 11)
    f = 2 * p * r / (p + r)
    s = scores(ContingencyTable(6, 2, 5))
    assert s.precision == float(p) == 0.75
    assert s.recall == float(r)
    assert s.f_measure == float(f)
    assert f == Fraction(12, 19)


def test_scores_zero_intersection_is_all_zero():
    assert scores(ContingencyTable(0, 3, 4)) == scores(ContingencyTable(0, 0, 0))
    s = scores(ContingencyTable(0, 3, 4))
    assert (s.precision, s.recall, s.f_measure) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "p_pct,r_pct,expected",
    [(75.38, 29.09, "0.42"), (77.08, 25.23, "0.38"), (73.85, 37.88, "0.50")],
)
def test_f_measure_consistent_with_reported_percent_pairs(p_pct, r_pct, expected):
    # counts whose precision and recall are exactly p_pct% and r_pct%
    p, r = round(p_pct * 100), round(r_pct * 100)
    assert f"{f_measure(p * r, 10_000 * r, 10_000 * p):.2f}" == expected


def test_f_measure_is_the_exact_fraction_and_meets_thresholds_exactly():
    # every cell is the correctly rounded 2yy/(a+b), so comparing it with a
    # two-decimal threshold agrees with the exact integer comparison
    thresholds = [(k, float(f"{k // 100}.{k % 100:02d}")) for k in range(101)]
    for a in range(1, 41):
        for b in range(1, 41):
            for yy in range(1, min(a, b) + 1):
                cell = f_measure(yy, a, b)
                assert cell == float(Fraction(2 * yy, a + b)), (yy, a, b)
                for k, t in thresholds:
                    assert (cell >= t) == (200 * yy >= k * (a + b)), (yy, a, b, t)


@given(word_sets, word_sets)
def test_contingency_swap_symmetry(a, b):
    t, u = contingency(a, b), contingency(b, a)
    assert (t.yy, t.yn, t.ny) == (u.yy, u.ny, u.yn)
    s, z = scores(t), scores(u)
    assert s.precision == z.recall and s.recall == z.precision
    assert s.f_measure == z.f_measure


@given(word_sets, word_sets)
def test_contingency_marginals_match_set_sizes(a, b):
    t = contingency(a, b)
    assert t.yy + t.yn == len(a)
    assert t.yy + t.ny == len(b)


@given(word_sets, word_sets)
def test_f_extremes(a, b):
    t = contingency(a, b)
    f = scores(t).f_measure
    assert 0.0 <= f <= 1.0
    assert (f == 0.0) == (t.yy == 0)
    assert (f == 1.0) == (t.yn == 0 and t.ny == 0 and t.yy > 0)


def test_pair_baseline_identical_partitions():
    c = make_clustering(("X", ["a", "b"]), ("Y", ["c"]))
    table, s = pair_baseline(c, c)
    assert (table.yy, table.yn, table.ny) == (1, 0, 0)
    assert s.f_measure == 1.0


def test_pair_baseline_merged_class():
    system = make_clustering(("X", ["a", "b", "c"]))
    expert = make_clustering(("P", ["a", "b"]), ("Q", ["c"]))
    table, s = pair_baseline(system, expert)
    assert (table.yy, table.yn, table.ny) == pair_oracle(system, expert) == (1, 2, 0)
    assert s.precision == pytest.approx(1 / 3)
    assert s.recall == 1.0
    assert s.f_measure == pytest.approx(0.5)


def test_pair_baseline_all_singletons():
    c = make_clustering(("X", ["a"]), ("Y", ["b"]))
    table, s = pair_baseline(c, c)
    assert (table.yy, table.yn, table.ny) == (0, 0, 0)
    assert s.f_measure == 0.0


def test_pair_baseline_deduplicates_overlapping_classes():
    system = make_clustering(("X", ["a", "b"]), ("Y", ["b", "a"]))
    expert = make_clustering(("P", ["a", "b"]))
    assert not system.is_partition()
    table, _ = pair_baseline(system, expert)
    assert (table.yy, table.yn, table.ny) == (1, 0, 0)


VOCAB = [f"w{i}" for i in range(10)]


@st.composite
def partitions(draw):
    """Each side draws its own words, so some appear on one side only;
    small class counts give singletons and sides with no pair at all."""
    owner = draw(st.dictionaries(st.sampled_from(VOCAB), st.integers(0, 4)))
    classes: dict[int, list[str]] = {}
    for word, k in owner.items():
        classes.setdefault(k, []).append(word)
    return make_clustering(*((f"P{k}", ws) for k, ws in sorted(classes.items())))


overlapping = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=6, unique=True), max_size=5
).map(lambda sets: make_clustering(*((f"C{i}", ws) for i, ws in enumerate(sets)))).filter(
    lambda c: not c.is_partition()
)


@given(
    st.one_of(
        st.tuples(partitions(), partitions()),
        st.tuples(partitions(), overlapping),
        st.tuples(overlapping, partitions()),
        st.tuples(overlapping, overlapping),
    )
)
@example((make_clustering(("X", ["a"]), ("Y", ["b"])), make_clustering(("P", ["a", "b"]))))
@example((make_clustering(("X", ["a", "b"])), make_clustering(("P", ["c", "d"]))))
def test_pair_baseline_matches_pair_sets_and_enumeration(sides):
    system, expert = sides
    table, _ = pair_baseline(system, expert)
    assert table == contingency(co_classified_pairs(system), co_classified_pairs(expert))
    assert (table.yy, table.yn, table.ny) == pair_oracle(system, expert)


# Built directly, so a class may repeat a word: not a partition, though
# no word is in two classes.
repeating = st.lists(st.lists(st.sampled_from(VOCAB[:5]), max_size=4), max_size=3).map(
    lambda lists: make_clustering(*((f"R{i}", ws) for i, ws in enumerate(lists)))
)


@given(st.one_of(partitions(), overlapping, repeating), st.one_of(partitions(), repeating))
@example(make_clustering(), make_clustering())
@example(make_clustering(("A", ["a", "a"])), make_clustering(("P", ["a"])))
def test_pair_baseline_takes_the_closed_form_exactly_for_two_partitions(system, expert):
    def words_seen_twice(clustering):
        words = [w for c in clustering.classes for w in c.members]
        return len(set(words)) != len(words)

    both = not words_seen_twice(system) and not words_seen_twice(expert)
    with mock.patch.object(
        metrics, "_partition_contingency", side_effect=metrics._partition_contingency
    ) as closed_form:
        table, _ = pair_baseline(system, expert)
    assert closed_form.called == both
    assert table == contingency(co_classified_pairs(system), co_classified_pairs(expert))


def test_partitions_are_counted_without_listing_pairs(monkeypatch):
    # The pair sets would hold about 200 M tuples here; only the closed
    # form can run this input, so never call it without the patch.
    def refuse(clustering):
        raise AssertionError(f"listed the pairs of partition {clustering.name}")

    monkeypatch.setattr("clustereval.metrics.co_classified_pairs", refuse)
    words = [f"w{i}" for i in range(20_000)]
    system = make_clustering(("all", words))
    expert = make_clustering(*((f"E{k}", words[100 * k : 100 * (k + 1)]) for k in range(200)))
    table, _ = pair_baseline(system, expert)
    system_pairs, yy = 199_990_000, 200 * 4_950
    assert table == ContingencyTable(yy, system_pairs - yy, 0)


@pytest.mark.parametrize("overlapping_side", ["system", "expert"])
def test_overlapping_input_takes_the_deduplicating_pair_sets(monkeypatch, overlapping_side):
    listed = []

    def spy(clustering):
        listed.append(clustering.name)
        return co_classified_pairs(clustering)

    monkeypatch.setattr("clustereval.metrics.co_classified_pairs", spy)
    # {a, b} is in two classes: one pair, not two
    sides = {
        "system": make_clustering(("X", ["a", "b", "c"]), ("Y", ["b", "a"]), name="system"),
        "expert": make_clustering(("P", ["a", "b"]), ("Q", ["c"]), name="expert"),
    }
    if overlapping_side == "expert":
        sides = {"system": sides["expert"], "expert": sides["system"]}
    table, _ = pair_baseline(sides["system"], sides["expert"])
    assert listed == [sides["system"].name, sides["expert"].name]
    expected = (1, 2, 0) if overlapping_side == "system" else (1, 0, 2)
    assert (table.yy, table.yn, table.ny) == expected


@pytest.mark.parametrize("seed", range(25))
def test_pair_baseline_matches_enumeration_on_random_partitions(seed):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(rng.randint(4, 20))]
    system = random_partition(rng, words, 5)
    expert = random_partition(rng, words, 5)
    table, _ = pair_baseline(system, expert)
    assert (table.yy, table.yn, table.ny) == pair_oracle(system, expert)


@pytest.mark.parametrize("seed", range(8))
def test_pair_baseline_self_comparison_is_perfect(seed):
    rng = random.Random(100 + seed)
    words = [f"w{i}" for i in range(rng.randint(4, 15))]
    c = random_partition(rng, words, 4)
    if not any(len(k) >= 2 for k in c.classes):
        pytest.skip("no co-classified pair in this draw")
    _, s = pair_baseline(c, c)
    assert s.f_measure == 1.0


def test_co_classified_pairs_sorted_within_pair():
    c = make_clustering(("X", ["b", "a"]))
    assert co_classified_pairs(c) == frozenset({("a", "b")})
