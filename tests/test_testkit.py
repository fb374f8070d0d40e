from __future__ import annotations

import hashlib
from unittest import mock

import pytest

from clustereval.aggregate import evaluate

import testkit
from conftest import as_flat_hierarchy
from testkit import GenSpec, SplitMix64, gen_clustering, gen_hierarchy


def test_splitmix64_is_stable():
    # frozen reference outputs for seed 0 (first three draws)
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_splitmix64_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        SplitMix64(1).below(0)


def test_gen_clustering_deterministic():
    spec = GenSpec(seed=7, vocab_size=20, n_classes=4, class_size=(2, 4), overlap_rate=0.3)
    a, b = gen_clustering(spec), gen_clustering(spec)
    assert a == b


def test_gen_clustering_zero_overlap_gives_disjoint_classes():
    spec = GenSpec(seed=1, vocab_size=10, n_classes=2, class_size=(2, 3), overlap_rate=0.0)
    c = gen_clustering(spec)
    assert len(c.classes) == 2
    assert not set(c.classes[0].members) & set(c.classes[1].members)
    assert c.is_partition()


def test_gen_clustering_sizes_and_vocabulary():
    spec = GenSpec(seed=3, vocab_size=15, n_classes=5, class_size=(2, 4), overlap_rate=0.5)
    c = gen_clustering(spec)
    vocab = {f"w{i}" for i in range(15)}
    for cls in c.classes:
        assert 2 <= len(cls) <= 4
        assert set(cls.members) <= vocab
    assert c.labels() == tuple(f"C{i}" for i in range(5))


def test_gen_clustering_full_overlap_reuses_earlier_words():
    spec_template = dict(vocab_size=10, n_classes=2, class_size=(2, 3), overlap_rate=1.0)
    subset_seen = False
    for seed in range(30):
        c = gen_clustering(GenSpec(seed=seed, **spec_template))
        first, second = frozenset(c.classes[0].members), frozenset(c.classes[1].members)
        if len(second) <= len(first):
            assert second <= first
            subset_seen = True
        else:
            # reuse pool ran dry; the overflow word must be fresh
            assert first <= second
    assert subset_seen


def test_gen_clustering_rejects_forced_duplicate_sets():
    # with full overlap and a fixed size the second class can only ever
    # equal the first, which self-evaluation identity forbids
    spec = GenSpec(seed=0, vocab_size=10, n_classes=2, class_size=(3, 3), overlap_rate=1.0)
    with pytest.raises(ValueError, match="infeasible"):
        gen_clustering(spec)


def test_gen_clustering_member_sets_pairwise_distinct():
    # seed 2 draws a set that an earlier class already holds, so it redraws
    spec = GenSpec(seed=2, vocab_size=8, n_classes=6, class_size=(1, 2), overlap_rate=0.6)
    drawn: list[frozenset[str]] = []

    def draw(*args):
        members = real_draw(*args)
        drawn.append(frozenset(members))
        return members

    real_draw = testkit._draw_members
    with mock.patch.object(testkit, "_draw_members", draw):
        c = gen_clustering(spec)
    sets = [frozenset(cls.members) for cls in c.classes]
    assert len(set(sets)) == len(sets)
    assert len(drawn) > len(sets)  # the redraw path ran
    assert set(drawn) == set(sets)  # and every rejected draw repeated a kept set


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(vocab_size=10, n_classes=2, class_size=(0, 2)),
        dict(vocab_size=10, n_classes=2, class_size=(3, 2)),
        dict(vocab_size=10, n_classes=2, class_size=(2, 11)),
        dict(vocab_size=10, n_classes=0, class_size=(1, 2)),
        dict(vocab_size=10, n_classes=2, class_size=(1, 2), overlap_rate=1.5),
        dict(vocab_size=10, n_classes=2, class_size=(1, 2), hierarchy_depth=0),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        GenSpec(seed=0, **kwargs)


def test_gen_hierarchy_depth_one_is_flat():
    spec = GenSpec(seed=5, vocab_size=20, n_classes=3, class_size=(1, 3), hierarchy_depth=1)
    h = gen_hierarchy(spec)
    assert len(h.roots) == 3
    assert all(root.children == () for root in h.roots)


def _walk(node, depth=1):
    yield node, depth
    for child in node.children:
        yield from _walk(child, depth + 1)


def test_gen_hierarchy_reaches_requested_depth():
    spec = GenSpec(seed=5, vocab_size=40, n_classes=3, class_size=(1, 2), hierarchy_depth=2)
    h = gen_hierarchy(spec)
    depths = [d for root in h.roots for _, d in _walk(root)]
    assert max(depths) == 2
    assert all(root.children for root in h.roots)


def test_gen_hierarchy_labels_unique_and_nodes_nonempty():
    spec = GenSpec(seed=9, vocab_size=40, n_classes=2, class_size=(1, 3), hierarchy_depth=3)
    h = gen_hierarchy(spec)
    nodes = [n for root in h.roots for n, _ in _walk(root)]
    labels = [n.label for n in nodes]
    assert len(set(labels)) == len(labels)
    assert all(n.own_members for n in nodes)


def test_gen_hierarchy_deterministic():
    spec = GenSpec(seed=13, vocab_size=30, n_classes=2, class_size=(1, 3), hierarchy_depth=2)
    assert gen_hierarchy(spec) == gen_hierarchy(spec)


def test_unperturbed_gold_evaluates_to_perfect_score():
    gold = gen_clustering(GenSpec(seed=21, vocab_size=18, n_classes=4, class_size=(1, 4)))
    report = evaluate(gold, as_flat_hierarchy(gold))
    assert report.overall_scores.f_measure == 1.0


# SHA-256 of repr(generate(GenSpec(*key))). Overlap 1.0 exercises the fresh-pool
# fallback, and the vocab-8 clustering redraws duplicate member sets.
PINNED_CLUSTERINGS = {
    (1, 30, 5, (2, 5), 0.0): "1734199a72aa8afab8a139b2d044b6792dbe271170dadf1db24766f4825be1ab",
    (2, 30, 6, (2, 5), 0.3): "b217a8c43eda9ef880a5f6d729a787f2d0ec28e09d5558e20aacb37f70d4e56c",
    (3, 10, 3, (2, 4), 1.0): "0605012f244f71bea642afd4ce5dd87894f03748e0609ad31a0cfb28e30d62f1",
    (1, 8, 6, (1, 2), 0.6): "00c23391a8f03cd43af832ee09955624057d250b3efb8581c6a59d1cb1d44b63",
}
PINNED_HIERARCHIES = {
    (4, 20, 3, (1, 3), 0.0, 1): "116025e44dce492ac48fb7d5ff951f2511e70a16f0212f8478242686fb6486a6",
    (5, 40, 2, (1, 3), 0.3, 2): "813ab556086add5b8f64ce15da24460a8261b2eca9e5d962aaf8309fc1ce7044",
    (6, 60, 2, (1, 3), 1.0, 3): "24c68c5e84db56e8527152ab2549c35640a5174b7f4f9f0ae767f1dc5c913739",
    (7, 60, 3, (2, 4), 0.3, 3): "7df3817587771441845c31904d926106c6975b62f860841d653085d7ce86d19b",
}


@pytest.mark.parametrize(
    "generate, pinned", [(gen_clustering, PINNED_CLUSTERINGS), (gen_hierarchy, PINNED_HIERARCHIES)]
)
def test_generated_fixtures_are_pinned(generate, pinned):
    for key, digest in pinned.items():
        assert hashlib.sha256(repr(generate(GenSpec(*key))).encode()).hexdigest() == digest, key
