from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustereval.model import (
    INHERIT,
    OWN_ONLY,
    Clustering,
    DocumentError,
    ExpertHierarchy,
    HierarchyNode,
    LabeledClass,
    as_flat_hierarchy,
    flatten,
    parse_clustering,
    parse_hierarchy,
)
from clustereval.testkit import GenSpec, gen_hierarchy

from conftest import CLASS_A_MEMBERS, CLASS_B_MEMBERS, clustering_doc, hierarchy_doc, node


def node_count(hierarchy: ExpertHierarchy) -> int:
    def count(n: HierarchyNode) -> int:
        return 1 + sum(count(c) for c in n.children)

    return sum(count(r) for r in hierarchy.roots)


def node_doc(n: HierarchyNode) -> dict:
    """The conftest ``node()`` dict of a parsed or generated node."""
    return node(n.label, n.own_members, [node_doc(c) for c in n.children])


def test_parse_clustering_preserves_order_and_allows_overlap():
    doc = clustering_doc([("A", ["cat", "dog"]), ("B", ["dog", "pig"])])
    c = parse_clustering(doc)
    assert c.labels() == ("A", "B")
    assert c.classes[0].members == ("cat", "dog")
    assert c.classes[1].members == ("dog", "pig")
    assert not c.is_partition()


def test_parse_clustering_single_class_document():
    c = parse_clustering(clustering_doc([("A", CLASS_A_MEMBERS)]))
    assert len(c.classes) == 1
    assert len(c.classes[0]) == 8
    assert c.classes[0].members == tuple(CLASS_A_MEMBERS)


def test_duplicate_member_rejected_with_location():
    with pytest.raises(DocumentError) as exc:
        parse_clustering(clustering_doc([("A", ["cat", "cat"])]))
    assert "duplicate member" in str(exc.value)
    assert exc.value.location == "$.classes[0].members[1]"


def test_duplicate_label_rejected():
    with pytest.raises(DocumentError, match="duplicate label"):
        parse_clustering(clustering_doc([("A", ["cat"]), ("A", ["dog"])]))


def test_empty_class_rejected():
    with pytest.raises(DocumentError, match="no members"):
        parse_clustering(clustering_doc([("A", [])]))


def test_empty_member_string_rejected():
    with pytest.raises(DocumentError, match="empty member"):
        parse_clustering(clustering_doc([("A", ["cat", "  "])]))


def test_missing_label_rejected():
    with pytest.raises(DocumentError, match="missing label"):
        parse_clustering('{"classes": [{"members": ["cat"]}]}')


def test_invalid_json_reports_location():
    with pytest.raises(DocumentError, match="invalid JSON") as exc:
        parse_clustering("{not json")
    assert "line 1" in exc.value.location


def test_top_level_must_be_object():
    with pytest.raises(DocumentError, match="top-level"):
        parse_clustering("[1, 2]")


def test_classes_must_be_nonempty():
    with pytest.raises(DocumentError):
        parse_clustering('{"name": "x", "classes": []}')


def test_children_rejected_in_flat_clustering():
    doc = hierarchy_doc([node("A", ["cat"], children=[node("B", ["dog"])])])
    with pytest.raises(DocumentError, match="children"):
        parse_clustering(doc)


def test_name_is_optional():
    c = parse_clustering('{"classes": [{"label": "A", "members": ["cat"]}]}')
    assert c.name == ""


def test_members_normalized_nfc_and_stripped():
    # "café" (combining accent) and "café" are the same word
    doc = clustering_doc([("A", [" cat ", "café"]), ("B", ["café"])])
    c = parse_clustering(doc)
    assert c.classes[0].members == ("cat", "café")
    assert c.classes[0].member_set & c.classes[1].member_set == {"café"}


def test_nfc_duplicate_in_one_class_rejected():
    with pytest.raises(DocumentError, match="duplicate member"):
        parse_clustering(clustering_doc([("A", ["café", "café"])]))


def test_parse_hierarchy_flat_document():
    h = parse_hierarchy(clustering_doc([("B", CLASS_B_MEMBERS)]))
    assert len(h.roots) == 1
    assert h.roots[0].children == ()
    assert len(h.roots[0].own_members) == 11
    assert node_count(h) == 1


def test_parse_hierarchy_nested():
    doc = hierarchy_doc([node("ANIMAL", ["cat"], children=[node("PET", ["dog"])])])
    h = parse_hierarchy(doc)
    assert h.roots[0].label == "ANIMAL"
    assert h.roots[0].children[0].label == "PET"
    assert node_count(h) == 2


def test_hierarchy_duplicate_label_across_levels_rejected():
    doc = hierarchy_doc([node("DIET", ["hay"], children=[node("DIET", ["grass"])])])
    with pytest.raises(DocumentError, match="duplicate label"):
        parse_hierarchy(doc)


def test_hierarchy_label_with_slash_rejected_with_location():
    doc = hierarchy_doc([node("A", ["a"], children=[node(" B/C ", ["b"])])])
    with pytest.raises(DocumentError, match="contains '/'") as info:
        parse_hierarchy(doc)
    assert info.value.location == "$.classes[0].children[0].label"
    assert parse_clustering(clustering_doc([("B/C", ["b"])])).labels() == ("B/C",)


def test_hierarchy_node_needs_members_or_children():
    with pytest.raises(DocumentError, match="neither members nor children"):
        parse_hierarchy(hierarchy_doc([node("EMPTY")]))


def test_hierarchy_internal_node_may_have_no_own_members():
    doc = hierarchy_doc([node("TOP", children=[node("LEAF", ["cat"])])])
    h = parse_hierarchy(doc)
    assert h.roots[0].own_members == ()


def test_flatten_inherit_unions_descendants():
    h = ExpertHierarchy(
        "e", (HierarchyNode("ANIMAL", ("cat",), (HierarchyNode("PET", ("dog",)),)),)
    )
    cols = flatten(h, INHERIT)
    assert [c.path for c in cols] == [("ANIMAL",), ("ANIMAL", "PET")]
    assert [set(c.members) for c in cols] == [{"cat", "dog"}, {"dog"}]


def test_flatten_own_only_keeps_own_members():
    h = ExpertHierarchy(
        "e", (HierarchyNode("ANIMAL", ("cat",), (HierarchyNode("PET", ("dog",)),)),)
    )
    cols = flatten(h, OWN_ONLY)
    assert [set(c.members) for c in cols] == [{"cat"}, {"dog"}]


def test_flatten_flat_hierarchy_same_in_both_modes():
    c = parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["c"]), ("C", ["d"])]))
    h = as_flat_hierarchy(c)
    for mode in (INHERIT, OWN_ONLY):
        cols = flatten(h, mode)
        assert len(cols) == 3
        assert [c2.members for c2 in cols] == [frozenset(k.member_set) for k in c.classes]


def test_flatten_rejects_unknown_mode():
    h = ExpertHierarchy("e", (HierarchyNode("A", ("cat",)),))
    with pytest.raises(ValueError, match="flatten mode"):
        flatten(h, "both")


def test_flatten_inherit_rejects_empty_effective_set():
    # only constructible by bypassing parse-time validation
    h = ExpertHierarchy("e", (HierarchyNode("P", (), (HierarchyNode("C", ()),)),))
    with pytest.raises(ValueError, match="empty effective"):
        flatten(h, INHERIT)


def test_column_list_leaf_and_top_level_flags():
    h = ExpertHierarchy(
        "e",
        (
            HierarchyNode("A", ("a",), (HierarchyNode("B", ("b",)), HierarchyNode("C", ("c",)))),
            HierarchyNode("D", ("d",)),
        ),
    )
    cols = flatten(h, INHERIT)
    assert ["/".join(c.path) for c in cols] == ["A", "A/B", "A/C", "D"]
    assert [cols.is_top_level(i) for i in range(4)] == [True, False, False, True]
    assert [cols.is_leaf(i) for i in range(4)] == [False, True, True, True]


@pytest.mark.parametrize("seed", range(12))
def test_flatten_preorder_column_count_and_containment(seed):
    spec = GenSpec(
        seed=seed,
        vocab_size=30,
        n_classes=2,
        class_size=(1, 4),
        overlap_rate=0.3,
        hierarchy_depth=1 + seed % 3,
    )
    h = gen_hierarchy(spec)
    cols = flatten(h, INHERIT)
    assert len(cols) == node_count(h)
    by_path = {c.path: c for c in cols}
    for col in cols:
        if len(col.path) > 1:
            parent = by_path[col.path[:-1]]
            assert col.members <= parent.members


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
class_lists = st.lists(words, min_size=1, max_size=6, unique=True)
clusterings = st.lists(
    st.tuples(words, class_lists), min_size=1, max_size=5, unique_by=lambda t: t[0]
).map(
    lambda cs: Clustering("gen", tuple(LabeledClass(l, tuple(m)) for l, m in cs))
)


@given(clusterings)
def test_clustering_round_trip(clustering):
    doc = clustering_doc([(c.label, c.members) for c in clustering.classes], clustering.name)
    assert parse_clustering(doc) == clustering


@pytest.mark.parametrize("seed", range(8))
def test_hierarchy_round_trip(seed):
    h = gen_hierarchy(
        GenSpec(seed=seed, vocab_size=25, n_classes=2, class_size=(1, 3), hierarchy_depth=2)
    )
    assert parse_hierarchy(hierarchy_doc([node_doc(r) for r in h.roots], h.name)) == h


def test_is_partition():
    assert parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["c"])])).is_partition()
    assert not parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["b"])])).is_partition()


def test_total_incidences_counts_overlaps_per_class():
    c = parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["b", "c", "d"])]))
    assert c.total_incidences() == 5
