from __future__ import annotations

import sys
import unicodedata
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clustereval import model
from clustereval.aggregate import UNMAPPED_POLICIES, aggregate
from clustereval.cli import main
from clustereval.mapping import build_f_table, resolve_conflicts
from clustereval.model import (
    FLATTEN_MODES,
    INHERIT,
    OWN_ONLY,
    Clustering,
    DocumentError,
    ExpertHierarchy,
    HierarchyNode,
    LabeledClass,
    flatten,
    parse_clustering,
    parse_hierarchy,
)

from conftest import (
    CLASS_A_MEMBERS,
    CLASS_B_MEMBERS,
    as_flat_hierarchy,
    beneath_frames,
    chain_doc,
    clustering_doc,
    hierarchy_doc,
    node,
    tree,
)
from testkit import GenSpec, gen_clustering, gen_hierarchy


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
    assert set(c.classes[0].members) & set(c.classes[1].members) == {"café"}


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


def test_hierarchy_node_with_children_may_omit_members():
    doc = '{"classes": [{"label": "TOP", "children": [{"label": "LEAF", "members": ["cat"]}]}]}'
    leaf = HierarchyNode("LEAF", ("cat",))
    assert parse_hierarchy(doc).roots == (HierarchyNode("TOP", (), (leaf,)),)


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
        assert [c2.members for c2 in cols] == [frozenset(k.members) for k in c.classes]


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


def _eager_flatten(hierarchy: ExpertHierarchy, mode: str) -> list[tuple[tuple, frozenset]]:
    """The earlier flatten, which built every inherited word set as it went:
    the oracle for the column sizes and the lazily built Column.members."""
    columns: list = []

    def visit(node: HierarchyNode, prefix: tuple[str, ...]) -> frozenset:
        path = prefix + (node.label,)
        slot = len(columns)
        columns.append(None)
        below = [visit(child, path) for child in node.children]
        effective = frozenset(node.own_members)
        if mode == INHERIT:
            effective = effective.union(*below)
        columns[slot] = (path, effective)
        return effective

    for root in hierarchy.roots:
        visit(root, ())
    return columns


def _assert_flatten_matches_eager(hierarchy: ExpertHierarchy, mode: str) -> None:
    cols = flatten(hierarchy, mode)
    expected = _eager_flatten(hierarchy, mode)
    assert [c.path for c in cols] == [path for path, _ in expected]
    assert [c.size for c in cols] == [len(words) for _, words in expected]  # before any union
    assert [c.members for c in cols] == [words for _, words in expected]


@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    overlap=st.floats(0.0, 1.0),
    mode=st.sampled_from(FLATTEN_MODES),
)
@example(seed=6, depth=3, overlap=1.0, mode=INHERIT)
@example(seed=7, depth=3, overlap=0.0, mode=INHERIT)
def test_flatten_matches_eager_oracle(seed, depth, overlap, mode):
    spec = GenSpec(
        seed=seed,
        vocab_size=20,
        n_classes=1 + seed % 3,
        class_size=(1, 4),
        overlap_rate=overlap,
        hierarchy_depth=depth,
    )
    _assert_flatten_matches_eager(gen_hierarchy(spec), mode)


@pytest.mark.parametrize(
    "roots, inherited_sizes",
    [
        # "a" in a parent and its child
        ((tree("P", "a b", tree("C", "a")),), [2, 1]),
        # "a" in two siblings, and "b" in their parent and one of them
        ((tree("P", "b", tree("A", "a b"), tree("B", "a")),), [2, 2, 1]),
        # "a" in two cousins, each under its own parent
        (
            (tree("R", "x", tree("P", "p", tree("A", "a")), tree("Q", "q", tree("B", "a"))),),
            [4, 2, 1, 2, 1],
        ),
        # "a" and "b" each in two different roots, and once more in one tree
        ((tree("R", "a", tree("C", "b a")), tree("S", "b", tree("D", "a"))), [2, 2, 2, 1]),
        # "a" on three levels of one path, next to a word of its own
        ((tree("G", "a", tree("P", "a", tree("C", "a c"))),), [2, 2, 2]),
    ],
    ids=["parent-and-child", "siblings", "cousins", "two-roots", "one-path"],
)
@pytest.mark.parametrize("mode", FLATTEN_MODES)
def test_flatten_counts_a_word_of_several_nodes_once(roots, inherited_sizes, mode):
    h = ExpertHierarchy("e", roots)
    _assert_flatten_matches_eager(h, mode)
    if mode == INHERIT:
        assert [c.size for c in flatten(h, mode)] == inherited_sizes


def _assert_parsed_flattens_as_built_by_hand(text: str) -> None:
    """The parser's per-tree record, against the one a hand-built hierarchy
    computes: flatten must read the same from both."""
    parsed = parse_hierarchy(text)
    built = ExpertHierarchy(parsed.name, parsed.roots)
    for mode in FLATTEN_MODES:
        assert repr(flatten(parsed, mode)) == repr(flatten(built, mode))
    assert parsed._repeats == built._repeats


def _seen_set_repeated_words(root: HierarchyNode) -> set[str]:
    """The earlier walk, which always built a seen set of the tree's words:
    the oracle for model._repeated_words."""
    seen: set[str] = set()
    repeated: set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        repeated.update(seen.intersection(node.own_members))
        seen.update(node.own_members)
        stack.extend(node.children)
    return repeated


@pytest.mark.parametrize("overlap", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(10))
def test_repeated_words_matches_seen_set_walk(seed, overlap):
    spec = GenSpec(
        seed=seed,
        vocab_size=100,  # never runs dry, so overlap 0 repeats no word
        n_classes=1 + seed % 3,
        class_size=(1, 4),
        overlap_rate=overlap,
        hierarchy_depth=3,
    )
    h = gen_hierarchy(spec)
    found = [model._repeated_words(model._owned((root,))) for root in h.roots]
    assert found == [_seen_set_repeated_words(root) for root in h.roots]
    assert any(found) == (overlap > 0)
    for mode in FLATTEN_MODES:
        _assert_flatten_matches_eager(h, mode)
    _assert_parsed_flattens_as_built_by_hand(hierarchy_doc([node_doc(r) for r in h.roots]))


def test_scoring_builds_no_inherited_word_set():
    spec = GenSpec(seed=3, vocab_size=40, n_classes=2, class_size=(1, 4), hierarchy_depth=3)
    expert = gen_hierarchy(spec)
    system = gen_clustering(GenSpec(seed=4, vocab_size=40, n_classes=6, class_size=(2, 6)))
    for mode in FLATTEN_MODES:
        cols = flatten(expert, mode)
        mapping = resolve_conflicts(build_f_table(system, cols))
        assert mapping.pairs
        for policy in UNMAPPED_POLICIES:
            aggregate(system, cols, mapping, policy)
        assert max(len(c.path) for c in cols) == 3
        assert [c.path for c in cols if "members" in vars(c)] == []


def _deep_chain(depth: int) -> ExpertHierarchy:
    """One root with ``depth`` levels below it, one word per level."""
    node = HierarchyNode(f"n{depth}", (f"w{depth}",))
    for i in reversed(range(depth)):
        node = HierarchyNode(f"n{i}", (f"w{i}",), (node,))
    return ExpertHierarchy("deep", (node,))


def test_members_of_a_deep_chain_need_no_call_per_level():
    # flatten recurses once per level; reading members must not recurse at all
    depth = sys.getrecursionlimit() // 2
    top = flatten(_deep_chain(depth), INHERIT)[0]
    assert top.size == depth + 1
    assert top.members == {f"w{i}" for i in range(depth + 1)}


def test_columns_of_a_deep_chain_print_compare_and_hash():
    # a column's children stay out of repr, == and hash, which would
    # otherwise recurse once per level
    depth = sys.getrecursionlimit() // 2
    cols = flatten(_deep_chain(depth), INHERIT)
    again = flatten(_deep_chain(depth), INHERIT)
    assert repr(cols).count("Column(") == depth + 1
    assert "children" not in repr(cols[0])
    assert cols == again and cols[0] == again[0]
    assert hash(cols) == hash(again)


def _preorder(nodes):
    for n in nodes:
        yield n
        yield from _preorder(n.children)


@pytest.mark.parametrize("seed", range(5))
def test_columns_link_their_parsed_nodes_children(seed):
    # under inherit a column holds its node's own children tuple, not a copy
    spec = GenSpec(seed=seed, vocab_size=40, n_classes=2, class_size=(1, 4), hierarchy_depth=3)
    doc = hierarchy_doc([node_doc(root) for root in gen_hierarchy(spec).roots])
    h = parse_hierarchy(doc)
    nodes = list(_preorder(h.roots))
    assert any(n.children for n in nodes)
    cols = flatten(h, INHERIT)
    assert len(cols) == len(nodes)
    for column, n in zip(cols, nodes):
        assert column.children is n.children
    assert [column.children for column in flatten(h, OWN_ONLY)] == [()] * len(nodes)


def test_a_hundred_level_document_survives_a_deep_caller_stack():
    # 100 levels is the deepest document parse_hierarchy accepts; its tree
    # must also flatten, print and compare with 300 frames already in use
    def check():
        hierarchy = parse_hierarchy(chain_doc(100))
        assert hierarchy.roots == _deep_chain(99).roots
        assert hierarchy == parse_hierarchy(chain_doc(100))
        assert repr(hierarchy).count("HierarchyNode(") == 100
        for mode in FLATTEN_MODES:
            assert [len(col.path) for col in flatten(hierarchy, mode)] == list(range(1, 101))
        assert flatten(hierarchy, INHERIT)[0].size == 100

    beneath_frames(check)


def test_a_node_below_level_100_fails_first_at_its_path():
    # the depth rule precedes every other check of the node, here its type,
    # and the first too-deep node in document order is the one reported
    deep = ["not a node", node("late", ["x"])]
    for i in reversed(range(100)):
        deep = [node(f"n{i}", [f"w{i}"], children=deep)]
    doc = hierarchy_doc([*deep, node("n0", ["dup"])])
    with pytest.raises(DocumentError) as info:
        parse_hierarchy(doc)
    assert info.value.location == "$.classes[0]" + ".children[0]" * 100
    assert info.value.reason == "hierarchy is nested deeper than 100 levels"


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


def test_is_partition_is_decided_once(monkeypatch):
    c = parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["c"])]))
    calls = []
    real = Clustering.total_incidences
    monkeypatch.setattr(Clustering, "total_incidences", lambda self: calls.append(1) or real(self))
    assert [c.is_partition() for _ in range(3)] == [True] * 3
    assert len(calls) == 1


def test_total_incidences_is_summed_once(monkeypatch):
    c = parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["c"])]))
    calls = []
    real = LabeledClass.__len__
    monkeypatch.setattr(LabeledClass, "__len__", lambda self: calls.append(1) or real(self))
    assert [c.total_incidences() for _ in range(3)] == [3] * 3
    assert len(calls) == len(c.classes)


def test_is_partition():
    assert parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["c"])])).is_partition()
    assert not parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["b"])])).is_partition()


def _seen_set_is_partition(clustering: Clustering) -> bool:
    """The earlier word-by-word walk: the oracle for Clustering.is_partition."""
    seen: set[str] = set()
    for cls in clustering.classes:
        for word in cls.members:
            if word in seen:
                return False
            seen.add(word)
    return True


# LabeledClass does not check its members, so a class may repeat a word
# here, which the parser never accepts.
raw_clusterings = st.lists(
    st.lists(st.sampled_from("abcdefg"), max_size=5), max_size=4
).map(lambda cs: Clustering("raw", tuple(LabeledClass(f"C{i}", tuple(m)) for i, m in enumerate(cs))))


@given(raw_clusterings)
@example(Clustering("empty", ()))
@example(Clustering("repeat", (LabeledClass("A", ("a", "a")),)))
@example(Clustering("empty class", (LabeledClass("A", ()), LabeledClass("B", ("b",)))))
def test_is_partition_matches_seen_set_oracle(clustering):
    assert clustering.is_partition() == _seen_set_is_partition(clustering)


def _per_item_clean(value: object, location: str) -> str:
    if value is None:
        raise DocumentError(location, "missing member")
    if not isinstance(value, str):
        raise DocumentError(location, f"member must be a string, got {type(value).__name__}")
    token = unicodedata.normalize("NFC", value.strip())
    if not token:
        raise DocumentError(location, "empty member")
    if not token.isascii():
        try:
            token.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DocumentError(location, "member is not valid UTF-8 text") from exc
    return token


def _per_item_members(raw: list, location: str, allow_empty: bool) -> tuple[str, ...]:
    """The earlier parser, which cleans and checks one word at a time: the
    oracle for the bulk-validating _parse_members."""
    members: list[str] = []
    seen: set[str] = set()
    for i, item in enumerate(raw):
        word = _per_item_clean(item, f"{location}[{i}]")
        if word in seen:
            raise DocumentError(f"{location}[{i}]", f"duplicate member {word!r}")
        seen.add(word)
        members.append(word)
    if not members and not allow_empty:
        raise DocumentError(location, "class has no members")
    return tuple(members)


def _expected(build):
    """``build()``'s value, or the (location, reason) of its DocumentError."""
    try:
        return build()
    except DocumentError as exc:
        return exc.location, exc.reason


def _parsed(parse, text):
    """``parse(text)``'s value or error, and how often a member list was
    walked item by item."""
    with mock.patch.object(
        model, "_raise_member_error", side_effect=model._raise_member_error
    ) as walk:
        return _expected(lambda: parse(text)), walk.call_count


# Spellings that differ only by padding or normalization: "\u00e9" and
# "e\u0301" are one word after NFC, and so are "\u00c5", "A\u030a" and the
# angstrom sign "\u212b". The padding includes whitespace that is neither
# ASCII space nor a tab or newline: "\x0b", "\x1c", "\x85" and "\u2028".
PADDING = ["", " ", "\t", "\n", "\x0b", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000"]
SPELLINGS = ["\u00e9", "e\u0301", "caf\u00e9", "cafe\u0301", "\u00c5", "A\u030a", "\u212b"]
member_values = st.one_of(
    st.text("abc", min_size=1, max_size=3),
    st.builds(
        lambda left, word, right: left + word + right,
        st.sampled_from(PADDING),
        st.sampled_from(["a", "ab", "a b"] + SPELLINGS),
        st.sampled_from(PADDING),
    ),
    st.sampled_from(SPELLINGS),
    st.sampled_from(["\ud800", "x\udfff", "\udc00\u00e9"]),  # lone surrogates
    st.sampled_from(["", " ", "\u00a0\u3000"]),  # empty once stripped
    st.sampled_from([None, 0, -7, 1.5, True, False, [], ["a"], {}, {"a": 1}]),
)
member_lists = st.lists(member_values, max_size=8)


@given(st.lists(member_lists, min_size=1, max_size=3))
@example([["a", " a"]])
@example([["\u00e9", "e\u0301"]])
@example([["cat", "\u3000cat\u00a0"]])
@example([["a", None, "\ud800", "a", ""]])  # the first bad index wins
@example([["\u212b", "\ud800", "A\u030a"]])
@example([["ok"], []])
@example([[" a", "a b\x85"], ["a", "b"]])  # only the first list needs stripping
def test_parse_clustering_matches_per_item_oracle(lists):
    text = clustering_doc([(f"C{i}", m) for i, m in enumerate(lists)], name="n")

    def build() -> Clustering:
        return Clustering("n", tuple(
            LabeledClass(f"C{i}", _per_item_members(m, f"$.classes[{i}].members", False))
            for i, m in enumerate(lists)
        ))

    expected = _expected(build)
    got, walks = _parsed(parse_clustering, text)
    assert got == expected
    # a list is walked item by item only after a bulk check fails, and
    # that walk raises: exactly when the oracle reports a member's error
    assert walks == (isinstance(expected, tuple) and ".members[" in expected[0])


@given(member_lists, st.lists(member_lists, max_size=2))
@example([], [])
@example([], [[]])
@example([" b "], [["b", "\u00a0b"]])
@example(["x"], [["\u00e9", "e\u0301"], ["A\u030a", "\u212b"]])
@example(["a\u2028", "b"], [["a", "b"], ["\x1ca b"]])  # stripping needed, not, needed
def test_parse_hierarchy_matches_per_item_oracle(root, children):
    kid_docs = [node(f"K{j}", m) for j, m in enumerate(children)]
    text = hierarchy_doc([node("R", root, kid_docs)], name="n")

    def build() -> ExpertHierarchy:
        own = _per_item_members(root, "$.classes[0].members", True)
        kids = []
        for j, m in enumerate(children):
            loc = f"$.classes[0].children[{j}]"
            kid = _per_item_members(m, f"{loc}.members", True)
            if not kid:
                raise DocumentError(loc, f"node 'K{j}' has neither members nor children")
            kids.append(HierarchyNode(f"K{j}", kid))
        if not own and not kids:
            raise DocumentError("$.classes[0]", "node 'R' has neither members nor children")
        return ExpertHierarchy("n", (HierarchyNode("R", own, tuple(kids)),))

    expected = _expected(build)
    got, walks = _parsed(parse_hierarchy, text)
    assert got == expected
    assert walks == (isinstance(expected, tuple) and ".members[" in expected[0])


# One running word set per tree: a word that an earlier node of the same tree
# owns is no error, and a list's own duplicate or empty word still fails, in
# document order, at its own path. "\u00e1" and "a\u0301" are one word after NFC.
COMPOSED, DECOMPOSED = "\u00e1", "a\u0301"


def _repeating_tree(*later: dict) -> dict:
    """A root whose two children each repeat one of its words, one of them
    in another spelling, followed by ``later`` children."""
    kids = [node("K0", [DECOMPOSED, "y"]), node("K1", ["x"]), *later]
    return node("R", ["x", COMPOSED], kids)


def test_a_word_of_two_nodes_of_one_tree_is_accepted_without_a_walk():
    got, walks = _parsed(parse_hierarchy, hierarchy_doc([_repeating_tree()], name="n"))
    assert walks == 0  # never reaches _raise_member_error's AssertionError
    kids = (HierarchyNode("K0", (COMPOSED, "y")), HierarchyNode("K1", ("x",)))
    assert got == ExpertHierarchy("n", (HierarchyNode("R", ("x", COMPOSED), kids),))
    assert got._repeats == ({"x", COMPOSED},)
    assert [c.size for c in flatten(got, INHERIT)] == [3, 2, 1]


@pytest.mark.parametrize(
    "later, index, reason",
    [
        (["x", "z", "z"], 2, "duplicate member 'z'"),
        ([COMPOSED, "z", DECOMPOSED], 2, f"duplicate member {COMPOSED!r}"),
        (["y", "z", " "], 2, "empty member"),
        (["", "x"], 0, "empty member"),
    ],
    ids=["duplicate", "nfc-duplicate", "blank", "empty-before-a-repeat"],
)
def test_a_list_error_after_a_repeat_fails_at_its_path(capsys, tmp_path, later, index, reason):
    # the third child follows the repeats of the first two; its own error is
    # reported, not the earlier nodes' words, and a fourth child's is not
    doc = hierarchy_doc([_repeating_tree(node("K2", later), node("K3", ["w", "w"]))])
    location = f"$.classes[0].children[2].members[{index}]"
    assert _parsed(parse_hierarchy, doc) == ((location, reason), 1)
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(clustering_doc([("S", ["x"])]), encoding="utf-8")
    expert.write_text(doc, encoding="utf-8")
    assert main(["evaluate", "--system", str(system), "--expert", str(expert)]) == 2
    assert f"{location}: {reason}" in capsys.readouterr().err


def _count_repeated_words(monkeypatch) -> list[set[str]]:
    """What model._repeated_words returns, one entry per call from now on."""
    calls: list[set[str]] = []
    real = model._repeated_words

    def counted(owns: list[tuple[str, ...]]) -> set[str]:
        calls.append(real(owns))
        return calls[-1]

    monkeypatch.setattr(model, "_repeated_words", counted)
    return calls


def test_a_word_of_two_trees_repeats_in_neither(monkeypatch):
    calls = _count_repeated_words(monkeypatch)
    doc = hierarchy_doc(
        [node("R", ["a", COMPOSED], [node("K", ["b"])]), node("S", ["b"], [node("L", ["a"])]),
         node("T", [DECOMPOSED])]
    )
    h = parse_hierarchy(doc)
    assert h._repeats == (set(), set(), set())
    assert [c.size for c in flatten(h, INHERIT)] == [3, 1, 2, 1, 1]
    assert calls == []


def test_only_a_tree_that_repeats_a_word_is_walked_again(monkeypatch):
    calls = _count_repeated_words(monkeypatch)
    doc = hierarchy_doc(
        [node("A", ["a"], [node("A1", ["b"])]), _repeating_tree(), node("F", ["f"]),
         node("B", ["a"], [node("B1", ["c"], [node("B2", ["a"])])])]
    )
    h = parse_hierarchy(doc)
    for _ in range(2):
        for mode in FLATTEN_MODES:
            flatten(h, mode)
    assert calls == [{"x", COMPOSED}, {"a"}]  # once per repeating tree, all by the parser
    calls.clear()
    built = ExpertHierarchy(h.name, h.roots)
    for _ in range(2):
        for mode in FLATTEN_MODES:
            flatten(built, mode)
    assert calls == [{"x", COMPOSED}, {"a"}]  # by hand: the same trees, on first use
    assert built._repeats == h._repeats == (set(), {"x", COMPOSED}, set(), {"a"})


def _forest_doc(shape: list[tuple[int, list[str]]]) -> str:
    """Node i owns ``shape[i][1]`` and is a root when ``shape[i][0]`` is 0,
    else a child of the earlier node ``(shape[i][0] - 1) % i``."""
    nodes = [node(f"N{i}", words) for i, (_, words) in enumerate(shape)]
    roots = []
    for i, (parent, _) in enumerate(shape):
        if i and parent:
            nodes[(parent - 1) % i].setdefault("children", []).append(nodes[i])
        else:
            roots.append(nodes[i])
    return hierarchy_doc(roots)


# A few words, several spellings of some, so that trees often repeat one
SMALL_VOCAB = ["a", "b", "c", " a", "b\u00a0", COMPOSED, DECOMPOSED]
small_documents = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.lists(
            st.sampled_from(SMALL_VOCAB),
            min_size=1,
            max_size=3,
            unique_by=lambda w: unicodedata.normalize("NFC", w.strip()),
        ),
    ),
    min_size=1,
    max_size=8,
).map(_forest_doc)


@given(small_documents)
def test_small_documents_flatten_as_built_by_hand(text):
    _assert_parsed_flattens_as_built_by_hand(text)


def test_member_walk_never_returns_on_a_valid_list():
    with pytest.raises(AssertionError, match="bulk member check"):
        model._raise_member_error(["cat", " dog", "e\u0301"], "$.classes[0].members")


def test_total_incidences_counts_overlaps_per_class():
    c = parse_clustering(clustering_doc([("A", ["a", "b"]), ("B", ["b", "c", "d"])]))
    assert c.total_incidences() == 5
