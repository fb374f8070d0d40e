"""Domain model: word clusterings, expert hierarchies, and their JSON files.

A clustering document holds a flat list of labeled word classes (the system
side); a hierarchy document has the same shape with optional nested
``children`` (the expert side). Words and labels are NFC-normalized and
stripped of surrounding whitespace before any comparison; everything else is
an exact, case-sensitive string match.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from typing import NoReturn

INHERIT = "inherit"
OWN_ONLY = "own-only"
FLATTEN_MODES = (INHERIT, OWN_ONLY)
_MAX_DEPTH = 100  # levels of a hierarchy document, roots at level 1
_NO_WORDS: frozenset[str] = frozenset()  # one object, however many trees repeat nothing


class DocumentError(ValueError):
    """Malformed or invalid input document; carries a JSON-path location."""

    def __init__(self, location: str, reason: str):
        super().__init__(f"{location}: {reason}")
        self.location = location
        self.reason = reason


@dataclass(frozen=True)
class LabeledClass:
    """A named, duplicate-free collection of words, kept in document order."""

    label: str
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Clustering:
    """An ordered list of classes; classes may overlap (not a partition)."""

    name: str
    classes: tuple[LabeledClass, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)

    def is_partition(self) -> bool:
        """True when no word occurs in more than one class (or twice in one)."""
        return self._is_partition

    @cached_property
    def _is_partition(self) -> bool:
        """Decided once: ``pair_baseline`` and the ``baseline`` warnings both ask."""
        return len(set().union(*(c.members for c in self.classes))) == self.total_incidences()

    def total_incidences(self) -> int:
        """Total (class, word) memberships; overlapping words count once per class."""
        return sum(len(c) for c in self.classes)


@dataclass(frozen=True)
class HierarchyNode:
    """A labeled class with its own duplicate-free words and its subclasses."""

    label: str
    own_members: tuple[str, ...]
    children: tuple["HierarchyNode", ...] = ()


@dataclass(frozen=True)
class ExpertHierarchy:
    """Tree of labeled classes; a flat clustering is the no-children case.

    A word may belong to several nodes of one tree. ``flatten`` needs, per
    tree, the words that do; ``parse_hierarchy`` records them from its
    per-tree word sets, and a hierarchy built by hand finds them from its
    roots when ``flatten`` first asks.
    """

    name: str
    roots: tuple[HierarchyNode, ...]

    @cached_property
    def _repeats(self) -> tuple[set[str] | frozenset[str], ...]:
        """Per root, the words that two or more nodes of its tree own."""
        repeats = []
        for root in self.roots:
            owns = _owned((root,))
            distinct = len(set().union(*owns)) == sum(map(len, owns))  # no word twice
            repeats.append(_NO_WORDS if distinct else _repeated_words(owns))
        return tuple(repeats)


@dataclass(frozen=True)
class Column:
    """One flattened hierarchy node: its label path, its node's own words,
    under ``inherit`` its node's parsed ``children`` tuple (out of ``repr`` and
    ``==``, which would recurse once per level) and its effective set's size."""

    path: tuple[str, ...]
    own: tuple[str, ...]
    children: tuple[HierarchyNode, ...] = field(repr=False, compare=False)
    size: int

    @cached_property
    def members(self) -> frozenset[str]:
        """The effective word set: this column's own words and those of every
        node below it. No command builds it: a pair's counts are its cell's."""
        return frozenset().union(self.own, *_owned(self.children))


@dataclass(frozen=True)
class ColumnList:
    """Pre-order list of flattened columns, one per hierarchy node."""

    mode: str
    columns: tuple[Column, ...]

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __getitem__(self, index: int) -> Column:
        return self.columns[index]

    @cached_property
    def _path_sizes(self) -> tuple[tuple[tuple[str, ...], int], ...]:
        """Each column's (path, size), built once: ``aggregate`` reports the
        unmapped columns as these pairs at every threshold."""
        return tuple(map(attrgetter("path", "size"), self.columns))

    def is_top_level(self, index: int) -> bool:
        return len(self.columns[index].path) == 1

    def is_leaf(self, index: int) -> bool:
        # Pre-order: a node has children iff the next column sits deeper.
        if index + 1 >= len(self.columns):
            return True
        return len(self.columns[index + 1].path) <= len(self.columns[index].path)


def _clean_string(value: object, location: str, what: str) -> str:
    if value is None:
        raise DocumentError(location, f"missing {what}")
    if not isinstance(value, str):
        raise DocumentError(location, f"{what} must be a string, got {type(value).__name__}")
    token = unicodedata.normalize("NFC", value.strip())  # no case folding
    if not token:
        raise DocumentError(location, f"empty {what}")
    if not token.isascii():
        try:
            token.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DocumentError(location, f"{what} is not valid UTF-8 text") from exc
    return token


def _parse_members(
    raw: object, location: str, allow_empty: bool, seen: set[str] | None
) -> tuple[str, ...]:
    """Validate a member list in four whole-list passes, no call per word,
    and add its words to ``seen``, the words of earlier lists, if given.

    Any failed check hands the list to ``_raise_member_error``, which walks
    it item by item to raise the first error at its JSON path. A word that
    an earlier list holds is no error: the list alone is checked only when
    it does not grow ``seen`` by its full length, or when there is no
    ``seen``.
    """
    if raw is None:
        raw = []
    if not isinstance(raw, list):
        raise DocumentError(location, "members must be an array of strings")
    try:
        joined = "".join(raw)  # the type check: a non-string item raises
    except TypeError:
        _raise_member_error(raw, location)
    words = raw
    # str.split and str.strip agree on whitespace, so text without any has
    # nothing to strip
    if joined.split() != [joined]:
        words = list(map(str.strip, raw))
    if not joined.isascii():  # ASCII text is already NFC and valid UTF-8
        try:
            joined.encode("utf-8")  # fails on a lone surrogate, which NFC keeps
        except UnicodeEncodeError:
            _raise_member_error(raw, location)
        words = list(map(partial(unicodedata.normalize, "NFC"), words))
    fits = False  # with no seen set, the list is checked alone
    if seen is not None:
        size = len(seen)
        seen.update(words)
        # an earlier "" raised, so a "" in seen is this list's
        fits = len(seen) - size == len(words) and "" not in seen
    if not fits:
        unique = set(words)
        if len(unique) != len(words) or "" in unique:
            _raise_member_error(raw, location)
    if not words and not allow_empty:
        raise DocumentError(location, "class has no members")
    return tuple(words)


def _raise_member_error(raw: list, location: str) -> NoReturn:
    """Raise the first item's error in a member list that failed a bulk check."""
    seen: set[str] = set()
    for i, item in enumerate(raw):
        word = _clean_string(item, f"{location}[{i}]", "member")
        if word in seen:
            raise DocumentError(f"{location}[{i}]", f"duplicate member {word!r}")
        seen.add(word)
    raise AssertionError(f"{location}: a bulk member check failed on a valid list")


def _parse_document(text: str) -> tuple[str, list]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"line {exc.lineno}, column {exc.colno}", f"invalid JSON: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal longer than int_max_str_digits
        raise DocumentError("$", f"invalid JSON: {str(exc).partition(';')[0]}") from exc
    except RecursionError as exc:
        raise DocumentError("$", "document is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DocumentError("$", "top-level value must be an object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise DocumentError("$.name", "name must be a string")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        raise DocumentError("$.classes", "classes must be a nonempty array")
    return name, classes


def parse_clustering(text: str) -> Clustering:
    """Parse and validate a flat clustering document (system side)."""
    name, raw_classes = _parse_document(text)
    labels: set[str] = set()
    classes: list[LabeledClass] = []
    for i, raw in enumerate(raw_classes):
        loc = f"$.classes[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(loc, "class must be an object")
        if "children" in raw:
            raise DocumentError(loc, "nested children are not accepted in a flat clustering")
        label = _clean_string(raw.get("label"), f"{loc}.label", "label")
        if label in labels:
            raise DocumentError(f"{loc}.label", f"duplicate label {label!r}")
        labels.add(label)
        members = _parse_members(raw.get("members"), f"{loc}.members", False, None)
        classes.append(LabeledClass(label, members))
    return Clustering(name, tuple(classes))


def parse_hierarchy(text: str) -> ExpertHierarchy:
    """Parse and validate a hierarchy document (expert side).

    A flat document is a valid hierarchy; a node deeper than 100 levels
    fails at its JSON path. A node may omit its members only if it has
    children. Labels may not contain ``/``, the column-path separator.

    Each tree's member lists share one set of words, so each word is hashed
    once: a list that does not grow it by its full length either has an
    error of its own or repeats a word of an earlier node, which is
    allowed. From a tree's first repeat on, each list is checked alone, and
    once built, the tree is walked again for the words ``flatten`` needs; a
    tree that repeats no word is not. The result is recorded on the
    hierarchy.
    """
    name, raw_roots = _parse_document(text)
    labels: set[str] = set()
    roots = []
    repeats = []
    for i, raw in enumerate(raw_roots):
        root, words = _parse_node(raw, f"$.classes[{i}]", 1, labels, set())
        raw_roots[i] = None  # the tree is built: its JSON need not outlive it
        roots.append(root)
        repeats.append(_NO_WORDS if words is not None else _repeated_words(_owned((root,))))
        del words  # else the next tree's set is built while this one lives
    hierarchy = ExpertHierarchy(name, tuple(roots))
    vars(hierarchy)["_repeats"] = tuple(repeats)  # fills the cached_property
    return hierarchy


def _parse_node(
    raw: object, loc: str, depth: int, labels: set[str], words: set[str] | None
) -> tuple[HierarchyNode, set[str] | None]:
    """Parse one node and its subtree, adding their labels to ``labels`` and
    their words to ``words``, the tree's words so far, or ``None`` once the
    tree has repeated a word. Return the node and what ``words`` is after
    the subtree. A module-level function, not a closure, so that no
    reference cycle keeps the parse's state alive."""
    if depth > _MAX_DEPTH:
        raise DocumentError(loc, f"hierarchy is nested deeper than {_MAX_DEPTH} levels")
    if not isinstance(raw, dict):
        raise DocumentError(loc, "node must be an object")
    label = _clean_string(raw.get("label"), f"{loc}.label", "label")
    if "/" in label:
        raise DocumentError(f"{loc}.label", f"label {label!r} contains '/'")
    if label in labels:
        raise DocumentError(f"{loc}.label", f"duplicate label {label!r}")
    labels.add(label)
    size = len(words) if words is not None else 0
    members = _parse_members(raw.get("members"), f"{loc}.members", True, words)
    if words is not None and len(words) - size != len(members):
        words = None  # the tree repeats a word: later lists are checked alone
    raw_children = raw.get("children", [])
    if not isinstance(raw_children, list):
        raise DocumentError(f"{loc}.children", "children must be an array")
    children = []
    for j, child in enumerate(raw_children):  # a plain loop: one stack frame per level
        kid, words = _parse_node(child, f"{loc}.children[{j}]", depth + 1, labels, words)
        children.append(kid)
    if not members and not children:
        raise DocumentError(loc, f"node {label!r} has neither members nor children")
    return HierarchyNode(label, members, tuple(children)), words


def _owned(nodes: tuple[HierarchyNode, ...]) -> list[tuple[str, ...]]:
    """The own words of every node in the trees under ``nodes``, gathered by a
    loop, not one call per level."""
    owns = []
    stack = list(nodes)
    while stack:
        node = stack.pop()
        owns.append(node.own_members)
        stack.extend(node.children)
    return owns


def _repeated_words(owns: list[tuple[str, ...]]) -> set[str]:
    """The words that two or more of the lists ``owns`` hold, each list
    distinct within itself."""
    seen: set[str] = set()
    repeated: set[str] = set()
    for own in owns:
        repeated.update(seen.intersection(own))
        seen.update(own)
    return repeated


def flatten(hierarchy: ExpertHierarchy, mode: str = INHERIT) -> ColumnList:
    """Flatten a hierarchy into its pre-order column list.

    In ``inherit`` mode a column's effective word set is the union of its
    node's own words and all its descendants' words, so a parent contains
    each of its subclasses. In ``own-only`` mode it is just the node's own
    words. No command builds that union: each column keeps its own words
    and, in ``inherit`` mode, its node's children. The sizes come bottom-up:
    a word that one node of a tree owns adds 1 to each column on that
    node's path to the root, and only the words that several nodes of one
    tree own are carried up, as small sets, so each counts once per subtree.
    Those words come from the hierarchy's per-tree record, which the parser
    fills in and which a hierarchy built by hand computes on first use.
    """
    if mode not in FLATTEN_MODES:
        raise ValueError(f"unknown flatten mode {mode!r}")
    inherit = mode == INHERIT
    # own-only sizes need no repeats
    repeats = hierarchy._repeats if inherit else [_NO_WORDS] * len(hierarchy.roots)
    columns: list[Column | None] = []
    for root, repeated in zip(hierarchy.roots, repeats):
        _visit(root, (), repeated, inherit, columns)
    return ColumnList(mode, tuple(columns))  # type: ignore[arg-type]


def _visit(
    node: HierarchyNode,
    prefix: tuple[str, ...],
    repeated: set[str] | frozenset[str],
    inherit: bool,
    columns: list[Column | None],
) -> tuple[int, set[str]]:
    """Append the subtree's columns to ``columns``. Return the number of the
    subtree's words that one node of the tree owns, and the set of the
    subtree's words that several nodes of the tree own. A module-level
    function, not a closure, so that no reference cycle keeps the columns
    alive."""
    path = prefix + (node.label,)
    slot = len(columns)
    columns.append(None)  # reserve the pre-order position before recursing
    own = node.own_members
    shared = repeated.intersection(own) if repeated else set()
    once = len(own) - len(shared)
    for child in node.children:  # a plain loop: one stack frame per level
        child_once, child_shared = _visit(child, path, repeated, inherit, columns)
        once += child_once
        shared |= child_shared
    size = once + len(shared) if inherit else len(own)
    if inherit and not size:
        raise ValueError(f"node {node.label!r} has an empty effective member set")
    columns[slot] = Column(path, own, node.children if inherit else (), size)
    return once, shared
