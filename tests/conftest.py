"""Shared fixtures: golden word lists and JSON document builders."""

from __future__ import annotations

import gc
import json
from itertools import combinations

from clustereval.mapping import MappingResult
from clustereval.model import Clustering, ExpertHierarchy, HierarchyNode, LabeledClass

# Golden system/expert class pair; the frozen counts for it are
# yy=6 (cat dog pig cow cattle goat), yn=2 (stomach hair),
# ny=5 (horse lamb sheep mare swine).
CLASS_A_MEMBERS = ["cat", "dog", "stomach", "pig", "cow", "hair", "cattle", "goat"]
CLASS_B_MEMBERS = [
    "horse",
    "cow",
    "cat",
    "pig",
    "lamb",
    "dog",
    "sheep",
    "mare",
    "cattle",
    "swine",
    "goat",
]


def clustering_doc(classes, name="fixture") -> str:
    """JSON clustering document from (label, members) pairs."""
    return json.dumps(
        {"name": name, "classes": [{"label": l, "members": list(m)} for l, m in classes]}
    )


def node(label, members=(), children=()) -> dict:
    doc: dict = {"label": label, "members": list(members)}
    if children:
        doc["children"] = list(children)
    return doc


def hierarchy_doc(nodes, name="fixture") -> str:
    """JSON hierarchy document from node() dicts."""
    return json.dumps({"name": name, "classes": list(nodes)})


def chain_doc(depth: int) -> str:
    """JSON hierarchy document of one chain of ``depth`` nodes, n0 at the
    root and one word per node. Built as text: ``json.dumps`` refuses deep
    nesting that the parser must see."""
    nodes = "".join(f'{{"label": "n{i}", "members": ["w{i}"], "children": [' for i in range(depth))
    return '{"classes": [' + nodes + "]}" * depth + "]}"


def beneath_frames(func, *args, frames=300):
    """``func(*args)``, called ``frames`` stack frames deeper than the caller,
    as from inside a deep application stack."""
    if frames:
        return beneath_frames(func, *args, frames=frames - 1)
    return func(*args)


def cyclic_garbage(action) -> int:
    """How many objects the cyclic collector finds after ``action()``, run
    with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def make_clustering(*classes, name="fixture") -> Clustering:
    return Clustering(name, tuple(LabeledClass(l, tuple(m)) for l, m in classes))


def tree(label: str, words: str, *children: HierarchyNode) -> HierarchyNode:
    """A hierarchy node from its label, its own words as one spaced string,
    and its children."""
    return HierarchyNode(label, tuple(words.split()), children)


def as_flat_hierarchy(clustering: Clustering) -> ExpertHierarchy:
    """View a flat clustering as a degenerate one-level hierarchy."""
    roots = tuple(HierarchyNode(cls.label, cls.members) for cls in clustering.classes)
    return ExpertHierarchy(clustering.name, roots)


def as_dict(mapping: MappingResult) -> dict[int, int]:
    """A mapping's pairs as row -> column."""
    return {row: col for row, col, _, _ in mapping.pairs}


def total_f(mapping: MappingResult) -> float:
    """The summed F of a mapping's pairs, in row order."""
    return sum(f for _, _, f, _ in mapping.pairs)


def dyadic_cell(col: int, f: float) -> tuple[int, float, int, int]:
    """An F-table cell for the float f = m/d, with yy = m and n = 2d: the one
    rounded division 2·yy/n is f exactly, so a table of such cells re-maps
    as the bare floats' differences would."""
    m, d = f.as_integer_ratio()
    return col, f, m, 2 * d


def random_partition(rng, words, max_classes) -> Clustering:
    """A shuffled partition of ``words`` into 1 to ``max_classes`` classes."""
    pool = list(words)
    rng.shuffle(pool)
    cut_count = rng.randint(0, min(max_classes - 1, len(pool) - 1))
    cuts = sorted(rng.sample(range(1, len(pool)), cut_count))
    classes, start = [], 0
    for i, cut in enumerate(cuts + [len(pool)]):
        classes.append((f"P{i}", pool[start:cut]))
        start = cut
    return make_clustering(*classes)


def pair_oracle(system: Clustering, expert: Clustering) -> tuple[int, int, int]:
    """Pair-baseline (yy, yn, ny) by brute force over every unordered word
    pair in either clustering."""
    words = sorted(
        {w for c in system.classes for w in c.members}
        | {w for c in expert.classes for w in c.members}
    )
    system_sets = [frozenset(c.members) for c in system.classes]
    expert_sets = [frozenset(c.members) for c in expert.classes]
    yy = yn = ny = 0
    for a, b in combinations(words, 2):
        in_sys = any(a in s and b in s for s in system_sets)
        in_exp = any(a in s and b in s for s in expert_sets)
        yy += in_sys and in_exp
        yn += in_sys and not in_exp
        ny += in_exp and not in_sys
    return yy, yn, ny
