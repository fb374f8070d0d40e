"""Shared fixtures: golden word lists and JSON document builders."""

from __future__ import annotations

import json

from clustereval.mapping import MappingResult
from clustereval.model import Clustering, LabeledClass

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


def make_clustering(*classes, name="fixture") -> Clustering:
    return Clustering(name, tuple(LabeledClass(l, tuple(m)) for l, m in classes))


def as_dict(mapping: MappingResult) -> dict[int, int]:
    """A mapping's pairs as row -> column."""
    return {row: col for row, col, _ in mapping.pairs}


def total_f(mapping: MappingResult) -> float:
    """The summed F of a mapping's pairs, in row order."""
    return sum(f for _, _, f in mapping.pairs)
