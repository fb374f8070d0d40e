"""Seeded input generator for the benchmark workloads.

Standard library only, and independent of ``clustereval.testkit``, so a
change to the package's own fixture generator never changes the benchmark's
inputs. All randomness comes from ``random.Random(seed)``, whose seeded
stream is stable across CPython versions; the same seed and sizes give
byte-identical input files.

Each generator returns an :class:`Inputs`: the two JSON documents the CLI
reads, plus the ground truth the output checker needs (every system class
and every flattened expert column as a plain word set), computed here from
the generated structure rather than by the package under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Inputs:
    system_doc: dict
    expert_doc: dict
    system: tuple[tuple[str, frozenset[str]], ...]  # (label, members) in document order
    columns: tuple[tuple[str, frozenset[str]], ...]  # (path, inherited members), pre-order

    def write(self, workdir: Path) -> tuple[Path, Path]:
        """Write both documents as compact UTF-8 JSON; return their paths."""
        workdir.mkdir(parents=True, exist_ok=True)
        paths = (workdir / "system.json", workdir / "expert.json")
        for path, doc in zip(paths, (self.system_doc, self.expert_doc)):
            path.write_text(
                json.dumps(doc, ensure_ascii=False, separators=(",", ":")), encoding="utf-8"
            )
        return paths


def digest(paths) -> str:
    """Short SHA-256 over the given files' bytes, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def _flat_doc(name: str, classes: list[tuple[str, list[str]]]) -> dict:
    return {"name": name, "classes": [{"label": l, "members": m} for l, m in classes]}


def _flat_inputs(
    system: list[tuple[str, list[str]]], expert: list[tuple[str, list[str]]]
) -> Inputs:
    return Inputs(
        system_doc=_flat_doc("system", system),
        expert_doc=_flat_doc("expert", expert),
        system=tuple((l, frozenset(m)) for l, m in system),
        columns=tuple((l, frozenset(m)) for l, m in expert),
    )


def flat_noisy(
    seed: int,
    classes: int = 300,
    size: tuple[int, int] = (5, 30),
    shared: float = 0.10,
    moved: float = 0.20,
    split: float = 0.10,
    merged: float = 0.05,
) -> Inputs:
    """Flat expert classes and a noisy system copy of them.

    Class sizes cycle through the ``size`` range, and a ``shared`` share of
    expert slots reuse a word of an earlier class. The system side tries to
    move a ``moved`` share of incidences to a random other class, then
    splits a ``split`` share of classes in two and merges a ``merged``
    share pairwise. The shares are exact counts, so the seed changes which
    words and classes are touched but hardly the amount of work.
    """
    rng = random.Random(seed)
    lo, hi = size
    sizes = [lo + i % (hi - lo + 1) for i in range(classes)]
    rng.shuffle(sizes)
    expert: list[list[str]] = []
    vocab: list[str] = []
    for n in sizes:
        members: list[str] = []
        present: set[str] = set()
        for _ in range(n):
            word = vocab[rng.randrange(len(vocab))] if vocab and rng.random() < shared else None
            if word is None or word in present:
                word = f"w{len(vocab)}"
                vocab.append(word)
            members.append(word)
            present.add(word)
        expert.append(members)

    noisy = [list(m) for m in expert]
    sets = [set(m) for m in expert]
    incidences = [(src, word) for src, members in enumerate(expert) for word in members]
    for src, word in rng.sample(incidences, round(moved * len(incidences))):
        dst = rng.randrange(classes)
        if dst == src or word in sets[dst] or len(noisy[src]) < 2:
            continue
        noisy[src].remove(word)
        sets[src].discard(word)
        noisy[dst].append(word)
        sets[dst].add(word)

    to_split = set(rng.sample(range(classes), round(split * classes)))
    system: list[list[str]] = []
    for i, members in enumerate(noisy):
        if i in to_split and len(members) >= 2:
            cut = rng.randrange(1, len(members))
            system += [members[:cut], members[cut:]]
        else:
            system.append(members)
    rng.shuffle(system)
    n_merges = round(merged * len(system))
    for first, second in zip(system[:n_merges], system[n_merges : 2 * n_merges]):
        present = set(first)
        first += [w for w in second if w not in present]
    system = system[:n_merges] + system[2 * n_merges :]
    return _flat_inputs(
        [(f"S{i}", m) for i, m in enumerate(system)],
        [(f"E{i}", m) for i, m in enumerate(expert)],
    )


def conflict_cascade(seed: int, rows: int = 64) -> Inputs:
    """Every system row prefers expert column 0 and ranks the columns alike.

    Over a word list u of length 3R, expert column j is the prefix
    u[:3R-j] and row i is the prefix u[:P_i], with the P_i a shuffled
    R+1..2R. Each row is inside every column, so F(i, j) = 2P_i/(P_i+3R-j)
    falls with j for every row and never drops below 1/2. Conflict repair
    moves one row one column right per re-map until rows sit on columns
    0..R-1, which takes exactly R(R-1)/2 re-maps.
    """
    rng = random.Random(seed)
    length = 3 * rows
    ids = list(range(length))
    rng.shuffle(ids)
    words = [f"u{k}" for k in ids]
    prefix_lengths = list(range(rows + 1, 2 * rows + 1))
    rng.shuffle(prefix_lengths)

    def shuffled(members: list[str]) -> list[str]:
        members = list(members)
        rng.shuffle(members)
        return members

    system = [(f"S{i}", shuffled(words[:p])) for i, p in enumerate(prefix_lengths)]
    expert = [(f"E{j}", shuffled(words[: length - j])) for j in range(rows)]
    return _flat_inputs(system, expert)


def deep_gold(
    seed: int,
    roots: int = 8,
    depth: int = 8,
    own: int = 40,
    classes: int = 8,
    class_level: int = 7,
    keep: float = 0.8,
    noise: float = 0.10,
) -> Inputs:
    """A deep binary expert hierarchy and a few system classes cut from it.

    Each root is a complete binary tree with ``depth`` levels, every node
    holding ``own`` fresh words of its own, so every seed gives the same
    tree shape and column sizes. Each system class keeps a ``keep`` share
    of the words of a distinct subtree rooted at level ``class_level``
    (roots are level 1), plus a ``noise`` share of random words from
    anywhere.
    """
    rng = random.Random(seed)
    vocab: list[str] = []
    columns: list[tuple[str, frozenset[str]]] = []
    subtrees: list[list[str]] = []  # words under each node at class_level
    counter = 0

    def build(level: int, prefix: str) -> dict:
        nonlocal counter
        label = f"N{counter}"
        counter += 1
        path = f"{prefix}/{label}" if prefix else label
        start = len(vocab)
        vocab.extend(f"d{start + k}" for k in range(own))
        node: dict = {"label": label, "members": vocab[start:]}
        slot = len(columns)
        columns.append((path, frozenset()))
        if level < depth:
            node["children"] = [build(level + 1, path) for _ in range(2)]
        words = vocab[start:]  # pre-order: the subtree's words are contiguous
        columns[slot] = (path, frozenset(words))
        if level == class_level:
            subtrees.append(words)
        return node

    docs = [build(1, "") for _ in range(roots)]
    system = []
    for i, base in enumerate(rng.sample(subtrees, classes)):
        members = [w for w in base if rng.random() < keep]
        present = set(members)
        for _ in range(int(len(base) * noise)):
            word = vocab[rng.randrange(len(vocab))]
            if word not in present:
                members.append(word)
                present.add(word)
        system.append((f"S{i}", members))
    return Inputs(
        system_doc=_flat_doc("system", system),
        expert_doc={"name": "expert", "classes": docs},
        system=tuple((l, frozenset(m)) for l, m in system),
        columns=tuple(columns),
    )


def pair_partitions(seed: int, classes: int = 30, size: int = 120, moved: float = 0.20) -> Inputs:
    """Two flat partitions of one vocabulary into large classes.

    The expert side cuts a shuffled vocabulary into ``classes`` classes of
    ``size`` words. The system side takes a ``moved`` share of the words
    and rotates them one place along a random order, each into the class
    of the next, so both sides stay partitions with the same class sizes
    and the same pair counts on every seed.
    """
    rng = random.Random(seed)
    words = [f"p{k}" for k in range(classes * size)]
    rng.shuffle(words)
    expert = [words[i * size : (i + 1) * size] for i in range(classes)]
    owner = {w: i for i, members in enumerate(expert) for w in members}
    chosen = rng.sample(words, round(moved * len(words)))
    target = dict(owner)
    for word, successor in zip(chosen, chosen[1:] + chosen[:1]):
        target[word] = owner[successor]
    system: list[list[str]] = [[] for _ in range(classes)]
    for word in words:
        system[target[word]].append(word)
    return _flat_inputs(
        [(f"S{i}", m) for i, m in enumerate(system)],
        [(f"E{i}", m) for i, m in enumerate(expert)],
    )
