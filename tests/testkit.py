"""Deterministic synthetic clusterings and hierarchies for property tests.

All randomness comes from SplitMix64 seeded by the spec, so a given spec
reproduces the very same fixture on every run and platform. Vocabulary
words are the synthetic tokens ``w0`` .. ``w{vocab_size-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass

from clustereval.model import Clustering, ExpertHierarchy, HierarchyNode, LabeledClass

_MASK64 = (1 << 64) - 1
_MAX_REDRAWS = 64


class SplitMix64:
    """SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).

    64-bit state advanced by the golden-gamma constant; the output is the
    state mixed by two xor-shift-multiply rounds. Bounded draws take the
    remainder of the 64-bit output (the modulo bias is irrelevant here and
    keeps the mapping trivially reproducible); a chance draw compares the
    top 53 bits, read as a float in [0, 1).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def chance(self, p: float) -> bool:
        return (self.next_u64() >> 11) * 2.0**-53 < p


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic fixture; equal specs generate equal output."""

    seed: int
    vocab_size: int
    n_classes: int
    class_size: tuple[int, int]
    overlap_rate: float = 0.0
    hierarchy_depth: int = 1

    def __post_init__(self):
        lo, hi = self.class_size
        if lo < 1 or lo > hi or hi > self.vocab_size:
            raise ValueError("class_size must satisfy 1 <= min <= max <= vocab_size")
        if self.n_classes < 1:
            raise ValueError("n_classes must be at least 1")
        if not 0.0 <= self.overlap_rate <= 1.0:
            raise ValueError("overlap_rate must be in [0, 1]")
        if self.hierarchy_depth < 1:
            raise ValueError("hierarchy_depth must be at least 1")


def _vocabulary(spec: GenSpec) -> list[str]:
    return [f"w{i}" for i in range(spec.vocab_size)]


def _draw_members(rng: SplitMix64, spec: GenSpec, fresh: list[str], used: list[str]) -> list[str]:
    """Draw a size in ``spec.class_size``, then that many distinct words; each
    slot reuses an already-used word with probability ``overlap_rate``,
    falling back to the other pool when the preferred one runs dry (GenSpec
    keeps every size within ``vocab_size``)."""
    lo, hi = spec.class_size
    members: list[str] = []
    chosen: set[str] = set()
    for _ in range(lo + rng.below(hi - lo + 1)):
        reuse_pool = [w for w in used if w not in chosen]
        fresh_pool = [w for w in fresh if w not in chosen]
        if rng.chance(spec.overlap_rate):
            pool = reuse_pool or fresh_pool
        else:
            pool = fresh_pool or reuse_pool
        word = pool[rng.below(len(pool))]
        members.append(word)
        chosen.add(word)
    return members


def _commit(members: list[str], fresh: list[str], used: list[str]) -> None:
    for word in members:
        if word in fresh:
            fresh.remove(word)
            used.append(word)


def gen_clustering(spec: GenSpec) -> Clustering:
    """Generate a deterministic clustering of ``n_classes`` labeled classes.

    Member sets are pairwise distinct across classes (a duplicate draw is
    retried with fresh randomness), so a generated clustering evaluated
    against itself always maps every class to its own twin. Specs that
    force duplicates — e.g. overlap_rate 1.0 with a fixed class size —
    are rejected as infeasible.
    """
    rng = SplitMix64(spec.seed)
    fresh = _vocabulary(spec)
    used: list[str] = []
    seen: set[frozenset[str]] = set()
    classes: list[LabeledClass] = []
    for i in range(spec.n_classes):
        for _attempt in range(_MAX_REDRAWS):
            members = _draw_members(rng, spec, fresh, used)
            if frozenset(members) not in seen:
                break
        else:
            raise ValueError("cannot draw a distinct member set; spec is infeasible")
        seen.add(frozenset(members))
        _commit(members, fresh, used)
        classes.append(LabeledClass(f"C{i}", tuple(members)))
    return Clustering(f"gen-{spec.seed}", tuple(classes))


def gen_hierarchy(spec: GenSpec) -> ExpertHierarchy:
    """Generate a deterministic hierarchy of depth ``hierarchy_depth``.

    Each of the ``n_classes`` roots grows one or two children per node
    down to the requested depth; every node draws its own members the
    same way gen_clustering draws a class.
    """
    rng = SplitMix64(spec.seed)
    fresh = _vocabulary(spec)
    used: list[str] = []
    counter = [0]

    def build(level: int) -> HierarchyNode:
        label = f"E{counter[0]}"
        counter[0] += 1
        members = _draw_members(rng, spec, fresh, used)
        _commit(members, fresh, used)
        children: tuple[HierarchyNode, ...] = ()
        if level < spec.hierarchy_depth:
            children = tuple(build(level + 1) for _ in range(1 + rng.below(2)))
        return HierarchyNode(label, tuple(members), children)

    roots = tuple(build(1) for _ in range(spec.n_classes))
    return ExpertHierarchy(f"gen-{spec.seed}", roots)

