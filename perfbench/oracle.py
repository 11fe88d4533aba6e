"""Reference values the benchmark checks the library against.

Nothing here calls ``simposets``.  The random model is replayed from its
published definition (splitmix64 draws, one per vertex pair in index order,
first graph then second), cliques and faces come from the brute-force
helpers in ``tests/oracles.py``, and the theta-glued poset is described by
its closed form:

* a nonempty face F of d1 appears once if F is also a face of d2, and
  otherwise once per facet of d1 containing F, always with rank |F|;
* the result is a face poset iff every intersection of two distinct facets
  of d1 is a face of d2.

Because every lower interval of a simplicial poset is boolean, the ranks
alone give the element count, the work ``sum 4**rank`` of the current
simpliciality check, and the number of incomparable non-bottom pairs
(``C(m, 2) - sum(2**rank - 2)`` over the m non-bottom elements).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from oracles import brute_faces, brute_maximal_cliques

_MASK64 = (1 << 64) - 1


class SplitMix:
    """splitmix64, as specified in the random-model docstring."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def derive_seed(seed: int, stream: str) -> int:
    """A 48-bit seed for one named input stream of a benchmark run."""
    rng = SplitMix(seed)
    for ch in stream.encode():
        rng = SplitMix(rng.next_u64() ^ ch)
    return rng.next_u64() >> 16


def vertex_names(n: int):
    return [f"v{i + 1}" for i in range(n)]


def random_edges(n: int, p: float, rng: SplitMix):
    vs = vertex_names(n)
    return [(vs[i], vs[j]) for i, j in combinations(range(n), 2) if rng.random() < p]


def clique_facets(n: int, p: float, rng: SplitMix):
    """Maximal cliques of G(n, p), drawn the way the library draws them."""
    return brute_maximal_cliques(vertex_names(n), random_edges(n, p, rng))


@dataclass(frozen=True)
class Shape:
    """What a simplicial poset's rank multiset determines."""

    elements: int
    face_poset: bool
    work: int  # sum over elements of 4**rank
    incomparable_pairs: int

    @classmethod
    def from_ranks(cls, ranks, face_poset):
        m = len(ranks)
        comparable = sum((1 << r) - 2 for r in ranks)
        return cls(
            elements=m + 1,
            face_poset=face_poset,
            work=1 + sum(4**r for r in ranks),
            incomparable_pairs=m * (m - 1) // 2 - comparable,
        )


def theta_shape(n: int, p1: float, p2: float, seed: int) -> Shape:
    """Closed form of ``rand_simplicial_poset(RandomModelParams(n, p1, p2, seed))``."""
    rng = SplitMix(seed)
    facets1 = clique_facets(n, p1, rng)
    return theta_shape_of(facets1, clique_facets(n, p2, rng))


def theta_shape_of(facets1, facets2) -> Shape:
    """Closed form of ``theta_glue(d1, d2)`` for complexes on one vertex set,
    given their facets as frozensets."""
    faces2 = brute_faces(facets2)
    ranks = []
    for face in brute_faces(facets1):
        if not face:
            continue
        copies = 1 if face in faces2 else sum(face <= f for f in facets1)
        ranks += [len(face)] * copies
    face_poset = all(f & g in faces2 for f, g in combinations(facets1, 2))
    return Shape.from_ranks(ranks, face_poset)


def complex_shape(facets) -> Shape:
    """Shape of the face poset of the complex with the given facets."""
    return Shape.from_ranks([len(f) for f in brute_faces(facets) if f], True)


def incomparable_pairs(poset_obj) -> int:
    """Incomparable pairs of non-bottom elements of a poset given as JSON
    (``{"elements": [...], "covers": [[lo, hi], ...]}``), counted from the
    order the covers generate, with Python integers as bitsets."""
    elements = poset_obj["elements"]
    index = {e: i for i, e in enumerate(elements)}
    below = [[] for _ in elements]
    for lo, hi in poset_obj["covers"]:
        below[index[hi]].append(index[lo])
    down = [None] * len(elements)

    def down_set(v):
        if down[v] is None:
            acc = 1 << v
            for u in below[v]:
                acc |= down_set(u)
            down[v] = acc
        return down[v]

    (bottom,) = [v for v in range(len(elements)) if not below[v]]
    m = len(elements) - 1
    comparable = 0
    for v in range(len(elements)):
        if v != bottom:
            comparable += (down_set(v) & ~(1 << bottom) & ~(1 << v)).bit_count()
    return m * (m - 1) // 2 - comparable
