"""Random simplicial posets from clique complexes of random graphs.

Randomness comes from splitmix64, a fixed 64-bit generator that is easy to
reimplement anywhere (state advances by the golden-gamma constant, output
is finalized by two xor-multiply rounds).  Doubles take the top 53 bits of
one output word.  Test vectors live in the test suite and the README.

``rand_simplicial_poset`` draws one graph for each of the two probability
parameters from a single stream (the first graph's edges are drawn first,
in canonical pair order), takes clique complexes, and glues the pair with
``theta_glue``.  Identical parameters therefore reproduce identical posets
bit for bit.  ``run_batch`` draws the same two graphs, as vertex bitmasks
through the same ``_edges``, and counts each gluing in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Real

from .complexes import (
    Graph,
    SimplicialComplex,
    _adjacency,
    _maximal_cliques,
    clique_complex,
    make_graph,
)
from .errors import SizeLimitError
from .gluing import theta_glue
from .poset import Poset

RAND_N_MAX = 12
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 sequence; seed is any 64-bit unsigned integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class RandomModelParams:
    n: int
    p1: float
    p2: float
    seed: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.n > RAND_N_MAX:
            raise SizeLimitError(f"the random model is guarded at n <= {RAND_N_MAX}")
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if isinstance(p, bool) or not isinstance(p, Real) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def erdos_renyi_graph(n: int, p: float, rng: SplitMix64) -> Graph:
    """G(n, p) on vertices v1..vn.

    One draw is consumed per vertex pair, in index order (v1,v2), (v1,v3),
    ..., regardless of p, so the stream position after a graph is a
    function of n alone.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if isinstance(p, bool) or not isinstance(p, Real) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    vertices = [f"v{i + 1}" for i in range(n)]
    return make_graph(vertices, [(vertices[i], vertices[j]) for i, j in _edges(n, p, rng)])


def _edges(n: int, p: float, rng: SplitMix64) -> list:
    """Index pairs (i, j), i < j, of G(n, p): one draw per pair, in
    ``combinations`` order, and the pair is an edge iff the draw is < p."""
    return [pair for pair in combinations(range(n), 2) if rng.random() < p]


def kahle_complex(n: int, p: float, rng: SplitMix64) -> SimplicialComplex:
    """Clique complex of G(n, p)."""
    return clique_complex(erdos_renyi_graph(n, p, rng))


def rand_simplicial_poset(params: RandomModelParams) -> Poset:
    rng = SplitMix64(params.seed)
    first = kahle_complex(params.n, params.p1, rng)
    second = kahle_complex(params.n, params.p2, rng)
    return theta_glue(first, second)


def _theta_tally(adj1, adj2) -> tuple:
    """``(len(P), P.is_face_poset())`` for ``P = theta_glue`` of the clique
    complexes of the graphs with neighbour bitmasks ``adj1`` and ``adj2``
    on the same vertices; ``P`` has one atom per vertex.

    The faces of d1 are the nonempty submasks of its facets (the maximal
    cliques of the first graph).  A face F is *shared* iff it is a clique
    of the second graph; every singleton is one, which is d2 extended by
    every vertex.  The separation holds one copy of F per facet containing
    F, and ``theta_glue`` merges those copies exactly when F is shared, so

        len(P) = 1 + sum over F of (1 if F is shared else
                                     the number of facets containing F).

    A simplicial poset is a face poset iff no two elements have the same
    atom support.  Two copies of F survive iff F is unshared and lies in
    two facets f, g, so in ``f & g``; the shared faces are closed under
    subsets, so this happens iff some ``f & g`` is unshared (the empty
    intersection counts as shared).
    """

    def shared(face):
        rest = face
        while rest:
            bit = rest & -rest
            rest ^= bit
            if face & ~adj2[bit.bit_length() - 1] & ~bit:
                return False
        return True

    facets = _maximal_cliques(adj1)
    copies = {}
    for f in facets:
        sub = f
        while sub:
            copies[sub] = copies.get(sub, 0) + 1
            sub = (sub - 1) & f
    elements = 1 + sum(1 if k == 1 or shared(face) else k for face, k in copies.items())
    face_poset = all(shared(f & g) for f, g in combinations(facets, 2))
    return elements, face_poset


def run_batch(params: RandomModelParams, count: int) -> dict:
    """Tally ``count`` samples on derived seeds (base seed + index): per
    sample, whether it is a face poset, its atom count and its element
    count, plus the number of face posets.

    Sample i equals ``rand_simplicial_poset`` with seed ``params.seed + i``
    (mod 2**64); its record comes from the closed form of ``_theta_tally``
    on the same two graphs, drawn from the same stream, without building
    the poset.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    n = params.n
    per_sample = []
    hits = 0
    for i in range(count):
        seed_i = (params.seed + i) & _MASK64
        rng = SplitMix64(seed_i)
        adj1 = _adjacency(n, _edges(n, params.p1, rng))
        adj2 = _adjacency(n, _edges(n, params.p2, rng))
        elements, fp = _theta_tally(adj1, adj2)
        hits += fp
        per_sample.append(
            {
                "seed": seed_i,
                "is_face_poset": fp,
                "atoms": n,
                "elements": elements,
            }
        )
    return {
        "params": {"n": params.n, "p1": params.p1, "p2": params.p2, "seed": params.seed},
        "samples": count,
        "face_poset_count": hits,
        "per_sample": per_sample,
    }
