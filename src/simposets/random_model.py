"""Random simplicial posets from clique complexes of random graphs.

Randomness comes from splitmix64, a fixed 64-bit generator that is easy to
reimplement anywhere (state advances by the golden-gamma constant, output
is finalized by two xor-multiply rounds).  Doubles take the top 53 bits of
one output word.  Test vectors live in the test suite and the README.

The k-th output (k >= 1) of the stream with state s is the finalizer of
``s + k*gamma`` mod 2**64, so ``_draws`` computes any number of
streams' draws at once, as one ``uint64`` array expression; ``SplitMix64``
is the one-draw-at-a-time reference.  A pair is an edge iff its draw is
below p by Python's ``draw < p``, whatever the type of p; ``_threshold``
turns that compare into one integer bound on the draws.

``rand_simplicial_poset`` draws one graph for each of the two probability
parameters from a single stream (the first graph's edges are drawn first,
in canonical pair order), takes clique complexes, and glues the pair with
``theta_glue``.  Identical parameters therefore reproduce identical posets
bit for bit.  ``run_batch`` draws the same two graphs through the same
``_draws``, one grid for a block of samples (a row of both graphs'
draws per sample), reads their neighbour bitmasks off the grid with one
product, and counts each gluing in closed form.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from numbers import Real

import numpy as np

from .complexes import (
    Graph,
    SimplicialComplex,
    _maximal_cliques,
    clique_complex,
    make_graph,
)
from .errors import SizeLimitError
from .gluing import theta_glue
from .poset import Poset, _block

RAND_N_MAX = 12
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 sequence; seed is any 64-bit unsigned integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
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
    ``combinations`` order, and the pair is an edge iff the draw is < p.
    The draws come from ``_draws`` on the stream's state, which then moves
    on past them."""
    pairs = list(combinations(range(n), 2))
    below = _draws(np.array([rng._state], dtype=np.uint64), len(pairs))[0] < np.uint64(_threshold(p))
    rng._state = (rng._state + len(pairs) * _GAMMA) & _MASK64
    return [pair for pair, edge in zip(pairs, below.tolist()) if edge]


def _threshold(p) -> int:
    """The number of draws ``u * 2**-53`` (``u`` in ``[0, 2**53)``) that
    compare below ``p``, so a draw is below ``p`` iff its ``u`` is below
    this.  The comparison is Python's ``draw < p``, whatever the type of
    ``p``; it is monotone in the draw, so a bisection finds the count."""
    return bisect_left(range(1 << 53), True, key=lambda u: not u * 2.0**-53 < p)


def _draws(states: np.ndarray, k: int) -> np.ndarray:
    """Row i: the first ``k`` draws of the splitmix64 stream with state
    ``states[i]``, each as the integer ``u`` of the double ``u * 2**-53``.

    Draw j (j >= 1) is the finalizer of ``state + j * gamma``, computed
    for the whole grid in ``uint64`` arrays, which wrap mod 2**64 without
    a warning."""
    z = states[:, None] + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z


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


def _adjacency_blocks(params: RandomModelParams, count: int):
    """For samples 0..count-1, a block at a time: the seeds of the block
    (a ``uint64`` array) and an array of shape (samples, 2, n) holding the
    neighbour bitmasks of both graphs of each sample.

    A block's draw grid has one row per sample, the first graph's C(n, 2)
    draws then the second's; a block takes ``_block`` samples, each
    holding its draws, seed and masks in 8-byte cells.  A pair (i, j) that
    is an edge adds ``1 << j`` to vertex i's mask and ``1 << i`` to vertex
    j's, one product with a (pairs, n) weight table for both graphs."""
    n = params.n
    pairs = list(combinations(range(n), 2))
    weight = np.zeros((len(pairs), n), dtype=np.int64)
    for row, (i, j) in enumerate(pairs):
        weight[row, i] = 1 << j
        weight[row, j] = 1 << i
    thresholds = np.repeat(np.array([_threshold(params.p1), _threshold(params.p2)], dtype=np.uint64), len(pairs))
    step = _block(8 * (thresholds.size + 1 + 2 * n))
    for start in range(0, count, step):
        seeds = np.uint64(params.seed) + np.arange(start, min(count, start + step), dtype=np.uint64)
        below = _draws(seeds, thresholds.size) < thresholds
        yield seeds, below.reshape(len(seeds), 2, len(pairs)).astype(np.int64) @ weight


def run_batch(params: RandomModelParams, count: int) -> dict:
    """Tally ``count`` samples on derived seeds (base seed + index): per
    sample, whether it is a face poset, its atom count and its element
    count, plus the number of face posets.

    Sample i equals ``rand_simplicial_poset`` with seed ``params.seed + i``
    (mod 2**64); its record comes from the closed form of ``_theta_tally``
    on the same two graphs, drawn by the same ``_draws``, without
    building the poset.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    n = params.n
    per_sample = []
    hits = 0
    for seeds, adj in _adjacency_blocks(params, count):
        for seed_i, (adj1, adj2) in zip(seeds.tolist(), adj.tolist()):
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
