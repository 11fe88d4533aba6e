"""Random simplicial posets from clique complexes of random graphs.

Randomness comes from splitmix64, a fixed 64-bit generator that is easy to
reimplement anywhere (state advances by the golden-gamma constant, output
is finalized by two xor-multiply rounds).  Doubles take the top 53 bits of
one output word.  Test vectors live in the test suite and the README.

The k-th output (k >= 1) of the stream with state s is the finalizer of
``s + k*gamma`` mod 2**64, so ``_draws`` computes any number of
streams' draws at once, as one ``uint64`` array expression.  A pair is an
edge iff its draw is below p by Python's ``draw < p``, whatever the type
of p; ``_threshold`` turns that compare into one integer bound on the
draws.  ``SplitMix64`` draws one at a time, for ``erdos_renyi_graph`` and
``kahle_complex``; it is the reference that the tests hold ``_draws`` and
the samples to.

``rand_simplicial_poset`` draws one graph for each of the two probability
parameters from a single splitmix64 stream (the first graph's edges are
drawn first, in canonical pair order), takes clique complexes, and glues
the pair with ``theta_glue``: ``theta_glue(kahle_complex(n, p1, rng),
kahle_complex(n, p2, rng))`` on one ``SplitMix64(seed)``.  Identical
parameters therefore reproduce identical posets bit for bit.  It and
``run_batch`` share one draw path, ``_adjacency_blocks``: one grid of
``_draws`` for a block of samples (a row of both graphs' draws per
sample), with the neighbour bitmasks read off the grid by one product.  A
sample then takes the clique complexes of its masks through the clique
path of ``clique_complex`` (``complexes._clique_complex``), a block of
``run_batch`` through ``_tally``, which counts the gluings of the samples
without building them: it enumerates the faces of the first complex as
clique rows of the whole block, vertex by vertex, and counts the facets
above a face by subset tests against the block's padded facet array.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from numbers import Real

import numpy as np

from .complexes import Graph, SimplicialComplex, _clique_complex, clique_complex, make_graph
from .errors import SizeLimitError
from .gluing import theta_glue
from .poset import _GAMMA, _MIX1, _MIX2, Poset, _blocks, _mix, _slices

RAND_N_MAX = 12
_FACE_BYTES = 32  # bytes ``_tally`` holds per face of d1, temporaries included
# the number of set bits of each mask on up to RAND_N_MAX vertices, indexed by the mask
_POPCOUNT = np.unpackbits(np.arange(1 << RAND_N_MAX, dtype=">u2").view(np.uint8)).reshape(-1, 16).sum(1, dtype=np.int64)
_MASK64 = (1 << 64) - 1


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
    vertices = _vertex_names(n)
    return make_graph(vertices, [pair for pair in combinations(vertices, 2) if rng.random() < p])


def _vertex_names(n: int) -> list:
    return [f"v{i + 1}" for i in range(n)]


def _threshold(p) -> int:
    """The number of draws ``u * 2**-53`` (``u`` in ``[0, 2**53)``) that
    compare below ``p`` in ``[0, 1]``, so a draw is below ``p`` iff its
    ``u`` is below this.  The comparison is Python's ``draw < p``,
    whatever the type of ``p``.

    For a float ``p`` (``np.float64`` included) the count is
    ``ceil(p * 2**53)``: scaling by a power of two is exact, so
    ``u * 2**-53 < p`` is the exact compare ``u < p * 2**53``.  Any other
    ``Real`` (an int, a ``Fraction``, a ``np.float32``, which compares at
    its own precision) is bisected, since the compare is monotone in the
    draw.  No cache keyed on ``p`` may stand in for either: a
    ``np.float32`` equals and hashes like its float64 value, yet its
    count differs."""
    if isinstance(p, float):
        return math.ceil(p * 2.0**53)
    return bisect_left(range(1 << 53), True, key=lambda u: not u * 2.0**-53 < p)


def _draws(states: np.ndarray, k: int) -> np.ndarray:
    """Row i: the first ``k`` draws of the splitmix64 stream with state
    ``states[i]``, each as the integer ``u`` of the double ``u * 2**-53``.

    Draw j (j >= 1) is the finalizer ``_mix`` of ``state + j * gamma``,
    computed for the whole grid in one ``uint64`` array."""
    return _mix(states[:, None] + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)) >> np.uint64(11)


def kahle_complex(n: int, p: float, rng: SplitMix64) -> SimplicialComplex:
    """Clique complex of G(n, p)."""
    return clique_complex(erdos_renyi_graph(n, p, rng))


def rand_simplicial_poset(params: RandomModelParams) -> Poset:
    """``theta_glue(kahle_complex(n, p1, rng), kahle_complex(n, p2, rng))``
    on one ``SplitMix64(seed)`` stream, drawn as ``run_batch`` draws it: the
    neighbour bitmasks of both graphs come from ``_adjacency_blocks`` and
    go through the clique path of ``clique_complex``."""
    _, adj = next(_adjacency_blocks(params, 1))
    vertices = _vertex_names(params.n)
    first, second = (_clique_complex(vertices, masks) for masks in adj[0].tolist())
    return theta_glue(first, second)


def _clique_rows(adj: np.ndarray) -> tuple:
    """The faces of d1 for a block of samples with neighbour bitmasks
    ``adj`` of shape (samples, 2, n), as rows of four arrays: the sample,
    the vertex mask, whether the face is *shared* (a clique of the second
    graph too) and whether it is a facet.

    The faces of d1 are the nonempty cliques of the first graph.  They are
    found one vertex w at a time: every row so far, the empty face
    included, whose common neighbourhood in the first graph holds w gains
    a copy extended by w.  A row carries that neighbourhood, and it is a
    facet iff it is empty.  It also carries its common neighbourhood in the
    second graph, so it is shared iff its parent is and w lies in the
    parent's; the singletons are shared, which is d2 extended by every
    vertex."""
    samples, _, n = adj.shape
    g1 = adj[:, 0].T.astype(np.uint16)
    g2 = adj[:, 1].T.astype(np.uint16)
    s = np.arange(samples, dtype=np.int32)
    mask = np.zeros(samples, dtype=np.uint16)
    nb1 = np.full(samples, (1 << n) - 1, dtype=np.uint16)
    nb2 = nb1.copy()
    shared = np.ones(samples, dtype=bool)
    for w in range(n):
        bit = np.uint16(1 << w)
        rows = np.flatnonzero(nb1 & bit)
        sw = s[rows]
        parent2 = nb2[rows]
        s = np.concatenate([s, sw])
        mask = np.concatenate([mask, mask[rows] | bit])
        shared = np.concatenate([shared, shared[rows] & (parent2 & bit != 0)])
        nb1 = np.concatenate([nb1, nb1[rows] & g1[w][sw]])
        nb2 = np.concatenate([nb2, parent2 & g2[w][sw]])
    return s[samples:], mask[samples:], shared[samples:], nb1[samples:] == 0


def _tally(adj: np.ndarray) -> tuple:
    """``(elements, face_poset)`` arrays for a block of samples with
    neighbour bitmasks ``adj`` of shape (samples, 2, n): ``len(P)`` and
    ``P.is_face_poset()`` for ``P = theta_glue`` of the clique complexes
    of each sample's two graphs; ``P`` has one atom per vertex.

    The separation holds one copy of a face F of d1 per facet containing
    F, k(F) of them, and ``theta_glue`` merges those copies exactly when F
    is shared, so ``len(P) = 1 + sum over F of (1 if F is shared else
    k(F))``.  The faces of a facet f number ``2**|f| - 1``, so

        len(P) = 1 + sum over f of (2**|f| - 1)
                   - sum over shared F of (k(F) - 1),

    which needs k(F) on the shared faces alone.  A simplicial poset is a
    face poset iff no two elements have the same atom support, so iff no
    unshared face lies in two facets.  An unshared face holds a pair that
    is no edge of the second graph; that pair is an unshared face in every
    facet the face lies in, so only the pairs need the test.

    The faces come from ``_clique_rows``.  k(F) comes from direct subset
    tests, ``F & ~f == 0``, against the complements of the block's facets,
    sorted by sample into a (samples, width) array and padded with the
    complement of the empty set, which holds no face.  The faces are
    tested a slice (``_slices``) at a time.
    """
    samples = len(adj)
    s, mask, shared, facet = _clique_rows(adj)
    fs, fm = s[facet], mask[facet]
    order = np.argsort(fs, kind="stable")
    fs, fm = fs[order], fm[order]
    per_sample = np.bincount(fs, minlength=samples)
    complements = np.full((samples, int(per_sample.max())), ~np.uint16(0))
    complements[fs, np.arange(fs.size) - np.repeat(np.cumsum(per_sample) - per_sample, per_sample)] = ~fm
    # float64 sums of small integers, which it holds exactly
    copies = np.bincount(fs, weights=(1 << _POPCOUNT[fm]) - 1, minlength=samples)
    merged = np.zeros(samples)
    doubled = np.zeros(samples)
    tested = np.flatnonzero(shared | (_POPCOUNT[mask] == 2))
    # a tested face holds 40 bytes of 8-byte temporaries, and 5 bytes per
    # facet: the gathered complements, their masked copy and its test
    for part in _slices(tested.size, 40 + 5 * complements.shape[1]):
        rows = tested[part]
        sr, sh = s[rows], shared[rows]
        k = ((mask[rows, None] & complements[sr]) == 0).sum(1)
        merged += np.bincount(sr, weights=np.where(sh, k - 1, 0), minlength=samples)
        doubled += np.bincount(sr, weights=~sh & (k > 1), minlength=samples)
    return 1 + (copies - merged).astype(np.int64), doubled == 0


def _adjacency_blocks(params: RandomModelParams, count: int):
    """For samples 0..count-1, a block at a time: the seeds of the block
    (a ``uint64`` array) and an array of shape (samples, 2, n) holding the
    neighbour bitmasks of both graphs of each sample.

    A block's draw grid has one row per sample, the first graph's C(n, 2)
    draws then the second's; a block is a slice (``_slices``) of samples,
    each holding its draws, seed and masks in 8-byte cells.  A pair (i, j)
    that is an edge adds ``1 << j`` to vertex i's mask and ``1 << i`` to
    vertex j's, one product with a (pairs, n) weight table for both
    graphs."""
    n = params.n
    pairs = list(combinations(range(n), 2))
    weight = np.zeros((len(pairs), n), dtype=np.int64)
    for row, (i, j) in enumerate(pairs):
        weight[row, i] = 1 << j
        weight[row, j] = 1 << i
    thresholds = np.repeat(np.array([_threshold(params.p1), _threshold(params.p2)], dtype=np.uint64), len(pairs))
    for part in _slices(count, 8 * (thresholds.size + 1 + 2 * n)):
        seeds = np.uint64(params.seed) + np.arange(part.start, part.stop, dtype=np.uint64)
        below = _draws(seeds, thresholds.size) < thresholds
        yield seeds, below.reshape(len(seeds), 2, len(pairs)).astype(np.int64) @ weight


def run_batch(params: RandomModelParams, count: int) -> dict:
    """Tally ``count`` samples on derived seeds (base seed + index): per
    sample, whether it is a face poset, its atom count and its element
    count, plus the number of face posets.

    Sample i equals ``rand_simplicial_poset`` with seed ``params.seed + i``
    (mod 2**64); its record is read off the same two graphs, drawn by the
    same ``_draws``, without building the poset: ``_tally`` enumerates
    the faces of d1 for a block of samples at once as clique rows and
    counts the facets above a face by subset tests.  A clique of the first
    graph is a vertex v with a set of v's neighbours above v, which bounds
    a sample's faces; a block of the tally takes as many samples as that
    bound lets it hold at ``_FACE_BYTES`` a face.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    n = params.n
    above = ((1 << n) - 1) & ~((2 << np.arange(n)) - 1)
    seeds, elements, face_poset = [], [], []
    for block_seeds, adj in _adjacency_blocks(params, count):
        seeds += block_seeds.tolist()
        faces = (1 << _POPCOUNT[adj[:, 0] & above]).sum(1)
        for part in _blocks(_FACE_BYTES * (1 + faces)):
            block_elements, block_face_poset = _tally(adj[part])
            elements += block_elements.tolist()
            face_poset += block_face_poset.tolist()
    return {
        "params": {"n": params.n, "p1": params.p1, "p2": params.p2, "seed": params.seed},
        "samples": count,
        "face_poset_count": sum(face_poset),
        "per_sample": [
            {"seed": seed, "is_face_poset": fp, "atoms": n, "elements": size}
            for seed, fp, size in zip(seeds, face_poset, elements)
        ],
    }
