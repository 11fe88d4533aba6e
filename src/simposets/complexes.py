"""Abstract simplicial complexes and graphs.

A complex is stored by its vertex list and its facets (inclusion-maximal
faces).  Construction normalizes arbitrary face families: faces contained in
another are absorbed, and vertices not covered by any given face become
singleton facets, so every vertex of the complex is a face.

``_simplex_order(k)`` is the face order of a simplex on k sorted vertices,
the same for every simplex of that size, the one 4^k kernel, guarded at
``BOOLEAN_LATTICE_MAX`` vertices, and the one layout of a simplex's faces:
a table of their vertex positions.  ``face_poset`` reads each facet's
vertices at those positions, gives the copies of a face one id by the rank
of its row and closes the covers with ``_dag``; ``theta_glue`` takes one
copy per facet as its separation.  Both label faces by their positions
(``_position_labels``).  ``boolean_lattice(n)`` is the face poset of one
simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import FormatError, InvariantError, SizeLimitError, StructureError
from .labels import Label, valid_vertex_name
from .poset import Poset, _dag, _dumps, _Lazy, _loads, _ranks

BOOLEAN_LATTICE_MAX = 15


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    facets: tuple  # tuples of vertex names, each sorted; canonical row order

    def face_poset(self) -> Poset:
        """Faces ordered by inclusion, with the empty face as bottom.

        Built from the facets: the faces and covers of each facet are a copy
        of the simplex order of its size (``_simplex_order``), taken once
        per size for all facets of that size.  A face's row holds its
        vertices, numbered in sorted-name order: the facet's vertices read
        at the face's row of the position table, so ascending and padded
        with -1.  The lex rank of its row (``_ranks``) is its place in
        canonical label order and one id for all its copies.  ``_dag``
        closes the covers, and its cycle check is the one antisymmetry
        check; labels are built on first read."""
        names = tuple(sorted(self.vertices))
        position = {v: j for j, v in enumerate(names)}
        by_size = {}
        for f in self.facets:
            by_size.setdefault(len(f), []).append([position[v] for v in f] + [-1])
        orders = {k: _simplex_order(k) for k in by_size}  # guarded before rows is allocated
        width = max(by_size, default=1)  # a column for the empty complex's bottom
        rows = np.full((1 + sum(len(vertex) << k for k, vertex in by_size.items()), width), -1)
        lo, hi = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        start = 1
        for k, vertex in by_size.items():
            pos, _, sub_lo, sub_hi = orders[k]  # not its leq
            # the facet's vertices at each face's positions; padding -1 picks the -1 at the end
            rows[start : start + (len(vertex) << k), :k] = np.array(vertex)[:, pos].reshape(-1, k)
            copy = start + (1 << k) * np.arange(len(vertex))[:, None]
            lo.append((copy + sub_lo).ravel())
            hi.append((copy + sub_hi).ravel())
            start += len(vertex) << k
        face = _ranks(list(rows.T))
        n = int(face.max()) + 1
        order = _dag(n, face[np.concatenate(lo)], face[np.concatenate(hi)])
        if order is None or order[3].any():
            raise InvariantError("face covers do not generate a partial order")
        leq, lo, hi, _ = order
        first = np.zeros(n, dtype=np.intp)
        first[face] = np.arange(face.size)  # any copy of each face
        rows = rows[first]
        labels = _Lazy(n, _position_labels, names, rows[rows >= 0], np.count_nonzero(rows >= 0, axis=1))
        return Poset._indexed(labels, leq, lo, hi)

    def minimal_nonfaces(self):
        """Inclusion-minimal vertex subsets that are not faces.

        Brute force by increasing cardinality; exponential in the vertex
        count, intended for small complexes.
        """
        found = []
        verts = sorted(self.vertices)
        facets = [frozenset(f) for f in self.facets]
        for k in range(2, len(verts) + 1):
            for cand in combinations(verts, k):
                cs = frozenset(cand)
                if any(m <= cs for m in found):
                    continue
                if not any(cs <= g for g in facets):
                    found.append(cs)
        return sorted((tuple(sorted(m)) for m in found), key=lambda t: (len(t), t))

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "facets": [list(f) for f in self.facets],
        }

    def to_json(self) -> str:
        return _dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj) -> "SimplicialComplex":
        if not isinstance(obj, dict) or "vertices" not in obj or "facets" not in obj:
            raise FormatError("complex JSON needs 'vertices' and 'facets'")
        if not isinstance(obj["vertices"], list) or not isinstance(obj["facets"], list):
            raise FormatError("complex JSON fields have the wrong shape")
        for f in obj["facets"]:
            if not isinstance(f, list):
                raise FormatError(f"facet has the wrong shape: {f!r}")
        return make_complex(obj["vertices"], obj["facets"])

    @classmethod
    def from_json(cls, text: str) -> "SimplicialComplex":
        return cls.from_json_dict(_loads(text))


def make_complex(vertices, facet_candidates) -> SimplicialComplex:
    """Normalize a vertex list and a face family into a complex.

    Contained candidates are absorbed into larger ones and uncovered
    vertices are added as singleton facets.
    """
    verts = list(vertices)
    for v in verts:
        if not valid_vertex_name(v):
            raise FormatError(f"invalid vertex name: {v!r}")
    if len(set(verts)) != len(verts):
        raise StructureError("vertex names must be unique")
    known = set(verts)
    sets = []
    for cand in facet_candidates:
        fs = frozenset(cand)
        for v in fs:
            if v not in known:
                raise StructureError(f"facet uses unknown vertex: {v!r}")
        if fs:
            sets.append(fs)
    covered = set().union(*sets) if sets else set()
    for v in verts:
        if v not in covered:
            sets.append(frozenset([v]))
    maximal = [f for f in set(sets) if not any(f < g for g in sets)]
    facets = tuple(sorted((tuple(sorted(f)) for f in maximal), key=lambda t: (len(t), t)))
    return SimplicialComplex(vertices=tuple(verts), facets=facets)


def _simplex_order(k: int):
    """The faces of the simplex on positions 0..k-1, ordered by inclusion:
    ``(pos, leq, lo, hi)``.  Row i of ``pos`` holds the positions of face
    i, ascending and padded with -1 to width k, in lex order of those
    tuples, so the empty face comes first; ``leq`` is the order matrix and
    ``lo``, ``hi`` are the sorted cover pairs, all read-only.  On sorted
    vertex names this is canonical label order.

    In lex order the faces of {j..k-1} are the empty face, then each face
    of {j+1..k-1} with j added, then the nonempty faces of {j+1..k-1}.  So
    each step doubles the order block by block, with no product: a face
    with j lies below no face without j, and a face without j lies below
    F or F + {j} exactly when it lies below F.

    Raises SizeLimitError before allocating when k > BOOLEAN_LATTICE_MAX:
    at 15 ``leq`` takes 1 GiB, at 16 it would take 4 GiB.
    """
    if k > BOOLEAN_LATTICE_MAX:
        raise SizeLimitError(
            f"a simplex on {k} vertices has 2^{k} faces; face orders are guarded at {BOOLEAN_LATTICE_MAX} vertices"
        )
    pos = np.zeros((1, 0), dtype=np.intp)
    leq = np.ones((1, 1), dtype=bool)
    lo = hi = np.zeros(0, dtype=np.intp)
    for j in range(k - 1, -1, -1):
        h = pos.shape[0]
        at = np.arange(h) + h  # the old faces without j, the empty face staying at 0
        at[0] = 0
        grown = np.zeros((2 * h, 2 * h), dtype=bool)
        grown[0] = True
        grown[1 : h + 1, 1 : h + 1] = leq
        grown[h + 1 :, 1 : h + 1] = leq[1:]
        grown[h + 1 :, h + 1 :] = leq[1:, 1:]
        # covers among faces with j, among faces without it, and F below F + {j}
        lo = np.concatenate([lo + 1, at[lo], at])
        hi = np.concatenate([hi + 1, at[hi], np.arange(1, h + 1)])
        # j first in the faces with it, the faces without it padded one column on
        rows = np.full((2 * h, k - j), -1, dtype=np.intp)
        rows[1 : h + 1, 0], rows[1 : h + 1, 1:], rows[h + 1 :, :-1] = j, pos, pos[1:]
        pos, leq = rows, grown
    sort = np.lexsort((hi, lo))
    out = (pos, leq, lo[sort], hi[sort])
    for a in out:
        a.setflags(write=False)
    return out


def _position_labels(names: tuple, flat: np.ndarray, size: np.ndarray) -> tuple:
    """The labels of faces given by the positions in ``names`` of their
    vertices, ascending and laid end to end, and by their sizes; the empty
    face, first, is the bottom."""
    vertex = iter([names[j] for j in flat.tolist()])
    return (Label.bottom(), *(Label._atoms(tuple(islice(vertex, s))) for s in size[1:].tolist()))


def boolean_lattice(n: int) -> Poset:
    """The lattice of subsets of {x1..xn}, the face poset of the simplex on
    those vertices; 2^n elements, labels built on first read.

    Guarded by ``_simplex_order`` at n <= 15, where ``leq`` takes 1 GiB.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"boolean_lattice needs a nonnegative integer, got {n!r}")
    names = [f"x{i + 1}" for i in range(n)]
    return make_complex(names, [names]).face_poset()


def parse_facet_string(text: str) -> SimplicialComplex:
    """Parse shorthand like ``a*b*c,b*c*d`` into a complex.

    Vertices are the names appearing in the string, in sorted order.
    """
    if not isinstance(text, str) or not text.strip():
        raise FormatError("empty facet string")
    facets = []
    for part in text.split(","):
        names = [n.strip() for n in part.strip().split("*")]
        if any(not n for n in names):
            raise FormatError(f"malformed facet in string: {part!r}")
        facets.append(names)
    verts = sorted({v for f in facets for v in f})
    return make_complex(verts, facets)


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: frozenset  # frozenset of sorted 2-tuples


def make_graph(vertices, edges) -> Graph:
    verts = tuple(vertices)
    known = set(verts)
    if len(known) != len(verts):
        raise StructureError("vertex names must be unique")
    norm = set()
    for e in edges:
        a, b = tuple(e)
        if a not in known or b not in known:
            raise StructureError(f"edge uses unknown vertex: {e!r}")
        if a == b:
            raise StructureError(f"loops are not allowed: {e!r}")
        norm.add(tuple(sorted((a, b))))
    return Graph(vertices=verts, edges=frozenset(norm))


def _adjacency(n: int, pairs) -> list:
    """Neighbour bitmasks of the graph on vertices 0..n-1 with the given
    index pairs as edges."""
    adj = [0] * n
    for i, j in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _maximal_cliques(adj) -> list:
    """Maximal cliques, as vertex bitmasks, of the graph with neighbour
    bitmasks ``adj``.

    Bron-Kerbosch with a pivot of most candidate neighbours; an isolated
    vertex is reported as a clique of its own.
    """
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot, best, rest = 0, -1, p | x
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            k = (adj[u] & p).bit_count()
            if k > best:
                pivot, best = u, k
        todo = p & ~adj[pivot]
        while todo:
            bit = todo & -todo
            todo ^= bit
            nv = adj[bit.bit_length() - 1]
            expand(r | bit, p & nv, x & nv)
            p ^= bit
            x |= bit

    expand(0, (1 << len(adj)) - 1, 0)
    return out


def clique_complex(graph: Graph) -> SimplicialComplex:
    """The complex whose faces are the cliques of the graph."""
    verts = graph.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj = _adjacency(len(verts), ((index[a], index[b]) for a, b in graph.edges))
    cliques = [[v for i, v in enumerate(verts) if m >> i & 1] for m in _maximal_cliques(adj)]
    return make_complex(verts, cliques)
