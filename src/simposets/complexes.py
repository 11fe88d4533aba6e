"""Abstract simplicial complexes and graphs.

A complex is stored by its vertex list and its facets (inclusion-maximal
faces).  Construction normalizes arbitrary face families: faces contained in
another are absorbed, and vertices not covered by any given face become
singleton facets, so every vertex of the complex is a face.

``_simplex_order(k)`` is the face order of a simplex on k sorted vertices,
the same for every simplex of that size: ``boolean_lattice`` is one, and
``theta_glue`` takes one copy per facet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import FormatError, InvariantError, SizeLimitError, StructureError
from .labels import Label, valid_vertex_name
from .poset import Poset, _dumps, _Lazy, _loads

BOOLEAN_LATTICE_MAX = 20


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    facets: tuple  # tuples of vertex names, each sorted; canonical row order

    def faces(self):
        """All faces, the empty face included, in canonical order."""
        seen = {frozenset()}
        for f in self.facets:
            for k in range(1, len(f) + 1):
                for sub in combinations(f, k):
                    seen.add(frozenset(sub))
        return sorted((tuple(sorted(f)) for f in seen), key=lambda t: (len(t), t))

    def face_poset(self) -> Poset:
        """Faces ordered by inclusion, with the empty face as bottom.

        A face lies below another when none of its vertices lies outside
        it: one float32 product of the face-vertex incidence rows with
        their complement, a block of rows at a time, so no block outgrows
        ``leq``.  The order is antisymmetric iff the faces are distinct, an
        O(n) check made here instead of one on the matrix."""
        faces = sorted(self.faces())  # by names, which is canonical label order
        if not _distinct(faces):
            raise InvariantError("reachability matrix is not antisymmetric")
        # faces are sorted tuples of the names make_complex validated
        labels = [Label.bottom() if not f else Label._atoms(f) for f in faces]
        vidx = {v: i for i, v in enumerate(self.vertices)}
        n = len(faces)
        inc = np.zeros((n, len(vidx)), dtype=np.float32)
        inc[[k for k, f in enumerate(faces) for _ in f], [vidx[v] for f in faces for v in f]] = 1
        outside = 1 - inc.T
        size = np.array([len(f) for f in faces])
        leq = np.empty((n, n), dtype=bool)
        lo, hi = [], []
        step = max(1, n // 4)  # a float32 block of step rows fills at most the bytes of leq
        for start in range(0, n, step):
            rows = slice(start, start + step)
            leq[rows] = inc[rows] @ outside == 0
            # a face covers the faces below it with one vertex fewer
            r, c = np.nonzero(leq[rows] & (size[rows, None] + 1 == size))
            lo.append(r + start)
            hi.append(c)
        return Poset._trusted(labels, leq, np.concatenate(lo), np.concatenate(hi), antisymmetric=True)

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


def _distinct(faces) -> bool:
    """Whether the faces (sorted vertex tuples or position masks) are
    pairwise distinct, which is when the subset order on them is
    antisymmetric: two vertex sets each within the other are equal."""
    return len(set(faces)) == len(faces)


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
    ``(sub, leq, lo, hi)``.  ``sub`` holds each face's position mask, in
    lex order of its position tuple, so the empty face comes first; ``leq``
    is the order matrix and ``lo``, ``hi`` are the sorted cover pairs, all
    read-only.  On sorted vertex names this is canonical label order.

    In lex order the faces of {j..k-1} are the empty face, then each face
    of {j+1..k-1} with j added, then the nonempty faces of {j+1..k-1}.  So
    each step doubles the order block by block, with no product: a face
    with j lies below no face without j, and a face without j lies below
    F or F + {j} exactly when it lies below F.
    """
    sub = np.zeros(1, dtype=np.int64)
    leq = np.ones((1, 1), dtype=bool)
    lo = hi = np.zeros(0, dtype=np.intp)
    for j in range(k - 1, -1, -1):
        h = sub.size
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
        sub = np.concatenate([sub[:1], sub | 1 << j, sub[1:]])
        leq = grown
    sort = np.lexsort((hi, lo))
    out = (sub, leq, lo[sort], hi[sort])
    for a in out:
        a.setflags(write=False)
    return out


def _face_labels(names: tuple) -> tuple:
    """The labels of the faces of the simplex on the sorted ``names``, in
    the lex order of ``_simplex_order``, built the same way: the bottom
    first."""
    faces = [()]
    for v in reversed(names):
        faces = [(), *((v, *t) for t in faces), *faces[1:]]
    return (Label.bottom(), *map(Label._atoms, faces[1:]))


def boolean_lattice(n: int) -> Poset:
    """The lattice of subsets of {x1..xn}, the face poset of the simplex on
    those vertices; 2^n elements, labels built on first read.

    Guarded at n <= 20, though practical sizes sit far below the guard.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"boolean_lattice needs a nonnegative integer, got {n!r}")
    if n > BOOLEAN_LATTICE_MAX:
        raise SizeLimitError(f"boolean_lattice(n) is guarded at n <= {BOOLEAN_LATTICE_MAX}")
    sub, leq, lo, hi = _simplex_order(n)
    if not _distinct(sub.tolist()):
        raise InvariantError("reachability matrix is not antisymmetric")
    names = tuple(sorted(f"x{i + 1}" for i in range(n)))
    return Poset._indexed(_Lazy(sub.size, _face_labels, names), leq, lo, hi)


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
