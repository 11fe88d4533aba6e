"""Abstract simplicial complexes and graphs.

A complex is stored by its vertex list and its facets (inclusion-maximal
faces).  Construction normalizes arbitrary face families: faces contained in
another are absorbed, and vertices not covered by any given face become
singleton facets, so every vertex of the complex is a face.

A simplex on k sorted vertices has two tables, the same for every simplex
of that size: the face table ``_simplex_faces(k)``, a table of the faces'
vertex positions with their covers, which is the one layout of a simplex's
faces; and the order matrix ``_simplex_order(k)``, the one 4^k kernel.
``_simplex`` hands out both read-only, builds each once per process for
k <= ``_SIMPLEX_KEPT`` (10: at most 1.4 MB of order matrices and 0.3 MB of
face tables held for good) and on every call above that, and guards them
at ``BOOLEAN_LATTICE_MAX`` vertices.
``_facet_copies`` lays out one copy of the face table per facet, joined at
the bottom, with each face's vertex row: the separation of the face poset.
``face_poset`` gives the copies of a face one id by the rank of its row and
closes the covers with ``_dag``, so it builds no order matrix;
``theta_glue`` glues the copies instead, and reads the order matrices.
Both label faces by their positions (``_position_labels``).
``boolean_lattice(n)`` is the face poset of one simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import FormatError, InvariantError, SizeLimitError, StructureError
from .labels import Label, valid_vertex_name
from .poset import Poset, _dag, _distinct_pairs, _dumps, _Lazy, _loads, _ranks

BOOLEAN_LATTICE_MAX = 15
# simplex tables up to this many vertices are built once and kept (_simplex)
_SIMPLEX_KEPT = 10
_SIMPLEX_TABLES = {}


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    facets: tuple  # tuples of vertex names, each sorted; canonical row order

    def face_poset(self) -> Poset:
        """Faces ordered by inclusion, with the empty face as bottom.

        The facet copies (``_facet_copies``) merged: with vertices numbered
        in sorted-name order, the lex rank of a face's row (``_ranks``) is
        its place in canonical label order and one id for all its copies.
        ``_dag`` closes the covers, and its cycle check is the one
        antisymmetry check; labels are built on first read."""
        names = tuple(sorted(self.vertices))
        # face tables only: no simplex order matrix is built
        rows, lo, hi = _facet_copies({v: j for j, v in enumerate(names)}, self.facets)[:3]
        face = _ranks(list(rows.T))
        n = int(face.max()) + 1
        order = _dag(n, face[lo], face[hi])
        if order is None or order[3].any():
            raise InvariantError("face covers do not generate a partial order")
        leq, lo, hi, _ = order
        first = np.zeros(n, dtype=np.intp)
        first[face] = np.arange(face.size)  # any copy of each face
        rows = rows[first]
        labels = _Lazy(n, _position_labels, names, rows[rows >= 0], np.count_nonzero(rows >= 0, axis=1))
        return Poset(labels, leq, lo, hi)

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
            for v in f:
                if not isinstance(v, str):
                    raise FormatError(f"facet entry is not a vertex name: {v!r}")
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


def _simplex(k: int, order: bool = False):
    """The face table ``(pos, lo, hi)`` of the simplex on k vertices
    (``_simplex_faces``), or with ``order`` its order matrix
    (``_simplex_order``), read-only.  Built once per process for k <=
    ``_SIMPLEX_KEPT``, where the tables of all those sizes take at most
    1.7 MB, and on every call above that: at 15 one matrix takes 1 GiB.

    Raises SizeLimitError before allocating when k > BOOLEAN_LATTICE_MAX:
    at 16 a matrix would take 4 GiB."""
    table = _SIMPLEX_TABLES.get((k, order))
    if table is None:
        if k > BOOLEAN_LATTICE_MAX:
            raise SizeLimitError(
                f"a simplex on {k} vertices has 2^{k} faces; face orders are guarded at {BOOLEAN_LATTICE_MAX} vertices"
            )
        table = _simplex_order(k) if order else _simplex_faces(k)
        for a in [table] if order else table:
            a.setflags(write=False)
        if k <= _SIMPLEX_KEPT:
            _SIMPLEX_TABLES[k, order] = table
    return table


def _simplex_faces(k: int):
    """The faces of the simplex on positions 0..k-1: ``(pos, lo, hi)``.
    Row i of ``pos`` holds the positions of face i, ascending and padded
    with -1 to width k, in lex order of those tuples, so the empty face
    comes first; ``lo``, ``hi`` are the cover pairs.  On sorted vertex
    names this is canonical label order.

    In lex order the faces of {j..k-1} are the empty face, then each face
    of {j+1..k-1} with j added, then the nonempty faces of {j+1..k-1}, so
    each step doubles the table."""
    pos = np.zeros((1, 0), dtype=np.intp)
    lo = hi = np.zeros(0, dtype=np.intp)
    for j in range(k - 1, -1, -1):
        h = pos.shape[0]
        at = np.arange(h) + h  # the old faces without j, the empty face staying at 0
        at[0] = 0
        # covers among faces with j, among faces without it, and F below F + {j}
        lo = np.concatenate([lo + 1, at[lo], at])
        hi = np.concatenate([hi + 1, at[hi], np.arange(1, h + 1)])
        # j first in the faces with it, the faces without it padded one column on
        rows = np.full((2 * h, k - j), -1, dtype=np.intp)
        rows[1 : h + 1, 0], rows[1 : h + 1, 1:], rows[h + 1 :, :-1] = j, pos, pos[1:]
        pos = rows
    return pos, lo, hi


def _simplex_order(k: int) -> np.ndarray:
    """The order matrix of the faces of the simplex on positions 0..k-1,
    in ``_simplex_faces`` order: the one 4^k kernel.  It doubles as the
    table does, block by block with no product: a face with j lies below
    no face without j, and a face without j lies below F or F + {j}
    exactly when it lies below F."""
    leq = np.ones((1, 1), dtype=bool)
    for _ in range(k):
        h = leq.shape[0]
        grown = np.zeros((2 * h, 2 * h), dtype=bool)
        grown[0] = True
        grown[1 : h + 1, 1 : h + 1] = leq
        grown[h + 1 :, 1 : h + 1] = leq[1:]
        grown[h + 1 :, h + 1 :] = leq[1:, 1:]
        leq = grown
    return leq


def _facet_copies(position: dict, facets):
    """One copy of the simplex on each facet, joined at the bottom: the
    separation of the complex's face poset, which ``face_poset`` merges and
    ``theta_glue`` glues.  Returns ``(rows, lo, hi, copies)``: element 0 is
    the bottom, then copy i holds the nonempty faces of facet i in
    ``_simplex_faces`` order.  Row j of ``rows`` holds element j's vertices
    as ``position`` numbers them, read at the face's row of the simplex's
    position table and padded with -1.  ``lo``, ``hi`` are the covers, put
    in ``(lo, hi)`` order by ``_distinct_pairs``; ``copies[i]`` is copy i's
    first element and its facet's size.  Only face tables are read, and
    the facets of one size are laid out at once."""
    size = np.array([len(f) for f in facets], dtype=np.intp)
    tables = {k: _simplex(k) for k in set(size.tolist())}
    faces = (1 << size) - 1  # the nonempty faces of each copy
    start = np.cumsum(faces) - faces  # face f > 0 of copy i is element start[i] + f
    rows = np.full((1 + int(faces.sum()), max(tables, default=1)), -1, dtype=np.intp)
    lo, hi = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for k, (pos, sub_lo, sub_hi) in tables.items():
        which = np.flatnonzero(size == k)
        base = start[which, None]
        # padding -1 picks the -1 at the end of each facet's vertex row
        vertex = np.array([[position[v] for v in facets[i]] + [-1] for i in which.tolist()])
        rows[base + np.arange(1, 1 << k), :k] = vertex[:, pos[1:]]
        lo.append(np.where(sub_lo > 0, base + sub_lo, 0).ravel())  # each empty face is the bottom
        hi.append((base + sub_hi).ravel())
    lo, hi = _distinct_pairs(len(rows), np.concatenate(lo), np.concatenate(hi))
    return rows, lo, hi, list(zip((start + 1).tolist(), size.tolist()))


def _position_labels(names: tuple, flat: np.ndarray, size: np.ndarray) -> tuple:
    """The labels of faces given by the positions in ``names`` of their
    vertices, ascending and laid end to end, and by their sizes; the empty
    face, first, is the bottom."""
    vertex = iter([names[j] for j in flat.tolist()])
    return (Label.bottom(), *(Label._atoms(tuple(islice(vertex, s))) for s in size[1:].tolist()))


def boolean_lattice(n: int) -> Poset:
    """The lattice of subsets of {x1..xn}, the face poset of the simplex on
    those vertices; 2^n elements, labels built on first read.

    Guarded by ``_simplex`` at n <= 15, where ``leq`` takes 1 GiB.
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
    return _clique_complex(verts, _adjacency(len(verts), ((index[a], index[b]) for a, b in graph.edges)))


def _clique_complex(vertices, adj) -> SimplicialComplex:
    """The clique complex of the graph on ``vertices`` with neighbour
    bitmasks ``adj``, bit i standing for ``vertices[i]``: the one clique
    path, which ``clique_complex`` and the random model's samples take."""
    cliques = [[v for i, v in enumerate(vertices) if m >> i & 1] for m in _maximal_cliques(adj)]
    return make_complex(vertices, cliques)
