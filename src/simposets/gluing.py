"""Pulling simplicial posets apart and gluing them back together.

``separation`` splits a simplicial poset into one boolean piece per maximal
element, joined only at the bottom; the result is always a face poset.  A
``GluingRelation`` is a partition of such a poset whose classes satisfy the
two gluing conditions checked by ``validate_gluing``: related elements are
incomparable, of equal rank, with no common upper bound, and their lower
sets match class-by-class.  ``quotient_by_gluing`` collapses the classes and
asserts the result is simplicial again.

``delta_glue`` identifies an order ideal of one poset with an isomorphic
ideal of another, the isomorphism induced by a facet map plus an atom map.
``theta_glue`` glues the separation of a complex's face poset along the
faces it shares with a second complex; it builds that separation straight
from the complex's facets, one copy of a simplex per facet, with no face
poset, each copy's vertices read from the simplex's table of positions.
Both constructors build their disjoint union with the same code as
``separation``, and both end in ``quotient_by_gluing``.
``reconstruct_theta_pair`` inverts that construction when the atom family
is an antichain and the meet poset is a face poset.

The whole path runs on index arrays: a disjoint union keeps its copy labels
as a recipe of copy indices and member arrays, a relation is one class
array, and the quotient keeps its class labels as a recipe over that array,
so no label is built until the output is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .complexes import SimplicialComplex, _position_labels, _simplex_order, make_complex
from .errors import (
    ElementNotFoundError,
    FormatError,
    InvalidGluingError,
    InvariantError,
    PreconditionError,
)
from .labels import Label
from .poset import Poset, _class_members, _Lazy, _ranges, _ranks


@dataclass
class SeparationResult:
    """The separation of a poset q.  ``origin[i]`` is the index in q of the
    element that element i of ``separated`` copies (the bottom copies q's
    bottom), and ``source`` is q's label recipe.  ``projection``, the same
    map on labels, is a dict built on first read."""

    separated: Poset
    origin: np.ndarray = field(compare=False, repr=False)
    source: _Lazy = field(compare=False, repr=False)

    @cached_property
    def projection(self) -> dict:
        """Separated label -> original label."""
        el, orig = self.separated.elements, self.source.get()
        return {el[i]: orig[j] for i, j in enumerate(self.origin.tolist())}


@dataclass(frozen=True)
class GluingViolation:
    condition: int
    elements: tuple
    reason: str

    def __str__(self):
        names = ", ".join(str(e) for e in self.elements)
        return f"condition ({self.condition}) at {names}: {self.reason}"


@dataclass(frozen=True)
class GluingCheck:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class GluingRelation:
    """A partition of a poset's elements, candidate for a gluing relation.

    ``classes`` are collections of labels, checked to partition the
    elements of ``base``, or an integer array holding each element's class,
    as the gluing constructors build it.  Either way the relation holds one
    class array, ``class_index``, its classes numbered by least member
    index, which is the order of their least members.  ``classes`` lists
    them as frozensets of labels in that order; its length is known at
    once, and the sets are built on first read of one.
    """

    __slots__ = ("base", "class_index", "classes")

    def __init__(self, base: Poset, classes):
        self.base = base
        self.class_index, k = base._partition(classes)
        self.classes = _Lazy(k, _class_sets, base._labels, self.class_index)


def _class_sets(labels: _Lazy, cls: np.ndarray) -> tuple:
    return tuple(frozenset(m) for m in _class_members(labels, cls))


@dataclass(frozen=True)
class GluingSpec:
    """Facet and atom assignments driving delta_glue, as parsed from JSON."""

    facet_map: tuple  # ((element of A, element of B), ...)
    atom_map: tuple

    @classmethod
    def from_json_dict(cls, obj) -> "GluingSpec":
        if not isinstance(obj, dict) or "facet_map" not in obj or "atom_map" not in obj:
            raise FormatError("gluing spec JSON needs 'facet_map' and 'atom_map'")
        if not isinstance(obj["facet_map"], dict) or not isinstance(obj["atom_map"], dict):
            raise FormatError("gluing spec maps have the wrong shape")
        fm = tuple(
            (Label.parse(k), Label.parse(v)) for k, v in sorted(obj["facet_map"].items())
        )
        am = tuple(
            (Label.parse(k), Label.parse(v)) for k, v in sorted(obj["atom_map"].items())
        )
        return cls(facet_map=fm, atom_map=am)

    def to_json_dict(self) -> dict:
        return {
            "facet_map": {str(k): str(v) for k, v in self.facet_map},
            "atom_map": {str(k): str(v) for k, v in self.atom_map},
        }


def _ascending(blocks) -> bool:
    """Whether the copy indices of the blocks, and the member indices of
    each block, are strictly ascending.  Then the union of ``_disjoint_union``
    is antisymmetric: each block is a principal submatrix, on distinct
    indices, of an antisymmetric matrix (a poset's, or the subset order of
    a simplex on distinct faces), and blocks share only the bottom.
    Its elements then also stand in canonical label order: the bottom, then
    copy index, then base index, which is base label order."""
    copies = [ci for ci, _, _ in blocks]
    return all(a < b for a, b in zip(copies, copies[1:])) and all(
        (np.diff(members) > 0).all() for _, _, members in blocks
    )


def _copy_labels(blocks) -> tuple:
    """The labels of a disjoint union: the bottom, then ``i@v`` for member
    v of each block ``(i, base labels, members)``."""
    labels = [Label.bottom()]
    for ci, source, members in blocks:
        el = source.get()
        labels += [Label._copy(ci, el[v]) for v in members.tolist()]
    return tuple(labels)


def _disjoint_union(blocks) -> Poset:
    """Disjoint copies of pieces of posets, sharing only the bottom.

    A block is ``(copy index, poset, members)`` where ``members`` is an
    index array listing the ascending indices of non-bottom elements whose
    lower sets, bottom aside, stay inside the list; blocks come by
    ascending copy index.  Member v of block i becomes the copy labelled
    ``i@v``, built on first read.
    """
    if not _ascending(blocks):
        raise InvariantError("disjoint union blocks must ascend")
    leq = np.eye(1 + sum(members.size for _, _, members in blocks), dtype=bool)
    leq[0, :] = True
    lo, hi = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    offset = 1
    for _, p, members in blocks:
        m = members.size
        if m and members[-1] - members[0] == m - 1:  # a range: a view, not a gather
            piece = p._leq[members[0] : members[0] + m, members[0] : members[0] + m]
        else:
            piece = p._leq.take(members, 0).take(members, 1)
        leq[offset : offset + m, offset : offset + m] = piece
        # Members are closed downward, so a cover into a member starts at
        # another member or at the bottom, which stays at 0.
        at = np.zeros(len(p), dtype=np.intp)
        at[members] = np.arange(offset, offset + m)
        into = at[p._hi] > 0
        lo.append(at[p._lo[into]])
        hi.append(at[p._hi[into]])
        offset += m
    labels = _Lazy(leq.shape[0], _copy_labels, [(ci, p._labels, members) for ci, p, members in blocks])
    return Poset._indexed(labels, leq, np.concatenate(lo), np.concatenate(hi))


def separation(q: Poset) -> SeparationResult:
    """Disjoint union of the lower sets of the maximal elements, sharing
    only the bottom.  Copy i holds the lower set of the i-th maximal
    element (canonical order, indices from 1)."""
    if not q.is_simplicial():
        raise PreconditionError("separation requires a simplicial poset")
    prof = q._profile()
    # elements are stored in canonical order, so ascending indices are sorted labels
    above_bottom = prof.lower > 1
    maxima = np.flatnonzero(prof.upper == 1)
    blocks = [
        (ci, q, np.flatnonzero(q._leq[:, x] & above_bottom))
        for ci, x in enumerate(maxima.tolist(), start=1)
    ]
    sep = _disjoint_union(blocks)
    origin = np.concatenate([[prof.bottom], *(members for _, _, members in blocks)])
    if not sep.is_face_poset():
        raise InvariantError("separation produced a non face poset")
    return SeparationResult(separated=sep, origin=origin, source=q._labels)


def fiber_relation(result: SeparationResult) -> GluingRelation:
    """The relation identifying all copies of the same original element."""
    return GluingRelation(result.separated, result.origin)


_CONDITION_1 = (
    "related elements must be incomparable",
    "related elements must have equal rank",
    "related elements must not share an upper bound",
)
_PAIR_CELLS = 1 << 20  # pairs x elements per block of validate_gluing


def _related_pairs(cls, k):
    """Ordered pairs (a, b) of distinct elements in one class, by class,
    then a, then b; ``cls`` gives each element's class among ``k``."""
    order = np.argsort(cls, kind="stable")
    size = np.bincount(cls, minlength=k)
    reps = size[cls[order]]  # each element repeated once per member of its class
    start = np.cumsum(size)[cls[order]] - reps  # where its class begins in order
    a_pos = np.repeat(np.arange(cls.size), reps)
    b_pos = np.repeat(start, reps) + np.arange(a_pos.size) - np.repeat(np.cumsum(reps) - reps, reps)
    a, b = order[a_pos], order[b_pos]
    keep = a != b
    return a[keep], b[keep]


def _classes_below(base, cls, k):
    """Bit rows: bit c of row u is set when some member of class c lies
    below u.  Row u is its own class bit OR the rows of its lower covers,
    filled level by level of lower-set size (elements of equal size are
    incomparable), each block gathering at most ``_PAIR_CELLS`` bytes."""
    n = cls.size
    words = (k + 63) >> 6
    below = np.zeros((n, words), dtype=np.uint64)
    below[np.arange(n), cls >> 6] = np.left_shift(np.uint64(1), (cls & 63).astype(np.uint64))
    by_hi = np.argsort(base._hi, kind="stable")
    lo = base._lo[by_hi]
    into = np.searchsorted(base._hi[by_hi], np.arange(n + 1))  # covers into u: into[u]:into[u + 1]
    lower = base._profile().lower
    order = np.argsort(lower, kind="stable")
    # the first level is the bottom, which covers nothing
    for level in np.split(order, np.flatnonzero(np.diff(lower[order])) + 1)[1:]:
        degree = into[level + 1] - into[level]
        step = max(1, _PAIR_CELLS // (8 * words * int(degree.max())))
        for start in range(0, level.size, step):
            u, size = level[start : start + step], degree[start : start + step]
            rows = below[lo[_ranges(into[u], into[u + 1])]]
            below[u] |= np.bitwise_or.reduceat(rows, np.cumsum(size) - size, axis=0)
    return below


def _failing_classes(base, cls, k):
    """A mask of the classes with a gluing violation, and the rows of
    ``_classes_below``.  A class fails when its ranks differ, some maximal
    element lies above two members (as it does above two comparable ones),
    or its members' rows differ, which is condition (2) for all ordered
    pairs at once."""
    rank = base._profile().rank
    size = np.bincount(cls, minlength=k)
    first = np.argsort(cls, kind="stable")[np.cumsum(size) - size]  # each class's first member
    fail = np.zeros(k, dtype=bool)
    fail[cls[rank != rank[first[cls]]]] = True
    fail[base._shared_below_maxima(cls, k)] = True
    below = _classes_below(base, cls, k)
    fail[cls[(below != below[first[cls]]).any(axis=1)]] = True
    return fail, below


def validate_gluing(relation: GluingRelation) -> GluingCheck:
    """Check the two gluing conditions on every pair of related elements.

    Violations come class by class, in relation order.  Within a class,
    first the condition (1) failures of the unordered pairs in sorted
    order, then for each ordered pair (a, b) the elements below a whose
    class meets nothing below b, in canonical order.

    A class-first pass (``_failing_classes``) finds the classes with a
    violation; only their pairs are then enumerated, so a valid relation
    never reaches the pair loop, which reads condition (2) off the same
    bit rows of classes below.  Beside those n x k bits, every temporary
    is O(n) or a block of at most 2^20 cells.
    """
    base = relation.base
    leq = base._leq
    n, k = len(base), len(relation.classes)
    base._bottom_index()  # the rank counts atoms, so needs a unique minimum
    rank = base._profile().rank
    cls = relation.class_index
    fail, below = _failing_classes(base, cls, k)
    members = np.flatnonzero(fail[cls])
    a, b = (members[x] for x in _related_pairs(cls[members], k))
    if not a.size:
        return GluingCheck(violations=())
    found = []  # (pair, condition, message or element below a) per violation
    step = max(1, _PAIR_CELLS // n)
    for start in range(0, a.size, step):
        i, j = a[start : start + step], b[start : start + step]
        first = np.column_stack(
            [leq[i, j] | leq[j, i], rank[i] != rank[j], (leq[i] & leq[j]).any(axis=1)]
        )
        first &= (i < j)[:, None]  # unordered pairs, smaller element first
        pair, what = np.nonzero(first)
        found.append((pair + start, np.ones_like(pair), what))
        # each w below i[pair] whose class has no bit in the row of j[pair]
        what, pair = np.nonzero(leq[:, i])
        c = cls[what]
        missing = (below[j[pair], c >> 6] >> (c & 63).astype(np.uint64)) & np.uint64(1) == 0
        found.append((pair[missing] + start, np.full(np.count_nonzero(missing), 2), what[missing]))
    pair, condition, what = (np.concatenate(col) for col in zip(*found))
    sort = np.lexsort((what, pair, condition, cls[a[pair]]))
    el = base.elements
    violations = []
    for p, c, w in zip(pair[sort].tolist(), condition[sort].tolist(), what[sort].tolist()):
        x, y = el[a[p]], el[b[p]]
        reason = _CONDITION_1[w] if c == 1 else f"{el[w]} below {x} is related to nothing below {y}"
        violations.append(GluingViolation(c, (x, y), reason))
    return GluingCheck(violations=tuple(violations))


def quotient_by_gluing(relation: GluingRelation) -> Poset:
    check = validate_gluing(relation)
    if not check.ok:
        shown = "; ".join(str(v) for v in check.violations[:5])
        raise PreconditionError(f"not a gluing relation: {shown}")
    out = relation.base.quotient(relation.class_index)
    if not out.is_simplicial():
        raise InvariantError("gluing quotient is not simplicial")
    return out


def delta_glue(a: Poset, b: Poset, facet_map, atom_map) -> Poset:
    """Glue two simplicial posets along isomorphic order ideals.

    ``facet_map`` sends generators of an ideal of ``a`` to elements of
    ``b``; ``atom_map`` sends atoms to atoms.  Together they must induce a
    well-defined isomorphism of ideals: atom sets below matching facets must
    correspond, and elements below several mapped facets must receive one
    image.  Any failure raises InvalidGluingError with the fixed message.

    The result is the quotient of the disjoint union (bottoms identified)
    that glues each ideal element to its image, taken by
    ``quotient_by_gluing``.  Original labels reappear with copy prefixes 1@
    (side a) and 2@ (side b) inside class labels.
    """
    if not a.is_simplicial() or not b.is_simplicial():
        raise PreconditionError("delta_glue requires simplicial posets")
    facet_map = dict(facet_map)
    atom_map = dict(atom_map)
    bot_a, bot_b = a.bottom(), b.bottom()
    for x, y in facet_map.items():
        if x not in a:
            raise ElementNotFoundError(f"facet_map key not in first poset: {x}")
        if y not in b:
            raise ElementNotFoundError(f"facet_map value not in second poset: {y}")
        if x == bot_a or y == bot_b:
            raise InvalidGluingError("facet_map_domain", f"bottom cannot be a glued facet: {x} -> {y}")
    atoms_a, atoms_b = a.atoms(), b.atoms()
    for s, t in atom_map.items():
        if s not in a:
            raise ElementNotFoundError(f"atom_map key not in first poset: {s}")
        if t not in b:
            raise ElementNotFoundError(f"atom_map value not in second poset: {t}")
        if s not in atoms_a or t not in atoms_b:
            raise InvalidGluingError("atom_map_domain", f"atom_map must send atoms to atoms: {s} -> {t}")
    if len(set(facet_map.values())) != len(facet_map):
        raise InvalidGluingError("facet_map_not_injective")
    if len(set(atom_map.values())) != len(atom_map):
        raise InvalidGluingError("atom_map_not_injective")

    supp_a = {v: a.atom_support(v) for v in a.elements}
    supp_b = {u: b.atom_support(u) for u in b.elements}
    for x, y in sorted(facet_map.items()):
        sx = supp_a[x]
        missing = sorted(s for s in sx if s not in atom_map)
        if missing:
            raise InvalidGluingError("atom_map_incomplete", f"atoms below {x} lack images: {missing}")
        if {atom_map[s] for s in sx} != supp_b[y]:
            raise InvalidGluingError("incompatible", f"atom sets below {x} and {y} do not correspond")

    image = {}
    for x, y in sorted(facet_map.items()):
        table = {supp_b[z]: z for z in b.lower_set(y)}
        for w in sorted(a.lower_set(x) - {bot_a}):
            target = table[frozenset(atom_map[s] for s in supp_a[w])]
            prev = image.get(w)
            if prev is None:
                image[w] = target
            elif prev != target:
                raise InvalidGluingError("ambiguous_image", f"{w} maps to both {prev} and {target}")
    if len(set(image.values())) != len(image):
        raise InvalidGluingError("image_not_injective")

    # copies of every element but the bottom; a's at 1.., then b's
    ia = np.flatnonzero(np.arange(len(a)) != a._bottom_index())
    ib = np.flatnonzero(np.arange(len(b)) != b._bottom_index())
    union = _disjoint_union([(1, a, ia), (2, b, ib)])
    at_a = np.zeros(len(a), dtype=np.intp)
    at_a[ia] = np.arange(1, 1 + ia.size)
    at_b = np.zeros(len(b), dtype=np.intp)
    at_b[ib] = np.arange(1 + ia.size, len(union))
    # each copy is its own class, but the copy of an image joins its preimage's
    cls = np.arange(len(union))
    cls[at_b[[b._index[t] for t in image.values()]]] = at_a[[a._index[w] for w in image]]
    return quotient_by_gluing(GluingRelation(union, cls))


def _facet_separation(facets, index):
    """The separation of the face poset of the complex with the given
    facets, in sorted order, built from the facets, with each element's
    vertex row: the numbers ``index`` gives its vertices, in sorted-name
    order and padded with -1, so the copies of one face share a row.

    Copy i holds the nonempty faces of the i-th facet, a copy of the
    ``_simplex_order`` of the facet's size, taken once per size.  Its
    position table gives each copy's row, and the facet's face labels,
    built only when read."""
    orders, blocks = {}, []
    for k in {len(f) for f in facets}:  # guarded before rows is allocated
        pos, leq, lo, hi = _simplex_order(k)
        orders[k] = pos, leq, lo, hi, pos[pos >= 0], np.count_nonzero(pos >= 0, axis=1)
    rows = np.full((1 + sum((1 << len(f)) - 1 for f in facets), max(orders, default=0)), -1)
    start = 1  # the bottom's row stays empty
    for ci, f in enumerate(facets, start=1):
        k = len(f)
        pos, leq, lo, hi, flat, size = orders[k]
        simplex = Poset(_Lazy(pos.shape[0], _position_labels, f, flat, size), lo, hi, leq)
        blocks.append((ci, simplex, np.arange(1, pos.shape[0])))
        # padding -1 picks the -1 at the end of the facet's vertex row
        rows[start : start + pos.shape[0] - 1, :k] = np.array([index[v] for v in f] + [-1])[pos[1:]]
        start += pos.shape[0] - 1
    return _disjoint_union(blocks), rows


def theta_glue(d1: SimplicialComplex, d2: SimplicialComplex) -> Poset:
    """Glue the separation of d1's face poset along faces shared with d2.

    d2 is first extended with every vertex of d1, so atoms are always
    shared and never duplicated.  Copies of a face are identified exactly
    when the face lies in both complexes: when it is a vertex, or when its
    vertex set lies inside a facet of d2.

    No face poset of d1 is built: the separation comes from d1's facets in
    canonical label order, ``sorted(d1.facets)``, one copy of the simplex
    order of each (``_facet_separation``).  Copies of a face are found by
    their vertex rows, packed 64 vertices to a uint64 word, so d1 may have
    any number of vertices.  The relation is a class array over the
    separation, whose labels, like the result's, are built only when read.
    """
    index = {v: j for j, v in enumerate(d1.vertices)}
    sep, vertex = _facet_separation(sorted(d1.facets), index)
    if not sep.is_face_poset():  # as separation checks its output
        raise InvariantError("separation produced a non face poset")
    # pack the rows of the copies, then of d2's facets, 64 vertices to a word
    n = len(sep)
    r, c = np.nonzero(vertex >= 0)
    pairs = [(g, index[v]) for g, f in enumerate(d2.facets, start=n) for v in f if v in index]
    g, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    r, j = np.concatenate([r, g]), np.concatenate([vertex[r, c], j])
    rows = np.zeros((n + len(d2.facets), -(-len(index) // 64) or 1), dtype=np.uint64)
    np.bitwise_or.at(rows, (r, j >> 6), np.left_shift(np.uint64(1), (j & 63).astype(np.uint64)))
    rows, d2_rows = rows[:n], rows[n:]
    # a face lies in a facet of d2 when none of its vertices lies outside
    # it, tested a block of facets at a time of at most the bytes of leq
    shared = (vertex[:, 1:2] < 0).all(axis=1)  # no second vertex: the vertices, and the bottom
    step = max(1, n // (8 * rows.shape[1]))
    for start in range(0, len(d2_rows), step):
        outside = rows[:, None] & ~d2_rows[None, start : start + step]
        shared |= (outside == 0).all(axis=2).any(axis=1)
    # copies of a shared face join the class of its vertex set, others stand alone
    cls = np.where(shared, _ranks(list(rows.T)), n + np.arange(n))
    return quotient_by_gluing(GluingRelation(sep, cls))


def atom_family(p: Poset):
    """Atom supports of the maximal elements, kept as a list: duplicate
    supports stay duplicated."""
    if not p.is_simplicial():
        raise PreconditionError("atom_family requires a simplicial poset")
    return [p.atom_support(x) for x in sorted(p.maximal_elements())]


def is_antichain_list(sets) -> bool:
    """No entry contained in another entry at a different index; duplicate
    entries therefore fail."""
    fam = [frozenset(s) for s in sets]
    for i, s in enumerate(fam):
        for j, t in enumerate(fam):
            if i != j and s <= t:
                return False
    return True


def meet_poset(p: Poset) -> Poset:
    """Union of pairwise intersections of the maximal elements' lower sets,
    as an induced subposet.  With at most one maximal element this is just
    the bottom."""
    if not p.is_simplicial():
        raise PreconditionError("meet_poset requires a simplicial poset")
    maxima = np.flatnonzero(p._profile().upper == 1)
    if maxima.size <= 1:
        return p.restrict([p.bottom()])
    below_two = np.count_nonzero(p._leq[:, maxima], axis=1) >= 2
    return p.restrict([p.elements[i] for i in np.flatnonzero(below_two).tolist()])


def reconstruct_theta_pair(p: Poset):
    """Invert theta_glue: the complex spanned by the atom family, and the
    complex carried by the meet poset extended with all points.

    Preconditions: p is simplicial, its atom family is an antichain
    (condition i) and its meet poset is a face poset (condition ii).
    """
    if not p.is_simplicial():
        raise PreconditionError("reconstruct_theta_pair requires a simplicial poset")
    fam = atom_family(p)
    if not is_antichain_list(fam):
        raise PreconditionError("condition (i) fails: atom family is not an antichain")
    m = meet_poset(p)
    if not m.is_face_poset():
        raise PreconditionError("condition (ii) fails: meet poset is not a face poset")
    atoms = sorted(p.atoms())
    names = [a.single_vertex_name() for a in atoms]
    if any(nm is None for nm in names) or len(set(names)) != len(names):
        names = [f"p{i + 1}" for i in range(len(atoms))]
    name_of = dict(zip(atoms, names))
    d1 = make_complex(names, [[name_of[a] for a in s] for s in fam])
    supports = [p.atom_support(x) for x in sorted(m.maximal_elements())]
    d2 = make_complex(names, [[name_of[a] for a in s] for s in supports if s])
    return d1, d2
