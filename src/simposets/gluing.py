"""Pulling simplicial posets apart and gluing them back together.

``separation`` splits a simplicial poset into one boolean piece per maximal
element, joined only at the bottom; the result is always a face poset.  A
``GluingRelation`` is a partition of such a poset whose classes satisfy the
two gluing conditions checked by ``validate_gluing``: related elements are
incomparable, of equal rank, with no common upper bound, and their lower
sets match class-by-class.  The second condition is read off one bit row
per element, the classes below it (``_classes_below``), which the pass that
closes every order, ``poset._spread``, fills level by level of lower-set
size.  A relation that fails is reported member by member of its failing
classes, so no list of related pairs is built.  ``quotient_by_gluing``
takes a simplicial base, collapses the classes and asserts the result is
simplicial again; it reads the quotient order off the rows of the classes'
least members and its covers off the base covers (``_glued``), so no order
is closed twice.  The rows are packed in the one format of ``poset``, and
this module builds, spreads and reads them only through its functions
(``_bit_rows``, ``_spread``, ``_has_bit``, ``_order_of_rows``); the least
members are those ``Poset._partition`` finds for the relation.

``delta_glue`` identifies an order ideal of one poset with an isomorphic
ideal of another, the isomorphism induced by a facet map plus an atom map.
``theta_glue`` glues the separation of a complex's face poset along the
faces it shares with a second complex; it takes that separation from the
facet layout that ``face_poset`` merges (``complexes._facet_copies``), one
copy of a simplex per facet, so it builds no face poset.  ``delta_glue``
builds its disjoint union with the same code as ``separation``
(``_disjoint_union``).  All three gluings end in ``quotient_by_gluing``.
``reconstruct_theta_pair`` inverts that construction when the atom family
is an antichain and the meet poset is a face poset.

The whole path runs on index arrays: a disjoint union keeps its copy labels
as a recipe of copy indices and member arrays, a relation is one class
array, and the quotient keeps its class labels as a recipe over that array,
so no label is built until the output is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import SimplicialComplex, _facet_copies, _position_labels, _simplex, make_complex
from .errors import (
    ElementNotFoundError,
    FormatError,
    InvalidGluingError,
    InvariantError,
    PreconditionError,
)
from .labels import Label
from .poset import Poset, _bit_rows, _class_labels, _class_members, _distinct_pairs, _has_bit, _Lazy, _order_of_rows
from .poset import _ranks, _slices, _spread


@dataclass
class SeparationResult:
    """The separation of a poset q.  ``origin[i]`` is the index in q of the
    element that element i of ``separated`` copies (the bottom copies q's
    bottom), so ``q.elements[origin[i]]`` is its original label."""

    separated: Poset
    origin: np.ndarray = field(compare=False, repr=False)


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
    index, which is the order of their least members, and those least
    members, as ``Poset._partition`` finds them.  ``classes`` lists the
    classes as frozensets of labels in that order; its length is known at
    once, and the sets are built on first read of one.
    """

    __slots__ = ("base", "class_index", "classes", "_least")

    def __init__(self, base: Poset, classes):
        self.base = base
        self.class_index, self._least = base._partition(classes)
        self.classes = _Lazy(self._least.size, _class_sets, base._labels, self.class_index)


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
        return cls(facet_map=_spec_map(obj, "facet_map"), atom_map=_spec_map(obj, "atom_map"))

    def to_json_dict(self) -> dict:
        return {
            "facet_map": {str(k): str(v) for k, v in self.facet_map},
            "atom_map": {str(k): str(v) for k, v in self.atom_map},
        }


def _spec_map(obj: dict, field: str) -> tuple:
    """The (key, value) label pairs of one map of a gluing spec, by key
    text; two keys that spell one label (``a*b`` and ``b*a``) are an error,
    not a silent choice of one of them."""
    pairs = tuple((Label.parse(k), Label.parse(v)) for k, v in sorted(obj[field].items()))
    seen = set()
    for k, _ in pairs:
        if k in seen:
            raise FormatError(f"gluing spec {field} has two keys for label {k}")
        seen.add(k)
    return pairs


def _ascending(blocks) -> bool:
    """Whether the copy indices of the blocks, and the member indices of
    each block, are strictly ascending.  Then the union of ``_disjoint_union``
    is antisymmetric: each block is a principal submatrix, on distinct
    indices, of a poset's antisymmetric matrix, and blocks share only the
    bottom.  Its elements then also stand in canonical label order: the
    bottom, then copy index, then base index, which is base label order."""
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
        leq[offset : offset + m, offset : offset + m] = p._leq.take(members, 0).take(members, 1)
        # Members are closed downward, so a cover into a member starts at
        # another member or at the bottom, which stays at 0.
        at = np.zeros(len(p), dtype=np.intp)
        at[members] = np.arange(offset, offset + m)
        into = at[p._hi] > 0
        lo.append(at[p._lo[into]])
        hi.append(at[p._hi[into]])
        offset += m
    labels = _Lazy(leq.shape[0], _copy_labels, [(ci, p._labels, members) for ci, p, members in blocks])
    return Poset(labels, leq, *_distinct_pairs(leq.shape[0], np.concatenate(lo), np.concatenate(hi)))


def separation(q: Poset) -> SeparationResult:
    """Disjoint union of the lower sets of the maximal elements, sharing
    only the bottom.  Copy i holds the lower set of the i-th maximal
    element (canonical order, indices from 1)."""
    if not q.is_simplicial():
        raise PreconditionError("separation requires a simplicial poset")
    prof = q._profile()
    # elements are stored in canonical order, so ascending indices are sorted labels
    above_bottom = prof.lower > 1
    blocks = [
        (ci, q, np.flatnonzero(q._leq[:, x] & above_bottom))
        for ci, x in enumerate(prof.maxima.tolist(), start=1)
    ]
    sep = _disjoint_union(blocks)
    origin = np.concatenate([[prof.bottom], *(members for _, _, members in blocks)])
    if not sep.is_face_poset():
        raise InvariantError("separation produced a non face poset")
    return SeparationResult(separated=sep, origin=origin)


def fiber_relation(result: SeparationResult) -> GluingRelation:
    """The relation identifying all copies of the same original element."""
    return GluingRelation(result.separated, result.origin)


_CONDITION_1 = (
    "related elements must be incomparable",
    "related elements must have equal rank",
    "related elements must not share an upper bound",
)


def _classes_below(base, cls, k):
    """Bit rows: bit c of row u is set when some member of class c lies
    below u.  Row u is its own class bit OR the rows of its lower covers,
    spread (``_spread``) level by level of lower-set size: elements of
    equal size are incomparable, and all but the first level, the minimal
    elements, cover something."""
    below = _bit_rows(cls, k)
    by_hi = np.argsort(base._hi, kind="stable")
    into = np.searchsorted(base._hi[by_hi], np.arange(cls.size + 1))  # covers into u: into[u]:into[u + 1]
    lower = base._profile().lower
    order = np.argsort(lower, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(lower[order])) + 1, order.size)  # the levels after the first
    _spread(below, below, order, ends, into, base._lo[by_hi])
    return below


def _failing_classes(relation: GluingRelation):
    """A mask of the relation's classes with a gluing violation, and the
    rows of ``_classes_below``.  A class fails when its members' ranks
    differ from its least member's, some maximal element lies above two
    members (as it does above two comparable ones), or its members' rows
    differ from its least member's, which is condition (2) for all ordered
    pairs at once."""
    base, cls, first = relation.base, relation.class_index, relation._least
    rank = base._profile().rank
    fail = np.zeros(first.size, dtype=bool)
    fail[cls[rank != rank[first[cls]]]] = True
    fail[base._shared_below_maxima(cls, first.size)] = True
    below = _classes_below(base, cls, first.size)
    fail[cls[(below != below[first[cls]]).any(axis=1)]] = True
    return fail, below


def validate_gluing(relation: GluingRelation) -> GluingCheck:
    """Check the two gluing conditions on every pair of related elements.

    Violations come class by class, in relation order.  Within a class,
    first the condition (1) failures of the unordered pairs in sorted
    order, then for each ordered pair (a, b) the elements below a whose
    class meets nothing below b, in canonical order.

    A class-first pass (``_failing_classes``) finds the classes with a
    violation, so a valid relation returns before any pair is looked at.
    Each failing class is then walked member by member, in ascending
    order, which is the order of the report.  For member x, one step flags
    condition (1) on the pairs (x, y) with y > x: comparable, of unequal
    rank, or sharing an upper bound, which is to share a maximal element
    above x.  A second step finds the condition (2) misses of every
    ordered pair (x, y) by testing the bit rows of classes below y at the
    classes of the elements below x.  Beside those n x k bits and O(n)
    arrays, each step holds one slice (``_slices``) of other members: the
    ``leq`` cells at the maxima above x, or the words of their rows at the
    classes below x.
    """
    return GluingCheck(violations=_validate(relation)[0])


def _validate(relation: GluingRelation):
    """The violations ``validate_gluing`` reports, as a tuple, and the rows
    of ``_classes_below`` it read them from."""
    base = relation.base
    leq = base._leq
    base._bottom_index()  # the rank counts atoms, so needs a unique minimum
    prof = base._profile()
    rank = prof.rank
    cls = relation.class_index
    fail, below = _failing_classes(relation)
    if not fail.any():
        return (), below
    members = np.flatnonzero(fail[cls])
    members = members[np.argsort(cls[members], kind="stable")]
    el = base.elements
    violations = []
    for group in np.split(members, np.flatnonzero(np.diff(cls[members])) + 1):
        second = []  # condition (2), reported after all of the class's condition (1)
        for at, x in enumerate(group.tolist()):
            tops = prof.maxima[leq[x, prof.maxima]]
            later = group[at + 1 :]
            for part in _slices(later.size, tops.size):
                y = later[part]
                flags = [leq[x, y] | leq[y, x], rank[y] != rank[x], leq[np.ix_(y, tops)].any(axis=1)]
                i, what = np.nonzero(np.column_stack(flags))
                for b, w in zip(y[i].tolist(), what.tolist()):
                    violations.append(GluingViolation(1, (el[x], el[b]), _CONDITION_1[w]))
            down = np.flatnonzero(leq[:, x])
            c = cls[down]
            others = group[group != x]
            for part in _slices(others.size, below.itemsize * down.size):
                y = others[part]
                i, w = np.nonzero(~_has_bit(below, y[:, None], c))
                for b, v in zip(y[i].tolist(), down[w].tolist()):
                    reason = f"{el[v]} below {el[x]} is related to nothing below {el[b]}"
                    second.append(GluingViolation(2, (el[x], el[b]), reason))
        violations += second
    return tuple(violations), below


def quotient_by_gluing(relation: GluingRelation) -> Poset:
    """The quotient of the relation's base, which must be simplicial, by
    its classes, which must pass ``validate_gluing``; either failure raises
    PreconditionError.  ``validate_gluing`` needs only a unique minimum of
    the base, but a valid quotient of a base that is not simplicial is not
    simplicial either, by the isomorphism of lower sets below.  The result is then
    asserted simplicial.

    Its order is read off the rows of ``_classes_below`` that validation
    built (``_glued``), so no closure is run again: class C lies below
    class D iff bit C is set in the row of D's least member.  For a
    relation that passes both conditions on a base with a unique minimum,
    these rows are the quotient order.  All members of D have that row, by
    condition (2), so C <= D iff some member of C lies below some member
    of D.  Transitive: if c <= d and d' <= e with d, d' in D, the row of e
    holds the row of d', which is that of d, which holds C.  Antisymmetric:
    if c <= d and d' <= c' with c, c' in C and d, d' in D, the rows of c
    and d hold each other, so some d'' in D lies below c <= d, and d'' = d
    since related elements are incomparable; then c = d.  The covers are
    the class images of the base covers: each lower set [0,w] maps one to
    one onto [0,C(w)], since two members of one class share no upper
    bound, and both ways order-preserving, since C(u) <= C(v) for u, v <=
    w puts some member of C(u) below v <= w, which is u itself.  So
    [0,w] and [0,C(w)] are isomorphic, and w covers u iff C(w) covers
    C(u).  ``Poset.quotient``, which closes the class image of the covers
    from scratch, is the reference the tests hold this to.
    """
    if not relation.base.is_simplicial():
        raise PreconditionError("quotient_by_gluing requires a simplicial poset")
    violations, below = _validate(relation)
    if violations:
        shown = "; ".join(str(v) for v in violations[:5])
        raise PreconditionError(f"not a gluing relation: {shown}")
    out = _glued(relation, below)
    if not out.is_simplicial():
        raise InvariantError("gluing quotient is not simplicial")
    return out


def _glued(relation: GluingRelation, below) -> Poset:
    """The quotient of a valid relation: its order is the rows ``below``
    of its classes' least members, read as columns (``_order_of_rows``),
    its covers are the distinct class images of the base covers, and its
    class labels are built on first read."""
    base, cls, first = relation.base, relation.class_index, relation._least
    k = first.size
    lo, hi = _distinct_pairs(k, cls[base._lo], cls[base._hi])
    return Poset(_Lazy(k, _class_labels, base._labels, cls), _order_of_rows(below, first, k), lo, hi)


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

    supp_a = dict(zip(a.elements, a._supports(range(len(a)))))
    supp_b = dict(zip(b.elements, b._supports(range(len(b)))))
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


def _facet_separation(facets, position):
    """The separation of the face poset of the complex with the given
    facets, in sorted order, and each element's vertex row: the facet
    copies of ``_facet_copies``, with ``position`` numbering the vertices
    in sorted-name order, so the copies of one face share a row.  ``leq``
    is the block-diagonal copy of their simplex orders below one bottom;
    copy i's faces are labelled ``i@face`` over one recipe of face labels,
    built only when read."""
    rows, lo, hi, copies = _facet_copies(position, facets)
    orders = {k: _simplex(k, order=True) for _, k in copies}  # each built before leq is allocated
    inside = rows >= 0
    faces = _Lazy(len(rows), _position_labels, tuple(sorted(position)), rows[inside], inside.sum(axis=1))
    leq = np.zeros((len(rows), len(rows)), dtype=bool)
    leq[0] = True
    blocks = []
    for ci, (start, k) in enumerate(copies, start=1):
        end = start + (1 << k) - 1
        leq[start:end, start:end] = orders[k][1:, 1:]
        blocks.append((ci, faces, np.arange(start, end)))
    return Poset(_Lazy(len(rows), _copy_labels, blocks), leq, lo, hi), rows


def _packed_sets(pos, words):
    """Row i of ``pos``, positions padded with -1, as a set of ``words``
    ``uint64`` words: one ``bitwise_or.reduce`` along the rows per word.
    Theta compares these vertex words only with each other, so they are
    its own, not the order rows of ``poset``."""
    bit = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    word = pos >> 6  # -1 at the padding, which no word takes
    zero = np.uint64(0)
    return np.stack([np.bitwise_or.reduce(np.where(word == w, bit, zero), axis=1) for w in range(words)], axis=1)


def theta_glue(d1: SimplicialComplex, d2: SimplicialComplex) -> Poset:
    """Glue the separation of d1's face poset along faces shared with d2.

    d2 is first extended with every vertex of d1, so atoms are always
    shared and never duplicated.  Copies of a face are identified exactly
    when the face lies in both complexes: when it is a vertex, or when its
    vertex set lies inside a facet of d2.

    No face poset of d1 is built: the separation comes from d1's facets in
    canonical label order, ``sorted(d1.facets)``, one copy of the simplex
    order of each (``_facet_separation``).  Copies of a face are found by
    their vertex rows, numbered in sorted-name order as in ``face_poset``
    and packed 64 vertices to a uint64 word, so d1 may have any number of
    vertices.  The relation is a class array over the separation, whose
    labels, like the result's, are built only when read.
    """
    position = {v: j for j, v in enumerate(sorted(d1.vertices))}
    sep, vertex = _facet_separation(sorted(d1.facets), position)
    if not sep.is_face_poset():  # as separation checks its output
        raise InvariantError("separation produced a non face poset")
    # the vertex sets of the copies and of d2's facets, 64 vertices to a word
    n = len(sep)
    words = -(-len(position) // 64) or 1
    inside = [[position[v] for v in f if v in position] for f in d2.facets]
    width = max(map(len, inside), default=0)
    padded = np.array([f + [-1] * (width - len(f)) for f in inside], dtype=np.intp).reshape(len(inside), width)
    rows, d2_rows = _packed_sets(vertex, words), _packed_sets(padded, words)
    # a face lies in a facet of d2 when none of its vertices lies outside
    # it, tested a block of facets at a time, each an n x words temporary
    shared = (vertex[:, 1:2] < 0).all(axis=1)  # no second vertex: the vertices, and the bottom
    for part in _slices(len(d2_rows), rows.nbytes):
        outside = rows[:, None] & ~d2_rows[None, part]
        shared |= (outside == 0).all(axis=2).any(axis=1)
    # copies of a shared face join the class of its vertex set, others stand alone
    cls = np.where(shared, _ranks(list(rows.T)), n + np.arange(n))
    return quotient_by_gluing(GluingRelation(sep, cls))


def atom_family(p: Poset):
    """Atom supports of the maximal elements, in canonical order, which is
    their index order, kept as a list: duplicate supports stay duplicated."""
    if not p.is_simplicial():
        raise PreconditionError("atom_family requires a simplicial poset")
    return p._supports(p._profile().maxima.tolist())


def is_antichain_list(sets) -> bool:
    """No entry contained in another entry at a different index; duplicate
    entries therefore fail."""
    fam = [frozenset(s) for s in sets]
    return not any(i != j and s <= t for i, s in enumerate(fam) for j, t in enumerate(fam))


def meet_poset(p: Poset) -> Poset:
    """Union of pairwise intersections of the maximal elements' lower sets,
    plus the bottom: ``restrict`` on the mask of the elements below two or
    more maximal elements, so no label is read.  With at most one maximal
    element this is just the bottom."""
    if not p.is_simplicial():
        raise PreconditionError("meet_poset requires a simplicial poset")
    prof = p._profile()
    inside = np.count_nonzero(p._leq[:, prof.maxima], axis=1) >= 2
    inside[prof.bottom] = True
    return p.restrict(inside)


def reconstruct_theta_pair(p: Poset):
    """Invert theta_glue: the complex spanned by the atom family, and the
    complex carried by the meet poset extended with all points.

    Preconditions: p is simplicial, its atom family is an antichain
    (condition i) and its meet poset is a face poset (condition ii).  The
    meet poset is an order ideal of p, so d2's faces are its atom family.
    """
    if not p.is_simplicial():
        raise PreconditionError("reconstruct_theta_pair requires a simplicial poset")
    fam = atom_family(p)
    if not is_antichain_list(fam):
        raise PreconditionError("condition (i) fails: atom family is not an antichain")
    m = meet_poset(p)
    if not m.is_face_poset():
        raise PreconditionError("condition (ii) fails: meet poset is not a face poset")
    atoms = [p.elements[a] for a in p._profile().atoms.tolist()]
    names = [a.single_vertex_name() for a in atoms]
    if any(nm is None for nm in names) or len(set(names)) != len(names):
        names = [f"p{i + 1}" for i in range(len(atoms))]
    name_of = dict(zip(atoms, names))
    d1 = make_complex(names, [[name_of[a] for a in s] for s in fam])
    d2 = make_complex(names, [[name_of[a] for a in s] for s in atom_family(m) if s])
    return d1, d2
