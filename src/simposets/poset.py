"""Finite posets with materialized reachability.

A :class:`Poset` stores its elements in canonical label order together with
a read-only boolean matrix ``leq`` where ``leq[i, j]`` means element ``i`` is
below element ``j``.  The covers, always the transitive reduction of
``leq``, are kept alongside as two index arrays ``(lo, hi)`` sorted in that
same order, so order queries are O(1) and every listing derived from a
poset is deterministic.  Labels are looked up only on input and built only
for output: the ``covers`` pair set, JSON and DOT.

Every constructor that derives an order from pairs (``from_covers``,
``quotient``, ``restrict``) goes through one kernel, ``_order``: it squares
a strict relation until the pairs with an element between them lie inside
it.  That last product gives the closure, the cycle check and the covers.

The facts the checks share are read off ``leq`` once per poset, on first
use, into a private profile (``Poset._profile``): ``lower`` and ``upper``,
the lower-set and upper-set sizes; ``bottom``, the index of the unique
minimum or -1; ``atoms``, the elements with a lower set of size 2; ``supp``,
their rows ``leq[atoms]``, whose columns are the atom supports; and
``rank``, the atoms below each element.  Building it never raises; readers
that need the unique minimum check it through ``bottom()``.

The simplicial vocabulary lives here as methods: atoms, atom supports,
``is_simplicial`` (every lower interval is a boolean lattice) and
``is_face_poset`` (additionally, elements are determined by their atom
support).
"""

from __future__ import annotations

import json
from collections import namedtuple

import numpy as np

from .errors import (
    ElementNotFoundError,
    FormatError,
    InvariantError,
    MeetUndefinedError,
    PreconditionError,
    SizeLimitError,
    StructureError,
)
from .labels import Label

BOOLEAN_LATTICE_MAX = 20
ISOMORPHISM_MAX = 500


def _order(strict: np.ndarray):
    """Close a strict relation under transitivity by repeated squaring.

    Returns ``(less, through)``, where ``less`` is the transitive closure
    and ``through`` marks the pairs with an element strictly between them,
    or None when the relation has a cycle (a diagonal entry of ``less``).
    The order is then ``less | I`` and its covers are ``less & ~through``.
    """
    less = strict
    while True:
        f = less.astype(np.float32)
        through = (f @ f) > 0
        del f
        if not (through > less).any():  # through lies inside less
            return None if less.diagonal().any() else (less, through)
        less = less | through


def _loads(text: str):
    """``json.loads``, with text nested past the recursion limit reported
    as a FormatError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise FormatError("JSON is nested too deeply") from None


def _has_cycle(leq: np.ndarray) -> bool:
    """True when two distinct elements are each below the other, i.e. the
    relation is not antisymmetric."""
    return bool((leq & leq.T & ~np.eye(leq.shape[0], dtype=bool)).any())


def _label_index(elements) -> dict:
    """Position of each label; rejects an empty or repeated label list."""
    index = {e: i for i, e in enumerate(elements)}
    if not index:
        raise StructureError("a poset needs at least one element")
    if len(index) != len(elements):
        raise StructureError("element labels must be unique")
    return index


_Profile = namedtuple("_Profile", "lower upper bottom atoms supp rank")


class Poset:
    __slots__ = ("elements", "_lo", "_hi", "_leq", "_index", "_profile_cache", "_simplicial")

    def __init__(self, elements, lo, hi, leq, index):
        # Internal: use from_covers / from_json instead.
        self.elements = elements
        self._lo = lo
        self._hi = hi
        self._leq = leq
        self._index = index
        self._profile_cache = None
        self._simplicial = None

    # ----- construction -------------------------------------------------

    @classmethod
    def _trusted(cls, elements, leq, lo, hi, *, antisymmetric=False):
        """Build from an order matrix and the index arrays ``(lo, hi)`` of
        its cover pairs, all of which the caller derived combinatorially or
        through ``_order``.

        Elements are re-sorted into canonical label order and the covers
        into the order of ``(lo, hi)`` in it.  Reflexivity is always
        asserted, and antisymmetry unless the caller has checked it
        (``antisymmetric=True``); full closure verification is left to
        from_covers and to the test suite.
        """
        elements = list(elements)
        order = sorted(range(len(elements)), key=lambda i: elements[i].key)
        labels = tuple(elements[i] for i in order)
        index = _label_index(labels)
        perm = np.asarray(order)
        leq = np.asarray(leq, dtype=bool)[np.ix_(perm, perm)]
        if not leq.diagonal().all():
            raise InvariantError("reachability matrix is not reflexive")
        if not antisymmetric and _has_cycle(leq):
            raise InvariantError("reachability matrix is not antisymmetric")
        position = np.argsort(perm)
        lo, hi = position[lo], position[hi]
        sort = np.lexsort((hi, lo))
        lo, hi = lo[sort], hi[sort]
        for a in (leq, lo, hi):
            a.setflags(write=False)
        return cls(labels, lo, hi, leq, index)

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from explicit cover pairs ``(lower, upper)``.

        The pairs must be exactly the transitive reduction of the order they
        generate; redundant or cyclic input is rejected.
        """
        elements = list(elements)
        index = _label_index(elements)
        n = len(elements)
        adj = np.zeros((n, n), dtype=bool)
        for lo, hi in covers:
            if lo not in index:
                raise ElementNotFoundError(f"unknown element in covers: {lo}")
            if hi not in index:
                raise ElementNotFoundError(f"unknown element in covers: {hi}")
            adj[index[lo], index[hi]] = True
        self_pair = adj.diagonal().any()
        np.fill_diagonal(adj, False)
        order = _order(adj)
        if order is None:
            raise StructureError("covers contain a cycle")
        less, through = order
        if self_pair or (adj & through).any():
            raise StructureError("covers must be transitively reduced cover pairs")
        lo, hi = np.nonzero(adj)  # before the diagonal: less may be adj itself
        np.fill_diagonal(less, True)
        return cls._trusted(elements, less, lo, hi, antisymmetric=True)

    # ----- basic queries ------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, label):
        return label in self._index

    @property
    def covers(self) -> frozenset:
        """The cover pairs ``(lower, upper)`` as labels."""
        el = self.elements
        return frozenset((el[i], el[j]) for i, j in zip(self._lo.tolist(), self._hi.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and np.array_equal(self._lo, other._lo)
            and np.array_equal(self._hi, other._hi)
        )

    def __hash__(self):
        return hash((self.elements, self._lo.tobytes(), self._hi.tobytes()))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {self._lo.size} covers)"

    def _require(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ElementNotFoundError(f"element not in poset: {label}") from None

    def leq(self, a, b) -> bool:
        return bool(self._leq[self._require(a), self._require(b)])

    def _profile(self) -> _Profile:
        """The order facts read off ``leq``, computed on first use."""
        if self._profile_cache is None:
            leq = self._leq
            lower, upper = leq.sum(axis=0), leq.sum(axis=1)
            mins = np.flatnonzero(lower == 1)
            bottom = int(mins[0]) if mins.size == 1 else -1
            # with a unique minimum, a lower set of size 2 is it and an atom
            atoms = np.flatnonzero(lower == 2)
            supp = leq[atoms]
            rank = np.count_nonzero(supp, axis=0)
            for a in (lower, upper, atoms, supp, rank):
                a.setflags(write=False)
            self._profile_cache = _Profile(lower, upper, bottom, atoms, supp, rank)
        return self._profile_cache

    def bottom(self) -> Label:
        """The unique minimum element; StructureError if there is none."""
        b = self._profile().bottom
        if b < 0:
            raise StructureError("poset has no unique minimal element")
        return self.elements[b]

    def atoms(self) -> frozenset:
        """Elements covering the unique minimum."""
        self.bottom()
        return frozenset(self.elements[i] for i in self._profile().atoms.tolist())

    def lower_set(self, v) -> frozenset:
        j = self._require(v)
        return frozenset(self.elements[i] for i in np.flatnonzero(self._leq[:, j]))

    def maximal_elements(self) -> frozenset:
        return frozenset(self.elements[i] for i in np.flatnonzero(self._profile().upper == 1).tolist())

    # ----- atom supports and simpliciality --------------------------------

    def atom_support(self, v) -> frozenset:
        """The atoms below v."""
        j = self._require(v)
        self.bottom()
        prof = self._profile()
        return frozenset(self.elements[a] for a in prof.atoms[prof.supp[:, j]].tolist())

    def is_simplicial(self) -> bool:
        """True iff every lower interval [0,v] is a boolean lattice, checked
        as (1) a unique minimum, (2) |[0,v]| = 2^|supp v| for every v, where
        supp v is the set of atoms below v, and (3) no a, b with a common
        upper bound and supp a within supp b but a not <= b.  Since a <= b
        gives supp a within supp b, (3) makes supp an order embedding of each
        [0,v], so injective there, and (2) makes it onto the subsets."""
        if self._simplicial is None:
            self._simplicial = self._compute_simplicial()
        return self._simplicial

    def _compute_simplicial(self) -> bool:
        leq, prof = self._leq, self._profile()
        if prof.bottom < 0:
            return False
        # exp2 is exact in float64, where an int64 shift would wrap past rank 63
        if (prof.lower != np.exp2(prof.rank)).any():
            return False
        # a common upper bound means a common maximal one
        f = leq[:, prof.upper == 1].astype(np.float32)
        bad = ((f @ f.T) > 0) & ~leq  # a not <= b, common upper bound
        del f
        s = prof.supp.astype(np.float32)
        bad &= (s.T @ (1 - s)) == 0  # supp a within supp b
        return not bad.any()

    def is_face_poset(self) -> bool:
        """True iff the atom-support map is injective on the whole poset.

        Requires a simplicial poset; raises PreconditionError otherwise.
        """
        if not self.is_simplicial():
            raise PreconditionError("is_face_poset requires a simplicial poset")
        # distinct support columns; np.unique would load numpy.ma, about 1 MB
        return len({c.tobytes() for c in self._profile().supp.T}) == len(self.elements)

    # ----- bounds and meets ----------------------------------------------

    def _minimal_upper_bound_indices(self, i, j) -> np.ndarray:
        """Indices of the minimal common upper bounds of elements i and j."""
        cand = np.flatnonzero(self._leq[i] & self._leq[j])
        if cand.size == 0:
            return cand
        below = self._leq[np.ix_(cand, cand)] & ~np.eye(cand.size, dtype=bool)
        return cand[~below.any(axis=0)]

    def minimal_upper_bounds(self, s, t) -> frozenset:
        i, j = self._require(s), self._require(t)
        return frozenset(self.elements[c] for c in self._minimal_upper_bound_indices(i, j))

    def meet(self, s, t) -> Label:
        """Greatest lower bound of two elements of a simplicial poset.

        Defined only when s and t have a common upper bound.  The result is
        asserted to agree with the meet computed inside [0,u] for every
        minimal common upper bound u.
        """
        i, j = self._require(s), self._require(t)
        min_ub = self._minimal_upper_bound_indices(i, j)
        if min_ub.size == 0:
            raise MeetUndefinedError(f"{s} and {t} have no common upper bound")
        lb = self._leq[:, i] & self._leq[:, j]
        cand = np.flatnonzero(lb)
        above = self._leq[np.ix_(cand, cand)] & ~np.eye(cand.size, dtype=bool)
        tops = cand[~above.any(axis=1)]
        if tops.size != 1:
            raise InvariantError(
                f"{s} and {t} have {tops.size} maximal common lower bounds; "
                "poset is not simplicial"
            )
        m = int(tops[0])
        for u in min_ub:
            inside = lb & self._leq[:, u]
            if not (~inside | self._leq[:, m]).all():
                raise InvariantError("meet depends on the enclosing interval")
        return self.elements[m]

    # ----- quotients and restrictions --------------------------------------

    def quotient(self, classes) -> "Poset":
        """Quotient by a partition; class C1 <= C2 iff some v in C1 is below
        some w in C2, closed transitively.  Elements of the result carry
        class labels.  Raises StructureError when the classes do not
        partition the elements or the closure is not antisymmetric."""
        blocks = [frozenset(c) for c in classes]
        cls = self._class_array(blocks)
        labels = [Label.class_of(c) for c in blocks]
        lo, hi = np.nonzero(self._leq)
        rel = np.zeros((len(blocks), len(blocks)), dtype=bool)
        rel[cls[lo], cls[hi]] = True
        np.fill_diagonal(rel, False)
        order = _order(rel)
        if order is None:
            raise StructureError("quotient is not a partial order")
        less, through = order
        lo, hi = np.nonzero(less & ~through)
        np.fill_diagonal(less, True)
        return Poset._trusted(labels, less, lo, hi, antisymmetric=True)

    def _class_array(self, blocks) -> np.ndarray:
        """Position of each element's block; StructureError unless the
        blocks (collections of labels) are nonempty and partition the
        elements."""
        sizes = [len(c) for c in blocks]
        if not all(sizes):
            raise StructureError("classes must be nonempty")
        index = self._index
        try:
            at = [index[v] for c in blocks for v in c]
        except KeyError:
            at = []
        cls = np.full(len(self.elements), -1, dtype=np.intp)
        if len(at) == cls.size:
            cls[at] = np.repeat(np.arange(len(blocks)), sizes)
        if (cls < 0).any():  # as many members as elements, so none repeats
            raise StructureError("classes must partition the elements")
        return cls

    def restrict(self, subset) -> "Poset":
        """Induced subposet on the given elements (covers recomputed)."""
        idx = sorted(self._require(v) for v in set(subset))
        sub = self._leq[np.ix_(idx, idx)]
        order = _order(sub & ~np.eye(len(idx), dtype=bool))
        if order is None:
            raise InvariantError("reachability matrix is not antisymmetric")
        less, through = order
        lo, hi = np.nonzero(less & ~through)
        return Poset._trusted([self.elements[i] for i in idx], sub, lo, hi, antisymmetric=True)

    # ----- misc helpers -----------------------------------------------------

    def _height_levels(self) -> list:
        """Length of the longest chain below each element (0 for minimal)."""
        children = _cover_digraph(self)[0]
        h = [0] * len(self.elements)
        for j in np.argsort(self._profile().lower, kind="stable").tolist():
            if children[j]:
                h[j] = 1 + max(h[i] for i in children[j])
        return h

    # ----- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        text = [str(e) for e in self.elements]
        return {
            "elements": text,
            "covers": [[text[i], text[j]] for i, j in zip(self._lo.tolist(), self._hi.tolist())],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "Poset":
        if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
            raise FormatError("poset JSON needs 'elements' and 'covers'")
        if not isinstance(obj["elements"], list) or not isinstance(obj["covers"], list):
            raise FormatError("poset JSON fields have the wrong shape")
        parsed = {}  # the cover pairs repeat the element strings

        def parse(text):
            if not isinstance(text, str):
                return Label.parse(text)  # raises FormatError
            label = parsed.get(text)
            if label is None:
                label = parsed[text] = Label.parse(text)
            return label

        elements = [parse(e) for e in obj["elements"]]
        covers = []
        for pair in obj["covers"]:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise FormatError(f"cover pair has the wrong shape: {pair!r}")
            covers.append((parse(pair[0]), parse(pair[1])))
        return cls.from_covers(elements, covers)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Poset":
        return cls.from_json_dict(_loads(text))

    def to_dot(self) -> str:
        """Graphviz rendering: one node per element, one edge per cover,
        elements rank-aligned by height (equals atom-support size on
        simplicial posets)."""
        heights = self._height_levels()
        lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=box];"]
        by_level = {}
        for i, e in enumerate(self.elements):
            by_level.setdefault(heights[i], []).append(e)
        for level in sorted(by_level):
            row = " ".join(f'"{e}";' for e in by_level[level])
            lines.append("  { rank=same; " + row + " }")
        el = self.elements
        for i, j in zip(self._lo.tolist(), self._hi.tolist()):
            lines.append(f'  "{el[i]}" -> "{el[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def boolean_lattice(n: int) -> Poset:
    """The lattice of subsets of {x1..xn}; 2^n elements.

    Guarded at n <= 20, though practical sizes sit far below the guard.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"boolean_lattice needs a nonnegative integer, got {n!r}")
    if n > BOOLEAN_LATTICE_MAX:
        raise SizeLimitError(f"boolean_lattice(n) is guarded at n <= {BOOLEAN_LATTICE_MAX}")
    names = [f"x{i + 1}" for i in range(n)]
    size = 1 << n
    labels = [Label.bottom()]
    for mask in range(1, size):
        labels.append(Label.atom_set(names[b] for b in range(n) if mask >> b & 1))
    masks = np.arange(size, dtype=np.int64)
    leq = np.zeros((size, size), dtype=bool)
    step = 4096
    for start in range(0, size, step):
        block = masks[start : start + step]
        leq[start : start + step] = (block[:, None] & ~masks[None, :]) == 0
    # label i is the subset with bitmask i; it covers i minus each of its bits
    bits = 1 << np.arange(n, dtype=np.int64)
    hi, b = np.nonzero(masks[:, None] & bits)
    return Poset._trusted(labels, leq, hi ^ bits[b], hi)


# ----- isomorphism ------------------------------------------------------------


def _cover_digraph(p: Poset):
    n = len(p.elements)
    children = [[] for _ in range(n)]  # covered-by lists (towards bottom)
    parents = [[] for _ in range(n)]
    for i, j in zip(p._lo.tolist(), p._hi.tolist()):
        children[j].append(i)
        parents[i].append(j)
    return children, parents


def _color_hash(colors: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser of each colour.  A sum of these (wrapping
    uint64, so independent of summation order) stands for a multiset of
    colours; two multisets whose sums collide only share a class."""
    z = colors.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _ranks(keys) -> np.ndarray:
    """Dense ranks of the positions of equal-length key arrays, compared
    lexicographically with ``keys[0]`` first."""
    order = np.lexsort(keys[::-1])
    step = np.zeros(order.size, dtype=bool)
    for key in keys:
        s = key[order]
        step[1:] |= s[1:] != s[:-1]
    ranks = np.empty(order.size, dtype=np.intp)
    ranks[order] = np.cumsum(step)
    return ranks


def _refine(colors: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Colour refinement on a cover digraph given by index arrays: every
    round recolours each element by its colour and the multisets of its
    children's and its parents' colours, until no class splits.  ``colors``
    are dense ranks and so is the result, which depends on the structure
    alone; old colours rank first, so classes only ever split."""
    while True:
        h = _color_hash(colors)
        below = np.zeros(colors.size, dtype=np.uint64)
        np.add.at(below, hi, h[lo])
        above = np.zeros(colors.size, dtype=np.uint64)
        np.add.at(above, lo, h[hi])
        refined = _ranks((colors, below, above))
        if refined.max() == colors.max():
            return refined
        colors = refined


def _fits(v, w, adj, placed) -> bool:
    """Whether mapping v to w keeps the cover relations with the placed
    elements: each placed child (parent) of v maps to a child (parent) of
    w, and w has no further placed children (parents)."""
    (children_p, parents_p), (children_q, parents_q) = adj
    mate, placed_p, placed_q = placed
    for near_p, near_q in ((children_p, children_q), (parents_p, parents_q)):
        images = [mate[u] for u in near_p[v] if placed_p[u]]
        near = near_q[w]
        if len(images) != sum(placed_q[x] for x in near):
            return False
        if any(x not in near for x in images):
            return False
    return True


def find_isomorphism(p: Poset, q: Poset):
    """A label map realizing an order isomorphism, or None.

    Both posets are coloured jointly by refinement on their cover digraphs,
    seeded with lower-set and upper-set sizes and cover degrees, so a map
    must keep colours.  When every colour class is one element of each
    poset the colours force the map, and one comparison of the ``leq``
    matrices accepts or refutes it.  Otherwise an explicit-stack search
    individualises one pair of the smallest class and refines again; a
    candidate must match its placed cover neighbours and their count, and
    every map returned passes the same ``leq`` comparison.  Both posets are
    guarded at ``ISOMORPHISM_MAX`` elements.
    """
    if len(p) > ISOMORPHISM_MAX or len(q) > ISOMORPHISM_MAX:
        raise SizeLimitError(f"isomorphism search is guarded at {ISOMORPHISM_MAX} elements")
    if len(p) != len(q) or p._lo.size != q._lo.size:
        return None
    n = len(p)
    lo, hi = np.concatenate([p._lo, q._lo + n]), np.concatenate([p._hi, q._hi + n])
    seed = (
        np.concatenate([p._profile().lower, q._profile().lower]),
        np.concatenate([p._profile().upper, q._profile().upper]),
        np.bincount(hi, minlength=2 * n),
        np.bincount(lo, minlength=2 * n),
    )
    adj = None
    stack = [(_refine(_ranks(seed), lo, hi), -1, -1)]
    while stack:
        colors, v, w = stack.pop()
        if v >= 0:
            colors = colors.copy()
            colors[v] = colors[n + w] = colors.max() + 1
            colors = _refine(colors, lo, hi)
        k = int(colors.max()) + 1
        sizes = np.bincount(colors[:n], minlength=k)
        if not np.array_equal(sizes, np.bincount(colors[n:], minlength=k)):
            continue
        q_of = np.empty(k, dtype=np.intp)
        q_of[colors[n:]] = np.arange(n)
        mate = q_of[colors[:n]]  # the map, on the elements of singleton classes
        if k == n:
            if np.array_equal(q._leq[np.ix_(mate, mate)], p._leq):
                return {p.elements[i]: q.elements[j] for i, j in enumerate(mate.tolist())}
            continue
        if adj is None:
            adj = (_cover_digraph(p), _cover_digraph(q))
        single = (sizes[colors] == 1).tolist()
        placed = (mate.tolist(), single[:n], single[n:])
        cell = int(np.flatnonzero(sizes == sizes[sizes > 1].min())[0])
        v = int(np.flatnonzero(colors[:n] == cell)[0])
        bucket = np.flatnonzero(colors[n:] == cell).tolist()
        stack.extend((colors, v, w) for w in reversed(bucket) if _fits(v, w, adj, placed))
    return None


def are_isomorphic(p: Poset, q: Poset) -> bool:
    return find_isomorphism(p, q) is not None
