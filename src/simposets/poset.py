"""Finite posets with materialized reachability.

A :class:`Poset` stores its elements in canonical label order together with
a read-only boolean matrix ``leq`` where ``leq[i, j]`` means element ``i`` is
below element ``j``.  The covers, always the transitive reduction of
``leq``, are kept alongside as two index arrays ``(lo, hi)`` sorted in that
same order, so order queries are O(1) and every listing derived from a
poset is deterministic.  One constructor, ``Poset.__init__``, makes every
poset from ``leq``, the covers in ``(lo, hi)`` order and a label recipe.

Labels are looked up only on input and built only for output.  A poset
keeps its element labels as a recipe (``_Lazy``) and builds the label tuple
on first read of ``elements``: through a label lookup, ``bottom()`` and the
other label queries, the ``covers`` pair set, JSON, DOT, ``==``, hashing or
pickling.  A recipe holds labels, other recipes and index arrays, never a
poset or its ``leq``, so intermediate posets are freed once their output
exists.  Only ``from_json`` builds labels up front.  It and ``from_covers``
are the builders that sort by label key, in ``_from_ends``; ``from_json``
parses each distinct label text of its document once, a shallow one (a
leaf or a class of leaves, spelled canonically) by one regular-expression
match and any other by the general parser, and finds cover ends by their
text.  The others know the canonical order from indices alone: a
face poset ranks its faces by their sorted vertex positions, which is the
order of their labels; ``restrict`` keeps index order; a quotient numbers
its classes by least member index, which is the order of their class
labels, because two disjoint classes differ in their first member; a
disjoint union of copies lists the bottom, then the copies by copy index
and base index.

``from_covers``, ``from_json``, ``quotient`` and ``face_poset`` derive
their order from generating pairs through one kernel, ``_dag``: Kahn levels
from the top, where an element Kahn never reaches means a cycle, then one
bit-row pass, ``_spread``, which ORs packed ``uint64`` rows along the
pairs, level by level and a block of ``_block`` receiving rows at a time,
into every element's upper set (Simon 1988).  A pair is redundant when its
upper end lies strictly above another upper end of its lower end (Aho,
Garey & Ullman 1972); a second ``_spread`` call finds them, run only on
the lower ends of pairs two or more Kahn levels apart, since nothing lies
strictly between the ends of a pair in adjacent levels.  The gluing check
builds its rows of classes below each element (``gluing._classes_below``)
with the same pass, and a gluing quotient reads its order off those rows,
so it runs no ``_dag``; it and ``_dag`` take their pairs distinct and
sorted from ``_distinct_pairs``.  ``restrict`` takes an order ideal, as
labels or a mask, and keeps the covers inside it.
Meets and minimal upper bounds come from one kernel, ``_bounds``: ``ideal``
runs it on blocks of pairs, ``meet`` and ``minimal_upper_bounds`` on one.

The facts the checks share are read off ``leq`` once per poset, on first
use, into a private profile (``Poset._profile``): ``lower``, the lower-set
sizes; ``bottom``, the index of the unique minimum or -1; ``atoms``, the
elements with a lower set of size 2; ``supp``, their rows ``leq[atoms]``,
whose columns are the atom supports; ``rank``, the atoms below each
element; ``ids``, one dense id per distinct support, ranked from the packed
``supp`` columns by ``_ranks``; and ``maxima``, the ascending indices of
the elements that no cover leaves, the one place they are found.  Building
it never raises; readers that need the unique minimum check it through
``_bottom_index()``.

The simplicial vocabulary lives here as methods: atoms, atom supports,
``is_simplicial`` (every lower interval is a boolean lattice) and
``is_face_poset`` (additionally, elements are determined by their atom
support).  Condition (3) of ``is_simplicial`` is that no two elements
below one maximal element have the same support.  With a unique minimum
and |[0,v]| = 2^|supp v|, it makes supp a bijection from each [0,b] onto
the subsets of supp b, so an a below the same maximal element with supp a
within supp b is the element of [0,b] with that support, and a <= b.  It
is tested by sorting one key per pair (v <= x, x maximal), so no n x n
array is built.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Mapping, Sequence
from itertools import islice
from json.encoder import encode_basestring_ascii as encode
from operator import lt

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
from .labels import Label, reader

ISOMORPHISM_MAX = 500
# bool cells, or bytes, held by the temporaries of one block of any blocked
# loop, the bit-row pass (_spread) of _dag and _classes_below included
_BLOCK_CELLS = 1 << 20


def _block(cells: int) -> int:
    """Items per block of a loop whose temporaries hold ``cells`` bool
    cells (bytes) per item: ``_BLOCK_CELLS`` in all, and at least one item.
    No result depends on where the blocks end."""
    return max(1, _BLOCK_CELLS // max(1, cells))


def _blocks(cells) -> list:
    """Bounds ``[0, ..., len(cells)]`` of the consecutive blocks of a loop
    whose item i holds ``cells[i]`` bool cells (bytes) of temporaries:
    ``_BLOCK_CELLS`` a block, and at least one item.  No result depends on
    where the blocks end."""
    ends = np.cumsum(cells)
    bounds = [0]
    while bounds[-1] < len(ends):
        start = bounds[-1]
        held = ends[start - 1] if start else 0
        bounds.append(max(start + 1, int(np.searchsorted(ends, held + _BLOCK_CELLS, side="right"))))
    return bounds


def _ranges(start, stop) -> np.ndarray:
    """The ranges ``[start[i], stop[i])``, at least one, laid end to end."""
    size = stop - start
    end = np.cumsum(size)
    return np.arange(end[-1]) + np.repeat(start - end + size, size)


def _bit_rows(idx: np.ndarray, bits: int) -> np.ndarray:
    """Packed ``uint64`` rows of ``bits`` bits, one per entry of ``idx``,
    row i holding the one bit ``idx[i]``."""
    rows = np.zeros((idx.size, (bits + 63) >> 6), dtype=np.uint64)
    rows[np.arange(idx.size), idx >> 6] = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
    return rows


def _spread(dst, src, levels, start, send) -> None:
    """The one pass that closes bit rows along pairs: level by level, OR
    into each row u of ``dst`` the rows of ``src`` at
    ``send[start[u]:start[u + 1]]``, one ``bitwise_or.reduceat`` per block
    of ``_block`` receiving rows of the level.  ``src`` may be ``dst`` when
    every row a level reads is final before it: each sender stands in an
    earlier level.

    Every receiver must have at least one sender, or ``reduceat`` would
    read the next receiver's rows.  ``_dag`` passes the Kahn levels below
    the first, whose elements were waiting on at least one pair, and, for
    the redundancy rows, lower ends of its pairs; ``gluing._classes_below``
    passes the levels of lower-set size above the minimal elements, each
    of which covers something, and a gluing quotient then reads its order
    off the rows of its classes' least members."""
    for level in levels:
        size = start[level + 1] - start[level]
        step = _block(8 * src.shape[1] * int(size.max()))
        for first in range(0, level.size, step):
            u, k = level[first : first + step], size[first : first + step]
            rows = src[send[_ranges(start[u], start[u + 1])]]
            dst[u] |= np.bitwise_or.reduceat(rows, np.cumsum(k) - k, axis=0)


def _distinct_pairs(n: int, lo: np.ndarray, hi: np.ndarray):
    """The distinct index pairs ``(lo[k], hi[k])`` on ``range(n)``, sorted
    by ``(lo, hi)``: a sort and a neighbour test, as np.unique loads
    numpy.ma."""
    key = np.sort(lo * n + hi)
    distinct = np.ones(key.size, dtype=bool)
    distinct[1:] = key[1:] != key[:-1]
    return np.divmod(key[distinct], n)


def _dag(n: int, lo: np.ndarray, hi: np.ndarray):
    """The order on ``range(n)`` generated by the index pairs
    ``lo[k] < hi[k]``, which must contain no self-pair.

    Returns None when the pairs have a cycle.  Otherwise returns
    ``(leq, lo, hi, redundant)``: the reflexive order matrix, the distinct
    pairs sorted by ``(lo, hi)``, and a mask of those pairs with an element
    strictly between their ends; the others are the covers.

    Kahn's algorithm peels levels off the top: first the elements with no
    pair above them, then those all of whose pairs lead into earlier
    levels; an element it never reaches lies on or below a cycle.  Then
    ``_spread`` builds ``up[a] = {a} | OR up[b]``, the upper sets, and
    ``above[a] = OR (up[b] - {b})`` over the pairs ``(a, b)``; the pair is
    redundant iff ``b`` is in ``above[a]``.  An element strictly between
    the ends of a pair stands in a level between theirs, so only the lower
    ends of pairs two or more levels apart get an ``above`` row, and
    graded inputs skip that pass.
    """
    lo, hi = _distinct_pairs(n, lo, hi)
    at = np.arange(n + 1)
    out = np.searchsorted(lo, at)  # pairs (a, .) are out[a]:out[a + 1]
    waiting = np.diff(out)
    depth = np.full(n, -1)  # the Kahn level of each element, once reached
    levels, level = [], np.flatnonzero(waiting == 0)
    while level.size:
        depth[level] = len(levels)
        waiting[level] = -1  # done, so never a level again
        waiting -= np.bincount(lo[depth[hi] == len(levels)], minlength=n)  # the pairs into this level
        levels.append(level)
        level = np.flatnonzero(waiting == 0)
    if (waiting >= 0).any():  # never reached: on or below a cycle
        return None
    up = _bit_rows(at[:-1], n)
    _spread(up, up, levels[1:], out, hi)
    redundant = np.zeros(lo.size, dtype=bool)
    wide = np.flatnonzero(np.bincount(lo[depth[lo] - depth[hi] > 1], minlength=n))
    if wide.size:
        seed = _bit_rows(at[:-1], n)
        above = np.zeros_like(up)
        _spread(above, up ^ seed, [wide], out, hi)
        redundant = (above[lo, hi >> 6] & seed[hi, hi >> 6]) != 0
    # little-endian words, so bit j of a row is byte j // 8, bit j % 8
    leq = np.unpackbits(up.astype("<u8", copy=False).view(np.uint8), axis=1, count=n, bitorder="little")
    return leq.view(bool), lo, hi, redundant


def _dumps(obj: dict) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` for a dict of lists, each
    of strings or of lists of strings, with each string put through the C
    encoder that ``json.dumps`` uses for it."""
    fields = []
    for key, value in obj.items():
        if value and not isinstance(value[0], str):
            value = ["[\n      " + ",\n      ".join(map(encode, row)) + "\n    ]" if row else "[]" for row in value]
        else:
            value = list(map(encode, value))
        fields.append(encode(key) + (": [\n    " + ",\n    ".join(value) + "\n  ]" if value else ": []"))
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _loads(text: str):
    """``json.loads``, with text nested past the recursion limit reported
    as a FormatError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise FormatError("JSON is nested too deeply") from None


class _Lazy(Sequence):
    """A tuple of known length, built by ``build(*args)`` on first read of
    an item.  The arguments hold labels, other ``_Lazy`` tuples or index
    arrays, never a ``Poset`` or its ``leq``, and are dropped once the
    tuple is built.  Pickling builds it, so a pickle holds no recipe."""

    __slots__ = ("_size", "_value", "_recipe")

    def __init__(self, size: int, build, *args):
        self._size = size
        self._value = None
        self._recipe = (build, args)

    @classmethod
    def of(cls, value: tuple) -> "_Lazy":
        """An already built tuple."""
        lazy = cls(len(value), None)
        lazy._value, lazy._recipe = value, None
        return lazy

    def get(self) -> tuple:
        if self._recipe is not None:
            build, args = self._recipe
            self._value = build(*args)
            self._recipe = None
        return self._value

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        return self.get()[i]

    def __iter__(self):
        return iter(self.get())

    def __reduce__(self):
        return (_Lazy.of, (self.get(),))


def _gather(labels: _Lazy, idx: np.ndarray) -> tuple:
    """The labels at the indices ``idx``, in that order."""
    el = labels.get()
    return tuple([el[i] for i in idx.tolist()])


def _class_members(labels: _Lazy, cls: np.ndarray) -> list:
    """The member labels of each class of ``cls`` (numbered from 0), as
    tuples in index order, which is canonical label order."""
    el = labels.get()
    members = iter([el[i] for i in np.argsort(cls, kind="stable").tolist()])
    return [tuple(islice(members, size)) for size in np.bincount(cls).tolist()]


def _class_labels(labels: _Lazy, cls: np.ndarray) -> tuple:
    return tuple(Label._class(m) for m in _class_members(labels, cls))


def _key_order(labels) -> list:
    """The positions of the labels in canonical order; rejects an empty
    label list, or one where two labels have the same key."""
    keys = [e.key for e in labels]
    if not keys:
        raise StructureError("a poset needs at least one element")
    if all(map(lt, keys, keys[1:])):  # already canonical, as written by to_json
        return list(range(len(keys)))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    if not all(map(lt, keys, keys[1:])):
        raise StructureError("element labels must be unique")
    return order


_Profile = namedtuple("_Profile", "lower bottom atoms supp rank ids maxima")


class Poset:
    __slots__ = ("_labels", "_index_cache", "_lo", "_hi", "_leq", "_profile_cache", "_simplicial")

    def __init__(self, labels: _Lazy, leq, lo, hi):
        """Internal: use from_covers / from_json instead.  Takes an order
        matrix whose elements stand in canonical label order, its covers as
        index arrays in ``(lo, hi)`` order, and the labels as a ``_Lazy``
        recipe, not read; asserts reflexivity and the cover order, and
        freezes the arrays.  The builder vouches for the canonical order; for
        antisymmetry, checked once per matrix by the cycle check of ``_dag``,
        a disjoint union's ascending blocks, the doubling of
        ``_simplex_order`` in ``_facet_copies`` or, for a gluing quotient,
        the two gluing conditions that ``gluing._validate`` checks on the
        rows the quotient reads (``restrict`` keeps a principal submatrix);
        and for the cover order: the sorted pairs of ``_dag``,
        ``_facet_copies`` or ``_distinct_pairs``, a monotone index map, or a
        disjoint union's block layout.  The test suite checks closure
        against Warshall's algorithm."""
        if not leq.diagonal().all():
            raise InvariantError("reachability matrix is not reflexive")
        key = lo * leq.shape[0] + hi
        if (key[1:] <= key[:-1]).any():
            raise InvariantError("covers are not in (lo, hi) order")
        for a in (leq, lo, hi):
            a.setflags(write=False)
        self._labels = labels
        self._index_cache = None
        self._lo = lo
        self._hi = hi
        self._leq = leq
        self._profile_cache = None
        self._simplicial = None

    # ----- construction -------------------------------------------------

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from explicit cover pairs ``(lower, upper)``.

        The pairs must be exactly the transitive reduction of the order they
        generate; redundant or cyclic input is rejected.  Elements and cover
        ends must be Labels, and each cover a list or tuple of two."""
        elements = list(elements)
        if not all(isinstance(e, Label) for e in elements):
            raise FormatError("poset elements must be Labels")
        order = _key_order(elements)
        index = {e: i for i, e in enumerate(elements)}
        ends = []
        for pair in covers:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise FormatError(f"cover pair has the wrong shape: {pair!r}")
            for end in pair:
                if not isinstance(end, Label):
                    raise FormatError("cover ends must be Labels")
                if end not in index:
                    raise ElementNotFoundError(f"unknown element in covers: {end}")
                ends.append(index[end])
        return cls._from_ends(elements, order, ends)

    @classmethod
    def _from_ends(cls, elements: list, order: list, ends: list):
        """Build from labels, their canonical order (``_key_order``) and the
        positions in ``elements`` of the cover pairs' ends, laid end to end.

        The pairs are renumbered into canonical order before ``_dag`` closes
        them, so the order matrix needs no gather, and they must be exactly
        the transitive reduction of the order they generate."""
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        lo, hi = rank[np.array(ends, dtype=np.intp).reshape(-1, 2).T]
        self_pair = lo == hi
        dag = _dag(len(order), lo[~self_pair], hi[~self_pair])
        if dag is None:
            raise StructureError("covers contain a cycle")
        leq, lo, hi, redundant = dag
        if self_pair.any() or redundant.any():
            raise StructureError("covers must be transitively reduced cover pairs")
        return cls(_Lazy.of(tuple(map(elements.__getitem__, order))), leq, lo, hi)

    # ----- basic queries ------------------------------------------------

    @property
    def elements(self) -> tuple:
        """The element labels in canonical order, built on first read."""
        return self._labels.get()

    @property
    def _index(self) -> dict:
        """The position of each label, built on first read."""
        if self._index_cache is None:
            self._index_cache = {e: i for i, e in enumerate(self.elements)}
        return self._index_cache

    def __len__(self):
        return self._leq.shape[0]

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
        return f"Poset({len(self)} elements, {self._lo.size} covers)"

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
            # counted in int32, half the traffic of the default intp; widened
            # so that _bounds' lower[c] * n + c cannot wrap
            lower = leq.sum(axis=0, dtype=np.int32).astype(np.intp)
            mins = np.flatnonzero(lower == 1)
            bottom = int(mins[0]) if mins.size == 1 else -1
            # with a unique minimum, a lower set of size 2 is it and an atom
            atoms = np.flatnonzero(lower == 2)
            supp = leq[atoms]
            rank = np.count_nonzero(supp, axis=0)
            # np.unique would load numpy.ma
            packed = np.zeros((max(1, -(-atoms.size // 64)) * 8, leq.shape[0]), dtype=np.uint8)
            packed[: -(-atoms.size // 8)] = np.packbits(supp, axis=0)
            ids = _ranks(list(np.ascontiguousarray(packed.T).view(np.uint64).T))
            maxima = np.flatnonzero(np.bincount(self._lo, minlength=leq.shape[0]) == 0)
            for a in (lower, atoms, supp, rank, ids, maxima):
                a.setflags(write=False)
            self._profile_cache = _Profile(lower, bottom, atoms, supp, rank, ids, maxima)
        return self._profile_cache

    def _bottom_index(self) -> int:
        """The index of the unique minimum; StructureError if there is none."""
        b = self._profile().bottom
        if b < 0:
            raise StructureError("poset has no unique minimal element")
        return b

    def bottom(self) -> Label:
        """The unique minimum element; StructureError if there is none."""
        return self.elements[self._bottom_index()]

    def atoms(self) -> frozenset:
        """Elements covering the unique minimum."""
        self._bottom_index()
        return frozenset(self.elements[i] for i in self._profile().atoms.tolist())

    def lower_set(self, v) -> frozenset:
        j = self._require(v)
        return frozenset(self.elements[i] for i in np.flatnonzero(self._leq[:, j]))

    def maximal_elements(self) -> frozenset:
        return frozenset(self.elements[i] for i in self._profile().maxima.tolist())

    # ----- atom supports and simpliciality --------------------------------

    def atom_support(self, v) -> frozenset:
        """The atoms below v."""
        return self._supports([self._require(v)])[0]

    def _supports(self, idx) -> list:
        """The atom supports, as frozensets of labels, of the elements at ``idx``."""
        self._bottom_index()
        prof, el = self._profile(), self.elements
        return [frozenset(el[a] for a in prof.atoms[prof.supp[:, j]].tolist()) for j in idx]

    def is_simplicial(self) -> bool:
        """True iff every lower interval [0,v] is a boolean lattice, checked
        as (1) a unique minimum, (2) |[0,v]| = 2^|supp v| for every v, where
        supp v is the set of atoms below v, and (3) no two elements below
        one maximal element have the same support.  Given (1) and (2), (3)
        makes each [0,b] boolean: [0,b] lies below a maximal x, so supp is
        injective on [0,b], and by (2) onto the subsets of supp b; an a
        below x with supp a within supp b is then the element of [0,b] with
        that support, so a <= b."""
        if self._simplicial is None:
            self._simplicial = self._compute_simplicial()
        return self._simplicial

    def _compute_simplicial(self) -> bool:
        prof = self._profile()
        if prof.bottom < 0:
            return False
        # exp2 is exact in float64, where an int64 shift would wrap past rank 63
        if (prof.lower != np.exp2(prof.rank)).any():
            return False
        return not self._shared_below_maxima(prof.ids, prof.ids.size).size

    def _shared_below_maxima(self, ids, k) -> np.ndarray:
        """The values of ``ids`` (each in ``range(k)``) that two distinct
        elements below one maximal element share, once per extra such
        element: the pairs (v <= x, x maximal), keyed ``x * k + ids[v]``,
        sorted and tested for neighbours a block of maximal elements at a
        time, ``_block`` of them, each a column of ``leq``."""
        maxima = self._profile().maxima
        step = _block(len(ids))
        found = []
        for start in range(0, maxima.size, step):
            x, v = np.nonzero(self._leq[:, maxima[start : start + step]].T)
            key = np.sort(x * k + ids[v])
            found.append(key[1:][key[1:] == key[:-1]] % k)
        return np.concatenate(found)

    def is_face_poset(self) -> bool:
        """True iff the atom-support map is injective on the whole poset:
        there are as many support ids as elements.

        Requires a simplicial poset; raises PreconditionError otherwise.
        """
        if not self.is_simplicial():
            raise PreconditionError("is_face_poset requires a simplicial poset")
        return int(self._profile().ids.max()) + 1 == len(self)

    # ----- bounds and meets ----------------------------------------------

    def _bounds(self, i, j, geq):
        """The meets and minimal common upper bounds of the pairs
        ``(i[k], j[k])`` of a simplicial poset, each with a common upper
        bound, read with ``geq``, the lower sets as rows (``leq.T``; a
        contiguous copy when many blocks read it).  Returns ``(meet, owner,
        ub)``: each pair's meet, and one entry per minimal common upper
        bound ``ub`` of pair ``owner``, in row-major order.

        The meet is the common lower bound with the largest lower set,
        checked to lie above every common lower bound.  Inside each boolean
        interval [0,z] above both elements their join has rank
        |supp i| + |supp j| - |supp meet|, so the minimal common upper
        bounds are the common upper bounds of that rank.
        """
        leq, prof = self._leq, self._profile()
        n = leq.shape[0]
        # common lower bounds, row by row; the bottom is one of each row
        r, c = np.divmod(np.flatnonzero(geq[i] & geq[j]), n)
        first = np.searchsorted(r, np.arange(i.size))
        # the largest lower set; a tie means no meet, which the check finds
        meet = np.maximum.reduceat(prof.lower[c] * n + c, first) % n
        bad = ~leq[c, meet[r]]
        if bad.any():
            k = r[np.argmax(bad)]
            below = c[r == k]
            tops = np.count_nonzero(leq[np.ix_(below, below)].sum(axis=1) == 1)
            s, t = self.elements[i[k]], self.elements[j[k]]
            raise InvariantError(f"{s} and {t} have {tops} maximal common lower bounds; poset is not simplicial")
        owner, ub = np.divmod(np.flatnonzero(leq[i] & leq[j]), n)
        rank = prof.rank
        minimal = rank[ub] == (rank[i] + rank[j] - rank[meet])[owner]
        return meet, owner[minimal], ub[minimal]

    def _pair_bounds(self, query, s, t):
        """``_bounds`` of the one pair s, t, or None when they have no
        common upper bound."""
        if not self.is_simplicial():
            raise PreconditionError(f"{query} requires a simplicial poset")
        i, j = np.array([self._require(s)]), np.array([self._require(t)])
        if (self._leq[i] & self._leq[j]).any():
            return self._bounds(i, j, self._leq.T)
        return None

    # kept as a method while perfbench/tracing.py patches it by name
    def minimal_upper_bounds(self, s, t) -> frozenset:
        """The minimal common upper bounds of two elements of a simplicial
        poset."""
        bounds = self._pair_bounds("minimal_upper_bounds", s, t)
        return frozenset(() if bounds is None else [self.elements[u] for u in bounds[2].tolist()])

    # kept as a method while perfbench/tracing.py patches it by name
    def meet(self, s, t) -> Label:
        """Greatest lower bound of two elements of a simplicial poset,
        defined only when they have a common upper bound."""
        bounds = self._pair_bounds("meet", s, t)
        if bounds is None:
            raise MeetUndefinedError(f"{s} and {t} have no common upper bound")
        return self.elements[bounds[0][0]]

    # ----- quotients and restrictions --------------------------------------

    def quotient(self, classes) -> "Poset":
        """Quotient by a partition, given as collections of labels or as an
        integer array holding each element's class; class C1 <= C2 iff some
        v in C1 is below some w in C2, closed transitively.  Elements of the
        result carry class labels, built on first read, and stand in the
        order of their least members.  Raises StructureError when the
        classes do not partition the elements or the closure is not
        antisymmetric."""
        cls, k = self._partition(classes)
        lo, hi = cls[self._lo], cls[self._hi]
        apart = lo != hi
        order = _dag(k, lo[apart], hi[apart])
        if order is None:
            raise StructureError("quotient is not a partial order")
        leq, lo, hi, redundant = order
        labels = _Lazy(k, _class_labels, self._labels, cls)
        return Poset(labels, leq, lo[~redundant], hi[~redundant])

    def _partition(self, classes):
        """The class array of a partition, given as in ``quotient``, with
        the classes renumbered densely by least member index, and the class
        count.  Elements stand in canonical label order, so this is also the
        order of the classes' least member labels, and of their class
        labels: disjoint classes differ in their first member."""
        if not isinstance(classes, np.ndarray):
            classes = self._class_array([frozenset(c) for c in classes])
        elif classes.shape != (len(self),):
            raise StructureError("classes must partition the elements")
        elif not np.issubdtype(classes.dtype, np.integer):
            raise StructureError(f"a class array must hold integers, not {classes.dtype}")
        order = np.argsort(classes, kind="stable")
        new = np.ones(order.size, dtype=bool)
        new[1:] = classes[order[1:]] != classes[order[:-1]]
        first = order[new]  # least member of each class, classes by value
        rank = np.empty(first.size, dtype=np.intp)
        rank[np.argsort(first)] = np.arange(first.size)
        cls = np.empty(order.size, dtype=np.intp)
        cls[order] = rank[np.cumsum(new) - 1]
        return cls, first.size

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
        cls = np.full(len(self), -1, dtype=np.intp)
        if len(at) == cls.size:
            cls[at] = np.repeat(np.arange(len(blocks)), sizes)
        if (cls < 0).any():  # as many members as elements, so none repeats
            raise StructureError("classes must partition the elements")
        return cls

    def restrict(self, ideal) -> "Poset":
        """Induced subposet on an order ideal, given as labels or as a
        boolean mask over the elements.  Its covers are the covers with both
        ends inside, and its elements keep their index order, which is
        canonical label order.  Raises StructureError when a mask is not one
        bool per element, or when the ideal is empty or a cover enters it
        from outside, which is exactly when it is not closed downward."""
        inside = ideal
        if not isinstance(ideal, np.ndarray):
            inside = np.zeros(len(self), dtype=bool)
            inside[[self._require(v) for v in ideal]] = True
        elif ideal.shape != (len(self),) or ideal.dtype != bool:
            raise StructureError(f"an ideal mask needs one bool per element, not {ideal.dtype} {ideal.shape}")
        idx = np.flatnonzero(inside)
        if not idx.size:
            raise StructureError("a poset needs at least one element")
        into = inside[self._hi]
        if (into & ~inside[self._lo]).any():
            raise StructureError("restrict needs an order ideal")
        at = np.cumsum(inside) - 1
        # a principal submatrix on ascending indices, so antisymmetric as leq is
        sub = self._leq.take(idx, 0).take(idx, 1)
        return Poset(_Lazy(idx.size, _gather, self._labels, idx), sub, at[self._lo[into]], at[self._hi[into]])

    # ----- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        text = [str(e) for e in self.elements]
        return {
            "elements": text,
            "covers": [[text[i], text[j]] for i, j in zip(self._lo.tolist(), self._hi.tolist())],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "Poset":
        """Build from ``{"elements": [...], "covers": [[lower, upper], ...]}``.

        One reader parses the element strings, each distinct sub-label
        once: a leaf or a class of leaves spelled canonically, as
        ``to_json`` writes theta samples, face posets and boolean lattices,
        by one regular-expression match, and every other text by the
        general parser.  It then reads every cover end that is not an
        element string, in document order, so each FormatError comes before
        any structural error.  Cover ends are found by their text; a
        respelling such as ``b*a`` for ``a*b`` is found by its label."""
        if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
            raise FormatError("poset JSON needs 'elements' and 'covers'")
        texts, pairs = obj["elements"], obj["covers"]
        if not isinstance(texts, list) or not isinstance(pairs, list):
            raise FormatError("poset JSON fields have the wrong shape")
        read = reader()
        elements = list(map(read, texts))
        position = dict(zip(texts, range(len(texts))))
        ends = []
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                break
            ends += pair
        # the ends before the first misshapen pair that are no element string
        strays = [end for end in ends if not isinstance(end, str) or end not in position]
        strays = {end: read(end) for end in strays}  # any FormatError, in document order
        if len(ends) < 2 * len(pairs):
            raise FormatError(f"cover pair has the wrong shape: {pairs[len(ends) // 2]!r}")
        order = _key_order(elements)
        at = list(map(position.get, ends))
        if strays:
            index = {e: i for i, e in enumerate(elements)}
            for k, end in enumerate(ends):
                if at[k] is None:
                    label = strays[end]
                    if label not in index:
                        raise ElementNotFoundError(f"unknown element in covers: {label}")
                    at[k] = index[label]
        return cls._from_ends(elements, order, at)

    def to_json(self) -> str:
        return _dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Poset":
        return cls.from_json_dict(_loads(text))

    def to_dot(self) -> str:
        """Graphviz rendering: one node per element, one edge per cover,
        elements rank-aligned by height, the length of the longest chain
        below them (atom-support size on simplicial posets).  Heights come
        from one pass over the covers ordered by the lower-set size of
        their upper end, which reads every cover into an element before any
        cover out of it."""
        heights = [0] * len(self)
        by_top = np.argsort(self._profile().lower[self._hi], kind="stable")
        for i, j in zip(self._lo[by_top].tolist(), self._hi[by_top].tolist()):
            heights[j] = max(heights[j], heights[i] + 1)
        lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=box];"]
        # names may hold a backslash, which would escape the closing quote
        ids = ['"' + str(e).replace("\\", "\\\\") + '"' for e in self.elements]
        by_level = {}
        for e, h in zip(ids, heights):
            by_level.setdefault(h, []).append(f"{e};")
        for _, row in sorted(by_level.items()):
            lines.append("  { rank=same; " + " ".join(row) + " }")
        for i, j in zip(self._lo.tolist(), self._hi.tolist()):
            lines.append(f"  {ids[i]} -> {ids[j]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----- isomorphism ------------------------------------------------------------


# splitmix64: the state increment and the two multipliers of the finalizer
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a fresh ``uint64`` array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _color_hash(colors: np.ndarray) -> np.ndarray:
    """The first splitmix64 draw of each colour taken as a state.  A sum of these (wrapping
    uint64, so independent of summation order) stands for a multiset of
    colours; two multisets whose sums collide only share a class."""
    return _mix(colors.astype(np.uint64) + np.uint64(_GAMMA))


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


class _LabelMap(Mapping):
    """The label map of an index map ``mate`` between two posets, given by
    their label recipes; the labels are read on first lookup."""

    __slots__ = ("_source", "_target", "_mate", "_map")

    def __init__(self, source: _Lazy, target: _Lazy, mate: np.ndarray):
        self._source, self._target, self._mate, self._map = source, target, mate, None

    def _dict(self) -> dict:
        if self._map is None:
            el, to = self._source.get(), self._target.get()
            self._map = {el[i]: to[j] for i, j in enumerate(self._mate.tolist())}
        return self._map

    def __getitem__(self, label):
        return self._dict()[label]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self):
        return self._mate.size


def find_isomorphism(p: Poset, q: Poset):
    """A label map realizing an order isomorphism, or None.  The map is a
    read-only mapping that reads the labels of either poset on first
    lookup, so ``are_isomorphic`` builds none.

    Both posets are coloured jointly by refinement on their cover digraphs,
    seeded with lower-set and upper-set sizes and cover degrees, so a map
    must keep colours and send an element in a class of its own to its
    mate, the element of ``q`` in that class.  At every node one comparison
    of cover keys checks that the covers between such elements map onto
    those of ``q``, and accepts the map once every class is one element of
    each poset.  Otherwise an explicit-stack search individualises one pair
    of the smallest class and refines again (McKay & Piperno 2014); the
    refinement drops a pair that breaks a cover, and the comparison drops
    it where colour hashes collide.  Both posets are guarded at
    ``ISOMORPHISM_MAX`` elements.
    """
    if len(p) > ISOMORPHISM_MAX or len(q) > ISOMORPHISM_MAX:
        raise SizeLimitError(f"isomorphism search is guarded at {ISOMORPHISM_MAX} elements")
    if len(p) != len(q) or p._lo.size != q._lo.size:
        return None
    n = len(p)
    lo, hi = np.concatenate([p._lo, q._lo + n]), np.concatenate([p._hi, q._hi + n])
    seed = (
        np.concatenate([p._profile().lower, q._profile().lower]),
        np.concatenate([p._leq.sum(axis=1, dtype=np.int32), q._leq.sum(axis=1, dtype=np.int32)]),
        np.bincount(hi, minlength=2 * n),
        np.bincount(lo, minlength=2 * n),
    )
    q_key = q._lo * n + q._hi  # ascending, as every poset keeps its covers
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
        single = sizes[colors] == 1
        at_p, at_q = single[p._lo] & single[p._hi], single[n + q._lo] & single[n + q._hi]
        if not np.array_equal(np.sort(mate[p._lo[at_p]] * n + mate[p._hi[at_p]]), q_key[at_q]):
            continue
        if k == n:
            return _LabelMap(p._labels, q._labels, mate)
        cell = int(np.flatnonzero(sizes == sizes[sizes > 1].min())[0])
        v = int(np.flatnonzero(colors[:n] == cell)[0])
        bucket = np.flatnonzero(colors[n:] == cell)
        stack.extend((colors, v, w) for w in bucket[::-1].tolist())
    return None


def are_isomorphic(p: Poset, q: Poset) -> bool:
    return find_isomorphism(p, q) is not None
