"""Defining ideals of simplicial posets.

``stanley_poset_ideal`` presents the face ring of a simplicial poset: one
variable per non-bottom element and one generator per incomparable pair.
A pair with no common upper bound contributes the plain product; otherwise
the product is corrected by the meet times the sum over minimal upper
bounds, with the bottom variable read as 1.  The meets and minimal upper
bounds come a block of pairs at a time from ``Poset._bounds``, the kernel
that ``Poset.meet`` and ``Poset.minimal_upper_bounds`` run on one pair.

On a face poset every variable can be replaced by the product of its atoms;
``reduce_face_poset_ideal`` performs that substitution, checks each
generator collapses to zero or to a single monomial, and returns the
minimal monomial generating set.  For the complex itself,
``stanley_reisner_ideal`` lists the minimal non-faces directly, which gives
an independent route to the same ideal.  Both return a ``MonomialIdeal``,
whose generators are exponent rows, one entry per variable, in graded
order (degree ascending, then lexicographic); one divisibility test on
those rows finds the minimal generators and compares two ideals.

Every poset generator is squarefree with coefficients +1 and -1, with its
terms in graded order (degree descending, then lexicographic).  These
generators are stored as index arrays: the two variables of every pair's
product, and the further terms of the pairs with a common upper bound as
one compressed-row table.  Lines are rendered straight from those arrays; a
record of ``(sorted variable indices, sign)`` terms is built only when a
generator is read.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .complexes import SimplicialComplex
from .errors import PreconditionError, InvariantError, StructureError
from .poset import Poset

_PAIR_BLOCK = 1024
_DIVIDES_CELLS = 1 << 22
_EXPONENT_MAX = int(np.iinfo(np.int64).max)


class _Generators(Sequence):
    """The generators of a Stanley presentation, as read-only index arrays.

    Generator ``k`` starts with the product of variables ``a[k] < b[k]``.
    Only the generators at positions ``rows`` (ascending) have more terms:
    the ``r``-th of them is terms ``offsets[r]:offsets[r + 1]`` of ``lo``,
    ``hi`` and ``sign``, product included, in graded order, with ``hi`` -1
    for a term of degree 1.  Reading a generator builds its record
    ``((variable indices, +1 or -1), ...)``; the sequence compares equal to,
    and hashes like, the tuple of its records.
    """

    __slots__ = ("a", "b", "rows", "offsets", "lo", "hi", "sign")

    def __init__(self, a, b, rows, offsets, lo, hi, sign):
        for name, arr in zip(self.__slots__, (a, b, rows, offsets, lo, hi, sign)):
            arr.setflags(write=False)
            setattr(self, name, arr)

    def __len__(self):
        return self.a.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        k = range(len(self))[k]
        return self._records(k, k + 1)[0]

    def __iter__(self):
        return iter(self._records(0, len(self)))

    def __eq__(self, other):
        if isinstance(other, (tuple, _Generators)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))

    def _records(self, start, stop):
        """The records of generators ``start`` to ``stop - 1``, as a list."""
        gens = list(zip(zip(zip(self.a[start:stop].tolist(), self.b[start:stop].tolist()), repeat(1))))
        first, last = np.searchsorted(self.rows, [start, stop]).tolist()
        bounds = self.offsets[first : last + 1].tolist()
        at, end = bounds[0], bounds[-1]
        terms = [
            ((lo, hi) if hi >= 0 else (lo,), sign)
            for lo, hi, sign in zip(self.lo[at:end].tolist(), self.hi[at:end].tolist(), self.sign[at:end].tolist())
        ]
        for r, s, e in zip(self.rows[first:last].tolist(), bounds, bounds[1:]):
            gens[r - start] = tuple(terms[s - at : e - at])
        return gens


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of the defining ideal, over one variable per element."""

    poset: Poset
    variables: tuple  # non-bottom element labels, canonical order
    generators: _Generators  # per generator: ((variable indices, +1 or -1), ...)

    def render_lines(self):
        g = self.generators
        names = [f"x[{v}]" for v in self.variables]
        heads = [f"{name}*" for name in names]
        lines = [heads[x] + names[y] for x, y in zip(g.a.tolist(), g.b.tolist())]
        # a term is its sign, then its variables: the sign is "-" or nothing
        # on the first term of a line, " - " or " + " after it
        signed = [[sign + name for name in names] for sign in (" + ", " - ", "", "-")]
        tails = [f"*{name}" for name in names] + [""]  # hi = -1 picks ""
        kind = (g.sign < 0).astype(np.intp)
        kind[g.offsets[:-1]] += 2
        pieces = [signed[k][lo] + tails[hi] for k, lo, hi in zip(kind.tolist(), g.lo.tolist(), g.hi.tolist())]
        bounds = g.offsets.tolist()
        for r, s, e in zip(g.rows.tolist(), bounds, bounds[1:]):
            lines[r] = "".join(pieces[s:e])
        return lines


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial generators as exponent rows, one entry per variable, each
    a nonnegative integer within the int64 range."""

    variables: tuple  # variable names, sorted
    generators: tuple  # exponent rows; in graded order when built here

    def __post_init__(self):
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in self.generators)
        except TypeError:
            raise ValueError(f"non-integral exponent in {self.generators!r}") from None
        for row in rows:
            if len(row) != len(self.variables) or min(row, default=0) < 0:
                raise ValueError(f"exponent row {row!r} needs {len(self.variables)} nonnegative entries")
            if max(row, default=0) > _EXPONENT_MAX:  # the rows are compared as int64
                raise ValueError(f"exponent row {row!r} has an entry above {_EXPONENT_MAX}")
        object.__setattr__(self, "generators", rows)

    def render_lines(self):
        names = [f"x[{v}]" for v in self.variables]
        return [
            "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(row) if e) or "1"
            for row in self.generators
        ]


def _pair_blocks(p: Poset):
    """The incomparable pairs of a simplicial poset and, a block at a time,
    the meets and minimal common upper bounds of those with an upper bound.

    Returns ``(pi, pj, blocks)``.  ``pi``, ``pj`` are the pairs in row-major
    order, which is the order of ``combinations(variables, 2)``: the bottom
    is comparable to everything, so it is in no pair.  ``blocks`` yields
    ``(rows, i, j, meet, owner, ub)`` for up to ``_PAIR_BLOCK`` pairs with a
    common upper bound: their positions in ``pi``, their two elements, and
    ``Poset._bounds`` of them: their meets, and one ``(owner, ub)`` entry per
    minimal common upper bound ``ub`` of pair ``owner`` of the block.

    Two elements have a common upper bound iff they have a common maximal
    one.
    """
    leq, prof = p._leq, p._profile()
    pi, pj = np.nonzero(np.triu(~(leq | leq.T), 1))
    # a common maximal element, from one float32 product over the maxima
    f = leq[:, prof.upper == 1].astype(np.float32)
    with_upper = np.flatnonzero(((f @ f.T) > 0)[pi, pj])
    geq = np.ascontiguousarray(leq.T)

    def blocks():
        for start in range(0, with_upper.size, _PAIR_BLOCK):
            rows = with_upper[start : start + _PAIR_BLOCK]
            i, j = pi[rows], pj[rows]
            yield rows, i, j, *p._bounds(i, j, geq)

    return pi, pj, blocks()


def stanley_poset_ideal(p: Poset) -> IdealPresentation:
    """One generator per unordered incomparable pair of non-bottom elements.

    The pairs, meets and minimal common upper bounds come from
    ``_pair_blocks``, so no per-pair query runs, and every block is
    consumed here, so a failed meet check raises from this call.  Every
    pair starts as its plain product; the terms of the pairs with a common
    upper bound are laid out a block at a time, in an order from one
    ``np.lexsort``, as the compressed rows of the returned generators.  No
    generator record is built.
    """
    if not p.is_simplicial():
        raise PreconditionError("stanley_poset_ideal requires a simplicial poset")
    bot = p.bottom()
    variables = tuple(e for e in p.elements if e != bot)
    n = len(p.elements)
    b = p._require(bot)
    # variable index of each element, -1 for the bottom
    var_of = np.arange(n) - (np.arange(n) > b)
    var_of[b] = -1
    pi, pj, blocks = _pair_blocks(p)
    empty = np.zeros(0, dtype=var_of.dtype)
    parts = [(empty,) * 5]
    for block, i, j, meet, owner, ub in blocks:
        # the product, then -meet*z for each bound z, or -z when the meet is
        # the bottom, which reads as 1
        m, z = var_of[meet][owner], var_of[ub]
        at_bot = m < 0
        key = np.concatenate([np.arange(block.size), owner])
        lo = np.concatenate([var_of[i], np.where(at_bot, z, np.minimum(m, z))])
        hi = np.concatenate([var_of[j], np.where(at_bot, -1, np.maximum(m, z))])
        sign = np.repeat([1, -1], [block.size, owner.size])
        # graded order: degree descending, then lexicographic
        order = np.lexsort((hi, lo, hi < 0, key))
        counts = np.bincount(owner, minlength=block.size) + 1
        parts.append((block, counts, lo[order], hi[order], sign[order]))
    rows, counts, lo, hi, sign = (np.concatenate(column) for column in zip(*parts))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    generators = _Generators(var_of[pi], var_of[pj], rows, offsets, lo, hi, sign)
    return IdealPresentation(poset=p, variables=variables, generators=generators)


def stanley_reisner_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Squarefree monomials of the minimal non-faces, one variable per vertex."""
    variables = tuple(sorted(c.vertices))
    nonfaces = [set(nf) for nf in c.minimal_nonfaces()]
    exps = np.array([[v in nf for v in variables] for nf in nonfaces], dtype=np.int8)
    return _graded_ideal(variables, exps.reshape(len(nonfaces), len(variables)))


def reduce_face_poset_ideal(p: Poset) -> MonomialIdeal:
    """Substitute each variable by the product of its atoms and reduce.

    Works on face posets only.  Every generator must collapse to zero or a
    single monomial under the substitution; anything else signals a bug in
    the face-poset check.  The generators are not built: the image of each
    term is an exponent row, the sum of the atom-support rows of its
    variables, computed on the arrays of ``_pair_blocks``.
    """
    if not p.is_face_poset():
        raise PreconditionError("reduce_face_poset_ideal requires a face poset")
    prof = p._profile()
    names = [str(p.elements[a]) for a in prof.atoms.tolist()]
    universe = tuple(sorted(names))
    # the atom support of each element as an exponent row over the universe
    supp = np.zeros((len(p.elements), len(universe)), dtype=np.int8)
    supp[:, [universe.index(name) for name in names]] = prof.supp.T
    pi, pj, blocks = _pair_blocks(p)
    plain = np.ones(pi.size, dtype=bool)
    images = []
    for rows, i, j, meet, owner, ub in blocks:
        plain[rows] = False
        # the product with sign +1 and each meet*z with sign -1, summed over
        # equal images within each generator
        gen = np.concatenate([np.arange(rows.size), owner])
        image = np.concatenate([supp[i] + supp[j], supp[meet[owner]] + supp[ub]])
        sign = np.repeat([1, -1], [rows.size, owner.size])
        order, start = _runs(gen, image)
        live = order[start[np.add.reduceat(sign[order], start) != 0]]
        if (np.bincount(gen[live]) > 1).any():
            raise InvariantError("substituted generator is neither zero nor a monomial")
        images.append(image[live])
    images.append(supp[pi[plain]] + supp[pj[plain]])  # a plain product is a monomial
    exps = np.concatenate(images)
    order, start = _runs(exps.sum(axis=1), exps)
    exps = exps[order[start]]  # distinct, by degree
    return _graded_ideal(universe, exps[_minimal_rows(exps)])


def _graded_ideal(variables, exps) -> MonomialIdeal:
    """The ideal over ``variables`` with the rows of ``exps`` as generators,
    in graded order: degree ascending, then the rows in descending
    lexicographic order, which is the ascending order of the variable
    indices repeated by their exponents."""
    order = np.lexsort((*(-exps.T[::-1]), exps.sum(axis=1)))
    return MonomialIdeal(variables=variables, generators=tuple(map(tuple, exps[order].tolist())))


def _runs(first, rows):
    """The order that sorts by ``first`` and then by the rows of a matrix,
    and the positions in that order where a run of equal pairs starts."""
    order = np.lexsort((*rows.T, first))
    first, rows = first[order], rows[order]
    step = (first[1:] != first[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
    return order, np.flatnonzero(np.concatenate([[first.size > 0], step]))


def _minimal_rows(exps):
    """Indices of the distinct rows of an exponent matrix, sorted by degree,
    that no other row divides.

    A monomial with another divisor has a minimal one of lower degree, and
    distinct monomials of one degree do not divide each other.  So the rows
    of each degree are tested only against the minimal rows kept so far,
    not against each other.
    """
    # the bounds of the runs of equal degree
    cuts = [0, *(np.flatnonzero(np.diff(exps.sum(axis=1))) + 1).tolist(), len(exps)]
    kept = np.zeros(0, dtype=np.intp)
    for start, stop in zip(cuts, cuts[1:]):
        divided = _divided(exps[start:stop], exps[kept])
        kept = np.concatenate([kept, np.flatnonzero(~divided) + start])
    return kept


def _divided(rows, by):
    """For each row of ``rows``, whether some row of ``by`` divides it.

    The rows are tested a block at a time, so each broadcast temporary
    holds at most ``_DIVIDES_CELLS`` cells.
    """
    out = np.zeros(len(rows), dtype=bool)
    step = max(1, _DIVIDES_CELLS // max(1, by.size))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        out[start : start + step] = (by[None, :, :] <= block[:, None, :]).all(axis=2).any(axis=1)
    return out


def monomial_ideals_equal(i1: MonomialIdeal, i2: MonomialIdeal) -> bool:
    """Mutual divisibility of generating sets over the same variables."""
    if tuple(i1.variables) != tuple(i2.variables):
        raise StructureError("monomial ideals live over different variables")
    a, b = (np.array(i.generators, dtype=np.int64).reshape(len(i.generators), len(i.variables)) for i in (i1, i2))
    return bool(_divided(a, b).all() and _divided(b, a).all())
