"""Defining ideals of simplicial posets.

``stanley_poset_ideal`` presents the face ring of a simplicial poset: one
variable per non-bottom element and one generator per incomparable pair.
A pair with no common upper bound contributes the plain product; otherwise
the product is corrected by the meet times the sum over minimal upper
bounds, with the bottom variable read as 1.  ``_pair_blocks`` alone writes
those terms, a block of pairs at a time, from ``Poset._bounds``, the
kernel that ``Poset.meet`` and ``Poset.minimal_upper_bounds`` run on one
pair.

On a face poset every variable can be replaced by the product of its atoms;
``reduce_face_poset_ideal`` substitutes the presentation's own terms, block
by block, checks each generator collapses to zero or to a single monomial,
and returns the minimal monomial generating set.  For the complex itself,
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
from .poset import Poset, _slices

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
    the generator terms of those with a common upper bound.

    Returns ``(a, b, blocks)``: ``a < b``, the variables of the pairs in
    row-major order, which is the order of ``combinations(variables, 2)``
    (the bottom is comparable to everything, so it is in no pair).
    ``blocks`` yields ``(gen, lo, hi, sign)`` for a block of pairs with a
    common upper bound, a slice (``_slices``) of them, each a row of
    ``leq``: per term, its pair's position in ``a``, its two variables
    (``hi`` -1 for degree 1) and its sign.  A pair's terms are its
    product, then -meet*z for each minimal common upper bound z, or -z when
    the meet is the bottom, which reads as 1.
    """
    leq, prof = p._leq, p._profile()
    n, bot = len(p), p._bottom_index()
    var_of = np.concatenate([np.arange(bot), [-1], np.arange(bot, n - 1)])  # the bottom's is -1
    pi, pj = np.nonzero(np.triu(~(leq | leq.T), 1))
    # a common upper bound iff a common maximal element: one float32 product over the maxima
    f = leq[:, prof.maxima].astype(np.float32)
    with_upper = np.flatnonzero(((f @ f.T) > 0)[pi, pj])
    a, b = var_of[pi], var_of[pj]  # the blocks keep these, not pi and pj
    geq = np.ascontiguousarray(leq.T)

    def blocks():
        for part in _slices(with_upper.size, n):
            gen = with_upper[part]
            x, y = a[gen], b[gen]
            meet, owner, ub = p._bounds(x + (x >= bot), y + (y >= bot), geq)  # elements skip the bottom
            m, z = var_of[meet][owner], var_of[ub]
            lo = np.concatenate([x, np.where(m < 0, z, np.minimum(m, z))])
            hi = np.concatenate([y, np.where(m < 0, -1, np.maximum(m, z))])
            yield np.concatenate([gen, gen[owner]]), lo, hi, np.repeat([1, -1], [gen.size, owner.size])

    return a, b, blocks()


def stanley_poset_ideal(p: Poset) -> IdealPresentation:
    """One generator per unordered incomparable pair of non-bottom elements.

    The pairs and their terms come from ``_pair_blocks``, so no per-pair
    query runs, and every block is consumed here, so a failed meet check
    raises from this call.  The terms are stacked and laid out, in an order
    from one ``np.lexsort``, as the compressed rows of the returned
    generators; the other pairs are their plain products.  No generator
    record is built.
    """
    if not p.is_simplicial():
        raise PreconditionError("stanley_poset_ideal requires a simplicial poset")
    bot, el = p._bottom_index(), p.elements
    a, b, blocks = _pair_blocks(p)
    gen, lo, hi, sign = map(np.concatenate, zip((a[:0],) * 4, *blocks))  # empty first, for no block
    # graded order: degree descending, then lexicographic
    order = np.lexsort((hi, lo, hi < 0, gen))
    # where each generator's terms start, then where the last one's end
    edges = np.concatenate([[-1], gen[order], [a.size]])
    offsets = np.flatnonzero(edges[1:] != edges[:-1])
    generators = _Generators(a, b, edges[offsets[:-1] + 1], offsets, lo[order], hi[order], sign[order])
    return IdealPresentation(variables=el[:bot] + el[bot + 1 :], generators=generators)


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
    the face-poset check.  No generator is built: the image of each term of
    ``_pair_blocks`` is the sum of its variables' atom-support rows.
    """
    if not p.is_face_poset():
        raise PreconditionError("reduce_face_poset_ideal requires a face poset")
    prof = p._profile()
    names = [str(p.elements[a]) for a in prof.atoms.tolist()]
    universe = tuple(sorted(names))
    # the variables' atom supports as exponent rows, then the bottom's zero row for hi = -1
    supp = np.zeros((len(p.elements), len(universe)), dtype=np.int8)
    supp[:-1, [universe.index(name) for name in names]] = np.delete(prof.supp.T, p._bottom_index(), axis=0)
    a, b, blocks = _pair_blocks(p)
    plain = np.ones(a.size, dtype=bool)
    images = []
    for gen, lo, hi, sign in blocks:
        plain[gen] = False
        # the terms' images, summed over equal images within each generator
        image = supp[lo] + supp[hi]
        order, start = _runs(gen, image)
        live = order[start[np.add.reduceat(sign[order], start) != 0]]
        kept = gen[live]  # sorted
        if (kept[1:] == kept[:-1]).any():
            raise InvariantError("substituted generator is neither zero nor a monomial")
        images.append(image[live])
    images.append(supp[a[plain]] + supp[b[plain]])  # a plain product is a monomial
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

    The rows are tested a slice (``_slices``) at a time, each row taking a
    cell of the broadcast temporary per entry of ``by``.
    """
    out = np.zeros(len(rows), dtype=bool)
    for part in _slices(len(rows), by.size):
        out[part] = (by[None, :, :] <= rows[part][:, None, :]).all(axis=2).any(axis=1)
    return out


def monomial_ideals_equal(i1: MonomialIdeal, i2: MonomialIdeal) -> bool:
    """Mutual divisibility of generating sets over the same variables."""
    if tuple(i1.variables) != tuple(i2.variables):
        raise StructureError("monomial ideals live over different variables")
    a, b = (np.array(i.generators, dtype=np.int64).reshape(len(i.generators), len(i.variables)) for i in (i1, i2))
    return bool(_divided(a, b).all() and _divided(b, a).all())
