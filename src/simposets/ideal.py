"""Defining ideals of simplicial posets.

``stanley_poset_ideal`` presents the face ring of a simplicial poset: one
variable per non-bottom element and one generator per incomparable pair.
A pair with no common upper bound contributes the plain product; otherwise
the product is corrected by the meet times the sum over minimal upper
bounds, with the bottom variable read as 1.

On a face poset every variable can be replaced by the product of its atoms;
``reduce_face_poset_ideal`` performs that substitution, checks each
generator collapses to zero or to a single monomial, and returns the
minimal monomial generating set.  For the complex itself,
``stanley_reisner_ideal`` lists the minimal non-faces directly, which gives
an independent route to the same ideal.

Every generator is squarefree with coefficients +1 and -1, so it is kept
as a record of ``(sorted variable indices, sign)`` terms in graded order
(degree descending, then lexicographic) and rendered straight from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .complexes import SimplicialComplex
from .errors import PreconditionError, InvariantError, StructureError
from .poset import Poset

_PAIR_BLOCK = 1024
_DIVIDES_CELLS = 1 << 22


class Monomial:
    """Exponent map over variable indices; immutable and hashable."""

    __slots__ = ("exponents",)

    def __init__(self, exponents=()):
        if isinstance(exponents, dict):
            items = exponents.items()
        else:
            items = exponents
        norm = tuple(sorted((int(i), int(e)) for i, e in items if e))
        for i, e in norm:
            if i < 0 or e < 0:
                raise ValueError(f"bad exponent entry: ({i}, {e})")
        self.exponents = norm

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def expanded(self):
        """Variable indices with multiplicity; the lexicographic sort key."""
        return tuple(i for i, e in self.exponents for _ in range(e))

    def divides(self, other) -> bool:
        theirs = dict(other.exponents)
        return all(theirs.get(i, 0) >= e for i, e in self.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial({dict(self.exponents)!r})"


ONE = Monomial()


def render_monomial(m: Monomial, variable_names) -> str:
    if not m.exponents:
        return "1"
    parts = []
    for i, e in m.exponents:
        base = f"x[{variable_names[i]}]"
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of the defining ideal, over one variable per element."""

    poset: Poset
    variables: tuple  # non-bottom element labels, canonical order
    generators: tuple  # per generator: ((variable indices, +1 or -1), ...)

    def render_lines(self):
        names = [f"x[{v}]" for v in self.variables]
        lines = []
        for terms in self.generators:
            if len(terms) == 1:
                indices, sign = terms[0]
                if sign > 0 and len(indices) == 2:  # a plain product
                    lines.append(names[indices[0]] + "*" + names[indices[1]])
                    continue
            pieces = []
            for indices, sign in terms:
                body = "*".join([names[i] for i in indices])
                if not pieces:
                    pieces.append(body if sign > 0 else "-" + body)
                else:
                    pieces.append((" + " if sign > 0 else " - ") + body)
            lines.append("".join(pieces))
        return lines


@dataclass(frozen=True)
class MonomialIdeal:
    variables: tuple  # variable names, sorted
    generators: tuple

    def render_lines(self):
        return [render_monomial(m, self.variables) for m in self.generators]


def _pair_blocks(p: Poset):
    """The incomparable pairs of a simplicial poset and, a block at a time,
    the meets and minimal common upper bounds of those with an upper bound.

    Returns ``(pi, pj, blocks)``.  ``pi``, ``pj`` are the pairs in row-major
    order, which is the order of ``combinations(variables, 2)``: the bottom
    is comparable to everything, so it is in no pair.  ``blocks`` yields
    ``(rows, i, j, meet, owner, ub)`` for up to ``_PAIR_BLOCK`` pairs with a
    common upper bound: their positions in ``pi``, their two elements and
    their meets, and one ``(owner, ub)`` entry per minimal common upper
    bound ``ub`` of pair ``owner`` of the block, in row-major order.

    Two elements have a common upper bound iff they have a common maximal
    one.  The meet is the common lower bound with the largest lower set, and
    it is checked to lie above every common lower bound, which is what
    ``Poset.meet`` asserts.  Inside each boolean interval [0,z] above both
    elements their join has rank |supp i| + |supp j| - |supp meet|, so the
    minimal common upper bounds are the common upper bounds of that rank.
    """
    leq, prof = p._leq, p._profile()
    n = len(p.elements)
    pi, pj = np.nonzero(np.triu(~(leq | leq.T), 1))
    f = leq[:, prof.upper == 1].astype(np.float32)
    with_upper = np.flatnonzero(((f @ f.T) > 0)[pi, pj])
    del f
    geq = np.ascontiguousarray(leq.T)
    rank = prof.rank  # atoms below

    def blocks():
        for start in range(0, with_upper.size, _PAIR_BLOCK):
            rows = with_upper[start : start + _PAIR_BLOCK]
            i, j = pi[rows], pj[rows]
            # common lower bounds, row by row; the bottom is one of each row
            r, c = np.divmod(np.flatnonzero(geq[i] & geq[j]), n)
            first = np.searchsorted(r, np.arange(rows.size))
            # the largest lower set; a tie means no meet, which the check finds
            meet = np.maximum.reduceat(prof.lower[c] * n + c, first) % n
            bad = ~leq[c, meet[r]]
            if bad.any():
                k = r[np.argmax(bad)]
                _raise_no_meet(p, int(i[k]), int(j[k]))
            owner, ub = np.divmod(np.flatnonzero(leq[i] & leq[j]), n)
            minimal = rank[ub] == (rank[i] + rank[j] - rank[meet])[owner]
            yield rows, i, j, meet, owner[minimal], ub[minimal]

    return pi, pj, blocks()


def stanley_poset_ideal(p: Poset) -> IdealPresentation:
    """One generator per unordered incomparable pair of non-bottom elements.

    The pairs, meets and minimal common upper bounds come from
    ``_pair_blocks``, so no per-pair query runs.  Every pair starts as its
    plain product; the records of the pairs with a common upper bound are
    then rebuilt a block at a time, in an order from one ``np.lexsort``.
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
    gens = list(zip(zip(zip(var_of[pi].tolist(), var_of[pj].tolist()), repeat(1))))
    for rows, i, j, meet, owner, ub in blocks:
        ubs, meets = var_of[ub], var_of[meet]
        counts = np.bincount(owner, minlength=rows.size)
        # a bottom meet reads as 1: the product, then -z for each bound z
        at_bot = meets < 0
        on_bot = at_bot[owner]
        singles = list(zip(zip(ubs[on_bot].tolist()), repeat(-1)))
        at = 0
        for r, end in zip(rows[at_bot].tolist(), np.cumsum(counts[at_bot]).tolist()):
            gens[r] = (gens[r][0], *singles[at:end])
            at = end
        # otherwise the product and each -meet*z: all of degree 2, with
        # distinct index pairs, so in lexicographic order
        own = np.flatnonzero(~at_bot)
        m, z = meets[owner[~on_bot]], ubs[~on_bot]
        key = np.concatenate([owner[~on_bot], own])
        lo = np.concatenate([np.minimum(m, z), var_of[i[own]]])
        hi = np.concatenate([np.maximum(m, z), var_of[j[own]]])
        sign = np.repeat([-1, 1], [m.size, own.size])
        order = np.lexsort((hi, lo, key))
        terms = list(zip(zip(lo[order].tolist(), hi[order].tolist()), sign[order].tolist()))
        at = 0
        for r, end in zip(rows[own].tolist(), np.cumsum(counts[own] + 1).tolist()):
            gens[r] = tuple(terms[at:end])
            at = end
    return IdealPresentation(poset=p, variables=variables, generators=tuple(gens))


def _raise_no_meet(p: Poset, i, j):
    """The error ``Poset.meet`` raises for elements i and j, whose common
    lower bounds have no greatest element."""
    cand = np.flatnonzero(p._leq[:, i] & p._leq[:, j])
    above = p._leq[np.ix_(cand, cand)] & ~np.eye(cand.size, dtype=bool)
    tops = int(np.count_nonzero(~above.any(axis=1)))
    raise InvariantError(
        f"{p.elements[i]} and {p.elements[j]} have {tops} maximal common lower bounds; "
        "poset is not simplicial"
    )


def stanley_reisner_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Squarefree monomials of the minimal non-faces, one variable per vertex."""
    variables = tuple(sorted(c.vertices))
    index = {v: i for i, v in enumerate(variables)}
    gens = [Monomial({index[v]: 1 for v in nf}) for nf in c.minimal_nonfaces()]
    gens.sort(key=lambda m: (m.degree, m.expanded()))
    return MonomialIdeal(variables=variables, generators=tuple(gens))


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
    positions = np.arange(len(universe))
    minimal = [tuple(np.repeat(positions, row).tolist()) for row in exps[_minimal_rows(exps)]]
    minimal.sort(key=lambda e: (len(e), e))
    return MonomialIdeal(variables=universe, generators=tuple(Monomial(Counter(e)) for e in minimal))


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
    of each degree, a block at a time, are tested only against the minimal
    rows kept so far, not against each other.
    """
    degree = exps.sum(axis=1)
    kept = np.zeros(0, dtype=np.intp)
    start = 0
    while start < len(exps):
        step = max(1, _DIVIDES_CELLS // max(1, kept.size * exps.shape[1]))
        stop = min(start + step, int(np.searchsorted(degree, degree[start], side="right")))
        block = exps[start:stop]
        divided = (exps[kept][None, :, :] <= block[:, None, :]).all(axis=2).any(axis=1)
        kept = np.concatenate([kept, np.flatnonzero(~divided) + start])
        start = stop
    return kept


def monomial_ideals_equal(i1: MonomialIdeal, i2: MonomialIdeal) -> bool:
    """Mutual divisibility of generating sets over the same variables."""
    if tuple(i1.variables) != tuple(i2.variables):
        raise StructureError("monomial ideals live over different variables")
    return all(any(h.divides(g) for h in i2.generators) for g in i1.generators) and all(
        any(h.divides(g) for h in i1.generators) for g in i2.generators
    )
