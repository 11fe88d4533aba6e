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
from itertools import chain

import numpy as np

from .complexes import SimplicialComplex
from .errors import PreconditionError, InvariantError, StructureError
from .poset import Poset

_PAIR_BLOCK = 1024
_DIVIDES_ROWS = 64
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
            pieces = []
            for indices, sign in terms:
                body = "*".join(names[i] for i in indices)
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


def stanley_poset_ideal(p: Poset) -> IdealPresentation:
    """One generator per unordered incomparable pair of non-bottom elements.

    The pairs are processed in blocks of ``_PAIR_BLOCK`` rows of ``leq``:
    minimal common upper bounds and meets come from array operations on the
    block, so no per-pair query runs.  The meet of a pair is its common lower
    bound with the largest lower set, and it is checked to lie above every
    common lower bound, which is what ``Poset.meet`` asserts.
    """
    if not p.is_simplicial():
        raise PreconditionError("stanley_poset_ideal requires a simplicial poset")
    bot = p.bottom()
    variables = tuple(e for e in p.elements if e != bot)
    leq = p._leq
    n = len(p.elements)
    b = p._require(bot)
    # variable index of each element, -1 for the bottom
    var_of = np.arange(n) - (np.arange(n) > b)
    var_of[b] = -1
    # the bottom is comparable to everything, so it is in no pair, and the
    # row-major order of the pairs is the order of combinations(variables, 2)
    pi, pj = np.nonzero(np.triu(~(leq | leq.T), 1))
    geq = np.ascontiguousarray(leq.T)
    strict = (leq & ~np.eye(n, dtype=bool)).astype(np.float32)
    lower_size = leq.sum(axis=0)
    gens = []
    for start in range(0, pi.size, _PAIR_BLOCK):
        i, j = pi[start : start + _PAIR_BLOCK], pj[start : start + _PAIR_BLOCK]
        block = [(((s, t), 1),) for s, t in zip(var_of[i].tolist(), var_of[j].tolist())]
        upper = leq[i] & leq[j]
        rows = np.flatnonzero(upper.any(axis=1))  # the pairs with a common upper bound
        upper, i, j = upper[rows], i[rows], j[rows]
        minimal = upper & ~((upper.astype(np.float32) @ strict) > 0)
        lower = geq[i] & geq[j]
        meet = np.where(lower, lower_size, -1).argmax(axis=1)
        bad = (lower & ~geq[meet]).any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            _raise_no_meet(p, int(i[k]), int(j[k]), lower[k])
        which, cols = np.nonzero(minimal)
        ends = np.cumsum(np.bincount(which, minlength=rows.size)).tolist()
        ubs = var_of[cols].tolist()
        at = 0
        for r, m, end in zip(rows.tolist(), var_of[meet].tolist(), ends):
            product = block[r][0]
            if m < 0:  # the bottom meet reads as 1
                block[r] = (product, *[((z,), -1) for z in ubs[at:end]])
            else:
                terms = [((m, z) if m < z else (z, m), -1) for z in ubs[at:end]]
                terms.append(product)
                terms.sort()  # all of degree 2, and the index pairs are distinct
                block[r] = tuple(terms)
            at = end
        gens.extend(block)
    return IdealPresentation(poset=p, variables=variables, generators=tuple(gens))


def _raise_no_meet(p: Poset, i, j, lower):
    """The error ``Poset.meet`` raises for elements i and j, whose common
    lower bounds ``lower`` have no greatest element."""
    cand = np.flatnonzero(lower)
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
    the face-poset check.
    """
    if not p.is_face_poset():
        raise PreconditionError("reduce_face_poset_ideal requires a face poset")
    pres = stanley_poset_ideal(p)
    atoms = sorted(p.atoms())
    universe = tuple(sorted(str(a) for a in atoms))
    atom_pos = {a: universe.index(str(a)) for a in atoms}
    subs = [[atom_pos[a] for a in p.atom_support(v)] for v in pres.variables]
    collected = set()  # images as expanded monomials: sorted atom positions
    for terms in pres.generators:
        acc = {}
        for indices, sign in terms:
            image = tuple(sorted(a for i in indices for a in subs[i]))
            acc[image] = acc.get(image, 0) + sign
        images = [e for e, c in acc.items() if c]
        if len(images) > 1:
            raise InvariantError("substituted generator is neither zero nor a monomial")
        collected.update(images)
    minimal = sorted(_minimal_monomials(collected, len(universe)), key=lambda e: (len(e), e))
    return MonomialIdeal(variables=universe, generators=tuple(Monomial(Counter(e)) for e in minimal))


def _minimal_monomials(expanded, nvars):
    """The monomials of a set, each given expanded, that no other one divides.

    A monomial with another divisor has a minimal one of lower degree, so
    the set is walked by degree, a block of rows of the exponent matrix at a
    time, and each row is tested against the minimal rows kept so far and
    its own block.
    """
    expanded = sorted(expanded, key=len)
    exps = np.zeros((len(expanded), max(1, nvars)), dtype=np.int32)
    rows = np.repeat(np.arange(len(expanded)), [len(e) for e in expanded])
    np.add.at(exps, (rows, list(chain.from_iterable(expanded))), 1)
    kept = np.zeros(0, dtype=np.intp)
    start = 0
    while start < len(expanded):
        width = (kept.size + _DIVIDES_ROWS) * exps.shape[1]
        step = max(1, min(_DIVIDES_ROWS, _DIVIDES_CELLS // width))
        block = exps[start : start + step]
        cand = np.concatenate([exps[kept], block])
        divisors = (cand[None, :, :] <= block[:, None, :]).all(axis=2).sum(axis=1)
        kept = np.concatenate([kept, np.flatnonzero(divisors == 1) + start])  # only itself
        start += step
    return [expanded[r] for r in kept.tolist()]


def monomial_ideals_equal(i1: MonomialIdeal, i2: MonomialIdeal) -> bool:
    """Mutual divisibility of generating sets over the same variables."""
    if tuple(i1.variables) != tuple(i2.variables):
        raise StructureError("monomial ideals live over different variables")
    return all(any(h.divides(g) for h in i2.generators) for g in i1.generators) and all(
        any(h.divides(g) for h in i1.generators) for g in i2.generators
    )
