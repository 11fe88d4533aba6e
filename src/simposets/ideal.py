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
from itertools import combinations

from .complexes import SimplicialComplex
from .errors import PreconditionError, InvariantError, StructureError
from .poset import Poset


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
    """One generator per unordered incomparable pair of non-bottom elements."""
    if not p.is_simplicial():
        raise PreconditionError("stanley_poset_ideal requires a simplicial poset")
    bot = p.bottom()
    variables = tuple(e for e in p.elements if e != bot)
    index = {e: i for i, e in enumerate(variables)}
    gens = []
    for s, t in combinations(variables, 2):
        if p.leq(s, t) or p.leq(t, s):
            continue
        product = ((index[s], index[t]), 1)
        ubs = p.minimal_upper_bounds(s, t)
        if not ubs:
            gens.append((product,))
            continue
        m = p.meet(s, t)
        meet_part = () if m == bot else (index[m],)
        terms = [product] + [(tuple(sorted((*meet_part, index[z]))), -1) for z in ubs]
        terms.sort(key=lambda term: (-len(term[0]), term[0]))
        gens.append(tuple(terms))
    return IdealPresentation(poset=p, variables=variables, generators=tuple(gens))


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
    subs = [[atom_pos[a] for a in p.atom_support(v).atoms] for v in pres.variables]
    collected = set()
    for terms in pres.generators:
        acc = {}
        for indices, sign in terms:
            image = Monomial(Counter(a for i in indices for a in subs[i]))
            acc[image] = acc.get(image, 0) + sign
        acc = {m: c for m, c in acc.items() if c}
        if len(acc) > 1:
            raise InvariantError("substituted generator is neither zero nor a monomial")
        collected.update(acc)
    minimal = [
        m for m in collected
        if not any(o != m and o.divides(m) for o in collected)
    ]
    minimal.sort(key=lambda m: (m.degree, m.expanded()))
    return MonomialIdeal(variables=universe, generators=tuple(minimal))


def monomial_ideals_equal(i1: MonomialIdeal, i2: MonomialIdeal) -> bool:
    """Mutual divisibility of generating sets over the same variables."""
    if tuple(i1.variables) != tuple(i2.variables):
        raise StructureError("monomial ideals live over different variables")
    return all(any(h.divides(g) for h in i2.generators) for g in i1.generators) and all(
        any(h.divides(g) for h in i1.generators) for g in i2.generators
    )
