"""Brute-force reference implementations used to pin expected values.

Everything here is written for clarity over speed and avoids the code
paths under test: faces by powerset expansion, face posets by containment
of those faces, cliques by subset enumeration, simpliciality by explicit
powerset comparison, covers by a pair loop over leq, quotients by an
explicit pair loop and Warshall's closure, Stanley generators from the
lower and upper sets of each pair, and the reduced ideal of a face poset
by substituting atom supports into those generators.  ``oracle_parse``
reads labels part by part, re-scanning each class,
``oracle_from_json_dict`` reads a poset document one string at a time,
and ``oracle_theta_glue`` glues by labels and face sets: they are the
references for the document parser and the index-array gluing.
``nested_key`` gives a label's place in the canonical order as a nested
tuple, read from its text with no ``Label``: the reference for the flat
``Label.key``; ``nesting_height`` is, read the same way, the reference for
a label's height.  ``oracle_atom_family``,
``oracle_meet_poset`` and ``oracle_reconstruct_theta_pair`` are the
label-based reconstruction the index-array one replaced: maxima sorted
as labels, supports looked up label by label, and the meet poset
restricted to a list of labels.  ``theta_tally`` is the per-sample
count of a theta gluing's elements and face-poset test that the
block-wide tally of ``run_batch`` replaced.
"""

import json
import re
from itertools import chain, combinations

import numpy as np

from simposets import (
    GluingRelation,
    Poset,
    is_antichain_list,
    make_complex,
    quotient_by_gluing,
    separation,
)
from simposets.complexes import _maximal_cliques
from simposets.errors import FormatError, PreconditionError
from simposets.labels import Label


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_faces(facets):
    """Every subset of every facet, as a set of frozensets (incl. empty)."""
    faces = {frozenset()}
    for f in facets:
        for s in powerset(f):
            faces.add(frozenset(s))
    return faces


def oracle_face_poset(c):
    """The face poset of a complex as plain data, with no order kernel:
    ``(labels, leq, covers, text)``.  The faces from ``brute_faces`` are
    labelled and sorted by label key; ``leq`` is frozenset containment;
    ``covers`` are the index pairs of containments with one vertex more,
    in index order; ``text`` is their JSON as ``json.dumps`` writes it."""
    faces = {(Label.atom_set(f) if f else Label.bottom()): f for f in brute_faces(c.facets)}
    labels = sorted(faces, key=lambda e: e.key)
    faces = [faces[e] for e in labels]
    leq = np.array([list(map(f.__le__, faces)) for f in faces], dtype=bool)
    size = np.array([len(f) for f in faces])
    covers = list(zip(*(a.tolist() for a in np.nonzero(leq & (size[:, None] + 1 == size)))))
    text = [str(e) for e in labels]
    doc = {"elements": text, "covers": [[text[i], text[j]] for i, j in covers]}
    return labels, leq, covers, json.dumps(doc, indent=2) + "\n"


def facet_subset(facets, face):
    """Whether the vertex set ``face`` lies inside some facet."""
    return any(frozenset(face) <= frozenset(f) for f in facets)


def brute_minimal_nonfaces(vertices, facets):
    """Inclusion-minimal subsets of the vertex set that are not faces."""
    faces = brute_faces(facets)
    nonfaces = [frozenset(s) for s in powerset(vertices) if frozenset(s) not in faces]
    minimal = [s for s in nonfaces if not any(t < s for t in nonfaces)]
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


def brute_maximal_cliques(vertices, edges):
    """All maximal cliques by checking every vertex subset."""
    edges = {frozenset(e) for e in edges}
    cliques = [
        frozenset(s)
        for s in powerset(vertices)
        if s and all(frozenset((a, b)) in edges for a, b in combinations(s, 2))
    ]
    return {c for c in cliques if not any(c < d for d in cliques)}


def brute_incomparable_pairs(poset):
    """Unordered pairs of distinct non-bottom elements with no order relation."""
    bot = poset.bottom()
    elems = [e for e in poset.elements if e != bot]
    return [
        (a, b)
        for i, a in enumerate(elems)
        for b in elems[i + 1 :]
        if not poset.leq(a, b) and not poset.leq(b, a)
    ]


def upper_set(poset, v):
    """The elements above v, read off leq."""
    return frozenset(w for w in poset.elements if poset.leq(v, w))


def brute_heights(poset):
    """The length of the longest chain below each element, 0 for a minimal
    one: elements by lower-set size, each one more than the highest
    element strictly below it, read off leq rather than the covers."""
    height = {}
    for v in sorted(poset.elements, key=lambda v: len(poset.lower_set(v))):
        height[v] = max((height[u] + 1 for u in poset.lower_set(v) if u != v), default=0)
    return height


def brute_bounds(lower, upper, s, t):
    """The meet and the minimal common upper bounds of s and t, read off
    the lower and upper sets (dicts of frozensets).  The meet is the common
    lower bound whose lower set is all the common lower bounds, or None
    without a common upper bound; the minimal upper bounds are the common
    upper bounds with no other common upper bound below them."""
    common_upper = upper[s] & upper[t]
    ubs = frozenset(z for z in common_upper if lower[z] & common_upper == {z})
    if not ubs:
        return None, ubs
    common_lower = lower[s] & lower[t]
    (m,) = [m for m in common_lower if lower[m] == common_lower]
    return m, ubs


def brute_generators(poset):
    """The Stanley generator records of a simplicial poset, pair by pair.

    A record is ``((variable indices, sign), ...)`` in graded order, over
    the non-bottom elements in canonical order, with each pair's meet and
    minimal upper bounds from ``brute_bounds``.
    """
    bot = poset.bottom()
    index = {e: i for i, e in enumerate(e for e in poset.elements if e != bot)}
    lower = {v: poset.lower_set(v) for v in poset.elements}
    upper = {v: upper_set(poset, v) for v in poset.elements}
    gens = []
    for s, t in brute_incomparable_pairs(poset):
        product = ((index[s], index[t]), 1)
        m, ubs = brute_bounds(lower, upper, s, t)
        if not ubs:
            gens.append((product,))
            continue
        meet_part = () if m == bot else (index[m],)
        terms = [product] + [(tuple(sorted((*meet_part, index[z]))), -1) for z in ubs]
        terms.sort(key=lambda term: (-len(term[0]), term[0]))
        gens.append(tuple(terms))
    return tuple(gens)


def brute_reduced_generators(poset):
    """The reduced face-poset ideal as ``(atom names, exponent rows)``, the
    rows in graded order, from the records of ``brute_generators``.

    Each variable becomes its atom support, an exponent row over the sorted
    atom names; a term's image is the sum of its variables' rows.  Equal
    images within a generator add their signs, the images left nonzero are
    the generator's monomial, and the rows no other row divides are kept.
    """
    bot = poset.bottom()
    atoms = brute_atoms(poset)
    names = sorted(str(a) for a in atoms)
    supports = [{str(a) for a in poset.lower_set(v) & atoms} for v in poset.elements if v != bot]
    rows = [tuple(int(name in support) for name in names) for support in supports]
    images = set()
    for record in brute_generators(poset):
        total = {}
        for variables, sign in record:
            image = tuple(map(sum, zip(*(rows[x] for x in variables))))
            total[image] = total.get(image, 0) + sign
        live = [image for image, coefficient in total.items() if coefficient]
        assert len(live) <= 1, f"generator {record} does not collapse"
        images.update(live)
    minimal = [m for m in images if not any(o != m and all(map(int.__le__, o, m)) for o in images)]
    return tuple(names), sorted(minimal, key=lambda m: (sum(m), [-e for e in m]))


def minimal_elements(poset):
    """The elements whose lower set is themselves alone."""
    return frozenset(v for v in poset.elements if poset.lower_set(v) == {v})


def brute_covers(poset):
    """The pairs x < y with no z strictly between them: a loop over the
    related pairs of leq, keeping those whose interval [x, y] is {x, y}."""
    down = {y: poset.lower_set(y) for y in poset.elements}
    up = {x: set() for x in poset.elements}
    for y, lower in down.items():
        for x in lower:
            up[x].add(y)
    return {(x, y) for y in poset.elements for x in down[y] if x != y and len(up[x] & down[y]) == 2}


def warshall(n, pairs):
    """Reflexive-transitive closure of index pairs on range(n), as a list
    of rows, by Warshall's algorithm."""
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        rel[i][j] = True
    for m in range(n):
        for i in range(n):
            for j in range(n):
                rel[i][j] = rel[i][j] or (rel[i][m] and rel[m][j])
    return rel


def warshall_covers(rel):
    """Index pairs (i, j) with i strictly below j in an order matrix and
    no m strictly between them."""
    k = range(len(rel))
    return {
        (i, j)
        for i in k
        for j in k
        if i != j and rel[i][j] and not any(m not in (i, j) and rel[i][m] and rel[m][j] for m in k)
    }


def brute_atoms(poset):
    """The elements v other than the minimum whose lower set is
    {minimum, v}; the poset must have a unique minimal element."""
    (bot,) = minimal_elements(poset)
    return frozenset(v for v in poset.elements if v != bot and poset.lower_set(v) == {bot, v})


def brute_is_simplicial(poset):
    """Unique minimum, and each lower set order-isomorphic to a powerset
    via the atoms-below map."""
    if len(minimal_elements(poset)) != 1:
        return False
    atoms = brute_atoms(poset)
    for v in poset.elements:
        lower = sorted(poset.lower_set(v), key=lambda e: e.key)
        support = {u: frozenset(poset.lower_set(u) & atoms) for u in lower}
        expected = {frozenset(s) for s in powerset(support[v])}
        if len(set(support.values())) != len(lower):
            return False
        if set(support.values()) != expected:
            return False
        for u in lower:
            for w in lower:
                if poset.leq(u, w) != (support[u] <= support[w]):
                    return False
    return True


def brute_is_face_poset(poset):
    """Simplicial with a globally injective atoms-below map."""
    if not brute_is_simplicial(poset):
        return None
    atoms = brute_atoms(poset)
    supports = [frozenset(poset.lower_set(v) & atoms) for v in poset.elements]
    return len(set(supports)) == len(supports)


def brute_quotient(poset, classes):
    """Quotient by a partition from the definition: class C is below class
    D when some member of C is below some member of D, closed transitively
    by Warshall's algorithm.  Returns the sorted class labels and the set
    of cover pairs, or None when the closure is not antisymmetric."""
    blocks = [frozenset(c) for c in classes]
    k = range(len(blocks))
    pairs = [(i, j) for i in k for j in k if any(poset.leq(v, w) for v in blocks[i] for w in blocks[j])]
    rel = warshall(len(blocks), pairs)
    if any(rel[i][j] and rel[j][i] for i in k for j in k if i != j):
        return None
    labels = [Label.class_of(c) for c in blocks]
    return sorted(labels), {(labels[i], labels[j]) for i, j in warshall_covers(rel)}


def brute_gluing_violations(relation):
    """The two gluing conditions pair by pair, as (condition, elements,
    reason) in the documented order: classes in relation order; inside a
    class the condition (1) failures of the sorted unordered pairs, then
    the condition (2) failures of each ordered pair, by element below."""
    base = relation.base
    atoms = brute_atoms(base)
    rank = {v: len(atoms & base.lower_set(v)) for v in base.elements}
    class_of = {v: c for c in relation.classes for v in c}
    out = []
    for cls in relation.classes:
        members = sorted(cls)
        for a, b in combinations(members, 2):
            if base.leq(a, b) or base.leq(b, a):
                out.append((1, (a, b), "related elements must be incomparable"))
            if rank[a] != rank[b]:
                out.append((1, (a, b), "related elements must have equal rank"))
            if upper_set(base, a) & upper_set(base, b):
                out.append((1, (a, b), "related elements must not share an upper bound"))
        for a in members:
            for b in members:
                if a == b:
                    continue
                reached = {class_of[w] for w in base.lower_set(b)}
                for i in sorted(base.lower_set(a)):
                    if class_of[i] not in reached:
                        out.append((2, (a, b), f"{i} below {a} is related to nothing below {b}"))
    return out


def is_order_isomorphism(p, q, mapping):
    """A bijection of the elements under which a <= b in p iff
    mapping[a] <= mapping[b] in q: each lower set of p maps onto the lower
    set of the image."""
    if set(mapping) != set(p.elements) or set(mapping.values()) != set(q.elements):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    return all({mapping[u] for u in p.lower_set(v)} == q.lower_set(mapping[v]) for v in p.elements)


_COPY_RE = re.compile(r"(\d+)@(.+)", re.DOTALL)


def oracle_parse(text):
    """A label from its text by the grammar read top down: ``0``, then a
    class ``{...}`` split at its top-level commas, then a copy
    ``<digits>@<label>``, then an atom set, each part re-parsed on its
    own, with Python's recursion limit as the nesting limit."""
    try:
        return _oracle_parse(text)
    except RecursionError:
        raise FormatError("label is nested too deeply") from None


def _oracle_parse(text):
    if not isinstance(text, str) or not text:
        raise FormatError(f"cannot parse label from {text!r}")
    if text == "0":
        return Label.bottom()
    if text.startswith("{"):
        return Label.class_of(_oracle_parse(p) for p in _class_parts(text))
    m = _COPY_RE.fullmatch(text)
    if m:
        try:
            index = int(m.group(1))
        except ValueError:  # past Python's limit on digits in an int string
            raise FormatError(f"copy index has too many digits: {len(m.group(1))}") from None
        return Label.copy(index, _oracle_parse(m.group(2)))
    names = tuple(sorted(text.split("*")))
    if len(set(names)) != len(names):
        raise FormatError(f"repeated vertex name in atom-set label: {names}")
    for name in names:
        if not oracle_vertex_name(name):
            raise FormatError(f"invalid vertex name: {name!r}")
    return Label._atoms(names)


def _class_parts(text):
    """The member texts of the class text ``{...}``, split at its
    top-level commas."""
    if not text.endswith("}") or len(text) < 3:
        raise FormatError(f"malformed class label: {text!r}")
    inner = text[1:-1]
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise FormatError(f"unbalanced braces in label: {text!r}")
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    if depth != 0:
        raise FormatError(f"unbalanced braces in label: {text!r}")
    parts.append(inner[start:])
    return parts


def nested_key(text):
    """The nested key of the label written ``text``, which must parse, from
    the text grammar alone: ``(0,)``, ``(1, sorted names)``,
    ``(2, i, nested_key(base))`` and ``(3, sorted member keys)``.  Python's
    tuple order on these is the canonical label order, which the flat
    ``Label.key`` must reproduce."""
    if text == "0":
        return (0,)
    if text.startswith("{"):
        return (3, tuple(sorted(nested_key(p) for p in _class_parts(text))))
    m = _COPY_RE.fullmatch(text)
    if m:
        return (2, int(m.group(1)), nested_key(m.group(2)))
    return (1, tuple(sorted(text.split("*"))))


def nesting_height(text):
    """The braces and copy prefixes nested inside the label written
    ``text``, which must parse, from the text grammar alone: 0 for ``0``
    and an atom set, one more than the base for a copy, and one more than
    the highest member for a class."""
    if text.startswith("{"):
        return 1 + max(nesting_height(p) for p in _class_parts(text))
    m = _COPY_RE.fullmatch(text)
    if m:
        return 1 + nesting_height(m.group(2))
    return 0


def oracle_from_json_dict(obj):
    """A poset from its JSON object: every string through ``oracle_parse``
    in the order a reader meets them (the elements, then each cover pair
    in turn), then ``Poset.from_covers`` on the labels."""
    if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
        raise FormatError("poset JSON needs 'elements' and 'covers'")
    if not isinstance(obj["elements"], list) or not isinstance(obj["covers"], list):
        raise FormatError("poset JSON fields have the wrong shape")
    elements = [oracle_parse(e) for e in obj["elements"]]
    covers = []
    for pair in obj["covers"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FormatError(f"cover pair has the wrong shape: {pair!r}")
        covers.append((oracle_parse(pair[0]), oracle_parse(pair[1])))
    return Poset.from_covers(elements, covers)


def oracle_vertex_name(name):
    """A nonempty string other than ``0`` with no reserved character and
    no whitespace, tested character by character."""
    return (
        isinstance(name, str)
        and bool(name)
        and name != "0"
        and not any(c in '*@{},"' or c.isspace() for c in name)
    )


def oracle_theta_glue(d1, d2):
    """theta_glue by labels: the copies of a face of d1 in its separation
    form one class when the face is a face of d2 extended with d1's
    vertices, listed by ``brute_faces``; the rest stand alone."""
    sep = separation(d1.face_poset())
    d2_vertices = list(d2.vertices) + [v for v in d1.vertices if v not in set(d2.vertices)]
    shared = brute_faces(make_complex(d2_vertices, d2.facets).facets)
    groups, singles = {}, []
    for lab in sep.separated.elements:
        if lab == Label.bottom():
            singles.append(lab)
            continue
        base = str(lab).split("@", 1)[1]  # an atom set: a face of d1
        if frozenset(base.split("*")) in shared:
            groups.setdefault(base, []).append(lab)
        else:
            singles.append(lab)
    classes = [frozenset(v) for v in groups.values()] + [frozenset([s]) for s in singles]
    return quotient_by_gluing(GluingRelation(sep.separated, classes))


def oracle_atom_family(p):
    """Atom supports of the maximal elements, in sorted label order."""
    if not p.is_simplicial():
        raise PreconditionError("atom_family requires a simplicial poset")
    return [p.atom_support(x) for x in sorted(p.maximal_elements())]


def oracle_meet_poset(p):
    """``restrict`` to the labels of the elements below two or more
    maximal elements, or to the bottom alone."""
    if not p.is_simplicial():
        raise PreconditionError("meet_poset requires a simplicial poset")
    maxima = np.flatnonzero(p._leq.sum(axis=1) == 1)
    if maxima.size <= 1:
        return p.restrict([p.bottom()])
    below_two = np.count_nonzero(p._leq[:, maxima], axis=1) >= 2
    return p.restrict([p.elements[i] for i in np.flatnonzero(below_two).tolist()])


def oracle_reconstruct_theta_pair(p):
    """reconstruct_theta_pair by labels: atoms sorted as labels, and d2's
    faces as p's supports of the meet poset's maximal elements."""
    if not p.is_simplicial():
        raise PreconditionError("reconstruct_theta_pair requires a simplicial poset")
    fam = oracle_atom_family(p)
    if not is_antichain_list(fam):
        raise PreconditionError("condition (i) fails: atom family is not an antichain")
    m = oracle_meet_poset(p)
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


def theta_tally(adj1, adj2):
    """``(len(P), P.is_face_poset())`` for ``P = theta_glue`` of the clique
    complexes of the graphs with neighbour bitmasks ``adj1`` and ``adj2``
    on the same vertices; ``P`` has one atom per vertex.  One sample at a
    time, by Bron-Kerbosch and a walk over every face's submasks.

    The faces of d1 are the nonempty submasks of its facets (the maximal
    cliques of the first graph).  A face F is *shared* iff it is a clique
    of the second graph; every singleton is one, which is d2 extended by
    every vertex.  The separation holds one copy of F per facet containing
    F, and ``theta_glue`` merges those copies exactly when F is shared, so

        len(P) = 1 + sum over F of (1 if F is shared else
                                     the number of facets containing F).

    A simplicial poset is a face poset iff no two elements have the same
    atom support.  Two copies of F survive iff F is unshared and lies in
    two facets f, g, so in ``f & g``; the shared faces are closed under
    subsets, so this happens iff some ``f & g`` is unshared (the empty
    intersection counts as shared).
    """

    def shared(face):
        rest = face
        while rest:
            bit = rest & -rest
            rest ^= bit
            if face & ~adj2[bit.bit_length() - 1] & ~bit:
                return False
        return True

    facets = _maximal_cliques(adj1)
    copies = {}
    for f in facets:
        sub = f
        while sub:
            copies[sub] = copies.get(sub, 0) + 1
            sub = (sub - 1) & f
    elements = 1 + sum(1 if k == 1 or shared(face) else k for face, k in copies.items())
    face_poset = all(shared(f & g) for f, g in combinations(facets, 2))
    return elements, face_poset
