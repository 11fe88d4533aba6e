"""Poset core: construction, order queries, simpliciality, meets,
quotients, serialization, isomorphism."""

import json
import random
import re
import time
import tracemalloc
from collections import Counter
from operator import lt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import simposets.complexes as complexes_module
import simposets.gluing as gluing_module
import simposets.labels as labels_module
import simposets.poset as poset_module
from simposets import (
    ElementNotFoundError,
    FormatError,
    GluingRelation,
    MeetUndefinedError,
    Poset,
    PreconditionError,
    RandomModelParams,
    SizeLimitError,
    SplitMix64,
    StructureError,
    are_isomorphic,
    boolean_lattice,
    clique_complex,
    delta_glue,
    erdos_renyi_graph,
    fiber_relation,
    find_isomorphism,
    make_complex,
    parse_facet_string,
    quotient_by_gluing,
    rand_simplicial_poset,
    reconstruct_theta_pair,
    separation,
    theta_glue,
    validate_gluing,
)
from simposets.labels import ATOMS, BOTTOM, CLASS, COPY, Label, valid_vertex_name

from conftest import random_complex, random_order_over_bottom
from oracles import (
    brute_atoms,
    brute_bounds,
    brute_covers,
    brute_heights,
    brute_is_face_poset,
    brute_is_simplicial,
    brute_quotient,
    is_order_isomorphism,
    minimal_elements,
    nested_key,
    oracle_face_poset,
    oracle_from_json_dict,
    powerset,
    upper_set,
    warshall,
    warshall_covers,
)

L = Label.parse
BOT = Label.bottom()

small_complexes = st.integers(0, 10_000).map(
    lambda s: random_complex(random.Random(s), max_vertices=6, max_facets=4)
)


def chain_poset(names):
    elems = [BOT] + [L(n) for n in names]
    covers = list(zip(elems, elems[1:]))
    return Poset.from_covers(elems, covers)


def poset_over_bottom(lower_covers):
    """Poset from ``{element: elements it covers}``, as label strings; the
    bottom is written ``0``."""
    elems = [BOT] + [L(v) for v in lower_covers]
    covers = [(L(lo), L(hi)) for hi, los in lower_covers.items() for lo in los]
    return Poset.from_covers(elems, covers)


def intervals_have_boolean_size(p):
    return all(len(p.lower_set(v)) == 2 ** len(p.atom_support(v)) for v in p.elements)


# ----- construction ---------------------------------------------------------


def test_from_covers_round_trip():
    p = Poset.from_covers([BOT, L("a"), L("b")], [(BOT, L("a")), (BOT, L("b"))])
    assert len(p) == 3
    assert p.leq(BOT, L("a")) and not p.leq(L("a"), L("b"))
    assert (BOT, L("a")) in p.covers
    # same elements; the covers differ in a lower end, then only in upper ends
    assert p != Poset.from_covers([BOT, L("a"), L("b")], [(BOT, L("a")), (L("a"), L("b"))])
    a, b, c = L("a"), L("b"), L("c")
    q = Poset.from_covers([BOT, a, b, c], [(BOT, a), (a, b), (BOT, c)])
    assert q != Poset.from_covers([BOT, a, b, c], [(BOT, a), (BOT, b), (a, c)])


def test_from_covers_rejects_cycle():
    with pytest.raises(StructureError, match="cycle"):
        Poset.from_covers([L("a"), L("b")], [(L("a"), L("b")), (L("b"), L("a"))])


@pytest.mark.parametrize(
    "elements, covers, message",
    [
        (["0", "a"], [("0", "a")], "poset elements must be Labels"),
        ([BOT, L("a")], [(BOT, BOT, L("a"))], "cover pair has the wrong shape: (Label('0'), Label('0'), Label('a'))"),
        ([BOT, L("a")], [BOT], "cover pair has the wrong shape: Label('0')"),
        ([BOT, L("a")], [(BOT, ["a"])], "cover ends must be Labels"),
        ([BOT, L("a")], [(BOT, "a")], "cover ends must be Labels"),
    ],
)
def test_from_covers_rejects_wrong_types(elements, covers, message):
    """Elements and cover ends that are no Label, and covers that are no
    pair, are malformed input, as in ``from_json_dict``."""
    with pytest.raises(FormatError) as info:
        Poset.from_covers(elements, covers)
    assert str(info.value) == message


B3 = boolean_lattice(3)
# One build per way of making a Poset, with the number of Posets it makes:
# a gluing chains a disjoint union and a quotient, and theta lays its
# union out from the facets, with no face poset and no Poset per facet.
BUILDS = {
    "boolean_lattice": (1, lambda: boolean_lattice(3)),
    "from_covers": (1, lambda: Poset.from_covers(B3.elements, B3.covers)),
    "from_json": (1, lambda: Poset.from_json(B3.to_json())),
    "quotient": (1, lambda: B3.quotient(
        [[L("x1*x2"), L("x1*x3")]] + [[v] for v in B3.elements if v not in (L("x1*x2"), L("x1*x3"))]
    )),
    "quotient_by_array": (1, lambda: B3.quotient(np.array([9, 4, 7, 1, 3, 4, 8, 2]))),
    "restrict": (1, lambda: B3.restrict(B3.lower_set(L("x1*x2")) | B3.lower_set(L("x2*x3")))),
    "face_poset": (1, lambda: parse_facet_string("a*b*c,b*c*d,d*e").face_poset()),
    "separation": (1, lambda: separation(B3).separated),
    "delta_glue": (2, lambda: delta_glue(
        B3, B3, {L("x1*x2"): L("x2*x3")}, {L("x1"): L("x2"), L("x2"): L("x3")}
    )),
    "theta_glue": (2, lambda: theta_glue(
        parse_facet_string("a*b*c*x,a*b*c*y"), parse_facet_string("a*b,b*c,a*c")
    )),
    "fiber_quotient": (2, lambda: quotient_by_gluing(fiber_relation(separation(B3)))),
}


def test_each_matrix_is_checked_for_antisymmetry_once(monkeypatch):
    """Each distinct order matrix a constructor builds is checked for
    antisymmetry once: by the Kahn levels of ``_dag``, which reach every
    element only when the pairs have no cycle (a face poset or boolean
    lattice calls it from ``complexes``), by the ascending members of a
    disjoint union, by the doubling of ``_simplex_order`` inside the
    facet layout (``_facet_copies``), whose matrices a theta gluing's
    separation copies below one bottom, or, for a gluing quotient, by the
    gluing conditions that ``gluing._validate`` checks before the
    quotient reads its order off the rows it built.  ``restrict`` makes no check: its matrix is
    a principal submatrix of its parent's on ascending indices,
    antisymmetric as the parent's is.  Every Poset is built through
    ``Poset.__init__``."""
    calls, built = [], []
    checks = (
        (poset_module, "_dag"),
        (complexes_module, "_dag"),
        (gluing_module, "_ascending"),
        (gluing_module, "_facet_copies"),
        (gluing_module, "_validate"),
    )
    for module, name in checks:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(1) or real(*a))
    init = Poset.__init__

    def counted(self, labels, leq, lo, hi):
        built.append(leq)  # kept referenced, so no two matrices share an id
        init(self, labels, leq, lo, hi)

    monkeypatch.setattr(Poset, "__init__", counted)
    for name, (expected, build) in BUILDS.items():
        calls.clear()
        built.clear()
        build()
        assert len(built) == expected, name
        assert len(calls) == len({id(leq) for leq in built}) - (name == "restrict"), name


@pytest.mark.parametrize("name", BUILDS)
def test_covers_are_the_reduction_in_key_order(name):
    p = BUILDS[name][1]()
    covers = brute_covers(p)
    assert p.covers == covers
    by_key = sorted(covers, key=lambda c: (c[0].key, c[1].key))
    assert p.to_json_dict()["covers"] == [[str(lo), str(hi)] for lo, hi in by_key]
    q = Poset.from_json(p.to_json())
    assert p == q and hash(p) == hash(q)


def test_maxima_are_the_elements_with_an_upper_set_of_one():
    """The profile's maxima, the elements no cover leaves, are those whose
    row of ``leq`` holds only themselves."""
    posets = [build() for _, build in BUILDS.values()]
    posets += [
        rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=p1 * 0.6, seed=seed))
        for n in range(4, 11)
        for p1, seed in ((0.5, n), (0.9, 50 + n), (1.0, 0))
    ]
    for p in posets:
        assert np.array_equal(p._profile().maxima, np.flatnonzero(p._leq.sum(axis=1) == 1))


def key_sorted(p, rng):
    """p rebuilt by ``Poset.from_covers`` from its labels and covers, each
    listed in a random order, so that the key sort alone decides the
    element order."""
    elements, covers = list(p.elements), list(p.covers)
    rng.shuffle(elements)
    rng.shuffle(covers)
    return Poset.from_covers(elements, covers)


def test_index_built_posets_equal_a_key_sort_of_their_labels():
    """The constructors that skip the key sort (separations, quotients,
    gluings) place every element where the key sort of its label would."""
    rng = random.Random(7)
    posets = [build() for _, build in BUILDS.values()]
    for n, p1, seed in ((10, 0.85, 3), (9, 1.0, 0), (8, 0.6, 5)):
        q = rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=p1 * 0.9, seed=seed))
        sep = separation(q).separated
        posets += [q, sep, quotient_by_gluing(fiber_relation(separation(q))), delta_glue(q, q, {}, {})]
    for p in posets:
        again = key_sorted(p, rng)
        assert again == p
        assert np.array_equal(again._leq, p._leq)


@pytest.mark.parametrize(
    "pairs, message",
    [
        (["aa"], "covers must be transitively reduced cover pairs"),
        (["ab", "ba"], "covers contain a cycle"),
        (["ab", "bc", "ca"], "covers contain a cycle"),
        (["ab", "bc", "ac"], "covers must be transitively reduced cover pairs"),
        (["aa", "bc", "cb"], "covers contain a cycle"),
    ],
    ids=["self-pair", "2-cycle", "3-cycle", "redundant", "self-pair-and-cycle"],
)
def test_from_covers_error_messages_are_pinned(pairs, message):
    # the CLI prints these messages
    with pytest.raises(StructureError) as info:
        Poset.from_covers([L("a"), L("b"), L("c")], [(L(x), L(y)) for x, y in pairs])
    assert type(info.value) is StructureError
    assert str(info.value) == message


relations = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
        st.booleans(),
    )
)


def kahn_levels(n, pairs):
    """Each element's Kahn level from the top, by relaxation over acyclic
    pairs: 0 when no pair leads up from it, else one more than the highest
    level of the upper ends of its pairs."""
    level = [0] * n
    for _ in range(n):
        for i, j in pairs:
            level[i] = max(level[i], level[j] + 1)
    return level


def assert_dag_matches_warshall(n, pairs):
    """``_dag`` on acyclic pairs with no self-pair against Warshall's
    algorithm: the closure, and the covers as the pairs it leaves
    unmarked by its redundancy pass."""
    lo, hi = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    leq, lo, hi, redundant = poset_module._dag(n, lo, hi)
    closure = warshall(n, pairs)
    assert leq.tolist() == closure
    assert set(zip(lo[~redundant].tolist(), hi[~redundant].tolist())) == warshall_covers(closure)


# the face order of the non-pure complex a*b*c, c*d: its cover c < c*d
# joins Kahn levels two apart and is no redundant pair
NON_PURE = [frozenset(f) for f in ("", "a", "b", "c", "d", "ab", "ac", "bc", "cd", "abc")]
NON_PURE_COVERS = [
    (i, j) for i, f in enumerate(NON_PURE) for j, g in enumerate(NON_PURE) if f < g and len(g) == len(f) + 1
]


@settings(max_examples=200, deadline=None)
@given(relations, st.randoms(use_true_random=False))
# the redundant pair (0, 3) joins levels three apart beside the cover (0, 4)
# two apart; (0, 4) and (1, 4) join levels four and three apart
@example((5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 3)], False), random.Random(0))
@example((6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4), (5, 2), (0, 5)], False), random.Random(0))
@example((len(NON_PURE), NON_PURE_COVERS, False), random.Random(0))
def test_from_covers_and_restrict_match_warshall(case, rng):
    """Random relations, cycles and self-pairs included, against Warshall's
    closure and the covers by definition: the order, the covers, and the
    error type and message, and on acyclic relations also the closure and
    redundant pairs of ``_dag``.  When ``reduced`` is drawn and the relation
    has no cycle, the input is the covers of its closure, so accepted
    posets are drawn too.  A random induced subposet of each accepted one
    checks ``restrict`` on its down-closure; the raw subset is rejected
    when it is not closed downward."""
    n, pairs, reduced = case
    labels = [L(f"v{i}") for i in range(n)]
    closure = warshall(n, pairs)
    cyclic = any(closure[i][j] and closure[j][i] for i in range(n) for j in range(n) if i != j)
    expected_covers = warshall_covers(closure)
    if not cyclic:
        assert_dag_matches_warshall(n, [(i, j) for i, j in pairs if i != j])
    if reduced and not cyclic:
        pairs = sorted(expected_covers)
    if cyclic:
        expected = "covers contain a cycle"
    elif set(pairs) != expected_covers:
        expected = "covers must be transitively reduced cover pairs"
    else:
        expected = None
    try:
        p = Poset.from_covers(labels, [(labels[i], labels[j]) for i, j in pairs])
    except StructureError as err:
        assert type(err) is StructureError
        assert str(err) == expected
        return
    assert expected is None
    assert all(p.leq(labels[i], labels[j]) == closure[i][j] for i in range(n) for j in range(n))
    assert p.covers == {(labels[i], labels[j]) for i, j in expected_covers} == brute_covers(p)

    drawn = [i for i in range(n) if rng.random() < 0.6] or [rng.randrange(n)]
    idx = [i for i in range(n) if any(closure[i][j] for j in drawn)]
    if idx != drawn:
        with pytest.raises(StructureError, match="order ideal"):
            p.restrict([labels[i] for i in drawn])
    r = p.restrict([labels[i] for i in idx])
    sub = [[closure[i][j] for j in idx] for i in idx]
    assert r.elements == tuple(sorted(labels[i] for i in idx))
    assert all(r.leq(labels[i], labels[j]) == closure[i][j] for i in idx for j in idx)
    assert r.covers == {(labels[idx[a]], labels[idx[b]]) for a, b in warshall_covers(sub)}
    assert r.covers == brute_covers(r)


def wide_relation(n, rng):
    """Labels in a random canonical order, and acyclic pairs on range(n)
    that cross 64-bit words: a chain through a third of the elements,
    random pairs forward in a hidden topological order, and five elements
    left isolated.  Returns (labels, pairs, chain)."""
    labels = [L(f"v{k}") for k in rng.sample(range(n), n)]
    order = rng.sample(range(n), n)
    live = order[5:]
    chain = live[: n // 3]
    pairs = list(zip(chain, chain[1:]))
    for _ in range(2 * n):
        i, j = sorted(rng.sample(range(len(live)), 2))
        pairs.append((live[i], live[j]))
    return labels, pairs, chain


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_from_covers_matches_warshall_past_one_word(n):
    """Orders wider than one 64-bit word against Warshall's closure: the
    covers with repeated pairs are accepted, with the closure and covers of
    Warshall's algorithm; the generating pairs, with redundant pairs three
    or more Kahn levels apart, are rejected, and ``_dag`` marks exactly
    those; and one pair back along the middle of the chain makes a cycle,
    with acyclic elements above and below it.  All of it at the default
    block budget and at one receiving row a block."""
    rng = random.Random(n)
    labels, pairs, chain = wide_relation(n, rng)
    closure = warshall(n, pairs)
    covers = sorted(warshall_covers(closure))
    given = covers + rng.sample(covers, 10)
    rng.shuffle(given)
    assert sum(sum(closure[i]) == 1 == sum(row[i] for row in closure) for i in range(n)) >= 5  # isolated
    assert set(pairs) != set(covers)
    level = kahn_levels(n, pairs)
    assert max(level[i] - level[j] for i, j in set(pairs) - set(covers)) >= 3
    mid = len(chain) // 2
    back = covers + [(chain[mid + 2], chain[mid])]
    cyclic = warshall(n, back)
    assert cyclic[chain[mid]][chain[mid + 2]] and cyclic[chain[mid + 2]][chain[mid]]
    for cells in (poset_module._BLOCK_CELLS, 1):  # the default budget, and one receiving row a block
        with mock.patch.object(poset_module, "_BLOCK_CELLS", cells):
            p = Poset.from_covers(labels, [(labels[i], labels[j]) for i, j in given])
            assert all(p.leq(labels[i], labels[j]) == closure[i][j] for i in range(n) for j in range(n))
            assert p.covers == {(labels[i], labels[j]) for i, j in covers}
            assert_dag_matches_warshall(n, pairs)
            with pytest.raises(StructureError, match="^covers must be transitively reduced cover pairs$"):
                Poset.from_covers(labels, [(labels[i], labels[j]) for i, j in pairs])
            with pytest.raises(StructureError, match="^covers contain a cycle$"):
                Poset.from_covers(labels, [(labels[i], labels[j]) for i, j in back])


def test_from_covers_closes_a_300_element_chain():
    """300 levels, one element each, in a random canonical order, with
    every cover given twice: i <= j exactly when i comes first in the
    chain."""
    rng = random.Random(300)
    labels = [L(f"v{k}") for k in rng.sample(range(300), 300)]
    covers = [(labels[i], labels[i + 1]) for i in range(299)]
    p = Poset.from_covers(labels, covers + covers[::-1])
    position = np.array([labels.index(e) for e in p.elements])
    assert np.array_equal(p._leq, position[:, None] <= position[None, :])
    assert p.covers == set(covers)
    with pytest.raises(StructureError, match="^covers must be transitively reduced cover pairs$"):
        Poset.from_covers(labels, covers + [(labels[0], labels[299])])
    with pytest.raises(StructureError, match="^covers contain a cycle$"):
        Poset.from_covers(labels, covers + [(labels[299], labels[0])])


def test_from_covers_rejects_redundant_pairs():
    elems = [BOT, L("a"), L("b")]
    covers = [(BOT, L("a")), (L("a"), L("b")), (BOT, L("b"))]
    with pytest.raises(StructureError, match="reduced"):
        Poset.from_covers(elems, covers)


def test_from_covers_rejects_unknown_and_duplicate_elements():
    with pytest.raises(ElementNotFoundError):
        Poset.from_covers([BOT], [(BOT, L("a"))])
    with pytest.raises(StructureError, match="unique"):
        Poset.from_covers([BOT, BOT], [])
    with pytest.raises(StructureError, match="at least one"):
        Poset.from_covers([], [])


def test_elements_are_canonically_sorted():
    p = Poset.from_covers([L("b"), L("a"), BOT], [(BOT, L("a")), (BOT, L("b"))])
    assert [str(e) for e in p.elements] == ["0", "a", "b"]


# ----- boolean lattices -----------------------------------------------------


def test_boolean_lattice_4():
    b = boolean_lattice(4)
    assert len(b) == 16
    assert len(b.atoms()) == 4
    assert len(b.maximal_elements()) == 1
    assert b.is_simplicial()
    assert b.is_face_poset()


def test_boolean_lattice_0_is_a_point():
    b = boolean_lattice(0)
    assert len(b) == 1 and b.bottom() in b


def test_boolean_lattice_guards():
    for n in (-1, True, False, 2.0, "2"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            boolean_lattice(n)
    for n in (16, 21):
        with pytest.raises(SizeLimitError, match="guarded at 15 vertices"):
            boolean_lattice(n)


@pytest.mark.parametrize("k", range(11))
def test_boolean_lattice_is_the_face_poset_of_the_simplex(k):
    """The lattice equals the oracle face poset of the simplex on x1..xk:
    labels (x10 sorts before x2), order matrix, covers and JSON."""
    names = [f"x{i}" for i in range(1, k + 1)]
    b = boolean_lattice(k)
    labels, leq, covers, text = oracle_face_poset(make_complex(names, [names]))
    assert b.elements == tuple(labels)
    assert np.array_equal(b._leq, leq)
    assert list(zip(b._lo.tolist(), b._hi.tolist())) == covers
    assert b.to_json() == text


def test_boolean_lattice_matches_subset_order():
    b = boolean_lattice(3)
    x1, x12, x123 = L("x1"), L("x1*x2"), L("x1*x2*x3")
    assert b.leq(x1, x12) and b.leq(x12, x123) and not b.leq(x12, L("x1*x3"))


# ----- order queries --------------------------------------------------------


def test_lower_and_upper_sets():
    b = boolean_lattice(3)
    assert b.lower_set(L("x1*x2")) == {BOT, L("x1"), L("x2"), L("x1*x2")}
    assert upper_set(b, L("x1*x2")) == {L("x1*x2"), L("x1*x2*x3")}
    assert b.lower_set(L("x1*x2*x3")) == set(b.elements)


def test_maximal_and_minimal():
    b = boolean_lattice(2)
    assert b.maximal_elements() == {L("x1*x2")}
    assert minimal_elements(b) == {BOT}
    assert b.bottom() == BOT


# Readers that need the unique minimum.  On the poset below, c has a
# two-element lower set, so a reader that skipped the check would take it
# for an atom and answer without complaint.
NEEDS_BOTTOM = {
    "bottom": lambda p: p.bottom(),
    "atoms": lambda p: p.atoms(),
    "atom_support": lambda p: p.atom_support(L("c")),
    "validate_gluing": lambda p: validate_gluing(GluingRelation(base=p, classes=[[v] for v in p.elements])),
}


@pytest.mark.parametrize("reader", NEEDS_BOTTOM)
def test_bottom_requires_unique_minimum(reader):
    a, b, c, d = L("a"), L("b"), L("c"), L("d")
    p = Poset.from_covers([a, b, c, d], [(a, c), (a, d), (b, d)])
    with pytest.raises(StructureError, match="unique minimal"):
        NEEDS_BOTTOM[reader](p)


def test_missing_element_lookups():
    b = boolean_lattice(2)
    with pytest.raises(ElementNotFoundError):
        b.lower_set(L("zz"))
    with pytest.raises(ElementNotFoundError):
        b.leq(L("zz"), L("x1"))


def test_atom_support():
    b = boolean_lattice(3)
    assert b.atom_support(L("x1*x3")) == {L("x1"), L("x3")}
    assert b.atom_support(BOT) == frozenset()


# ----- simpliciality --------------------------------------------------------


def test_three_atoms_under_one_top_is_not_simplicial():
    top = L("t")
    elems = [BOT, L("a"), L("b"), L("c"), top]
    covers = [(BOT, L(v)) for v in "abc"] + [(L(v), top) for v in "abc"]
    p = Poset.from_covers(elems, covers)
    assert not intervals_have_boolean_size(p)  # |[0,t]| = 5, not 8
    assert not p.is_simplicial()
    assert brute_is_simplicial(p) is False
    with pytest.raises(PreconditionError):
        p.is_face_poset()


def test_no_unique_minimum_is_not_simplicial():
    p = Poset.from_covers([L("a"), L("b"), L("c")], [(L("a"), L("c")), (L("b"), L("c"))])
    assert not p.is_simplicial()


def test_doubled_edge_is_simplicial_but_not_face_poset(two_points_two_edges):
    p = two_points_two_edges
    assert p.is_simplicial()
    assert not p.is_face_poset()
    assert brute_is_simplicial(p) and brute_is_face_poset(p) is False


@settings(max_examples=60, deadline=None)
@given(small_complexes)
def test_is_simplicial_matches_oracle_on_face_posets(c):
    p = c.face_poset()
    assert p.is_simplicial() == brute_is_simplicial(p) is True
    assert p.is_face_poset() == brute_is_face_poset(p) is True


@settings(max_examples=30, deadline=None)
@given(small_complexes, st.randoms(use_true_random=False))
def test_is_simplicial_matches_oracle_on_mutilated_posets(c, rng):
    # dropping a random non-bottom element usually breaks boolean intervals
    p = c.face_poset()
    victim = rng.choice([e for e in p.elements if e != BOT])
    kept = [e for e in p.elements if e != victim]
    induced = warshall_covers([[p.leq(a, b) for b in kept] for a in kept])
    q = Poset.from_covers(kept, [(kept[a], kept[b]) for a, b in induced])
    assert q.is_simplicial() == brute_is_simplicial(q)


def test_equal_supports_under_a_common_top_are_not_simplicial():
    # ab1 and ab2 both sit over a and b; every interval still has 2^rank
    # elements, so only the support check can reject this poset
    p = poset_over_bottom({
        "a": ["0"], "b": ["0"], "c": ["0"],
        "ab1": ["a", "b"], "ab2": ["a", "b"], "ac": ["a", "c"],
        "t": ["ab1", "ab2", "ac"],
    })
    assert intervals_have_boolean_size(p)
    assert p.atom_support(L("ab1")) == p.atom_support(L("ab2"))
    assert not p.is_simplicial()
    assert brute_is_simplicial(p) is False


def test_missing_relation_under_support_inclusion_is_not_simplicial():
    # wx1 and wx2 both sit over w and x; each rank-3 element takes one of
    # them, so supp wx1 lies inside supp wxy2 while wx1 is not below wxy2,
    # and u is a common upper bound
    p = poset_over_bottom({
        "w": ["0"], "x": ["0"], "y": ["0"], "z": ["0"],
        "wx1": ["w", "x"], "wx2": ["w", "x"], "wy": ["w", "y"],
        "wz": ["w", "z"], "xy": ["x", "y"], "xz": ["x", "z"],
        "wxy1": ["wx1", "wy", "xy"], "wxy2": ["wx2", "wy", "xy"],
        "wxz1": ["wx1", "wz", "xz"], "wxz2": ["wx2", "wz", "xz"],
        "u": ["wxy1", "wxy2", "wxz1", "wxz2"],
    })
    assert intervals_have_boolean_size(p)
    assert p.atom_support(L("wx1")) < p.atom_support(L("wxy2"))
    assert not p.leq(L("wx1"), L("wxy2"))
    assert not p.is_simplicial()
    assert brute_is_simplicial(p) is False


def test_simplicial_and_face_checks_match_oracle_on_random_orders():
    """Random small orders over a bottom, about half of them simplicial;
    ``_compute_simplicial`` runs without the cached answer."""
    rng = random.Random(15)
    seen = {True: 0, False: 0}
    for _ in range(400):
        p = random_order_over_bottom(rng, rng.randint(1, 7))
        simplicial = brute_is_simplicial(p)
        assert p._compute_simplicial() == simplicial
        with mock.patch.object(poset_module, "_BLOCK_CELLS", 1):  # one maximal element per block
            assert p._compute_simplicial() == simplicial
        if simplicial:
            assert p.is_face_poset() == brute_is_face_poset(p)
        seen[simplicial] += 1
    assert min(seen.values()) > 100


def test_equal_supports_count_only_under_one_maximal_element():
    """ab1 and ab2 have the same support and every interval has 2^rank
    elements.  Under one top t the poset is not simplicial; split between
    two tops, each over one of them, it is, but it is not a face poset."""
    edges = {
        "a": ["0"], "b": ["0"], "c": ["0"],
        "ab1": ["a", "b"], "ab2": ["a", "b"], "ac": ["a", "c"], "bc": ["b", "c"],
    }
    one_top = poset_over_bottom({**edges, "t": ["ab1", "ab2", "ac"]})
    two_tops = poset_over_bottom({**edges, "t1": ["ab1", "ac", "bc"], "t2": ["ab2", "ac", "bc"]})
    for p in (one_top, two_tops):
        assert intervals_have_boolean_size(p)
        assert p.atom_support(L("ab1")) == p.atom_support(L("ab2"))
    assert not one_top._compute_simplicial()
    assert brute_is_simplicial(one_top) is False
    assert two_tops._compute_simplicial() and brute_is_simplicial(two_tops)
    assert not two_tops.is_face_poset()
    assert brute_is_face_poset(two_tops) is False


def test_simplicial_checks_on_a_4096_element_lattice_stay_small():
    """No n x n temporary: with the profile built, both checks on the
    boolean lattice of rank 12 trace well under the 16 MB of one bool
    n x n matrix."""
    p = boolean_lattice(12)
    p._profile()
    tracemalloc.start()
    try:
        assert p.is_simplicial() and p.is_face_poset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("k", [64, 70])
def test_wide_posets_are_checked(k):
    atoms = {f"v{i}": ["0"] for i in range(k)}
    flat = poset_over_bottom(atoms)
    assert flat.is_simplicial()
    assert brute_is_simplicial(flat) is True
    # [0,t] would need 2^k elements; the oracle cannot enumerate them
    capped = poset_over_bottom({**atoms, "t": list(atoms)})
    assert not capped.is_simplicial()


def test_interval_of_a_wrapped_power_of_two_is_not_simplicial():
    # t has 71 atoms and 128 elements below it; a 64-bit shift that takes
    # its count mod 64 would compute 2^71 as 2^7 = 128 and accept t
    atoms = [f"v{i}" for i in range(71)]
    edges = {f"e{i}": [atoms[i], atoms[i + 1]] for i in range(55)}
    p = poset_over_bottom({**{v: ["0"] for v in atoms}, **edges, "t": list(edges) + atoms[56:]})
    assert len(p.lower_set(L("t"))) == 128
    assert len(p.atom_support(L("t"))) == 71
    assert not p.is_simplicial()


def random_pair_merge(seed):
    """A random-model sample and a partition of it that merges a few
    random pairs of non-bottom elements."""
    rng = random.Random(seed)
    n, p1 = rng.randint(2, 6), rng.choice([0.4, 0.7, 1.0])
    p = rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=rng.random(), seed=seed))
    rest = list(p.elements[1:])
    rng.shuffle(rest)
    merged = [rest[2 * i : 2 * i + 2] for i in range(rng.randint(1, min(3, len(rest) // 2)))]
    used = {v for pair in merged for v in pair}
    return p, merged + [[v] for v in p.elements if v not in used]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_is_simplicial_matches_oracle_on_random_quotients(seed):
    """Merging a few random pairs of a random-model sample gives simplicial
    and non-simplicial posets alike (about one in seven of the quotients
    that stay partial orders is simplicial)."""
    p, classes = random_pair_merge(seed)
    try:
        q = p.quotient(classes)
    except StructureError:
        return
    assert q.is_simplicial() == brute_is_simplicial(q)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_quotient_matches_oracle_on_random_partitions(seed):
    """Elements, covers, and the rejection of a relation whose closure is
    not antisymmetric, against the pair-loop quotient."""
    p, classes = random_pair_merge(seed)
    expected = brute_quotient(p, classes)
    try:
        q = p.quotient(classes)
    except StructureError as err:
        assert str(err) == "quotient is not a partial order"
        assert expected is None
        return
    assert expected == (list(q.elements), set(q.covers))


def rewire_under_rank3_top(p, rng):
    """Move one atom cover of a rank-2 element w that lies below a maximal
    rank-3 element u and below nothing else: supp w becomes the other atom
    pair of supp u, which another element below u already has.  Every
    interval keeps 2^rank elements.  None when p has no such (u, w)."""
    supp = {v: p.atom_support(v) for v in p.elements}
    pairs = [
        (u, w)
        for u in sorted(p.maximal_elements())
        if len(supp[u]) == 3
        for w in sorted(p.lower_set(u))
        if len(supp[w]) == 2 and upper_set(p, w) == {w, u}
    ]
    if not pairs:
        return None
    u, w = rng.choice(pairs)
    dropped = rng.choice(sorted(supp[w]))
    (added,) = supp[u] - supp[w]
    covers = [c for c in p.covers if c != (dropped, w)] + [(added, w)]
    return Poset.from_covers(p.elements, covers)


def test_rewired_random_samples_are_not_simplicial():
    """Random-model samples made non-simplicial in a way only check (3) of
    ``is_simplicial`` sees: two elements below a common top share a support."""
    qualified = 0
    for seed in range(40):
        rng = random.Random(seed)
        n, p1 = rng.randint(3, 7), rng.choice([0.5, 0.7, 0.9])
        p = rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=p1, seed=seed))
        q = rewire_under_rank3_top(p, rng)
        if q is None:
            continue
        qualified += 1
        assert intervals_have_boolean_size(q)
        assert not q.is_simplicial()
        assert brute_is_simplicial(q) is False
    assert qualified >= 10


# ----- meets and bounds -----------------------------------------------------


def test_minimal_upper_bounds_in_boolean_lattice():
    b = boolean_lattice(3)
    assert b.minimal_upper_bounds(L("x1"), L("x2")) == {L("x1*x2")}
    assert b.minimal_upper_bounds(L("x1"), L("x1*x2")) == {L("x1*x2")}


def test_minimal_upper_bounds_empty_when_unbounded(two_points_two_edges):
    assert two_points_two_edges.minimal_upper_bounds(L("l1"), L("l2")) == frozenset()


def test_minimal_upper_bounds_can_be_doubled(two_points_two_edges):
    p = two_points_two_edges
    assert p.minimal_upper_bounds(L("x"), L("y")) == {L("l1"), L("l2")}


def test_meet_in_boolean_lattice():
    b = boolean_lattice(4)
    assert b.meet(L("x1*x2"), L("x2*x3")) == L("x2")
    assert b.meet(L("x1"), L("x2")) == BOT
    assert b.meet(L("x1"), L("x1*x2")) == L("x1")


def test_meet_undefined_without_common_upper_bound():
    p = Poset.from_covers(
        [BOT, L("a"), L("b")], [(BOT, L("a")), (BOT, L("b"))]
    )
    with pytest.raises(MeetUndefinedError):
        p.meet(L("a"), L("b"))


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_meet_on_face_posets_is_support_intersection(c):
    p = c.face_poset()
    elems = list(p.elements)
    for s in elems:
        for t in elems:
            common = [u for u in elems if p.leq(s, u) and p.leq(t, u)]
            if not common:
                continue
            m = p.meet(s, t)
            expected = p.atom_support(s) & p.atom_support(t)
            assert p.atom_support(m) == expected


def test_meet_and_minimal_upper_bounds_match_the_oracle_on_every_pair(
    two_points_two_edges, four_triangles_two_shared_edges
):
    """Every ordered pair, comparable pairs and pairs with no common upper
    bound included, on simplicial posets that are not face posets: theta
    samples with doubled faces and the two doubled-edge fixtures."""
    samples = [rand_simplicial_poset(RandomModelParams(n=6, p1=0.7, p2=0.3, seed=seed)) for seed in (0, 1, 8)]
    posets = [two_points_two_edges, four_triangles_two_shared_edges, *samples]
    unbounded = 0
    for p in posets:
        assert p.is_simplicial() and not p.is_face_poset()
        lower = {v: p.lower_set(v) for v in p.elements}
        upper = {v: upper_set(p, v) for v in p.elements}
        for s in p.elements:
            for t in p.elements:
                meet, ubs = brute_bounds(lower, upper, s, t)
                assert p.minimal_upper_bounds(s, t) == ubs, (s, t)
                if meet is None:
                    unbounded += 1
                    with pytest.raises(MeetUndefinedError, match="no common upper bound"):
                        p.meet(s, t)
                else:
                    assert p.meet(s, t) == meet, (s, t)
    assert unbounded > 100


def test_meet_and_minimal_upper_bounds_need_a_simplicial_poset():
    # two elements over two minima: no unique minimum
    p = Poset.from_covers([L("a"), L("b"), L("c")], [(L("a"), L("c")), (L("b"), L("c"))])
    with pytest.raises(PreconditionError, match="meet requires a simplicial poset"):
        p.meet(L("a"), L("b"))
    with pytest.raises(PreconditionError, match="minimal_upper_bounds requires a simplicial poset"):
        p.minimal_upper_bounds(L("a"), L("b"))


# ----- quotients and restriction --------------------------------------------


def test_quotient_merges_elements():
    p = Poset.from_covers(
        [BOT, L("a"), L("b")], [(BOT, L("a")), (BOT, L("b"))]
    )
    q = p.quotient([[BOT], [L("a"), L("b")]])
    assert len(q) == 2
    assert str(sorted(q.elements)[1]) == "{a,b}"


def test_quotient_requires_partition():
    p = chain_poset(["a", "b"])
    with pytest.raises(StructureError, match="partition"):
        p.quotient([[BOT], [L("a")]])
    with pytest.raises(StructureError, match="partition"):
        p.quotient([[BOT, L("a")], [L("a"), L("b")]])
    with pytest.raises(StructureError, match="^classes must partition the elements$"):
        p.quotient([[BOT], [L("a")], [L("zz")]])  # as many members as elements


def test_quotient_rejects_a_class_array_that_is_not_integer():
    p = chain_poset(["a", "b"])
    nan = float("nan")
    for classes in (
        np.array([nan, nan, nan]),  # nan != nan: would give three classes
        np.array([0.0, 0.0, 1.0]),
        np.array(["x", "x", "y"]),
        np.array([0, 0, None], dtype=object),
        np.array([True, True, False]),
    ):
        with pytest.raises(StructureError, match="integers"):
            p.quotient(classes)
    assert len(p.quotient(np.array([0, 1, 1], dtype=np.uint8))) == 2


def test_quotient_rejects_order_collapse():
    # merging the endpoints of a 3-chain pinches the middle into a cycle
    p = chain_poset(["a", "b"])
    with pytest.raises(StructureError, match="not a partial order"):
        p.quotient([[BOT, L("b")], [L("a")]])


def test_quotient_matches_oracle_past_one_word():
    """More than 64 classes: merging pairs of equal-rank elements of the
    boolean lattice on 7 atoms keeps a partial order on 124 classes, and
    merging an atom with a rank-3 element above it pinches a cycle."""
    b = boolean_lattice(7)
    rng = random.Random(7)
    merged = [rng.sample([e for e in b.elements if len(b.atom_support(e)) == r], 2) for r in (2, 3, 4, 5)]
    pinched = [[L("x1"), L("x1*x2*x3")], [L("x2"), L("x4")]]
    for pairs in (merged, pinched):
        used = {v for pair in pairs for v in pair}
        classes = pairs + [[v] for v in b.elements if v not in used]
        assert len(classes) > 64
        expected = brute_quotient(b, classes)
        try:
            q = b.quotient(classes)
        except StructureError as err:
            assert str(err) == "quotient is not a partial order"
            assert expected is None and pairs is pinched
            continue
        assert pairs is merged
        assert expected == (list(q.elements), set(q.covers))


def test_restrict_keeps_induced_order():
    b = boolean_lattice(3)
    ideal = [BOT, L("x1"), L("x2"), L("x3"), L("x1*x2")]
    r = b.restrict(ideal)
    assert r.elements == tuple(sorted(ideal))
    assert r.leq(L("x1"), L("x1*x2")) and not r.leq(L("x3"), L("x1*x2"))
    assert r.covers == {(BOT, L("x1")), (BOT, L("x2")), (BOT, L("x3")), (L("x1"), L("x1*x2")), (L("x2"), L("x1*x2"))}


def test_restrict_rejects_a_subset_that_is_not_closed_downward():
    b = boolean_lattice(3)
    for subset in ([BOT, L("x1"), L("x1*x2*x3")], [L("x1")], [BOT, L("x1"), L("x1*x2")]):
        with pytest.raises(StructureError, match="order ideal"):
            b.restrict(subset)
    with pytest.raises(StructureError, match="at least one element"):
        b.restrict([])


def test_restrict_on_a_mask_matches_restrict_on_labels():
    """Random order ideals, the down-closures of random subsets, of theta
    samples and face posets: the mask and its labels give the same poset."""
    rng = random.Random(5)
    posets = [random_complex(rng).face_poset() for _ in range(15)]
    posets += [rand_simplicial_poset(RandomModelParams(n=8, p1=0.8, p2=0.6, seed=s)) for s in range(8)]
    for p in posets:
        for _ in range(4):
            drawn = [i for i in range(len(p)) if rng.random() < 0.2] or [rng.randrange(len(p))]
            inside = p._leq[:, drawn].any(axis=1)
            by_mask = p.restrict(inside)
            by_labels = p.restrict([p.elements[i] for i in np.flatnonzero(inside).tolist()])
            assert by_mask == by_labels
            assert by_mask.to_json() == by_labels.to_json()


def test_restrict_rejects_a_bad_mask():
    b = boolean_lattice(3)
    n = len(b)
    ideal = b._leq[:, b._require(L("x1*x2"))].copy()
    assert b.restrict(ideal).elements == (BOT, L("x1"), L("x1*x2"), L("x2"))
    for bad in (ideal[:-1], ideal[:, None], np.append(ideal, False), ideal.astype(np.int8), ideal.astype(np.intp)):
        with pytest.raises(StructureError, match="one bool per element"):
            b.restrict(bad)
    not_closed = ideal.copy()
    not_closed[b._require(L("x1"))] = False
    with pytest.raises(StructureError, match="order ideal"):
        b.restrict(not_closed)
    with pytest.raises(StructureError, match="at least one element"):
        b.restrict(np.zeros(n, dtype=bool))


# ----- serialization --------------------------------------------------------


def test_json_round_trip_boolean():
    b = boolean_lattice(3)
    assert Poset.from_json(b.to_json()) == b


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_json_round_trip_face_posets(c):
    p = c.face_poset()
    q = Poset.from_json(p.to_json())
    assert q == p
    assert q.to_json() == p.to_json()


@pytest.mark.parametrize(
    "obj",
    [
        {"elements": ["0", ["a"]], "covers": [["0", "a"]]},
        {"elements": ["0", "a"], "covers": [["0", ["a"]]]},
        {"elements": ["0", "a"], "covers": [[None, "a"]]},
        {"elements": ["0", 7], "covers": [["0", 7]]},
    ],
    ids=["list-element", "list-in-cover", "null-in-cover", "int-label"],
)
def test_from_json_rejects_labels_that_are_not_strings(obj):
    with pytest.raises(FormatError):
        Poset.from_json_dict(obj)


def test_from_json_deeply_nested_is_format_error():
    with pytest.raises(FormatError, match="JSON is nested too deeply"):
        Poset.from_json("[" * 100_000 + "]" * 100_000)


def test_from_json_reads_each_spelling_of_a_label():
    # "a*b" and "b*a" spell the same atom-set label
    p = Poset.from_json_dict({
        "elements": ["0", "b*a", "a", "b"],
        "covers": [["0", "a"], ["0", "b"], ["a", "a*b"], ["b", "b*a"]],
    })
    assert p == poset_over_bottom({"a": ["0"], "b": ["0"], "a*b": ["a", "b"]})


unicode_or_surrogate = st.characters(exclude_characters='*@{},"') | st.characters(
    min_codepoint=0xD800, max_codepoint=0xDFFF
)
vertex_names = st.text(unicode_or_surrogate, min_size=1, max_size=3).filter(valid_vertex_name)


@st.composite
def complexes_with_any_names(draw):
    """Complexes on vertex names from all of Unicode, lone surrogates included."""
    names = draw(st.lists(vertex_names, unique=True, max_size=6))
    facets = draw(st.lists(st.lists(st.sampled_from(names), min_size=1, max_size=3), max_size=4)) if names else []
    return make_complex(names, facets)


@settings(max_examples=60, deadline=None)
@given(complexes_with_any_names())
def test_to_json_writes_what_json_dumps_writes(c):
    """The JSON text is built from the C string encoder, byte for byte the
    text of ``json.dumps(..., indent=2)``: complexes, face posets, their
    separations (copy labels) and fiber quotients (class labels), and the
    empty lists of the one-element poset and the empty complex."""
    p = c.face_poset()
    written = [c, p, separation(p).separated, quotient_by_gluing(fiber_relation(separation(p)))]
    written += [boolean_lattice(0), make_complex([], [])]
    for obj in written:
        assert obj.to_json() == json.dumps(obj.to_json_dict(), indent=2) + "\n"
    assert written[-2].to_json().endswith('"covers": []\n}\n')
    assert written[-1].to_json() == '{\n  "vertices": [],\n  "facets": []\n}\n'


def respell(key):
    """Another text of the label with the nested key ``key``: names and
    members in reverse, and copy indices with a leading zero."""
    if key[0] == ATOMS:
        return "*".join(reversed(key[1]))
    if key[0] == COPY:
        return f"0{key[1]}@{respell(key[2])}"
    if key[0] == CLASS:
        return "{" + ",".join(respell(m) for m in reversed(key[1])) + "}"
    return "0"


def _loaded(load, obj):
    try:
        out = load(obj)
    except (FormatError, StructureError, ElementNotFoundError) as exc:
        return type(exc).__name__, str(exc)
    return "poset", out.to_json() if isinstance(out, Poset) else str(out)


def _edit(rng, text):
    """``text`` with one to three characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        ch = rng.choice("{},@*0123v \u0663\t\"")
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + ch + text[at:]
        elif text:
            text = text[:at] + (ch if edit == 2 else "") + text[at + 1 :]
    return text


def _mutate(rng, els, covs):
    """One random edit of a poset document's element and cover lists."""
    labels = {}
    for e in els + [x for c in covs if isinstance(c, list) for x in c]:
        if isinstance(e, str) and e not in labels and _loaded(Label.parse, e)[0] == "poset":
            labels[e] = nested_key(e)
    known = lambda x: isinstance(x, str) and x in labels  # noqa: E731
    strings = [e for e in els if known(e)] or ["0"]
    k = rng.randrange(len(els)) if els else 0
    c = rng.randrange(len(covs)) if covs else 0
    side = rng.randrange(2)
    cover = covs[c] if covs and isinstance(covs[c], list) and len(covs[c]) == 2 else None
    kind = rng.randrange(14)
    if kind == 0 and els:  # a dropped element
        del els[k]
    elif kind == 1 and els:  # a duplicated element
        els.insert(rng.randint(0, len(els)), els[k])
    elif kind == 2 and els and known(els[k]):  # a respelled element
        els[k] = respell(labels[els[k]])
    elif kind == 3:  # two spellings of one label among the elements
        e = rng.choice(strings)
        els.insert(rng.randint(0, len(els)), respell(labels.get(e, (BOTTOM,))))
    elif kind == 4 and cover and known(cover[side]):  # a respelled cover end
        cover[side] = respell(labels[cover[side]])
    elif kind == 5 and cover and isinstance(cover[side], str):  # a broken label in a cover
        cover[side] = _edit(rng, cover[side])
    elif kind == 6 and els and isinstance(els[k], str):  # a broken element
        els[k] = _edit(rng, els[k])
    elif kind == 7:  # an entry that is not a string
        other = rng.choice([7, None, ["0"], 2.5, {"a": "v1"}, True])
        if cover and rng.randrange(2):
            cover[side] = other
        elif els:
            els[k] = other
    elif kind == 8 and covs:  # a cover pair of the wrong shape
        e = rng.choice(strings)
        covs[c] = rng.choice([[e], [e, e, e], e, None, [], {"0": e}, (e, e)])
    elif kind in (9, 10):  # an unknown end before or after a broken label
        unknown = rng.choice(["zz", "v1*zz", "{9@zz}", "0@0"])
        bad = _edit(rng, rng.choice(strings))
        at = sorted(rng.randint(0, len(covs)) for _ in range(2))
        first, second = ([rng.choice(strings), unknown], [bad, "0"])[:: 1 if kind == 9 else -1]
        covs.insert(at[1], second)
        covs.insert(at[0], first)
    elif kind == 11 and cover:  # a reversed pair: a cycle
        covs.append(cover[::-1])
    elif kind == 12 and cover:  # a pair with an element between its ends
        above = [d for d in covs if isinstance(d, list) and d[:1] == cover[1:2]]
        if above:
            covs.insert(rng.randint(0, len(covs)), [cover[0], rng.choice(above)[1]])
    elif kind == 13:  # the same document in another order
        rng.shuffle(els)
        rng.shuffle(covs)


def test_from_json_matches_the_oracle_on_mutated_documents():
    """Whole documents, mutated, load to the same poset or fail with the
    same exception type and message as the string-at-a-time reference."""
    small = [rand_simplicial_poset(RandomModelParams(n=n, p1=p, p2=p, seed=s))
             for n, p, s in ((5, 0.7, 1), (6, 0.6, 2), (6, 0.8, 4), (7, 0.5, 3))]
    docs = [q.to_json_dict() for q in small]
    docs.append(quotient_by_gluing(fiber_relation(separation(small[0]))).to_json_dict())
    docs.append(parse_facet_string("a*b*c,b*c*d,d*e").face_poset().to_json_dict())
    docs.append(boolean_lattice(0).to_json_dict())
    rng = random.Random(20261019)
    seen = {}
    for _ in range(600):
        doc = rng.choice(docs)
        els, covs = list(doc["elements"]), [list(c) for c in doc["covers"]]
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, els, covs)
        obj = {"elements": els, "covers": covs}
        outcome = _loaded(Poset.from_json_dict, obj)
        assert outcome == _loaded(oracle_from_json_dict, obj), obj
        if outcome[0] == "poset":  # the flat keys put the elements in nested-key order
            keys = [nested_key(str(e)) for e in Poset.from_json_dict(obj).elements]
            assert all(map(lt, keys, keys[1:])), obj
        seen[outcome[0]] = seen.get(outcome[0], 0) + 1
    assert min(seen.values()) > 40 and len(seen) == 4, seen


@pytest.mark.parametrize(
    "covers, error",
    [
        ([["0", "zz"], ["0", "{"]], "FormatError: malformed class label: '{'"),
        ([["0", "{"], ["0", "zz"]], "FormatError: malformed class label: '{'"),
        ([["0", "zz"], ["0"]], "FormatError: cover pair has the wrong shape: ['0']"),
        ([["0", "a"], ["{", "0"], "0"], "FormatError: malformed class label: '{'"),
        ([["0", "b*a"]], "ElementNotFoundError: unknown element in covers: a*b"),
        ([["0", "zz"], ["0", "b*a"]], "ElementNotFoundError: unknown element in covers: zz"),
        ([["0", "a"], ["0", 7]], "FormatError: cannot parse label from 7"),
        ([["0", "a"], ["0", None]], "FormatError: cannot parse label from None"),
        ([["0", "a"], ["0", ["a"]]], "FormatError: cannot parse label from ['a']"),
        # covers whose items are all element strings, in pairs of the wrong shape
        ([["0", "a"], "0a"], "FormatError: cover pair has the wrong shape: '0a'"),
        ([["0", "a"], {"0": 1, "a": 2}], "FormatError: cover pair has the wrong shape: {'0': 1, 'a': 2}"),
        ([["0", "a", "a"], ["0"]], "FormatError: cover pair has the wrong shape: ['0', 'a', 'a']"),
        ([["0", "a"], 7], "FormatError: cover pair has the wrong shape: 7"),
    ],
)
def test_from_json_errors_come_in_document_order(covers, error):
    """Format errors, in document order, come before any unknown element;
    an unknown element is named by its canonical text."""
    obj = {"elements": ["0", "a"], "covers": covers}
    with pytest.raises((FormatError, ElementNotFoundError)) as info:
        Poset.from_json_dict(obj)
    assert f"{type(info.value).__name__}: {info.value}" == error
    assert _loaded(oracle_from_json_dict, obj) == tuple(error.split(": ", 1))


LATTICE = ["0", "a", "b", "a*b"]


@pytest.mark.parametrize(
    "elements, covers",
    [
        (LATTICE, [("0", "a"), ("0", "b"), ("a", "a*b"), ("b", "a*b")]),  # tuple pairs
        (LATTICE, [["0", "a"], ["0", "b"], ["a", "b*a"], ["b", "a*b"]]),  # a respelled end
        (["0"], []),
        (["0", "a"], []),
        ([], []),
    ],
)
def test_from_json_loads_covers_off_the_written_shape_as_the_oracle_does(elements, covers):
    """Tuple pairs, a respelled end and an empty cover list, which
    ``to_json`` never writes: each loads, or fails, as the reference
    does."""
    obj = {"elements": elements, "covers": covers}
    assert _loaded(Poset.from_json_dict, obj) == _loaded(oracle_from_json_dict, obj)


def test_the_documents_the_library_writes_take_the_shallow_path():
    """Theta samples, face posets and boolean lattices have only leaves and
    classes of leaves as labels, so loading them calls ``_parse`` on no
    text; a separation or a gluing quotient holds nested labels, which
    still go through it, and ``_parse`` hands every flat class inside
    them to the shallow reader."""
    theta = [rand_simplicial_poset(RandomModelParams(n=10, p1=p, p2=p, seed=s)) for p, s in ((0.8, 3), (0.85, 5))]
    face = clique_complex(erdos_renyi_graph(9, 0.6, SplitMix64(2))).face_poset()
    nested = [separation(theta[0]).separated, quotient_by_gluing(fiber_relation(separation(theta[0])))]
    parse = labels_module._parse
    with mock.patch.object(labels_module, "_parse", side_effect=parse) as spy:
        for q in [*theta, face, boolean_lattice(3)]:
            assert Poset.from_json(q.to_json()) == q
        assert spy.call_count == 0
        for q in nested:
            assert Poset.from_json(q.to_json()) == q
        assert spy.call_count > 0
    flat = {c for e in nested[0].elements for c in re.findall(r"\{[^{}]*\}", str(e))}
    with mock.patch.object(labels_module, "_shallow", side_effect=labels_module._shallow) as spy:
        assert Poset.from_json(nested[0].to_json()) == nested[0]
    assert flat and flat <= {call.args[1] for call in spy.call_args_list}


def test_a_nested_element_text_is_offered_to_the_shallow_reader_once():
    """``_read`` offers each element text of a separation to ``_shallow``,
    which declines the nested ones; ``_parse`` then reads them from their
    copy prefix on, without offering the whole text again."""
    sep = separation(rand_simplicial_poset(RandomModelParams(n=10, p1=0.8, p2=0.8, seed=3))).separated
    with mock.patch.object(labels_module, "_shallow", side_effect=labels_module._shallow) as spy:
        assert Poset.from_json(sep.to_json()) == sep
    offered = Counter(call.args[1] for call in spy.call_args_list)
    texts = [str(e) for e in sep.elements[1:]]  # the bottom, "0", is remembered from the start
    assert len(texts) == 350
    assert {offered[t] for t in texts} == {1}


def test_to_dot_mentions_every_element_and_cover():
    b = boolean_lattice(2)
    dot = b.to_dot()
    assert dot.startswith("digraph poset {")
    for e in b.elements:
        assert f'"{e}"' in dot
    assert '"x1" -> "x1*x2";' in dot


def test_to_dot_quotes_every_id_whole():
    """A vertex name may hold a backslash; each one is escaped, so every
    quoted ID ends at its own closing quote and distinct labels keep
    distinct IDs once DOT reads the escapes back."""
    names = ["a\\", "b", "\\", "a\\\\", "c\\d"]
    p = make_complex(names, [names[:2], names[1:]]).face_poset()
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    nodes = []
    for line in p.to_dot().splitlines()[3:-1]:
        assert re.fullmatch(r"  \{ rank=same;( ID;)+ \}|  ID -> ID;", quoted.sub("ID", line)), line
        if "rank=same" in line:
            nodes += [re.sub(r"\\(.)", r"\1", t[1:-1]) for t in quoted.findall(line)]
    assert sorted(nodes) == sorted(map(str, p.elements))
    assert len(set(nodes)) == len(p)


def dot_rank_groups(p):
    """The ``rank=same`` groups of ``to_dot``, in order, as lists of label
    strings; no test label here holds a quote or a backslash."""
    lines = [line for line in p.to_dot().splitlines() if "rank=same" in line]
    return [re.findall(r'"([^"]*)";', line) for line in lines]


def brute_rank_groups(p):
    """The elements grouped by ``brute_heights``, lowest first, each group
    in element order."""
    height = brute_heights(p)
    return [[str(e) for e in p.elements if height[e] == h] for h in range(max(height.values()) + 1)]


@pytest.mark.parametrize(
    "covers",
    [
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)],
        [(0, 2), (1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (0, 6)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (5, 4), (6, 7), (7, 8), (5, 8)],
    ],
    ids=["unequal-chains", "two-minima", "two-components"],
)
def test_to_dot_ranks_by_longest_chain_on_non_graded_posets(covers):
    """Named upwards, index order is a linear extension; named downwards,
    every cover runs from a later index to an earlier one."""
    used = sorted({i for pair in covers for i in pair})
    for names in (range(9), range(8, -1, -1)):
        e = [L(f"e{i}") for i in names]
        p = Poset.from_covers([e[i] for i in used], [(e[i], e[j]) for i, j in covers])
        height = brute_heights(p)
        assert any(height[b] > height[a] + 1 for a, b in p.covers)  # not graded
        assert dot_rank_groups(p) == brute_rank_groups(p)


@pytest.mark.parametrize("seed", range(4))
def test_to_dot_ranks_by_longest_chain_on_theta_samples(seed):
    p = rand_simplicial_poset(RandomModelParams(n=6, p1=0.7, p2=0.7, seed=seed))
    for q in (p, separation(p).separated):
        assert dot_rank_groups(q) == brute_rank_groups(q)


# ----- isomorphism ----------------------------------------------------------


def test_isomorphism_ignores_labels():
    b = boolean_lattice(2)
    p = Poset.from_covers(
        [BOT, L("p"), L("q"), L("pq")],
        [(BOT, L("p")), (BOT, L("q")), (L("p"), L("pq")), (L("q"), L("pq"))],
    )
    mapping = find_isomorphism(b, p)
    assert mapping is not None
    assert mapping[BOT] == BOT
    assert {str(v) for v in mapping.values()} == {"0", "p", "q", "pq"}


def test_isomorphism_distinguishes_shapes():
    chain = chain_poset(["a", "b", "c"])
    fork = Poset.from_covers(
        [BOT, L("a"), L("b"), L("c")],
        [(BOT, L("a")), (L("a"), L("b")), (L("a"), L("c"))],
    )
    assert not are_isomorphic(chain, fork)
    assert find_isomorphism(chain, fork) is None
    # element counts differ, then only cover counts: two against one
    assert find_isomorphism(chain, chain_poset(["a", "b", "c", "d"])) is None
    vee = Poset.from_covers([BOT, L("a"), L("b")], [(BOT, L("a")), (BOT, L("b"))])
    assert find_isomorphism(vee, Poset.from_covers([BOT, L("a"), L("b")], [(BOT, L("a"))])) is None


def test_a_poset_iterates_and_shows_itself():
    vee = Poset.from_covers([L("b"), BOT, L("a")], [(BOT, L("a")), (BOT, L("b"))])
    assert list(vee) == [BOT, L("a"), L("b")]
    assert repr(vee) == "Poset(3 elements, 2 covers)"


def test_isomorphism_rejects_regular_but_different_orders():
    # both bipartite 4+4 orders are 2-regular in every degree statistic,
    # but one cover graph is an 8-cycle and the other two 4-cycles
    a = [L(f"a{i}") for i in range(4)]
    b = [L(f"b{i}") for i in range(4)]
    ring = Poset.from_covers(
        a + b, [(a[i], b[i]) for i in range(4)] + [(a[i], b[(i + 1) % 4]) for i in range(4)]
    )
    pairs = Poset.from_covers(
        a + b,
        [(a[i], b[j]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))],
    )
    assert not are_isomorphic(ring, pairs)


def test_isomorphism_size_guard():
    big = boolean_lattice(10)
    with pytest.raises(SizeLimitError):
        find_isomorphism(big, big)


@settings(max_examples=30, deadline=None)
@given(small_complexes, st.randoms(use_true_random=False))
def test_relabeled_posets_are_isomorphic(c, rng):
    p = c.face_poset()
    fresh = [f"w{i}" for i in range(len(c.vertices))]
    rng.shuffle(fresh)
    rename = dict(zip(c.vertices, fresh))

    def relabel(lab):
        if lab == BOT:
            return BOT
        return Label.atom_set([rename[n] for n in lab.names])

    q = Poset.from_covers(
        [relabel(e) for e in p.elements],
        [(relabel(a), relabel(b)) for a, b in p.covers],
    )
    assert are_isomorphic(p, q)


@settings(max_examples=25, deadline=None)
@given(small_complexes)
def test_isomorphism_maps_covers_to_covers(c):
    p = c.face_poset()
    mapping = find_isomorphism(p, p)
    assert mapping is not None
    for lo, hi in p.covers:
        assert (mapping[lo], mapping[hi]) in p.covers


def shuffled_copy(p, rng):
    """p with its elements renamed u0, u1, ... in random order, so that the
    canonical element order of the copy is a random permutation of p's."""
    names = [L(f"u{i}") for i in range(len(p))]
    rng.shuffle(names)
    rename = dict(zip(p.elements, names))
    return Poset.from_covers(names, [(rename[a], rename[b]) for a, b in p.covers])


def cycle_complex(k, first=0):
    """The k-cycle graph as a 1-dimensional complex on the vertices
    v{first}, ..., v{first + k - 1}."""
    vs = [f"v{i}" for i in range(first, first + k)]
    return make_complex(vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)])


@pytest.fixture
def refinements(monkeypatch):
    """Counts the colour refinements for the rest of the test.  A search
    refines once for its first colouring and once per individualised pair."""
    calls = [0]
    refine = poset_module._refine

    def counted(*args):
        calls[0] += 1
        return refine(*args)

    monkeypatch.setattr(poset_module, "_refine", counted)
    return calls


@pytest.fixture(scope="module")
def n11_sample():
    p = rand_simplicial_poset(RandomModelParams(n=11, p1=0.9, p2=0.9, seed=2))
    assert len(p) == 1034
    return p


def test_isomorphism_search_needs_no_recursion(monkeypatch, n11_sample):
    # a search that recursed once per element overflowed Python's default
    # recursion limit on this 1034-element sample
    monkeypatch.setattr(poset_module, "ISOMORPHISM_MAX", 2000)
    p = n11_sample
    back = quotient_by_gluing(fiber_relation(separation(p)))
    mapping = find_isomorphism(back, p)
    assert mapping is not None
    assert is_order_isomorphism(back, p, mapping)


def test_json_round_trip_at_scale(n11_sample):
    q = Poset.from_json(n11_sample.to_json())
    assert q == n11_sample
    assert np.array_equal(q._leq, n11_sample._leq)


def two_cycles(k):
    """Face poset of two disjoint k-cycles: the same element and cover
    counts, and the same colour refinement, as one 2k-cycle."""
    vs = [f"v{i}" for i in range(2 * k)]
    return make_complex(vs, cycle_complex(k).facets + cycle_complex(k, k).facets).face_poset()


def seed_twins():
    """Two 7-element orders that are not isomorphic although every element
    has its own (lower-set size, upper-set size, cover degrees), and the
    two orders have the same multiset of these."""
    e = [L(f"e{i}") for i in range(7)]
    return (
        Poset.from_covers(e, [(e[i], e[j]) for i, j in ((0, 5), (1, 2), (1, 6), (3, 4), (3, 6), (4, 5))]),
        Poset.from_covers(e, [(e[i], e[j]) for i, j in ((0, 3), (0, 6), (1, 6), (2, 4), (2, 5), (3, 5))]),
    )


def oracle_pairs():
    """Isomorphic and non-isomorphic pairs: theta samples against their
    separation quotients, reconstructions and shuffled copies, samples made
    non-simplicial by one rewired cover, even cycles against two cycles,
    and the seed twins."""
    rng = random.Random(7)
    pairs = []
    for seed in range(24):
        n, p1 = rng.randint(3, 7), rng.choice([0.5, 0.7, 0.9])
        p = rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=p1, seed=seed))
        pairs.append((quotient_by_gluing(fiber_relation(separation(p))), p))
        pairs.append((theta_glue(*reconstruct_theta_pair(p)), p))
        pairs.append((shuffled_copy(p, rng), p))
        rewired = rewire_under_rank3_top(p, rng)
        if rewired is not None:
            pairs.append((rewired, p))
    pairs += [(cycle_complex(2 * k).face_poset(), two_cycles(k)) for k in (3, 4, 5)]
    pairs.append(seed_twins())
    return pairs


def test_isomorphism_agrees_with_networkx():
    nx = pytest.importorskip("networkx")

    def cover_digraph(p):
        g = nx.DiGraph()
        g.add_nodes_from(p.elements)
        g.add_edges_from(p.covers)
        return g

    rejected_at_equal_counts = 0
    for a, b in oracle_pairs():
        expected = nx.is_isomorphic(cover_digraph(a), cover_digraph(b))
        mapping = find_isomorphism(a, b)
        assert (mapping is not None) == expected
        if expected:
            assert is_order_isomorphism(a, b, mapping)
        elif len(a) == len(b) and len(a.covers) == len(b.covers):
            rejected_at_equal_counts += 1
    assert rejected_at_equal_counts >= 10


def test_isomorphism_search_refines_a_bounded_number_of_times(monkeypatch):
    """The search over every pair of ``oracle_pairs()`` runs 244 colour
    refinements, at most 11 on one pair; the bounds are twice the total
    and four times the largest.  A refinement that ignores the parents'
    colours still answers right, but passes 2000 refinements on each of
    the even cycles against two cycles, so the count fails at the bound
    of one pair instead of running for minutes."""
    pairs = oracle_pairs()
    calls = [0]
    refine = poset_module._refine

    def capped(*args):
        calls[0] += 1
        if calls[0] > 4 * 11:
            raise AssertionError("more than 44 refinements on one pair")
        return refine(*args)

    monkeypatch.setattr(poset_module, "_refine", capped)
    total = 0
    for a, b in pairs:
        calls[0] = 0
        find_isomorphism(a, b)
        total += calls[0]
    assert total <= 2 * 244


@pytest.mark.parametrize("n", range(9))
def test_boolean_lattice_matches_a_shuffled_copy(n, refinements):
    b = boolean_lattice(n)
    q = shuffled_copy(b, random.Random(n))
    mapping = find_isomorphism(b, q)
    assert mapping is not None
    assert is_order_isomorphism(b, q, mapping)
    if n >= 2:
        assert refinements[0] > 1  # atoms share a colour: the search ran


@pytest.mark.parametrize(
    "complex_",
    [cycle_complex(4), cycle_complex(7), parse_facet_string("a*b*c,a*b*d,a*c*d,b*c*d"),
     parse_facet_string("a*c*e,a*c*f,a*d*e,a*d*f,b*c*e,b*c*f,b*d*e,b*d*f")],
    ids=["4-cycle", "7-cycle", "tetrahedron-boundary", "octahedron-boundary"],
)
def test_theta_self_glue_matches_a_shuffled_face_poset(complex_, refinements):
    g = theta_glue(complex_, complex_)
    q = shuffled_copy(complex_.face_poset(), random.Random(1))
    mapping = find_isomorphism(g, q)
    assert mapping is not None
    assert is_order_isomorphism(g, q, mapping)
    assert refinements[0] > 1  # vertices share a colour: the search ran


def test_colour_collisions_only_merge_classes(monkeypatch):
    """With a colour hash that sends every colour to 0, refinement splits
    nothing beyond the seed statistics, yet every answer stays the same: the
    forced map of the seed twins is refuted, and the search decides the
    rest on its own.  (Without refinement the search is exponential, so the
    inputs stay small.)"""
    pairs = [seed_twins(), (cycle_complex(6).face_poset(), two_cycles(3))]
    pairs += [(shuffled_copy(p, random.Random(3)), p) for p in (boolean_lattice(3), cycle_complex(5).face_poset())]
    expected = [False, False, True, True]
    assert [are_isomorphic(a, b) for a, b in pairs] == expected
    monkeypatch.setattr(poset_module, "_color_hash", lambda colors: np.zeros(colors.size, dtype=np.uint64))
    for (a, b), iso in zip(pairs, expected):
        mapping = find_isomorphism(a, b)
        assert (mapping is not None) == iso
        assert mapping is None or is_order_isomorphism(a, b, mapping)


def test_search_without_refinement_rejects_a_broken_cover(monkeypatch):
    """Without refinement (every colour hashes to 0) the search here meets
    a candidate that matches v's placed cover neighbours but has one placed
    neighbour more than v.  No refinement drops it; the comparison of the
    covers between placed elements does, and the search still returns an
    isomorphism."""
    monkeypatch.setattr(poset_module, "_color_hash", lambda colors: np.zeros(colors.size, dtype=np.uint64))
    e = [L(f"e{i}") for i in range(7)]
    p = Poset.from_covers(e, [(e[i], e[j]) for i, j in ((0, 2), (0, 5), (1, 6), (2, 4), (3, 4))])
    q = Poset.from_covers(e, [(e[i], e[j]) for i, j in ((2, 1), (2, 5), (6, 0), (1, 3), (4, 3))])
    mapping = find_isomorphism(p, q)
    assert mapping is not None
    assert is_order_isomorphism(p, q, mapping)


def test_roundtrip_sized_isomorphisms_are_fast():
    # 290, 355 and 356 elements, like the benchmark's roundtrip inputs.  The
    # three checks took 0.015 s on a 2-core x86-64 host (0.13 s with the
    # recursive backtrack this search replaced); the budget rules out a
    # search that blows up, not a slow machine.
    samples = [rand_simplicial_poset(RandomModelParams(n=10, p1=0.85, p2=0.85, seed=s)) for s in (9, 13, 22)]
    backs = [quotient_by_gluing(fiber_relation(separation(p))) for p in samples]
    start = time.perf_counter()
    assert all(are_isomorphic(back, p) for back, p in zip(backs, samples))
    assert time.perf_counter() - start < 1.0


# ----- order profile readers vs. brute force ----------------------------------


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_atom_support_matches_lower_set(c):
    p = c.face_poset()
    atoms = p.atoms()
    for v in p.elements:
        assert p.atom_support(v) == (p.lower_set(v) & atoms)


def test_readers_match_oracles_on_random_quotients():
    """Atoms, maxima, atom supports and the face-poset test on random-model
    samples and on their pair-merging quotients that stay partial orders.
    Unlike face posets of complexes, these repeat atom supports, in
    simplicial and non-simplicial posets alike."""
    seen = set()
    for seed in range(120):
        p, classes = random_pair_merge(seed)
        try:
            posets = [p, p.quotient(classes)]
        except StructureError:
            posets = [p]
        for q in posets:
            assert q.maximal_elements() == {v for v in q.elements if upper_set(q, v) == {v}}
            atoms = brute_atoms(q)
            assert q.atoms() == atoms
            supports = [q.atom_support(v) for v in q.elements]
            assert supports == [q.lower_set(v) & atoms for v in q.elements]
            simplicial = q.is_simplicial()
            if simplicial:
                assert q.is_face_poset() == brute_is_face_poset(q)
            seen.add((simplicial, len(set(supports)) < len(supports)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_powerset_oracle_sanity():
    assert sorted(map(len, powerset("ab"))) == [0, 1, 1, 2]
