"""Separation, gluing relations, delta and theta gluing, reconstruction."""

import random
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simposets import (
    ElementNotFoundError,
    FormatError,
    GluingRelation,
    GluingSpec,
    GluingViolation,
    InvalidGluingError,
    InvariantError,
    Poset,
    PreconditionError,
    RandomModelParams,
    SimplicialComplex,
    SizeLimitError,
    StructureError,
    are_isomorphic,
    atom_family,
    boolean_lattice,
    delta_glue,
    fiber_relation,
    is_antichain_list,
    make_complex,
    meet_poset,
    parse_facet_string,
    quotient_by_gluing,
    rand_simplicial_poset,
    reconstruct_theta_pair,
    reduce_face_poset_ideal,
    separation,
    stanley_poset_ideal,
    theta_glue,
    validate_gluing,
)
from simposets import gluing
from simposets.labels import ATOMS, BOTTOM, CLASS, COPY, LABEL_DEPTH_MAX, Label
from simposets.poset import _BLOCK_CELLS, _Lazy

from conftest import random_complex, random_order_over_bottom
from oracles import (
    brute_covers,
    brute_gluing_violations,
    brute_quotient,
    nested_key,
    oracle_atom_family,
    oracle_meet_poset,
    oracle_reconstruct_theta_pair,
    oracle_theta_glue,
)

L = Label.parse
BOT = Label.bottom()

small_complexes = st.integers(0, 10_000).map(
    lambda s: random_complex(random.Random(s), max_vertices=6, max_facets=4)
)


def doubled_pq_poset():
    """Two rank-3 elements N1 (support pqr) and N2 (support pqs), each
    carrying its own private copy of the pq face (e1 vs e2)."""
    elems = [BOT] + [L(n) for n in ("p", "q", "r", "s", "e1", "e2", "p*r", "q*r", "p*s", "q*s", "N1", "N2")]
    covers = [(BOT, L(n)) for n in "pqrs"]
    covers += [
        (L("p"), L("e1")), (L("q"), L("e1")),
        (L("p"), L("e2")), (L("q"), L("e2")),
        (L("p"), L("p*r")), (L("r"), L("p*r")),
        (L("q"), L("q*r")), (L("r"), L("q*r")),
        (L("p"), L("p*s")), (L("s"), L("p*s")),
        (L("q"), L("q*s")), (L("s"), L("q*s")),
        (L("e1"), L("N1")), (L("p*r"), L("N1")), (L("q*r"), L("N1")),
        (L("e2"), L("N2")), (L("p*s"), L("N2")), (L("q*s"), L("N2")),
    ]
    return Poset.from_covers(elems, covers)


# ----- separation -----------------------------------------------------------


def projection(sep, q):
    """Separated label -> original label, read off ``origin`` and the
    labels of the separated poset q."""
    el, orig = sep.separated.elements, q.elements
    return {el[i]: orig[j] for i, j in enumerate(sep.origin.tolist())}


def test_separation_of_boolean_lattice_is_identity_up_to_labels():
    b = boolean_lattice(3)
    sep = separation(b)
    assert are_isomorphic(sep.separated, b)
    assert set(projection(sep, b).values()) == set(b.elements)


def test_separation_counts_blocks():
    p = parse_facet_string("a*b*c,b*c*d").face_poset()
    sep = separation(p)
    assert len(sep.separated) == 15  # 7 + 7 + shared bottom
    assert sep.separated.is_face_poset()
    assert len(sep.separated.maximal_elements()) == 2


def test_separation_copy_indices_follow_canonical_maximal_order():
    p = parse_facet_string("a*b*c,b*c*d").face_poset()
    sep = separation(p)
    assert projection(sep, p)[L("1@a*b*c")] == L("a*b*c")
    assert projection(sep, p)[L("2@b*c*d")] == L("b*c*d")
    assert L("1@b*c*d") not in sep.separated


@pytest.mark.parametrize(
    "build", [separation, atom_family, meet_poset, reconstruct_theta_pair], ids=lambda f: f.__name__
)
def test_separation_requires_simplicial(build, two_points_two_edges):
    top = L("t")
    elems = [BOT, L("a"), L("b"), L("c"), top]
    covers = [(BOT, L(v)) for v in "abc"] + [(L(v), top) for v in "abc"]
    bad = Poset.from_covers(elems, covers)
    with pytest.raises(PreconditionError, match=f"^{build.__name__} requires a simplicial poset$"):
        build(bad)
    assert separation(two_points_two_edges).separated.is_face_poset()


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_separation_projection_preserves_supports(c):
    p = c.face_poset()
    sep = separation(p)
    proj = projection(sep, p)
    for lab in sep.separated.elements:
        orig = proj[lab]
        got = {proj[a] for a in sep.separated.atom_support(lab)}
        assert got == p.atom_support(orig)


def assert_covers_and_atoms_from_order(p):
    """Covers are the transitive reduction of leq, and the atoms are the
    elements covering the bottom."""
    assert p.covers == brute_covers(p)
    bot = p.bottom()
    assert p.atoms() == {hi for lo, hi in p.covers if lo == bot}


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_separation_covers_are_the_reduction_of_its_order(c):
    assert_covers_and_atoms_from_order(separation(c.face_poset()).separated)


@pytest.mark.parametrize("p1, seed", [(0.6, 0), (0.8, 1), (0.85, 3)])
def test_separation_covers_on_large_theta_samples(p1, seed):
    q = rand_simplicial_poset(RandomModelParams(n=10, p1=p1, p2=p1, seed=seed))
    assert_covers_and_atoms_from_order(q)
    assert_covers_and_atoms_from_order(separation(q).separated)


# ----- gluing relations -----------------------------------------------------


def test_gluing_relation_requires_partition():
    b = boolean_lattice(2)
    with pytest.raises(StructureError, match="partition"):
        GluingRelation(base=b, classes=(frozenset([BOT]),))
    # a class names a label b lacks, so as many members as elements are too few
    with pytest.raises(StructureError, match="^classes must partition the elements$"):
        GluingRelation(base=b, classes=(frozenset([L("zz")]), *(frozenset([v]) for v in b.elements[1:])))
    with pytest.raises(StructureError, match="integers"):
        GluingRelation(base=b, classes=np.full(4, np.nan))  # nan != nan: four classes


def test_gluing_relation_classes_are_read_by_index():
    rel = fiber_relation(separation(parse_facet_string("a*b,b*c").face_poset()))
    # the copies 1@a, 1@a*b, 1@b, 2@b, 2@b*c, 2@c, by least member
    assert len(rel.classes) == 6
    assert rel.classes[0] == frozenset([BOT])
    assert rel.classes[3] == frozenset([L("1@b"), L("2@b")])
    assert rel.classes[-1] == frozenset([L("2@c")])


def test_fiber_relation_of_separation_validates():
    p = parse_facet_string("a*b*c,b*c*d").face_poset()
    rel = fiber_relation(separation(p))
    assert validate_gluing(rel).ok


def test_quotient_by_fiber_relation_restores_poset():
    p = parse_facet_string("a*b*c,b*c*d").face_poset()
    q = quotient_by_gluing(fiber_relation(separation(p)))
    assert are_isomorphic(q, p)


def violation_rows(p, groups):
    """Validate the partition of p into the given groups plus singletons;
    the violations as (condition, element strings, reason) in order."""
    used = {e for g in groups for e in g}
    classes = [frozenset(g) for g in groups] + [frozenset([e]) for e in p.elements if e not in used]
    check = validate_gluing(GluingRelation(base=p, classes=tuple(classes)))
    return [(v.condition, tuple(str(e) for e in v.elements), v.reason) for v in check.violations]


INCOMPARABLE = "related elements must be incomparable"
EQUAL_RANK = "related elements must have equal rank"
UPPER_BOUND = "related elements must not share an upper bound"


def test_validate_rejects_comparable_pair():
    p = parse_facet_string("a*b").face_poset()
    assert violation_rows(p, [[L("a"), L("a*b")]]) == [
        (1, ("a", "a*b"), INCOMPARABLE),
        (1, ("a", "a*b"), EQUAL_RANK),
        (1, ("a", "a*b"), UPPER_BOUND),
        (2, ("a*b", "a"), "b below a*b is related to nothing below a"),
    ]


def test_a_gluing_check_is_true_exactly_when_valid():
    p = parse_facet_string("a*b*c,b*c*d").face_poset()
    assert bool(validate_gluing(fiber_relation(separation(p)))) is True
    pair = {L("a"), L("a*b")}
    classes = [frozenset(pair)] + [frozenset([e]) for e in p.elements if e not in pair]
    assert bool(validate_gluing(GluingRelation(base=p, classes=tuple(classes)))) is False


def test_validate_rejects_rank_mismatch():
    p = parse_facet_string("a*b,c").face_poset()
    assert violation_rows(p, [[L("c"), L("a*b")]]) == [
        (1, ("a*b", "c"), EQUAL_RANK),
        (2, ("a*b", "c"), "a below a*b is related to nothing below c"),
        (2, ("a*b", "c"), "b below a*b is related to nothing below c"),
    ]


def test_validate_rejects_shared_upper_bound():
    p = parse_facet_string("a*b*c").face_poset()
    assert violation_rows(p, [[L("a"), L("b")]]) == [(1, ("a", "b"), UPPER_BOUND)]


def test_validate_rejects_lower_set_mismatch():
    p = parse_facet_string("a*b,c*d").face_poset()
    assert violation_rows(p, [[L("a*b"), L("c*d")]]) == [
        (2, ("a*b", "c*d"), "a below a*b is related to nothing below c*d"),
        (2, ("a*b", "c*d"), "b below a*b is related to nothing below c*d"),
        (2, ("c*d", "a*b"), "c below c*d is related to nothing below a*b"),
        (2, ("c*d", "a*b"), "d below c*d is related to nothing below a*b"),
    ]


def test_validate_lists_violations_class_by_class():
    """Classes in relation order; inside a class the condition (1) messages
    of the sorted unordered pairs, then condition (2) by ordered pair and by
    the element below."""
    p = parse_facet_string("a*b*c,d*e").face_poset()
    groups = [[L("e"), L("b*c")], [L("d*e"), L("c"), L("a*b")]]
    assert violation_rows(p, groups) == [
        (1, ("a*b", "c"), EQUAL_RANK),
        (1, ("a*b", "c"), UPPER_BOUND),
        (1, ("c", "d*e"), EQUAL_RANK),
        (2, ("a*b", "c"), "a below a*b is related to nothing below c"),
        (2, ("a*b", "c"), "b below a*b is related to nothing below c"),
        (2, ("a*b", "d*e"), "a below a*b is related to nothing below d*e"),
        (2, ("a*b", "d*e"), "b below a*b is related to nothing below d*e"),
        (2, ("d*e", "a*b"), "d below d*e is related to nothing below a*b"),
        (2, ("d*e", "a*b"), "e below d*e is related to nothing below a*b"),
        (2, ("d*e", "c"), "d below d*e is related to nothing below c"),
        (2, ("d*e", "c"), "e below d*e is related to nothing below c"),
        (1, ("b*c", "e"), EQUAL_RANK),
        (2, ("b*c", "e"), "b below b*c is related to nothing below e"),
        (2, ("b*c", "e"), "c below b*c is related to nothing below e"),
    ]


def random_relation(seed):
    """A partition of the separation of a random-model sample: its fiber
    relation with a few classes merged, or classes of about four random
    elements."""
    rng = random.Random(seed)
    n, p1 = rng.randint(2, 6), rng.choice([0.4, 0.7, 1.0])
    sep = separation(rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=rng.random(), seed=seed)))
    if rng.random() < 0.5:
        groups = [set(c) for c in fiber_relation(sep).classes]
        for _ in range(rng.randint(1, 3)):
            if len(groups) > 1:
                one, other = rng.sample(range(len(groups)), 2)
                groups[one] |= groups[other]
                groups[other] = set()
    else:
        elems = list(sep.separated.elements)
        k = rng.randint(max(1, len(elems) // 4), len(elems))
        groups = [set() for _ in range(k)]
        for v in elems:
            groups[rng.randrange(k)].add(v)
    return GluingRelation(base=sep.separated, classes=tuple(frozenset(g) for g in groups if g))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_validate_matches_oracle_on_random_relations(seed):
    """The same violations in the same order as the pair-by-pair oracle,
    also when the kernel walks its pairs one at a time."""
    rel = random_relation(seed)
    expected = brute_gluing_violations(rel)
    got = [(v.condition, v.elements, v.reason) for v in validate_gluing(rel).violations]
    assert got == expected
    with mock.patch("simposets.poset._BLOCK_CELLS", 1):
        assert validate_gluing(rel).violations == tuple(GluingViolation(*v) for v in expected)


def test_validate_matches_oracle_when_some_classes_fail():
    """A fiber relation with one element moved into another class: the
    class-first pass marks exactly the classes the oracle finds violations
    in, the valid classes stay unmarked, and the violation lists agree."""
    partial = 0
    for seed in range(40):
        rng = random.Random(seed)
        n, p1 = rng.randint(3, 6), rng.choice([0.5, 0.7, 1.0])
        sep = separation(rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=rng.random(), seed=seed)))
        groups = [set(c) for c in fiber_relation(sep).classes]
        one, other = rng.sample(range(1, len(groups)), 2)  # never the bottom's class
        v = rng.choice(sorted(groups[one]))
        groups[one].discard(v)
        groups[other].add(v)
        rel = GluingRelation(base=sep.separated, classes=tuple(frozenset(g) for g in groups if g))
        expected = brute_gluing_violations(rel)
        got = [(x.condition, x.elements, x.reason) for x in validate_gluing(rel).violations]
        assert got == expected, seed
        with mock.patch("simposets.poset._BLOCK_CELLS", 1):
            assert [(x.condition, x.elements, x.reason) for x in validate_gluing(rel).violations] == expected
        class_of = {e: i for i, c in enumerate(rel.classes) for e in c}
        cls = rel.base._class_array(rel.classes)
        lower = [rel.base.lower_set(u) for u in rel.base.elements]
        for cells in (_BLOCK_CELLS, 1):  # the default budget, and one receiving row a block
            with mock.patch("simposets.poset._BLOCK_CELLS", cells):
                marked, below = gluing._failing_classes(rel.base, cls, len(rel.classes))
            assert set(marked.nonzero()[0].tolist()) == {class_of[x[1][0]] for x in expected}, seed
            # the bit rows the pair loop reads: bit c of row u when class c meets the lower set of u
            words = below.astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(words, axis=1, count=len(rel.classes), bitorder="little")
            assert bits.tolist() == [[int(bool(c & down)) for c in rel.classes] for down in lower], seed
        partial += 0 < marked.sum() < len(rel.classes)
    assert partial >= 30


def test_no_result_depends_on_the_block_budget(monkeypatch):
    """Every blocked loop takes its block size from one budget,
    ``_BLOCK_CELLS``.  At 64 bytes each loop runs many blocks, and the
    ideal, the reduced ideal, the violations of a failing relation, the
    simpliciality check and the theta gluing all come out as they do at
    the default budget."""
    d1 = parse_facet_string("a*b*c*d,b*c*d*e,c*d*e*f,a*f,a*c*e")
    d2 = parse_facet_string("a*b*c,c*d*e,a*f,b*d")

    def results():
        theta = theta_glue(d1, d2)
        sep = separation(theta)
        groups = [set(c) for c in fiber_relation(sep).classes]
        moved = sorted(groups[5])[0]
        groups[5].discard(moved)
        groups[9].add(moved)
        rel = GluingRelation(base=sep.separated, classes=tuple(frozenset(g) for g in groups if g))
        return (
            theta.to_json(),
            Poset.from_json(theta.to_json()).is_simplicial(),
            stanley_poset_ideal(theta).render_lines(),
            reduce_face_poset_ideal(d1.face_poset()).render_lines(),
            validate_gluing(rel).violations,
        )

    default = results()
    assert default[1] and default[4]  # simplicial, and the relation fails
    monkeypatch.setattr("simposets.poset._BLOCK_CELLS", 64)
    assert results() == default


def test_validate_finds_a_rank_mismatch_that_no_other_test_shows():
    """Triangle a over x, y, w and edge b over z, t, with every atom and
    edge in one class: a and b then have the same classes below and no
    common upper bound, so only their ranks tell their class apart."""
    a, b = L("a"), L("b")
    atoms = [L(v) for v in "xywzt"]
    edges = [L("xy"), L("xw"), L("yw")]
    covers = [(BOT, v) for v in atoms] + [(e, a) for e in edges] + [(L("z"), b), (L("t"), b)]
    covers += [(L(v), e) for e in edges for v in str(e)]
    p = Poset.from_covers([BOT, *atoms, *edges, a, b], covers)
    rel = GluingRelation(base=p, classes=(frozenset([BOT]), frozenset(atoms + edges), frozenset([a, b])))
    expected = brute_gluing_violations(rel)
    assert [x for x in expected if a in x[1]] == [(1, (a, b), EQUAL_RANK)]
    assert [(x.condition, x.elements, x.reason) for x in validate_gluing(rel).violations] == expected


@pytest.mark.parametrize("members", [256, 300])
def test_validate_rejects_a_large_class_under_one_top(members):
    """All members below one top: every unordered pair shares it.  A count
    of members per upper bound kept in a byte would wrap at 256."""
    atoms = [L(f"v{i}") for i in range(members)]
    top = L("t")
    p = Poset.from_covers([BOT, *atoms, top], [(BOT, a) for a in atoms] + [(a, top) for a in atoms])
    rel = GluingRelation(base=p, classes=(frozenset([BOT]), frozenset(atoms), frozenset([top])))
    check = validate_gluing(rel)
    assert not check.ok
    assert len(check.violations) == members * (members - 1) // 2
    assert {(v.condition, v.reason) for v in check.violations} == {(1, UPPER_BOUND)}
    assert check.violations[0].elements == tuple(sorted(atoms)[:2])


def test_a_rejected_relation_with_one_large_class_stays_within_its_blocks():
    """The bottom, 1000 atoms and one edge over two of them, the atoms and
    the edge in one class: each of the 1001 members is checked against the
    others a slice at a time, with no list of the million ordered pairs.
    Every atom differs in rank from the edge; the two below it are also
    comparable to it and share it as an upper bound, with each other too."""
    atoms = [L(f"v{i:04d}") for i in range(1000)]
    edge = L("v0000*v0001")
    covers = [(BOT, a) for a in atoms] + [(atoms[0], edge), (atoms[1], edge)]
    p = Poset.from_covers([BOT, *atoms, edge], covers)
    rel = GluingRelation(base=p, classes=(frozenset([BOT]), frozenset([*atoms, edge])))
    p._profile()
    tracemalloc.start()
    try:
        check = validate_gluing(rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(check.violations) == 1005
    assert check.violations[:2] == (
        GluingViolation(1, (atoms[0], edge), INCOMPARABLE),
        GluingViolation(1, (atoms[0], edge), EQUAL_RANK),
    )
    assert peak <= 4 * p._leq.nbytes


def test_validate_on_a_2000_element_separation_stays_within_its_blocks():
    """The fiber relation of the n=12, p=0.9 sample's separation (2025
    elements): the check keeps one block of at most ``_BLOCK_CELLS`` bytes
    and O(n) arrays, where an n x k class matrix would take 2 MB."""
    sep = separation(rand_simplicial_poset(RandomModelParams(n=12, p1=0.9, p2=0.9, seed=0)))
    rel = fiber_relation(sep)
    assert len(rel.base) == 2025
    rel.base._profile()
    tracemalloc.start()
    try:
        assert validate_gluing(rel).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * _BLOCK_CELLS


def test_quotient_of_two_edges_gives_one_edge():
    p = parse_facet_string("a*b,c*d").face_poset()
    classes = (
        frozenset([BOT]),
        frozenset([L("a"), L("c")]),
        frozenset([L("b"), L("d")]),
        frozenset([L("a*b"), L("c*d")]),
    )
    q = quotient_by_gluing(GluingRelation(base=p, classes=classes))
    assert are_isomorphic(q, boolean_lattice(2))


def test_quotient_by_invalid_relation_raises():
    p = parse_facet_string("a*b*c").face_poset()
    classes = [frozenset([L("a"), L("b")])]
    classes += [frozenset([e]) for e in p.elements if str(e) not in ("a", "b")]
    with pytest.raises(PreconditionError, match="not a gluing relation"):
        quotient_by_gluing(GluingRelation(base=p, classes=tuple(classes)))


def handed_to_the_quotient(build):
    """The relations that ``build()`` hands to ``quotient_by_gluing``; a
    gluing whose maps ``build`` rejects first hands none."""
    seen = []
    real = gluing.quotient_by_gluing
    with mock.patch.object(gluing, "quotient_by_gluing", lambda rel: seen.append(rel) or real(rel)):
        try:
            build()
        except (InvalidGluingError, ElementNotFoundError):
            pass
    return seen


def assert_glued_as_the_references(rel):
    """The quotient a valid relation reads off its validation rows equals
    ``Poset.quotient`` of its class array, order matrix included, and the
    pair-loop quotient on small bases, also one class a block;
    ``quotient_by_gluing`` returns it exactly when it is simplicial."""
    violations, below = gluing._validate(rel)
    assert not violations
    fast = gluing._glued(rel, below)
    ref = rel.base.quotient(rel.class_index)
    assert fast == ref
    assert np.array_equal(fast._leq, ref._leq)
    with mock.patch("simposets.poset._BLOCK_CELLS", 1):
        assert np.array_equal(gluing._glued(rel, below)._leq, ref._leq)
    if len(rel.base) <= 40:
        assert brute_quotient(rel.base, rel.classes) == (list(fast.elements), set(fast.covers))
    if fast.is_simplicial():
        assert quotient_by_gluing(rel) == fast
    else:
        with pytest.raises(InvariantError, match="^gluing quotient is not simplicial$"):
            quotient_by_gluing(rel)


def test_theta_quotients_match_the_references():
    """The relations of theta gluings, and of random-model samples, which
    glue two complexes by theta each."""
    relations = []
    for d1, d2 in theta_cases():
        relations += handed_to_the_quotient(lambda: theta_glue(d1, d2))
    for seed in range(6):
        params = RandomModelParams(n=8, p1=0.8, p2=0.6, seed=seed)
        relations += handed_to_the_quotient(lambda: rand_simplicial_poset(params))
    assert len(relations) == len(theta_cases()) + 6
    for rel in relations:
        assert_glued_as_the_references(rel)


def test_fiber_quotients_match_the_references(complex_corpus, two_points_two_edges, four_triangles_two_shared_edges):
    posets = [c.face_poset() for c in complex_corpus] + [two_points_two_edges, four_triangles_two_shared_edges]
    posets += [rand_simplicial_poset(RandomModelParams(n=7, p1=0.7, p2=0.5, seed=s)) for s in range(4)]
    for p in posets:
        assert_glued_as_the_references(fiber_relation(separation(p)))


def test_delta_quotients_match_the_references():
    relations = []
    for seed in range(150):
        a, b, facet_map, atom_map = random_delta_inputs(random.Random(seed))
        relations += handed_to_the_quotient(lambda: delta_glue(a, b, facet_map, atom_map))
    assert len(relations) > 50
    for rel in relations:
        assert_glued_as_the_references(rel)


def test_quotients_of_random_partitions_match_the_references():
    """Partitions of random small orders over a bottom, simplicial or not,
    that merge a few elements with lower sets of one size: the valid ones
    with a class of two or more members.  Each lower set of the base is
    isomorphic to the one of its class, so a quotient is simplicial
    exactly when its base is; both kinds are met."""
    seen = Counter()
    for seed in range(2000):
        rng = random.Random(seed)
        p = random_order_over_bottom(rng, rng.randint(2, 8))
        size = p._profile().lower.tolist()
        cls = np.arange(len(p))
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(len(p))
            b = rng.choice([v for v in range(len(p)) if size[v] == size[a] and v != a] or [a])
            cls[cls == cls[b]] = cls[a]
        rel = GluingRelation(p, cls)
        if len(rel.classes) == len(p) or not validate_gluing(rel):
            continue
        assert_glued_as_the_references(rel)
        seen[p.is_simplicial(), rel.base.quotient(rel.class_index).is_simplicial()] += 1
    assert set(seen) == {(False, False), (True, True)}
    assert min(seen.values()) > 200, seen


@settings(max_examples=30, deadline=None)
@given(small_complexes)
def test_separation_fiber_round_trip(c):
    p = c.face_poset()
    sep = separation(p)
    rel = fiber_relation(sep)
    assert validate_gluing(rel).ok
    assert are_isomorphic(quotient_by_gluing(rel), p)


# ----- delta glue ------------------------------------------------------------


def glue_two_b4():
    b = boolean_lattice(4)
    fm = {L("x1*x2*x3"): L("x1*x2*x3"), L("x2*x3*x4"): L("x2*x3*x4")}
    am = {L(f"x{i}"): L(f"x{i}") for i in range(1, 5)}
    return delta_glue(b, b, fm, am)


def one_atom(text):
    return Poset.from_json_dict({"elements": ["0", text], "covers": [["0", text]]})


def test_separation_and_gluing_refuse_labels_past_the_cap():
    """A poset whose one atom is LABEL_DEPTH_MAX copy prefixes deep loads,
    but its separation, and a gluing onto a point, copy that atom one level
    deeper: reading their labels raises the reader's error, so no document
    is written that would not load back.  One prefix less separates, and
    its document loads back equal."""
    deep = "1@" * LABEL_DEPTH_MAX + "m"
    point = one_atom("n")
    glued = delta_glue(one_atom(deep), point, {L(deep): L("n")}, {L(deep): L("n")})
    for p in (separation(one_atom(deep)).separated, glued):
        with pytest.raises(FormatError, match="label is nested too deeply"):
            p.elements
        with pytest.raises(FormatError, match="label is nested too deeply"):
            p.to_json()
    separated = separation(one_atom(deep[2:])).separated
    assert Poset.from_json(separated.to_json()) == separated


def test_delta_glue_two_boolean_lattices():
    g = glue_two_b4()
    assert len(g) == 20
    assert len(g.maximal_elements()) == 2
    assert len(g.atoms()) == 4
    assert g.is_simplicial()
    assert not g.is_face_poset()  # both tops sit over all four atoms


def test_delta_glue_along_maximal_facet_merges_tops():
    a = parse_facet_string("a*b").face_poset()
    b = parse_facet_string("p*q").face_poset()
    g = delta_glue(a, b, {L("a*b"): L("p*q")}, {L("a"): L("p"), L("b"): L("q")})
    assert are_isomorphic(g, boolean_lattice(2))
    assert len(g.maximal_elements()) == 1


def test_delta_glue_empty_maps_wedge():
    a = boolean_lattice(2)
    b = boolean_lattice(3)
    g = delta_glue(a, b, {}, {})
    assert len(g) == len(a) + len(b) - 1
    assert len(g.atoms()) == 5
    assert len(g.maximal_elements()) == 2


def test_delta_glue_requires_simplicial():
    top = L("t")
    elems = [BOT, L("a"), L("b"), L("c"), top]
    covers = [(BOT, L(v)) for v in "abc"] + [(L(v), top) for v in "abc"]
    bad = Poset.from_covers(elems, covers)
    with pytest.raises(PreconditionError):
        delta_glue(bad, boolean_lattice(1), {}, {})


def test_delta_glue_unknown_elements():
    b = boolean_lattice(2)
    with pytest.raises(ElementNotFoundError):
        delta_glue(b, b, {L("zz"): L("x1")}, {})
    with pytest.raises(ElementNotFoundError):
        delta_glue(b, b, {}, {L("x1"): L("zz")})


def test_delta_glue_error_codes():
    b = boolean_lattice(4)
    fm = {L("x1*x2*x3"): L("x1*x2*x3"), L("x2*x3*x4"): L("x2*x3*x4")}
    am = {L(f"x{i}"): L(f"x{i}") for i in range(1, 5)}

    with pytest.raises(InvalidGluingError) as e:
        delta_glue(b, b, {BOT: L("x1")}, am)
    assert e.value.code == "facet_map_domain"

    with pytest.raises(InvalidGluingError) as e:
        delta_glue(b, b, fm, {L("x1*x2"): L("x1")})
    assert e.value.code == "atom_map_domain"

    with pytest.raises(InvalidGluingError) as e:
        delta_glue(b, b, {L("x1*x2*x3"): L("x1*x2*x3"), L("x1*x2*x4"): L("x1*x2*x3")}, am)
    assert e.value.code == "facet_map_not_injective"

    with pytest.raises(InvalidGluingError) as e:
        delta_glue(b, b, fm, {L("x1"): L("x1"), L("x2"): L("x1")})
    assert e.value.code == "atom_map_not_injective"

    with pytest.raises(InvalidGluingError) as e:
        delta_glue(b, b, fm, {L("x1"): L("x1"), L("x2"): L("x2")})
    assert e.value.code == "atom_map_incomplete"

    cyc = {L("x1"): L("x2"), L("x2"): L("x3"), L("x3"): L("x4"), L("x4"): L("x1")}
    with pytest.raises(InvalidGluingError) as e:
        delta_glue(b, b, fm, cyc)
    assert e.value.code == "incompatible"
    assert str(e.value) == "Assignment of atoms-atoms or facets-facets invalid."
    assert repr(e.value) == (
        "InvalidGluingError(code='incompatible', detail='atom sets below x1*x2*x3 and x1*x2*x3 do not correspond')"
    )


def test_delta_glue_incomplete_atom_map_detail_is_sorted():
    b = boolean_lattice(4)
    top = L("x1*x2*x3*x4")
    with pytest.raises(InvalidGluingError) as e:
        delta_glue(b, b, {top: top}, {L("x3"): L("x3")})
    assert e.value.code == "atom_map_incomplete"
    assert e.value.detail == (
        "atoms below x1*x2*x3*x4 lack images: [Label('x1'), Label('x2'), Label('x4')]"
    )


def test_delta_glue_ambiguous_image():
    a = parse_facet_string("a*b*c,a*b*d").face_poset()
    b = doubled_pq_poset()
    fm = {L("a*b*c"): L("N1"), L("a*b*d"): L("N2")}
    am = {L("a"): L("p"), L("b"): L("q"), L("c"): L("r"), L("d"): L("s")}
    with pytest.raises(InvalidGluingError) as e:
        delta_glue(a, b, fm, am)
    assert e.value.code == "ambiguous_image"


def test_delta_glue_image_not_injective():
    a = doubled_pq_poset()
    b = parse_facet_string("p*q*r,p*q*s").face_poset()
    fm = {L("N1"): L("p*q*r"), L("N2"): L("p*q*s")}
    am = {L(n): L(n) for n in "pqrs"}
    with pytest.raises(InvalidGluingError) as e:
        delta_glue(a, b, fm, am)
    assert e.value.code == "image_not_injective"


def test_delta_glue_shares_glued_faces():
    g = glue_two_b4()
    # the glued ideal holds every subset of {x1,x2,x3} and of {x2,x3,x4};
    # exactly the supports containing both x1 and x4 stay doubled
    x1 = next(str(a) for a in g.atoms() if "x1" in str(a))
    x4 = next(str(a) for a in g.atoms() if "x4" in str(a))
    supports = [frozenset(str(a) for a in g.atom_support(v)) for v in g.elements]
    counts = Counter(supports)
    for s, k in counts.items():
        assert k == (2 if {x1, x4} <= s else 1), s
    assert sum(1 for k in counts.values() if k == 2) == 4


def random_delta_inputs(rng):
    """Face posets of two random complexes, an injective atom map on some
    atoms of the first, and a facet map that mostly sends a face to the face
    over its image atoms and sometimes anywhere, the bottom included."""
    a = random_complex(rng, max_vertices=5, max_facets=3).face_poset()
    b = random_complex(rng, max_vertices=5, max_facets=3).face_poset()
    atoms_a, atoms_b = sorted(a.atoms()), sorted(b.atoms())
    rng.shuffle(atoms_b)
    atom_map = dict(zip(rng.sample(atoms_a, rng.randint(0, len(atoms_a))), atoms_b))
    by_support = {b.atom_support(u): u for u in b.elements}
    faces_a = a.elements[1:]  # the bottom sorts first
    facet_map = {}
    for x in rng.sample(faces_a, rng.randint(0, min(3, len(faces_a)))):
        y = by_support.get(frozenset(atom_map.get(s) for s in a.atom_support(x)))
        if y is None or rng.random() < 0.1:
            y = rng.choice(b.elements)
        facet_map[x] = y
    if rng.random() < 0.05:
        facet_map[rng.choice([BOT, L("zz")])] = b.elements[-1]
    return a, b, facet_map, atom_map


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_delta_glue_accepted_maps_are_gluing_relations(seed):
    """delta_glue rejects a map with its own errors or returns a simplicial
    poset; the relation it builds always passes validate_gluing.

    Glued pairs sit in different copies of the disjoint union, so they are
    incomparable and share no upper bound.  They have equal rank because
    the atom map is injective.  Their lower sets match class by class
    because [0,w] and [0,image(w)] are boolean lattices on corresponding
    atoms.
    """
    a, b, facet_map, atom_map = random_delta_inputs(random.Random(seed))
    try:
        g = delta_glue(a, b, facet_map, atom_map)
    except (InvalidGluingError, ElementNotFoundError):
        return
    glued = set().union(*(a.lower_set(x) for x in facet_map)) - {a.bottom()}
    assert g.is_simplicial()
    assert len(g) == len(a) + len(b) - 1 - len(glued)


def test_gluing_spec_round_trip():
    obj = {
        "facet_map": {"x1*x2*x3": "x1*x2*x3"},
        "atom_map": {"x1": "x1", "x2": "x2", "x3": "x3"},
    }
    spec = GluingSpec.from_json_dict(obj)
    assert spec.to_json_dict() == obj


TWO_KEYS_FOR_ONE_LABEL = [
    ("facet_map", {"facet_map": {"x1*x2": "x1*x3", "x2*x1": "x2*x3"}, "atom_map": {"x1": "x2", "x2": "x3"}}),
    ("atom_map", {"facet_map": {"x1*x2": "x1*x2"}, "atom_map": {"{x1,x2}": "x1", "{x2,x1}": "x2"}}),
]


@pytest.mark.parametrize("field, obj", TWO_KEYS_FOR_ONE_LABEL, ids=[f for f, _ in TWO_KEYS_FOR_ONE_LABEL])
def test_gluing_spec_rejects_two_keys_for_one_label(field, obj):
    """Keys are read as labels, so two spellings of one label would leave
    one of their values to the sort order of the texts."""
    label = "x1*x2" if field == "facet_map" else "{x1,x2}"
    with pytest.raises(FormatError, match=re.escape(f"gluing spec {field} has two keys for label {label}")):
        GluingSpec.from_json_dict(obj)


# ----- theta glue ------------------------------------------------------------


def test_theta_glue_matches_worked_example():
    d1 = parse_facet_string("a*b*c*x,a*b*c*y")
    d2 = parse_facet_string("a*b,b*c,a*c")
    p = theta_glue(d1, d2)
    assert len(p) == 25
    assert p.is_simplicial()
    assert not p.is_face_poset()
    # the triangle abc is not shared, so its two copies survive
    supports = Counter(p.atom_support(v) for v in p.elements)
    repeated = [s for s, k in supports.items() if k > 1]
    assert len(repeated) == 1
    assert supports[repeated[0]] == 2 and len(repeated[0]) == 3
    m = meet_poset(p)
    assert are_isomorphic(m, parse_facet_string("a*b,b*c,a*c").face_poset())


def test_theta_glue_with_self_is_face_poset():
    d = parse_facet_string("a*b*c,b*c*d,d*e")
    assert are_isomorphic(theta_glue(d, d), d.face_poset())


def test_theta_glue_extends_second_complex_with_missing_points():
    d1 = parse_facet_string("a*b,c")
    d2 = parse_facet_string("x*y")
    p = theta_glue(d1, d2)
    assert len(p.atoms()) == 3  # a, b, c; x and y only widen the ambient set
    assert p.is_face_poset()  # nothing is doubled when no face is shared twice


@settings(max_examples=30, deadline=None)
@given(small_complexes, small_complexes)
def test_theta_glue_never_duplicates_atoms(d1, d2):
    p = theta_glue(d1, d2)
    assert len(p.atoms()) == len(d1.vertices)
    assert p.is_simplicial()


@settings(max_examples=30, deadline=None)
@given(small_complexes, small_complexes)
def test_theta_classes_stay_inside_fibers(d1, d2):
    p = theta_glue(d1, d2)
    for e in p.elements:
        key = nested_key(str(e))
        if key[0] != CLASS:
            continue
        bases = {m[2] for m in key[1] if m != (BOTTOM,)}  # copies (2, i, base) and the bottom
        assert len(bases) <= 1


@settings(max_examples=30, deadline=None)
@given(small_complexes, small_complexes)
def test_theta_satisfies_reconstruction_conditions(d1, d2):
    p = theta_glue(d1, d2)
    assert is_antichain_list(atom_family(p))
    assert meet_poset(p).is_face_poset()


def theta_inputs(rng):
    """Two random complexes: d1 with an isolated vertex and a candidate
    face nested in another, d2 with vertices d1 lacks."""
    d1 = random_complex(rng, max_vertices=7, max_facets=5)
    nested = rng.sample(d1.vertices, min(3, len(d1.vertices)))
    d1 = make_complex([*d1.vertices, "iso"], [*d1.facets, nested, nested[:2]])
    d2 = random_complex(rng, max_vertices=9, max_facets=6)
    return d1, d2


def theta_cases():
    """Pairs (d1, d2) for the references: the corner cases, then random
    pairs from ``theta_inputs``."""
    rng = random.Random(31)
    empty, point = make_complex([], []), make_complex(["v1"], [])
    isolated = make_complex(list("abcdef"), [["a", "b", "c"], ["c", "d"]])  # e and f alone
    nested = make_complex(list("abcde"), [list("abcd"), list("abc"), list("bd"), ["a"], list("cde")])
    lacking = make_complex(list("abcxyz"), [list("abx"), list("cyz"), ["b", "c"]])
    names = [f"x{i}" for i in range(1, 10)]
    simplex = make_complex(names, [names])
    wide = make_complex(
        [f"v{i}" for i in range(70)],
        [["v1", "v2", "v69"], ["v2", "v69"], ["v63", "v64", "v65"], ["v64", "v65", "v66"], ["v0", "v65"], ["v66", "v67"]],
    )
    wide_d2 = make_complex(
        ["v2", "v63", "v64", "v65", "v66", "v69", "w"], [["v2", "v69", "w"], ["v63", "v64"], ["v65", "v66"]]
    )
    corners = [
        (empty, point),
        (point, empty),
        (empty, empty),
        (point, point),
        (isolated, make_complex(list("bcef"), [["b", "c"], ["e", "f"]])),
        (nested, make_complex(list("abcd"), [list("abc"), ["c", "d"]])),
        (nested, nested),
        (isolated, lacking),
        (lacking, isolated),
        (simplex, make_complex(names[:6], [names[:4], names[3:6]])),
        (simplex, empty),
        (wide, wide_d2),
        (wide, wide),
    ]
    return corners + [theta_inputs(rng) for _ in range(60)]


def row_vertices(row, vertices):
    """The vertices a vertex row numbers, in row order, padding dropped."""
    return [vertices[j] for j in row.tolist() if j >= 0]


def test_facet_separation_matches_the_separation_of_the_face_poset():
    """The separation built from the facets equals the separation of the
    face poset, order matrix included, and each element's vertex row is
    the vertex set of the face it copies, numbered in sorted-name order, so
    the copies of one face, and only they, share a row."""
    for d1, _ in theta_cases():
        q = d1.face_poset()
        ref = separation(q)
        names = sorted(d1.vertices)
        sep, rows = gluing._facet_separation(sorted(d1.facets), {v: j for j, v in enumerate(names)})
        assert sep == ref.separated
        assert np.array_equal(sep._leq, ref.separated._leq)
        faces = q.elements
        for i, origin in enumerate(ref.origin.tolist()):
            face = faces[origin].names if i else ()
            # ascending positions in sorted-name order, padded at the end
            assert row_vertices(rows[i], names) == list(face)
            assert (np.diff(rows[i][: len(face)]) > 0).all()
            assert (rows[i][len(face) :] == -1).all()
        keys = [r.tobytes() for r in rows]
        assert len(set(zip(keys, ref.origin.tolist()))) == len(set(keys)) == len(set(ref.origin.tolist()))


def test_theta_glue_matches_the_label_oracle():
    for d1, d2 in theta_cases():
        p, q = theta_glue(d1, d2), oracle_theta_glue(d1, d2)
        assert p == q
        assert p.to_json() == q.to_json()


def test_theta_glue_builds_no_face_poset_or_separation(monkeypatch):
    """theta_glue, and a random sample through it, never build d1's face
    poset or call ``separation``, and still return through
    ``quotient_by_gluing``."""
    d1, d2 = parse_facet_string("a*b*c*x,a*b*c*y"), parse_facet_string("a*b,b*c,a*c")
    expected = oracle_theta_glue(d1, d2)

    def refuse(*args):
        raise AssertionError("theta_glue built a face poset or a separation")

    monkeypatch.setattr(SimplicialComplex, "face_poset", refuse)
    monkeypatch.setattr(gluing, "separation", refuse)
    quotients = []
    real = gluing.quotient_by_gluing
    monkeypatch.setattr(gluing, "quotient_by_gluing", lambda rel: quotients.append(rel) or real(rel))
    assert theta_glue(d1, d2) == expected
    rand_simplicial_poset(RandomModelParams(n=9, p1=0.8, p2=0.7, seed=4))
    assert len(quotients) == 2


def test_theta_glue_guards_a_16_vertex_facet_before_allocating():
    # the copies of its 2^16 faces would take a 4 GiB order matrix and an
    # 8 MB table of vertex rows; neither is asked for
    names = [f"v{i}" for i in range(16)]
    d1 = make_complex(names, [names])
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="guarded at 15 vertices"):
            theta_glue(d1, d1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_dense_sample_stays_within_its_memory_budget():
    """The n=12, p=1.0 sample glues the 12-simplex: 4096 elements, so 16 MB
    for one order matrix.  Built from the facets, with its face-poset
    check, it peaks at 38.2 MB traced; building d1's face poset and then
    its separation took 65.7 MB."""
    tracemalloc.start()
    try:
        p = rand_simplicial_poset(RandomModelParams(n=12, p1=1.0, p2=1.0, seed=0))
        assert p.is_face_poset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p) == 4096
    assert peak < 40 << 20


def test_a_sample_builds_no_copy_or_class_label(monkeypatch):
    """Sampling and the face-poset test build no label of any kind: the
    separation comes from d1's facets, not its face poset, and no label of
    the separation, the relation or the quotient is read."""
    kinds = Counter()
    init = Label.__init__

    def counted(self, key, *args):
        kinds[key[0]] += 1
        init(self, key, *args)

    monkeypatch.setattr(Label, "__init__", counted)
    for seed in range(3):
        p = rand_simplicial_poset(RandomModelParams(n=9, p1=0.8, p2=0.8, seed=seed))
        p.is_face_poset()
    assert not kinds
    assert p.elements[-1].key[0] == CLASS  # reading them builds them
    assert kinds[ATOMS] > 0 and kinds[COPY] > 0 and kinds[CLASS] > 0


def recipe_parts(lazy):
    """Everything a label recipe holds, recipes within it included."""
    if lazy._recipe is None:
        return
    for arg in lazy._recipe[1]:
        for part in arg if isinstance(arg, list) else [arg]:
            for item in part if isinstance(part, tuple) else [part]:
                yield item
                if isinstance(item, _Lazy):
                    yield from recipe_parts(item)


def test_recipes_hold_no_poset_or_order_matrix():
    d1 = make_complex([f"v{i}" for i in range(6)], [["v0", "v1", "v2"], ["v1", "v2", "v3"], ["v4"]])
    d2 = make_complex(["v1", "v2", "v7"], [["v1", "v2"]])
    outputs = [
        theta_glue(d1, d2),
        quotient_by_gluing(fiber_relation(separation(d1.face_poset()))),
        delta_glue(boolean_lattice(2), boolean_lattice(2), {L("x1"): L("x2")}, {L("x1"): L("x2")}),
    ]
    for p in outputs:
        parts = list(recipe_parts(p._labels))
        assert parts
        for item in parts:
            assert not isinstance(item, Poset)
            assert not (isinstance(item, np.ndarray) and item.ndim > 1)


# ----- atom family, antichains, meet posets ----------------------------------


def test_atom_family_of_boolean_lattice():
    fam = atom_family(boolean_lattice(4))
    assert fam == [frozenset(boolean_lattice(4).atoms())]


def test_atom_family_keeps_duplicates(two_points_two_edges):
    fam = atom_family(two_points_two_edges)
    assert len(fam) == 2 and fam[0] == fam[1]
    assert not is_antichain_list(fam)


def test_is_antichain_list_cases():
    assert is_antichain_list([])
    assert is_antichain_list([{"a"}])
    assert is_antichain_list([{"a", "b"}, {"b", "c"}])
    assert not is_antichain_list([{"a"}, {"a"}])
    assert not is_antichain_list([{"a"}, {"a", "b"}])


def test_meet_poset_single_maximal_is_bottom():
    m = meet_poset(boolean_lattice(3))
    assert len(m) == 1 and m.bottom() in m


def test_meet_poset_of_two_triangles_is_shared_edge():
    p = parse_facet_string("a*b*c,b*c*d").face_poset()
    m = meet_poset(p)
    assert len(m) == 4
    assert are_isomorphic(m, boolean_lattice(2))


def test_meet_poset_collects_all_pairwise_intersections(four_triangles_two_shared_edges, two_points_two_edges):
    m = meet_poset(four_triangles_two_shared_edges)
    assert are_isomorphic(m, two_points_two_edges)


def test_meet_poset_of_a_sample_builds_no_label(monkeypatch):
    """The meet poset is restricted on a mask, so neither the sample's
    labels nor its own are built until they are read."""
    built = []
    init = Label.__init__

    def counted(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(Label, "__init__", counted)
    for seed in range(3):
        p = rand_simplicial_poset(RandomModelParams(n=9, p1=0.8, p2=0.6, seed=seed))
        m = meet_poset(p)
        assert 1 < len(m) < len(p)
    assert not built
    assert str(m.bottom()) == "{0}" and built  # reading them builds them


# ----- reconstruction ---------------------------------------------------------


def test_reconstruct_two_triangles():
    p = parse_facet_string("a*b*c,b*c*d").face_poset()
    d1, d2 = reconstruct_theta_pair(p)
    assert {frozenset(f) for f in d1.facets} == {frozenset("abc"), frozenset("bcd")}
    assert {frozenset(f) for f in d2.facets} == {frozenset("bc"), frozenset("a"), frozenset("d")}
    assert are_isomorphic(theta_glue(d1, d2), p)


def test_reconstruct_boolean_lattice():
    b = boolean_lattice(3)
    d1, d2 = reconstruct_theta_pair(b)
    assert [sorted(f) for f in d1.facets] == [["x1", "x2", "x3"]]
    assert {frozenset(f) for f in d2.facets} == {frozenset(["x1"]), frozenset(["x2"]), frozenset(["x3"])}
    assert are_isomorphic(theta_glue(d1, d2), b)


def test_reconstruct_renames_awkward_atom_labels():
    # atoms named by non-vertex labels force the fallback names p1, p2, ...
    elems = [BOT, L("a"), L("a*b")]
    covers = [(BOT, L("a")), (BOT, L("a*b"))]
    p = Poset.from_covers(elems, covers)
    d1, d2 = reconstruct_theta_pair(p)
    assert set(d1.vertices) == {"p1", "p2"}
    assert are_isomorphic(theta_glue(d1, d2), p)


def test_reconstruct_rejects_family_with_containments(two_points_two_edges):
    with pytest.raises(PreconditionError, match=r"condition \(i\)"):
        reconstruct_theta_pair(two_points_two_edges)


def test_reconstruct_rejects_doubled_meet_poset(four_triangles_two_shared_edges):
    assert is_antichain_list(atom_family(four_triangles_two_shared_edges))
    with pytest.raises(PreconditionError, match=r"condition \(ii\)"):
        reconstruct_theta_pair(four_triangles_two_shared_edges)


@settings(max_examples=25, deadline=None)
@given(small_complexes, small_complexes)
def test_reconstruct_round_trips_theta_outputs(d1, d2):
    p = theta_glue(d1, d2)
    e1, e2 = reconstruct_theta_pair(p)
    assert are_isomorphic(theta_glue(e1, e2), p)


def test_reconstruction_matches_the_label_oracle(complex_corpus, two_points_two_edges, four_triangles_two_shared_edges):
    """The atom family, the meet poset and the reconstructed pair, against
    the label-based code they replaced, on the corpus's face posets, both
    fixtures and theta samples at n = 6..11."""
    posets = [c.face_poset() for c in complex_corpus] + [two_points_two_edges, four_triangles_two_shared_edges]
    posets += [
        rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=0.6, seed=seed))
        for n in range(6, 12)
        for p1, seed in ((0.5, n), (0.8, 100 + n))
    ]
    reconstructed = 0
    for p in posets:
        assert atom_family(p) == oracle_atom_family(p)
        assert meet_poset(p).to_json() == oracle_meet_poset(p).to_json()
        try:
            expected = oracle_reconstruct_theta_pair(p)
        except PreconditionError as err:
            with pytest.raises(PreconditionError, match=re.escape(str(err))):
                reconstruct_theta_pair(p)
            continue
        assert reconstruct_theta_pair(p) == expected
        reconstructed += 1
    assert reconstructed == len(posets) - 2  # the fixtures fail conditions (i) and (ii)
