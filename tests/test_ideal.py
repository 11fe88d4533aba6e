"""Defining ideals: generators, reduction, Stanley-Reisner comparison,
monomial ideals."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simposets import (
    ElementNotFoundError,
    InvalidGluingError,
    InvariantError,
    MonomialIdeal,
    PreconditionError,
    RandomModelParams,
    StructureError,
    boolean_lattice,
    delta_glue,
    monomial_ideals_equal,
    parse_facet_string,
    rand_simplicial_poset,
    reduce_face_poset_ideal,
    stanley_poset_ideal,
    stanley_reisner_ideal,
)
import simposets.ideal as ideal_module
import simposets.poset as poset_module
from simposets.ideal import _minimal_rows
from simposets.labels import Label
from simposets.poset import Poset

from conftest import random_complex
from oracles import (
    brute_generators,
    brute_incomparable_pairs,
    brute_minimal_nonfaces,
    brute_reduced_generators,
)
from test_gluing import glue_two_b4, random_delta_inputs
from test_poset import random_pair_merge

L = Label.parse
BOT = Label.bottom()

small_complexes = st.integers(0, 10_000).map(
    lambda s: random_complex(random.Random(s), max_vertices=7, max_facets=5)
)


# ----- monomial ideals ----------------------------------------------------------


def test_monomial_rows_render():
    ideal = MonomialIdeal(variables=("a", "b", "c"), generators=((2, 0, 1), (0, 0, 0), (0, 1, 0)))
    assert ideal.render_lines() == ["x[a]^2*x[c]", "1", "x[b]"]


def test_monomial_rejects_a_row_of_the_wrong_length():
    for row in [(1,), (1, 0, 0, 0), ()]:
        with pytest.raises(ValueError, match="needs 3 nonnegative entries"):
            MonomialIdeal(variables=("a", "b", "c"), generators=(row,))


@pytest.mark.parametrize("exponents", [(1.5, 0), (2.0, 0), (0, "1"), (0, None)])
def test_monomial_rejects_non_integral_entries(exponents):
    with pytest.raises(ValueError, match="non-integral"):
        MonomialIdeal(variables=("a", "b"), generators=(exponents,))


def test_monomial_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="needs 2 nonnegative entries"):
        MonomialIdeal(variables=("a", "b"), generators=((1, 0), (0, -1)))


def test_monomial_rejects_an_exponent_outside_int64():
    with pytest.raises(ValueError, match="above 9223372036854775807"):
        MonomialIdeal(variables=("a",), generators=((2**63,),))
    top = MonomialIdeal(variables=("a",), generators=((2**63 - 1,),))
    assert monomial_ideals_equal(top, top)


def test_monomial_rows_accept_numpy_integers():
    ideal = MonomialIdeal(variables=("a", "b", "c"), generators=(np.array([2, 0, 1], dtype=np.int8),))
    assert ideal.generators == ((2, 0, 1),)
    assert all(type(e) is int for e in ideal.generators[0])


def test_graded_order_matches_the_expanded_key():
    # exponents up to 3, so rows of equal degree tie in many ways; the key
    # is the degree, then the variable indices repeated by their exponents
    rng = np.random.default_rng(5)
    for _ in range(200):
        nvars = int(rng.integers(0, 6))
        exps = rng.integers(0, 4, size=(int(rng.integers(0, 30)), nvars))
        variables = tuple(f"v{k}" for k in range(nvars))
        got = ideal_module._graded_ideal(variables, exps).generators
        expanded = [tuple(np.repeat(np.arange(nvars), row).tolist()) for row in exps]
        want = [tuple(exps[k].tolist()) for k in sorted(range(len(exps)), key=lambda k: (len(expanded[k]), expanded[k]))]
        assert list(got) == want


# ----- stanley poset ideal ----------------------------------------------------


def test_chain_has_no_generators():
    p = Poset.from_covers([BOT, L("a")], [(BOT, L("a"))])
    assert stanley_poset_ideal(p).generators == ()


def test_doubled_edge_generators(two_points_two_edges):
    pres = stanley_poset_ideal(two_points_two_edges)
    assert pres.render_lines() == [
        "x[l1]*x[l2]",
        "x[x]*x[y] - x[l1] - x[l2]",
    ]


def test_render_orders_terms_by_degree_then_lex(complex_corpus):
    for c in complex_corpus:
        for terms in stanley_poset_ideal(c.face_poset()).generators:
            assert list(terms) == sorted(terms, key=lambda t: (-len(t[0]), t[0]))


def test_single_edge_generator():
    pres = stanley_poset_ideal(parse_facet_string("a*b").face_poset())
    assert pres.render_lines() == ["x[a]*x[b] - x[a*b]"]


def test_generator_includes_meet_factor():
    pres = stanley_poset_ideal(parse_facet_string("a*b*c").face_poset())
    lines = pres.render_lines()
    assert "x[a*b]*x[b*c] - x[a*b*c]*x[b]" in lines
    assert "-x[a]*x[a*b*c] + x[a*b]*x[a*c]" in lines


def test_stanley_poset_ideal_requires_simplicial():
    top = L("t")
    elems = [BOT, L("a"), L("b"), L("c"), top]
    covers = [(BOT, L(v)) for v in "abc"] + [(L(v), top) for v in "abc"]
    with pytest.raises(PreconditionError):
        stanley_poset_ideal(Poset.from_covers(elems, covers))


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_generator_count_is_incomparable_pair_count(c):
    p = c.face_poset()
    pres = stanley_poset_ideal(p)
    assert len(pres.generators) == len(brute_incomparable_pairs(p))


@settings(max_examples=30, deadline=None)
@given(small_complexes)
def test_generators_use_declared_variables(c):
    pres = stanley_poset_ideal(c.face_poset())
    nvars = len(pres.variables)
    for terms in pres.generators:
        for indices, sign in terms:
            assert sign in (1, -1)
            assert list(indices) == sorted(set(indices))
            assert all(0 <= i < nvars for i in indices)


# ----- the blockwise kernel against per-pair queries -----------------------------


def relabeled(p, rng):
    """The same order under fresh labels in shuffled canonical order, so the
    bottom is usually not the first element."""
    names = [f"e{k}" for k in range(len(p))]
    rng.shuffle(names)
    new = {e: L(name) for e, name in zip(p.elements, names)}
    return Poset.from_covers(list(new.values()), [(new[a], new[b]) for a, b in p.covers])


KERNEL_GRID = [(n, p, seed) for n in (4, 6, 8, 10) for p in (0.5, 0.8) for seed in (0, 1)]


def test_kernel_matches_per_pair_reference():
    rng = random.Random(5)
    several_upper_bounds = 0
    for n, prob, seed in KERNEL_GRID:
        sample = rand_simplicial_poset(RandomModelParams(n=n, p1=prob, p2=prob, seed=seed))
        for p in (sample, relabeled(sample, rng)):
            want = brute_generators(p)
            assert stanley_poset_ideal(p).generators == want
        several_upper_bounds += sum(1 for terms in want if len(terms) > 2)
    assert several_upper_bounds > 100


def kernel_corpus():
    """Simplicial posets that are not theta samples: relabeled boolean
    lattices, accepted delta_glue outputs (two copies of B4 glued along two
    triangles among them), and the quotients of random pair merges that
    stay simplicial."""
    rng = random.Random(11)
    for k in range(2, 6):
        yield relabeled(boolean_lattice(k), rng)
    yield glue_two_b4()
    yield relabeled(glue_two_b4(), rng)
    for seed in range(400):
        a, b, facet_map, atom_map = random_delta_inputs(random.Random(seed))
        try:
            yield delta_glue(a, b, facet_map, atom_map)
        except (InvalidGluingError, ElementNotFoundError):
            pass
    for seed in range(600):
        p, classes = random_pair_merge(seed)
        try:
            q = p.quotient(classes)
        except StructureError:
            continue
        if q.is_simplicial():
            yield q


def test_kernel_matches_per_pair_reference_beyond_theta_samples():
    kinds = Counter()
    for p in kernel_corpus():
        want = brute_generators(p)
        assert stanley_poset_ideal(p).generators == want
        kinds["posets"] += 1
        for terms in want:
            if len(terms) > 1:
                meet = "bottom meet" if len(terms[-1][0]) == 1 else "meet above the bottom"
                bounds = "one bound" if len(terms) == 2 else "several bounds"
                kinds[meet, bounds] += 1
    assert kinds["posets"] > 250
    assert kinds["meet above the bottom", "one bound"] > 1000
    assert kinds["meet above the bottom", "several bounds"] >= 10
    assert kinds["bottom meet", "several bounds"] >= 10


def test_generators_read_like_the_tuple_of_records():
    p = rand_simplicial_poset(RandomModelParams(n=8, p1=0.8, p2=0.8, seed=1))
    pres = stanley_poset_ideal(p)
    gens, want = pres.generators, brute_generators(p)
    assert any(len(terms) > 2 for terms in want) and any(len(terms[-1][0]) == 1 for terms in want)
    n = len(want)
    assert len(gens) == n
    assert [gens[k] for k in range(n)] == list(want)
    assert [gens[k - n] for k in range(n)] == list(want)
    assert gens[np.intp(3)] == want[3]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            gens[bad]
    for cut in (slice(None), slice(5, 40), slice(-30, None, 3), slice(None, None, -2), slice(9, 2)):
        assert gens[cut] == want[cut]
    assert tuple(gens) == want and list(iter(gens)) == list(want)
    assert gens == want and want == gens
    assert gens != want[:-1] and want[:-1] != gens
    assert (gens == list(want)) is False and gens != list(want)  # only tuples compare equal
    assert hash(gens) == hash(want)
    again = stanley_poset_ideal(p)
    assert again == pres and again.generators == gens and hash(again) == hash(pres)
    assert repr(gens) == repr(want)


def test_generator_count_builds_no_record(monkeypatch):
    p = rand_simplicial_poset(RandomModelParams(n=8, p1=0.8, p2=0.8, seed=1))

    def fail(*args):
        raise AssertionError("a generator record was built")

    monkeypatch.setattr(ideal_module._Generators, "_records", fail)
    pres = stanley_poset_ideal(p)
    assert len(pres.generators) == len(brute_incomparable_pairs(p))
    assert len(pres.render_lines()) == len(pres.generators)
    with pytest.raises(AssertionError, match="record was built"):
        pres.generators[0]


def test_generators_are_read_only():
    pres = stanley_poset_ideal(boolean_lattice(3))
    gens = pres.generators
    with pytest.raises(ValueError):
        gens.lo[0] = 1
    with pytest.raises(TypeError):
        gens[0] = ()
    with pytest.raises(AttributeError):
        gens.extra = 1


def test_kernel_blocks_do_not_change_the_generators(monkeypatch):
    p = rand_simplicial_poset(RandomModelParams(n=8, p1=0.8, p2=0.8, seed=1))
    whole = stanley_poset_ideal(p).generators
    monkeypatch.setattr(poset_module, "_BLOCK_CELLS", 7 * len(p))  # 7 pairs a block
    assert stanley_poset_ideal(p).generators == whole


@pytest.mark.parametrize(
    "poset",
    [
        Poset.from_covers([L("a")], []),
        boolean_lattice(0),
        boolean_lattice(1),
    ],
    ids=["point", "boolean0", "boolean1"],
)
def test_posets_without_incomparable_pairs_have_no_generators(poset):
    pres = stanley_poset_ideal(poset)
    assert pres.generators == ()
    assert pres.render_lines() == []


def test_kernel_raises_like_meet_on_a_forced_nonsimplicial_poset():
    # 0 < a, b < x, y < t: x and y have the two maximal common lower bounds
    # a and b
    elems = [BOT] + [L(v) for v in "abxyt"]
    covers = [(BOT, L("a")), (BOT, L("b"))]
    covers += [(L(lo), L(hi)) for lo in "ab" for hi in "xy"]
    covers += [(L("x"), L("t")), (L("y"), L("t"))]
    p = Poset.from_covers(elems, covers)
    p._simplicial = True
    with pytest.raises(InvariantError) as from_meet:
        p.meet(L("x"), L("y"))
    with pytest.raises(InvariantError) as from_kernel:
        stanley_poset_ideal(p)
    assert str(from_kernel.value) == str(from_meet.value)
    assert str(from_kernel.value) == "x and y have 2 maximal common lower bounds; poset is not simplicial"


def test_kernel_raises_from_the_call_in_a_later_block(monkeypatch):
    # the poset above with four more atoms below t: x and y are the last of
    # 24 pairs with a common upper bound, so with blocks of 7 the failed
    # meet check is in the fourth block
    elems = [BOT] + [L(v) for v in "abxyt"] + [L(f"c{k}") for k in range(4)]
    covers = [(BOT, L("a")), (BOT, L("b"))]
    covers += [(L(lo), L(hi)) for lo in "ab" for hi in "xy"]
    covers += [(L("x"), L("t")), (L("y"), L("t"))]
    covers += [(BOT, L(f"c{k}")) for k in range(4)] + [(L(f"c{k}"), L("t")) for k in range(4)]
    p = Poset.from_covers(elems, covers)
    p._simplicial = True
    monkeypatch.setattr(poset_module, "_BLOCK_CELLS", 7 * len(p))  # 7 pairs a block
    a, b, blocks = ideal_module._pair_blocks(p)
    variables = p.elements[1:]  # the bottom sorts first
    assert a.size == 24 and (variables[a[-1]], variables[b[-1]]) == (L("x"), L("y"))
    for _ in range(3):
        next(blocks)
    with pytest.raises(InvariantError, match="x and y have 2 maximal common lower bounds"):
        next(blocks)
    with pytest.raises(InvariantError, match="x and y have 2 maximal common lower bounds"):
        stanley_poset_ideal(p)


@pytest.mark.parametrize("pairs", [1, 7, None], ids=["1-pair-blocks", "7-pair-blocks", "one-block"])
def test_both_ideals_match_the_oracles_on_the_complex_corpus(complex_corpus, monkeypatch, pairs):
    """Both ideals read the terms of the same blocks: the presentation
    against ``brute_generators``, the reduction against the substitution
    of atom supports into those records, whatever the block size."""
    several_blocks = 0
    for c in complex_corpus:
        p = c.face_poset()
        cells = len(p) * (pairs or len(p) ** 2)  # None: all pairs in one block
        monkeypatch.setattr(poset_module, "_BLOCK_CELLS", cells)
        several_blocks += sum(1 for _ in ideal_module._pair_blocks(p)[2]) > 1
        assert stanley_poset_ideal(p).generators == brute_generators(p)
        reduced = reduce_face_poset_ideal(p)
        assert (reduced.variables, list(reduced.generators)) == brute_reduced_generators(p)
    assert (several_blocks > 0) == (pairs is not None)


def brute_minimal(expanded):
    monomials = [Counter(e) for e in expanded]
    return sorted(
        e for e, m in zip(expanded, monomials)
        if not any(o != m and all(m[v] >= k for v, k in o.items()) for o in monomials)
    )


@pytest.mark.parametrize("cells", [None, 1])
def test_minimal_monomials_match_pairwise_divisibility(monkeypatch, cells):
    if cells is not None:  # one row per block
        monkeypatch.setattr(poset_module, "_BLOCK_CELLS", cells)
    rng = random.Random(17)
    for _ in range(60):
        nvars = rng.randint(1, 6)
        expanded = sorted(
            {
                tuple(sorted(rng.choices(range(nvars), k=rng.randint(0, 5))))
                for _ in range(rng.randint(0, 150))
            },
            key=len,
        )
        exps = np.array([[e.count(v) for v in range(nvars)] for e in expanded]).reshape(-1, nvars)
        kept = _minimal_rows(exps)
        assert sorted(expanded[r] for r in kept) == brute_minimal(expanded)


# ----- pinned rendering --------------------------------------------------------

# sha256 of the rendered generator lines.  Any change in the rendered text
# (term order, signs, the leading negative term, the bottom meet read as 1)
# changes a digest.
PINNED_SAMPLES = [(6, 0.5, 7), (7, 0.6, 11), (8, 0.5, 3), (8, 0.4, 21)]


def render_digest(line_lists):
    h = hashlib.sha256()
    for lines in line_lists:
        h.update("\n".join(lines).encode())
        h.update(b"\n--\n")
    return h.hexdigest()


def test_rendering_is_pinned_on_complex_corpus(complex_corpus):
    posets = [c.face_poset() for c in complex_corpus]
    assert render_digest(stanley_poset_ideal(p).render_lines() for p in posets) == (
        "83ac8c04fe92aeb3efaca7879a3135b4d7745cd12d31c67764437daa56f0e428"
    )
    assert render_digest(reduce_face_poset_ideal(p).render_lines() for p in posets) == (
        "2ce11d7387bbb7ec769d8a181c27e1db60753b9dce8a967e843dbcbe062bb2ad"
    )


def test_rendering_is_pinned_on_random_samples():
    samples = [
        rand_simplicial_poset(RandomModelParams(n=n, p1=p, p2=p, seed=seed))
        for n, p, seed in PINNED_SAMPLES
    ]
    assert render_digest(stanley_poset_ideal(s).render_lines() for s in samples) == (
        "ee6f479f0fc46c8e31f4c4a65244e5efcf6714791988c220a994fb21712fbc8b"
    )
    faces = [s for s in samples if s.is_face_poset()]
    assert len(faces) == 2
    assert render_digest(reduce_face_poset_ideal(s).render_lines() for s in faces) == (
        "2ab8564de46d15b5a3c30ed012fe6e06b7e867c392bff7dece12012fa90ce561"
    )


def test_rendering_is_pinned_on_n10_samples():
    # two n=10, p=0.8 theta samples of 136 and 162 elements, each over
    # several pair blocks of the kernel
    samples = [
        rand_simplicial_poset(RandomModelParams(n=10, p1=0.8, p2=0.8, seed=seed))
        for seed in (4, 7)
    ]
    assert [len(s) for s in samples] == [136, 162]
    assert render_digest(stanley_poset_ideal(s).render_lines() for s in samples) == (
        "40e8e69e27af01f159dfde13181ffe3b86f8d6f3f7a8d3dabad802a978368f2b"
    )


# ----- stanley-reisner and reduction -------------------------------------------


def test_stanley_reisner_examples():
    assert stanley_reisner_ideal(parse_facet_string("a*b*c")).generators == ()
    two = stanley_reisner_ideal(parse_facet_string("a*b*c,b*c*d"))
    assert two.render_lines() == ["x[a]*x[d]"]
    hollow = stanley_reisner_ideal(parse_facet_string("a*b,b*c,a*c"))
    assert hollow.render_lines() == ["x[a]*x[b]*x[c]"]


def test_reduce_two_triangles():
    p = parse_facet_string("a*b*c,b*c*d").face_poset()
    assert reduce_face_poset_ideal(p).render_lines() == ["x[a]*x[d]"]


def test_reduce_boolean_lattice_is_empty():
    assert reduce_face_poset_ideal(boolean_lattice(3)).generators == ()


def test_reduce_hollow_triangle():
    p = parse_facet_string("a*b,b*c,a*c").face_poset()
    assert reduce_face_poset_ideal(p).render_lines() == ["x[a]*x[b]*x[c]"]


def test_reduce_rejects_a_generator_that_does_not_collapse(monkeypatch):
    # a kernel that gives -x[a*b*c] as the negative term of every pair:
    # x[a]*x[b] - x[a*b*c] substitutes to two distinct monomials
    p = parse_facet_string("a*b*c").face_poset()
    top = stanley_poset_ideal(p).variables.index(L("a*b*c"))
    kernel = ideal_module._pair_blocks

    def top_as_bound(q):
        a, b, blocks = kernel(q)
        return a, b, (
            (gen, np.where(sign < 0, top, lo), np.where(sign < 0, -1, hi), sign)
            for gen, lo, hi, sign in blocks
        )

    monkeypatch.setattr(ideal_module, "_pair_blocks", top_as_bound)
    with pytest.raises(InvariantError, match="neither zero nor a monomial"):
        reduce_face_poset_ideal(p)


def test_reduce_requires_face_poset(two_points_two_edges):
    with pytest.raises(PreconditionError):
        reduce_face_poset_ideal(two_points_two_edges)


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_reduction_matches_stanley_reisner(c):
    reduced = reduce_face_poset_ideal(c.face_poset())
    direct = stanley_reisner_ideal(c)
    assert monomial_ideals_equal(reduced, direct)
    oracle = brute_minimal_nonfaces(c.vertices, c.facets)
    names = direct.variables
    got = [frozenset(names[i] for i, e in enumerate(row) if e) for row in direct.generators]
    assert sorted(got, key=sorted) == sorted(map(frozenset, oracle), key=sorted)


# ----- ideal comparison ---------------------------------------------------------


def mono_ideal(variables, *exponent_maps):
    return MonomialIdeal(
        variables=tuple(variables),
        generators=tuple(tuple(m.get(i, 0) for i in range(len(variables))) for m in exponent_maps),
    )


def test_monomial_ideals_equal_cases():
    v = ("a", "b", "c")
    assert monomial_ideals_equal(mono_ideal(v, {0: 1, 1: 1}), mono_ideal(v, {0: 1, 1: 1}))
    assert not monomial_ideals_equal(mono_ideal(v, {0: 1, 1: 1}), mono_ideal(v, {0: 1}))
    # a redundant multiple is absorbed
    assert monomial_ideals_equal(
        mono_ideal(v, {0: 1, 2: 1}, {0: 1, 1: 1, 2: 1}), mono_ideal(v, {0: 1, 2: 1})
    )
    assert monomial_ideals_equal(mono_ideal(v), mono_ideal(v))
    assert not monomial_ideals_equal(mono_ideal(v), mono_ideal(v, {0: 1}))


def test_monomial_ideals_equal_rejects_mixed_universes():
    with pytest.raises(StructureError):
        monomial_ideals_equal(mono_ideal(("a",)), mono_ideal(("b",)))
