"""Simplicial complexes, facet parsing, clique complexes."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simposets import (
    FormatError,
    SimplicialComplex,
    StructureError,
    clique_complex,
    make_complex,
    make_graph,
    parse_facet_string,
)
from simposets.complexes import _position_labels, _simplex_order
from simposets.labels import Label

from conftest import random_complex
from oracles import (
    brute_covers,
    brute_faces,
    brute_maximal_cliques,
    brute_minimal_nonfaces,
    facet_subset,
    oracle_face_poset,
)

small_complexes = st.integers(0, 10_000).map(
    lambda s: random_complex(random.Random(s), max_vertices=7, max_facets=5)
)

vertex_pool = [f"v{i}" for i in range(1, 9)]
small_graphs = st.sets(
    st.sampled_from([tuple(e) for e in combinations(vertex_pool[:6], 2)]), max_size=10
).map(lambda es: make_graph(vertex_pool[:6], es))


def test_make_complex_absorbs_contained_facets():
    c = make_complex(["a", "b", "c"], [("a", "b", "c"), ("b", "c"), ("a",)])
    assert [sorted(f) for f in c.facets] == [["a", "b", "c"]]


def test_make_complex_adds_isolated_vertices_as_points():
    c = make_complex(["a", "b", "c", "z"], [("a", "b", "c")])
    assert ("z",) in c.facets
    assert facet_subset(c.facets, ("z",))


def test_make_complex_validation():
    with pytest.raises(StructureError, match="unknown vertex"):
        make_complex(["a"], [("a", "b")])
    with pytest.raises(StructureError, match="unique"):
        make_complex(["a", "a"], [])
    with pytest.raises(FormatError):
        make_complex(["a", "b*c"], [])


def test_parse_facet_string():
    c = parse_facet_string("a*b*c,b*c*d")
    assert c.vertices == ("a", "b", "c", "d")
    assert [sorted(f) for f in c.facets] == [["a", "b", "c"], ["b", "c", "d"]]
    with pytest.raises(FormatError):
        parse_facet_string("")


def test_is_face():
    c = parse_facet_string("a*b*c,b*c*d")
    assert facet_subset(c.facets, ())
    assert facet_subset(c.facets, ("c", "b"))
    assert not facet_subset(c.facets, ("a", "d"))


def test_minimal_nonfaces_examples():
    assert parse_facet_string("a*b*c,b*c*d").minimal_nonfaces() == [("a", "d")]
    assert parse_facet_string("a*b*c").minimal_nonfaces() == []
    assert parse_facet_string("a*b,b*c,a*c").minimal_nonfaces() == [("a", "b", "c")]


@settings(max_examples=60, deadline=None)
@given(small_complexes)
def test_minimal_nonfaces_match_oracle(c):
    got = [frozenset(m) for m in c.minimal_nonfaces()]
    assert got == brute_minimal_nonfaces(c.vertices, c.facets)


@settings(max_examples=60, deadline=None)
@given(small_complexes)
def test_face_poset_elements_are_faces(c):
    p = c.face_poset()
    assert p.is_face_poset()
    assert len(p) == len(brute_faces(c.facets))
    atoms = {a.single_vertex_name() for a in p.atoms()}
    assert atoms == set(c.vertices)


def assert_matches_oracle(c):
    p = c.face_poset()
    labels, leq, covers, text = oracle_face_poset(c)
    assert p.elements == tuple(labels)
    assert np.array_equal(p._leq, leq)
    assert list(zip(p._lo.tolist(), p._hi.tolist())) == covers
    assert p.covers == {(labels[i], labels[j]) for i, j in covers}
    assert p.to_json() == text


@settings(max_examples=80, deadline=None)
@given(small_complexes)
def test_face_poset_matches_the_oracle(c):
    assert_matches_oracle(c)


SIMPLEX_12 = [f"x{i}" for i in range(12)]
CORNERS = {
    "empty": ([], []),
    "point": (["a"], []),
    "unsorted vertices": (["d", "b", "a", "c"], [["d", "a"], ["c", "b", "d"]]),
    "x10 before x2": (["x2", "x10", "x1", "x3"], [["x10", "x2"], ["x1", "x2", "x3"], ["x10", "x3"]]),
    "70 vertices": ([f"v{i}" for i in range(70)], [["v1", "v2", "v69"], ["v0", "v68"], ["v3", "v64", "v65"]]),
    "12-simplex": (SIMPLEX_12, [SIMPLEX_12]),
}


@pytest.mark.parametrize("name", CORNERS)
def test_face_poset_matches_the_oracle_on_corners(name):
    assert_matches_oracle(make_complex(*CORNERS[name]))


@pytest.mark.parametrize("k", range(7))
def test_simplex_order_position_table(k):
    """Row i of the position table is face i's positions, padded with -1:
    the empty face, then every position tuple in sorted order.  ``leq`` is
    the subset test on those rows, the covers add one position, and the
    labels read from the table are those of the simplex's face poset."""
    pos, leq, lo, hi = _simplex_order(k)
    assert pos.shape == (1 << k, k)
    faces = [tuple(j for j in row if j >= 0) for row in pos.tolist()]
    assert faces == [()] + sorted(c for r in range(1, k + 1) for c in combinations(range(k), r))
    assert pos.tolist() == [list(f) + [-1] * (k - len(f)) for f in faces]
    assert leq.tolist() == [[set(a) <= set(b) for b in faces] for a in faces]
    names = tuple("abcdef"[:k])
    labels, _, covers, _ = oracle_face_poset(make_complex(names, [names]))
    assert list(zip(lo.tolist(), hi.tolist())) == covers
    built = _position_labels(names, pos[pos >= 0], np.count_nonzero(pos >= 0, axis=1))
    assert [str(e) for e in built] == [str(e) for e in labels]


def test_face_poset_order_is_containment():
    p = parse_facet_string("a*b*c").face_poset()
    L = Label.parse
    assert p.leq(L("a"), L("a*b"))
    assert p.leq(Label.bottom(), L("a*b*c"))
    assert not p.leq(L("a*b"), L("b*c"))


def test_face_poset_takes_more_vertices_than_a_machine_word():
    names = [f"v{i}" for i in range(70)]
    p = make_complex(names, [["v1", "v2", "v69"], ["v0", "v68"]]).face_poset()
    assert len(p) == 1 + 70 + 4 + 1
    assert p.is_face_poset()
    assert p.covers == brute_covers(p)
    L = Label.parse
    assert p.leq(L("v69"), L("v1*v2*v69")) and not p.leq(L("v68"), L("v1*v2*v69"))


def test_face_poset_of_the_12_simplex_stays_within_three_leq_sizes():
    """The simplex order and its closure by ``_dag`` each hold about one
    ``leq`` at a time, so the traced peak stays within three times its
    bytes; one n x n int64 temporary alone is eight times them."""
    names = [f"x{i}" for i in range(12)]
    simplex = make_complex(names, [names])
    tracemalloc.start()
    try:
        p = simplex.face_poset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(p)
    assert n == 4096
    assert peak < 3 * n * n
    assert p._leq.sum() == 3**12  # pairs of nested subsets


def test_graph_validation():
    with pytest.raises(StructureError, match="unknown vertex"):
        make_graph(["a"], [("a", "b")])
    with pytest.raises(StructureError, match="loop"):
        make_graph(["a"], [("a", "a")])


def test_clique_complex_triangle_plus_edge():
    g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    c = clique_complex(g)
    assert {frozenset(f) for f in c.facets} == {
        frozenset("abc"),
        frozenset("cd"),
    }


def test_clique_complex_keeps_isolated_vertices():
    g = make_graph(["a", "b"], [])
    c = clique_complex(g)
    assert {frozenset(f) for f in c.facets} == {frozenset("a"), frozenset("b")}


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_clique_complex_matches_brute_cliques(g):
    c = clique_complex(g)
    assert {frozenset(f) for f in c.facets} == brute_maximal_cliques(g.vertices, g.edges)


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_complex_json_round_trip(c):
    again = SimplicialComplex.from_json(c.to_json())
    assert again == c
    assert again.to_json() == c.to_json()


def test_complex_json_rejects_bad_shapes():
    with pytest.raises(FormatError):
        SimplicialComplex.from_json_dict({"vertices": ["a"]})
    with pytest.raises(FormatError):
        SimplicialComplex.from_json_dict({"vertices": "a", "facets": []})


def test_complex_from_json_deeply_nested_is_format_error():
    with pytest.raises(FormatError, match="JSON is nested too deeply"):
        SimplicialComplex.from_json("[" * 100_000 + "]" * 100_000)


def test_facets_are_listed_deterministically():
    c1 = make_complex(["a", "b", "c"], [("c", "b"), ("a", "b")])
    c2 = make_complex(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert c1 == c2
    assert c1.facets == (("a", "b"), ("b", "c"))
