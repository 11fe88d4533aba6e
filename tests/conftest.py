"""Shared fixtures: the two hand-built simplicial posets used across the
gluing tests, a reproducible corpus of small random complexes, and random
small orders over a bottom."""

import random

import pytest

from simposets import Poset, make_complex
from simposets.labels import Label

from oracles import warshall, warshall_covers


def _L(text):
    return Label.parse(text)


@pytest.fixture(scope="session")
def two_points_two_edges():
    """Two points x, y joined by two parallel rank-2 elements l1, l2.

    Simplicial but not a face poset: l1 and l2 share atom support {x, y}.
    """
    bot = Label.bottom()
    elems = [bot, _L("x"), _L("y"), _L("l1"), _L("l2")]
    covers = [
        (bot, _L("x")),
        (bot, _L("y")),
        (_L("x"), _L("l1")),
        (_L("x"), _L("l2")),
        (_L("y"), _L("l1")),
        (_L("y"), _L("l2")),
    ]
    return Poset.from_covers(elems, covers)


@pytest.fixture(scope="session")
def four_triangles_two_shared_edges():
    """Four triangles m1..m4 on supports {a,x,y}..{d,x,y}; m1, m2 share the
    doubled edge l1 over {x, y} and m3, m4 share l2.

    Its atom family is an antichain, but its meet poset is the
    two_points_two_edges poset, which is not a face poset.
    """
    bot = Label.bottom()
    atoms = [_L(v) for v in "abcdxy"]
    covers = [(bot, a) for a in atoms]
    elems = [bot] + atoms
    for v, m, l in (("a", "m1", "l1"), ("b", "m2", "l1"), ("c", "m3", "l2"), ("d", "m4", "l2")):
        vx, vy = _L(f"{v}x"), _L(f"{v}y")
        elems += [vx, vy, _L(m)]
        covers += [
            (_L(v), vx),
            (_L(v), vy),
            (_L("x"), vx),
            (_L("y"), vy),
            (vx, _L(m)),
            (vy, _L(m)),
            (_L(l), _L(m)),
        ]
    for l in ("l1", "l2"):
        elems.append(_L(l))
        covers += [(_L("x"), _L(l)), (_L("y"), _L(l))]
    return Poset.from_covers(elems, covers)


def random_complex(rng, max_vertices=7, max_facets=5):
    """A small random complex drawn with the stdlib generator, so corpus
    draws stay independent of the package rng."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        k = rng.randint(1, min(4, n))
        facets.append(tuple(rng.sample(vertices, k)))
    return make_complex(vertices, facets)


def random_order_over_bottom(rng, n):
    """A random order on a bottom and n - 1 further elements: pairs drawn
    at random, closed by Warshall's algorithm."""
    pairs = [(0, j) for j in range(1, n)]
    pairs += [(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < 0.4]
    elems = [Label.bottom()] + [_L(f"v{i}") for i in range(1, n)]
    return Poset.from_covers(elems, [(elems[i], elems[j]) for i, j in warshall_covers(warshall(n, pairs))])


@pytest.fixture(scope="session")
def complex_corpus():
    rng = random.Random(20240311)
    return [random_complex(rng) for _ in range(40)]
