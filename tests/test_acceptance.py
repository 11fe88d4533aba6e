"""Acceptance suite: one test per shipping criterion, each printing a
single pass/fail line with its elapsed time and enforcing its budget."""

import hashlib
import json
import math
import time
from contextlib import contextmanager

from simposets import (
    InvalidGluingError,
    RandomModelParams,
    are_isomorphic,
    atom_family,
    boolean_lattice,
    delta_glue,
    fiber_relation,
    is_antichain_list,
    meet_poset,
    monomial_ideals_equal,
    parse_facet_string,
    quotient_by_gluing,
    rand_simplicial_poset,
    reconstruct_theta_pair,
    reduce_face_poset_ideal,
    run_batch,
    separation,
    stanley_reisner_ideal,
    theta_glue,
)
from simposets.cli import run
from simposets.labels import Label

from conftest import random_complex
from oracles import brute_minimal_nonfaces

L = Label.parse


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        if elapsed > budget_s:
            status = "FAIL (over budget)"
        print(f"criterion {number} [{status}] {description} ({elapsed:.2f}s / {budget_s}s)")
    assert elapsed <= budget_s, f"criterion {number} exceeded {budget_s}s: {elapsed:.2f}s"


def _samples(count, seed0=1000):
    out = []
    for i in range(count):
        n = 3 + i % 4  # 3..6
        p1 = 0.3 + 0.15 * (i % 5)
        p2 = 0.9 - 0.15 * (i % 4)
        out.append(rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=p2, seed=seed0 + i)))
    return out


def test_criterion_1_session_transcripts():
    with criterion(1, "core session transcripts", 1.0):
        assert boolean_lattice(4).is_simplicial()
        assert parse_facet_string("a*b*c,b*c,a*e").face_poset().is_face_poset()

        b = boolean_lattice(4)
        fm = {L("x1*x2*x3"): L("x1*x2*x3"), L("x2*x3*x4"): L("x2*x3*x4")}
        am = {L(f"x{i}"): L(f"x{i}") for i in range(1, 5)}
        glued = delta_glue(b, b, fm, am)
        assert len(glued.maximal_elements()) == 2
        assert len(glued.atoms()) == 4

        permuted = {L("x1"): L("x2"), L("x2"): L("x3"), L("x3"): L("x4"), L("x4"): L("x1")}
        try:
            delta_glue(b, b, fm, permuted)
        except InvalidGluingError as exc:
            assert str(exc) == "Assignment of atoms-atoms or facets-facets invalid."
        else:
            raise AssertionError("permuted atom map was accepted")


def test_criterion_2_ideal_equality(complex_corpus):
    with criterion(2, "reduced poset ideal equals Stanley-Reisner ideal", 10.0):
        two = parse_facet_string("a*b*c,b*c*d")
        assert monomial_ideals_equal(
            reduce_face_poset_ideal(two.face_poset()), stanley_reisner_ideal(two)
        )
        checked = 0
        for c in complex_corpus:
            if len(c.vertices) > 7:
                continue
            direct = stanley_reisner_ideal(c)
            assert monomial_ideals_equal(reduce_face_poset_ideal(c.face_poset()), direct)
            oracle = brute_minimal_nonfaces(c.vertices, c.facets)
            got = [
                frozenset(direct.variables[i] for i, e in enumerate(row) if e)
                for row in direct.generators
            ]
            assert sorted(got, key=sorted) == sorted(oracle, key=sorted)
            checked += 1
        assert checked >= 20


def test_criterion_3_separation_round_trip():
    with criterion(3, "separation is a face poset and its quotient restores the poset", 60.0):
        samples = _samples(50, seed0=3000)
        for p in samples:
            sep = separation(p)
            assert sep.separated.is_face_poset()
            assert are_isomorphic(quotient_by_gluing(fiber_relation(sep)), p)


def test_criterion_4_reconstruction_round_trip():
    with criterion(4, "atom family antichain + meet poset face poset + reconstruction", 120.0):
        samples = _samples(200, seed0=4000)
        for p in samples:
            assert is_antichain_list(atom_family(p))
            assert meet_poset(p).is_face_poset()
            d1, d2 = reconstruct_theta_pair(p)
            assert are_isomorphic(theta_glue(d1, d2), p)


def test_criterion_5_fixture_conditions(two_points_two_edges, four_triangles_two_shared_edges):
    with criterion(5, "the two reconstruction conditions are independent", 5.0):
        doubled_edge = two_points_two_edges
        assert not is_antichain_list(atom_family(doubled_edge))
        assert meet_poset(doubled_edge).is_face_poset()

        four = four_triangles_two_shared_edges
        assert is_antichain_list(atom_family(four))
        assert not meet_poset(four).is_face_poset()
        assert are_isomorphic(meet_poset(four), doubled_edge)


def test_criterion_6_theta_worked_example():
    with criterion(6, "theta glue doubles exactly the unshared triangle", 5.0):
        p = theta_glue(
            parse_facet_string("a*b*c*x,a*b*c*y"),
            parse_facet_string("a*b,b*c,a*c"),
        )
        assert not p.is_face_poset()
        supports = {}
        for v in p.elements:
            supports.setdefault(p.atom_support(v), []).append(v)
        doubled = {s: vs for s, vs in supports.items() if len(vs) > 1}
        assert len(doubled) == 1
        (s, vs), = doubled.items()
        assert len(s) == 3 and len(vs) == 2
        assert are_isomorphic(meet_poset(p), parse_facet_string("a*b,b*c,a*c").face_poset())


def test_criterion_7_face_poset_frequency():
    with criterion(7, "face-poset frequency band and monotonicity in p", 300.0):
        half = run_batch(RandomModelParams(n=6, p1=0.5, p2=0.5, seed=20240401), 1000)
        f05 = half["face_poset_count"] / half["samples"]
        assert 0.40 <= f05 <= 0.80, f05

        high = run_batch(RandomModelParams(n=6, p1=0.9, p2=0.9, seed=20240401), 500)
        f09 = high["face_poset_count"] / high["samples"]
        se = math.sqrt(
            f05 * (1 - f05) / half["samples"] + f09 * (1 - f09) / high["samples"]
        )
        assert f09 >= f05 - 2 * se, (f05, f09, se)


def test_criterion_8_degenerate_identities(complex_corpus):
    with criterion(8, "theta self-glue and extreme probabilities", 30.0):
        for c in complex_corpus[:20]:
            assert are_isomorphic(theta_glue(c, c), c.face_poset())
        for n in range(3, 7):
            full = rand_simplicial_poset(RandomModelParams(n=n, p1=1.0, p2=1.0, seed=n))
            assert are_isomorphic(full, boolean_lattice(n))
            points = rand_simplicial_poset(RandomModelParams(n=n, p1=0.0, p2=0.0, seed=n))
            assert len(points) == n + 1
            assert len(points.atoms()) == n
            assert points.maximal_elements() == points.atoms()


def test_criterion_9_batch_determinism(capsys):
    with criterion(9, "seeded batches are byte-identical", 30.0):
        argv = ["random", "--n", "6", "--p1", "0.5", "--p2", "0.5", "--seed", "7", "--count", "50"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["samples"] == 50


# sha256 of the stdout of `simposets random` for each argument list
BATCH_SHA256 = {
    ("--n", "6", "--p1", "0.5", "--p2", "0.5", "--seed", "7", "--count", "1000"):
        "a499b8e101189c4b7354a50861ac40a27006740327abee4c2f8fa8aa046b2dce",
    ("--n", "10", "--p1", "0.8", "--p2", "0.4", "--seed", "3", "--count", "50"):
        "ace9673cbe49bcb9b43d3eb186dd9531221f823480e12843db3d37664f677260",
    ("--n", "12", "--p1", "0.7", "--p2", "0.7", "--seed", "1", "--count", "5"):
        "2988510bf493c402b56ab9f2651afab352cf74303b74cc0516ed8ed3cc32dda2",
}


def test_batch_output_is_pinned(capsys):
    for args, digest in BATCH_SHA256.items():
        assert run(["random", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
