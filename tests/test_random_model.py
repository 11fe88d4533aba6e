"""Seeded rng, random graphs, clique complexes, batch sampling."""

import hashlib
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from simposets import (
    RandomModelParams,
    SizeLimitError,
    SplitMix64,
    are_isomorphic,
    boolean_lattice,
    clique_complex,
    erdos_renyi_graph,
    kahle_complex,
    rand_simplicial_poset,
    run_batch,
    theta_glue,
)

from oracles import brute_maximal_cliques

# Reference outputs of the splitmix64 finalizer, cross-checked against the
# published C implementation.
SPLITMIX_VECTORS = {
    0: [16294208416658607535],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
    (1 << 64) - 1: [16490336266968443936],
}


def test_splitmix_reference_vectors():
    for seed, outputs in SPLITMIX_VECTORS.items():
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in outputs] == outputs


def test_splitmix_seed_is_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    for seed in ("7", True):
        with pytest.raises(ValueError):
            SplitMix64(seed)


@given(st.integers(0, (1 << 64) - 1))
def test_splitmix_doubles_in_unit_interval(seed):
    rng = SplitMix64(seed)
    for _ in range(8):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        RandomModelParams(n=0, p1=0.5, p2=0.5, seed=1)
    with pytest.raises(SizeLimitError):
        RandomModelParams(n=13, p1=0.5, p2=0.5, seed=1)
    with pytest.raises(ValueError):
        RandomModelParams(n=3, p1=1.5, p2=0.5, seed=1)
    with pytest.raises(ValueError):
        RandomModelParams(n=3, p1=0.5, p2=-0.1, seed=1)
    with pytest.raises(ValueError):
        RandomModelParams(n=3, p1=0.5, p2=0.5, seed=-1)
    with pytest.raises(ValueError):
        RandomModelParams(n=3, p1=0.5, p2=0.5, seed=1 << 64)


@pytest.mark.parametrize(
    "field, value",
    [("n", True), ("p1", "0.5"), ("p1", True), ("p2", None), ("p2", False), ("p1", float("nan")), ("seed", True)],
)
def test_params_reject_bools_and_non_numbers(field, value):
    """Every bad value is a ValueError at construction, before a sample
    or a batch can echo it or fail inside the draws."""
    fields = {"n": 3, "p1": 0.5, "p2": 0.5, "seed": 1}
    with pytest.raises(ValueError, match=field):
        RandomModelParams(**{**fields, field: value})


def test_erdos_renyi_rejects_bools_and_non_numbers():
    for n, p in ((True, 0.5), (3, "0.5"), (3, True), (3, None)):
        with pytest.raises(ValueError):
            erdos_renyi_graph(n, p, SplitMix64(1))


def test_erdos_renyi_extremes():
    assert erdos_renyi_graph(5, 0.0, SplitMix64(3)).edges == frozenset()
    g = erdos_renyi_graph(5, 1.0, SplitMix64(3))
    assert len(g.edges) == 10


def test_erdos_renyi_consumes_one_draw_per_pair():
    # stream position after a graph depends on n alone, not on p
    for p in (0.0, 0.3, 1.0):
        rng = SplitMix64(99)
        erdos_renyi_graph(5, p, rng)
        ref = SplitMix64(99)
        for _ in range(10):
            ref.next_u64()
        assert rng.next_u64() == ref.next_u64()


def test_erdos_renyi_edges_follow_draw_order():
    seed = 2024
    rng = SplitMix64(seed)
    draws = [rng.random() for _ in range(6)]
    expected = set()
    names = ["v1", "v2", "v3", "v4"]
    for (i, j), d in zip(combinations(range(4), 2), draws):
        if d < 0.5:
            expected.add(frozenset((names[i], names[j])))
    g = erdos_renyi_graph(4, 0.5, SplitMix64(seed))
    assert {frozenset(e) for e in g.edges} == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_kahle_facets_are_maximal_cliques(seed, p):
    for n in (1, 2, 6, 9, 12):
        g = erdos_renyi_graph(n, p, SplitMix64(seed))
        c = clique_complex(g)
        assert {frozenset(f) for f in c.facets} == brute_maximal_cliques(g.vertices, g.edges), n
        again = kahle_complex(n, p, SplitMix64(seed))
        assert again == c


def test_kahle_extremes():
    full = kahle_complex(4, 1.0, SplitMix64(1))
    assert [sorted(f) for f in full.facets] == [["v1", "v2", "v3", "v4"]]
    empty = kahle_complex(4, 0.0, SplitMix64(1))
    assert len(empty.facets) == 4 and all(len(f) == 1 for f in empty.facets)


def test_mean_edge_count_matches_binomial_expectation():
    total = 0
    for seed in range(10_000):
        total += len(erdos_renyi_graph(6, 0.5, SplitMix64(seed)).edges)
    mean = total / 10_000
    assert 7.0 < mean < 8.0  # expectation C(6,2)/2 = 7.5


def test_rand_simplicial_poset_uses_one_stream():
    params = RandomModelParams(n=5, p1=0.7, p2=0.3, seed=424242)
    rng = SplitMix64(params.seed)
    first = kahle_complex(params.n, params.p1, rng)
    second = kahle_complex(params.n, params.p2, rng)
    assert rand_simplicial_poset(params).to_json() == theta_glue(first, second).to_json()


def test_rand_simplicial_poset_is_deterministic():
    params = RandomModelParams(n=6, p1=0.5, p2=0.5, seed=7)
    assert rand_simplicial_poset(params).to_json() == rand_simplicial_poset(params).to_json()


# sha256 over the concatenated to_json() of the grid in
# test_theta_output_is_pinned, in loop order
THETA_GRID_SHA256 = "ddd36682fa5a3fad95928d716ed07978f4966e8756a16a3fc0d06eb869373e48"


def test_theta_output_is_pinned():
    """Elements and covers of seeded theta gluings, 3 to 688 elements."""
    digest = hashlib.sha256()
    for n in range(2, 11):
        for p in (0.5, 0.9):
            for seed in (0, 1):
                params = RandomModelParams(n=n, p1=p, p2=p, seed=seed)
                digest.update(rand_simplicial_poset(params).to_json().encode())
    assert digest.hexdigest() == THETA_GRID_SHA256


def test_rand_simplicial_poset_extremes():
    full = rand_simplicial_poset(RandomModelParams(n=4, p1=1.0, p2=1.0, seed=5))
    assert are_isomorphic(full, boolean_lattice(4))
    points = rand_simplicial_poset(RandomModelParams(n=4, p1=0.0, p2=0.0, seed=5))
    assert len(points) == 5 and len(points.atoms()) == 4


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_samples_have_n_atoms_and_are_simplicial(seed):
    p = rand_simplicial_poset(RandomModelParams(n=5, p1=0.5, p2=0.5, seed=seed))
    assert p.is_simplicial()
    assert len(p.atoms()) == 5


def test_run_batch_shape_and_tally():
    params = RandomModelParams(n=4, p1=0.5, p2=0.5, seed=11)
    batch = run_batch(params, 6)
    assert batch["params"] == {"n": 4, "p1": 0.5, "p2": 0.5, "seed": 11}
    assert batch["samples"] == 6
    assert [s["seed"] for s in batch["per_sample"]] == [11, 12, 13, 14, 15, 16]
    assert batch["face_poset_count"] == sum(s["is_face_poset"] for s in batch["per_sample"])
    for s in batch["per_sample"]:
        assert s["atoms"] == 4 and s["elements"] >= 5


def test_run_batch_seed_wraps_at_64_bits():
    params = RandomModelParams(n=3, p1=0.5, p2=0.5, seed=(1 << 64) - 1)
    batch = run_batch(params, 2)
    assert [s["seed"] for s in batch["per_sample"]] == [(1 << 64) - 1, 0]


def test_run_batch_rejects_bad_count():
    params = RandomModelParams(n=3, p1=0.5, p2=0.5, seed=1)
    for count in (0, True, 2.0):
        with pytest.raises(ValueError, match="count"):
            run_batch(params, count)


def test_run_batch_is_deterministic():
    params = RandomModelParams(n=5, p1=0.4, p2=0.6, seed=321)
    assert run_batch(params, 8) == run_batch(params, 8)


def full_record(n, p1, p2, seed):
    """The per-sample record of ``run_batch``, read off the constructed poset."""
    sample = rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=p2, seed=seed))
    return {
        "seed": seed,
        "is_face_poset": sample.is_face_poset(),
        "atoms": len(sample.atoms()),
        "elements": len(sample),
    }


# (n, p1, p2, samples on seeds 0, 1, ...) compared in
# test_run_batch_matches_full_construction
TALLY_GRID = [
    (n, p1, p2, 3)
    for n in range(1, 11)
    for p1, p2 in (
        (0.0, 0.0),
        (0.3, 0.3),
        (0.5, 0.5),
        (0.8, 0.8),
        (1.0, 1.0),
        (0.8, 0.2),
        (0.2, 0.8),
        (1.0, 0.0),
    )
] + [(n, p1, p2, 2) for n in (11, 12) for p1, p2 in ((0.5, 0.5), (0.8, 0.8), (0.8, 0.3))]


def test_run_batch_matches_full_construction():
    for n, p1, p2, count in TALLY_GRID:
        batch = run_batch(RandomModelParams(n=n, p1=p1, p2=p2, seed=0), count)
        expected = [full_record(n, p1, p2, seed) for seed in range(count)]
        assert batch["per_sample"] == expected, (n, p1, p2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(6, 8),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, (1 << 64) - 1),
)
def test_run_batch_matches_full_construction_on_random_seeds(n, p1, p2, seed):
    batch = run_batch(RandomModelParams(n=n, p1=p1, p2=p2, seed=seed), 1)
    assert batch["per_sample"] == [full_record(n, p1, p2, seed)]


def test_full_simplex_at_n11_is_checked_within_budget():
    # 2048 elements; the per-interval pair loop that is_simplicial once ran
    # took about a minute on this sample
    start = time.perf_counter()
    p = rand_simplicial_poset(RandomModelParams(n=11, p1=1.0, p2=1.0, seed=0))
    assert len(p) == 2048
    assert p.is_face_poset()
    elapsed = time.perf_counter() - start
    print(f"n=11 full simplex ({elapsed:.2f}s / 30.0s)")
    assert elapsed <= 30.0, f"n=11 full simplex exceeded 30.0s: {elapsed:.2f}s"
