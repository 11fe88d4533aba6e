"""Seeded rng, random graphs, clique complexes, batch sampling."""

import hashlib
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
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

from simposets.poset import _BLOCK_CELLS
from simposets.random_model import _adjacency_blocks, _draws, _threshold

from oracles import brute_maximal_cliques, theta_tally

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


def reference_below(seed, ps, m):
    """Draw by draw from ``SplitMix64.random``: whether each of the first
    ``m`` draws is below ``ps[0]`` and each of the next ``m`` below
    ``ps[1]``."""
    rng = SplitMix64(seed)
    return [rng.random() < ps[k // m] for k in range(2 * m)] if m else []


SEEDS_NEAR_THE_TOP = [(1 << 64) - 3, (1 << 64) - 1, 0, 1234567, 0x9E3779B97F4A7C15]


@pytest.mark.parametrize("n", range(1, 13))
def test_draws_equal_the_reference_stream(n):
    """Each row of the draw grid is its seed's stream, draw by draw, for
    chunks of both graphs' draws whose seeds wrap past 2**64."""
    for start in SEEDS_NEAR_THE_TOP:
        seeds = [(start + i) % (1 << 64) for i in range(7)]
        grid = _draws(np.array(seeds, dtype=np.uint64), n * (n - 1))
        assert grid.dtype == np.uint64 and grid.shape == (7, n * (n - 1))
        expected = []
        for seed in seeds:
            rng = SplitMix64(seed)
            expected.append([rng.random() for _ in range(n * (n - 1))])
        assert (grid * 2.0**-53).tolist() == expected, (n, start)


def reference_masks(n, p1, p2, seed):
    """Both graphs' neighbour bitmasks of the sample on ``seed``, from the
    reference stream."""
    pairs = list(combinations(range(n), 2))
    below = reference_below(seed, (p1, p2), len(pairs))
    masks = [[0] * n, [0] * n]
    for k, edge in enumerate(below):
        if edge:
            i, j = pairs[k % len(pairs)]
            masks[k // len(pairs)][i] |= 1 << j
            masks[k // len(pairs)][j] |= 1 << i
    return masks


@pytest.mark.parametrize("n, count", [(1, 5), (2, 7), (6, 7), (12, 5)])
def test_adjacency_blocks_cross_block_boundaries(monkeypatch, n, count):
    """Blocks of three samples, on seeds that wrap past 2**64: the seeds
    and masks laid end to end are those of the reference stream."""
    m = n * (n - 1) // 2
    monkeypatch.setattr("simposets.poset._BLOCK_CELLS", 3 * 8 * (2 * m + 1 + 2 * n))
    params = RandomModelParams(n=n, p1=0.6, p2=0.4, seed=(1 << 64) - 3)
    blocks = list(_adjacency_blocks(params, count))
    assert [len(seeds) for seeds, _ in blocks] == [3] * (count // 3) + [count % 3] * (count % 3 > 0)
    seeds = [seed for block, _ in blocks for seed in block.tolist()]
    assert seeds == [(params.seed + i) % (1 << 64) for i in range(count)]
    masks = [pair for _, adj in blocks for pair in adj.tolist()]
    assert masks == [reference_masks(n, params.p1, params.p2, seed) for seed in seeds]


def test_draw_grid_stays_within_its_blocks():
    """200,000 samples at n=12 would take a 211 MB grid of draws; a block
    of at most ``_BLOCK_CELLS`` bytes of draws, seeds and masks is held at
    a time, with the temporaries of its expression."""
    params = RandomModelParams(n=12, p1=0.5, p2=0.5, seed=(1 << 64) - 5)
    tracemalloc.start()
    try:
        for _ in _adjacency_blocks(params, 200_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * _BLOCK_CELLS


P_TYPES = [0.3, 1 / 3, 5e-324, 1e-05, 0, 1, Fraction(1, 3), Fraction(1, 10), np.float64(1 / 3), np.float32(1 / 3), np.float32(0.1)]


@pytest.mark.parametrize("p", P_TYPES, ids=lambda p: f"{type(p).__name__}({p})")
def test_threshold_is_the_python_compare(p):
    """A draw ``u * 2**-53`` is below p iff ``u < _threshold(p)``, where
    "below" is Python's ``draw < p``, as ``SplitMix64.random() < p`` reads
    it.  For a np.float32 p that compare is made at float32 precision, so
    the draws within half a float32 step of p do not count as below it,
    where a float64 compare would count some; the draws around
    ``np.nextafter`` of p in both precisions are tested."""
    t = _threshold(p)
    assert 0 <= t <= 1 << 53
    near = [float(p), float(np.nextafter(np.float64(p), 0)), float(np.nextafter(np.float64(p), 1))]
    if isinstance(p, np.float32):
        near += [float(np.nextafter(p, np.float32(0))), float(np.nextafter(p, np.float32(1)))]
        near += [(x + float(p)) / 2 for x in near[-2:]]
    for x in near:
        u0 = int(x * 2.0**53)
        for u in range(max(0, u0 - 2), min(1 << 53, u0 + 3)):
            assert (u < t) == (u * 2.0**-53 < p), (u, t)
    if p in (0, 1):
        assert t == p << 53


def test_threshold_of_a_float32_p_is_not_the_float64_compare():
    """The draw just below the float64 value of ``np.float32(1/3)`` is
    below it in a float64 array compare.  Python's compare is the one
    followed: since numpy 2 it reads the draw at float32 precision, where
    it rounds to p, so that draw is no edge."""
    p = np.float32(1 / 3)
    u = int(float(p) * 2.0**53) - 1
    draw = u * 2.0**-53
    assert (np.array([draw]) < p).tolist() == [True]
    assert (u < _threshold(p)) == (draw < p)
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert not draw < p


def _floats_across_exponents(count, seed=39):
    """``count`` seeded floats in [0, 1), a random significand at each of
    a random binary exponent from 0 down past the subnormals, and each
    one's neighbours."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count // 3):
        x = float(rng.random()) * 2.0 ** -int(rng.integers(0, 1080))
        out += [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, 1.0))]
    return out


EDGE_FLOATS = [0.0, -0.0, 1.0, 5e-324, 2.0**-1022, 2.0**-54, 2.0**-53, 3 * 2.0**-54, 1 - 2.0**-54, 1 - 2.0**-53]


@pytest.mark.parametrize("floats", [EDGE_FLOATS, _floats_across_exponents(510)], ids=["edges", "seeded"])
def test_threshold_of_a_float_is_the_exact_count(floats):
    """The closed form for a float p, ``ceil(p * 2**53)``, counts what the
    bisection counts on the same p as an exact ``Fraction``, at the ends
    of [0, 1], around the subnormals and around the draws' own step, for
    plain floats and ``np.float64``."""
    for p in floats:
        expected = _threshold(Fraction(p))
        assert _threshold(p) == expected, p
        assert _threshold(np.float64(p)) == expected, p


@pytest.mark.parametrize("p", P_TYPES, ids=lambda p: f"{type(p).__name__}({p})")
def test_edges_of_every_p_type_follow_the_reference_stream(p):
    for seed in SEEDS_NEAR_THE_TOP:
        g = erdos_renyi_graph(12, p, SplitMix64(seed))
        below = reference_below(seed, (p, p), 66)
        expected = {frozenset((f"v{i + 1}", f"v{j + 1}")) for (i, j), b in zip(combinations(range(12), 2), below) if b}
        assert {frozenset(e) for e in g.edges} == expected


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


@pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
@pytest.mark.parametrize("p1, p2", [(0.0, 1.0), (1.0, Fraction(1, 3)), (Fraction(1, 3), 0.0), (0.7, 0.3)])
@pytest.mark.parametrize("n", range(1, 13))
def test_rand_simplicial_poset_uses_one_stream(n, p1, p2, seed):
    """A sample, drawn on the batch's draw path (``_adjacency_blocks``),
    against the one-at-a-time reference: both graphs from one
    ``SplitMix64(seed)``, the first graph's draws first."""
    rng = SplitMix64(seed)
    first = kahle_complex(n, p1, rng)
    second = kahle_complex(n, p2, rng)
    params = RandomModelParams(n=n, p1=p1, p2=p2, seed=seed)
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
    st.one_of(st.integers(0, (1 << 64) - 1), st.integers((1 << 64) - 4, (1 << 64) - 1)),
    st.integers(1, 4),
)
def test_run_batch_matches_full_construction_on_random_seeds(n, p1, p2, seed, count):
    """Chunks of more than one sample, so each row's seed offset counts,
    and chunks whose seeds wrap past 2**64."""
    batch = run_batch(RandomModelParams(n=n, p1=p1, p2=p2, seed=seed), count)
    assert batch["per_sample"] == [full_record(n, p1, p2, (seed + i) % (1 << 64)) for i in range(count)]


def oracle_records(n, p1, p2, seed, count):
    """The per-sample records of ``run_batch``, one sample at a time: the
    masks of the reference stream, counted by the per-sample tally."""
    records = []
    for i in range(count):
        sample_seed = (seed + i) % (1 << 64)
        elements, face_poset = theta_tally(*reference_masks(n, p1, p2, sample_seed))
        records.append({"seed": sample_seed, "is_face_poset": face_poset, "atoms": n, "elements": elements})
    return records


PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def batches(draw):
    """``(n, p1, p2, seed, count)``; every other seed lies within ``count``
    of 2**64, so the batch wraps past it."""
    count = draw(st.integers(1, 40))
    seed = draw(st.one_of(st.integers(0, (1 << 64) - 1), st.integers((1 << 64) - count, (1 << 64) - 1)))
    return draw(st.integers(1, 12)), draw(PROBABILITIES), draw(PROBABILITIES), seed, count


@settings(max_examples=150, deadline=None)
@given(batches())
def test_run_batch_matches_the_per_sample_tally(batch):
    n, p1, p2, seed, count = batch
    got = run_batch(RandomModelParams(n=n, p1=p1, p2=p2, seed=seed), count)
    assert got["per_sample"] == oracle_records(n, p1, p2, seed, count)
    assert got["face_poset_count"] == sum(s["is_face_poset"] for s in got["per_sample"])


BLOCK_SIZES = {
    "every block one item": lambda n: 1,
    "three samples a block of draws": lambda n: 3 * 8 * (n * (n - 1) + 1 + 2 * n),
    "two or more samples a block of the tally": lambda n: 2 * (32 << n),
    "one to three faces a block of subset tests": lambda n: 150,
}


@pytest.mark.parametrize("n, p1, p2", [(5, 0.8, 0.5), (7, 1.0, 1.0), (12, 0.9, 0.5)])
@pytest.mark.parametrize("blocks", BLOCK_SIZES)
def test_run_batch_does_not_depend_on_block_ends(monkeypatch, n, p1, p2, blocks):
    """``_BLOCK_CELLS`` small enough that one of the blocked loops of
    ``run_batch`` holds a few items a block: a sample's draws, seed and
    masks take 8 bytes a cell; a sample in the tally takes ``_FACE_BYTES``
    = 32 per face its bound allows, at most ``2**n``; a tested face takes
    40 bytes and 5 per facet.  The records stay those of one block."""
    params = RandomModelParams(n=n, p1=p1, p2=p2, seed=(1 << 64) - 4)
    expected = run_batch(params, 7)
    assert expected["per_sample"] == oracle_records(n, p1, p2, params.seed, 7)
    monkeypatch.setattr("simposets.poset._BLOCK_CELLS", BLOCK_SIZES[blocks](n))
    assert run_batch(params, 7) == expected


@pytest.mark.parametrize("p1", [0.9, 1.0])
def test_tally_memory_is_bounded(p1):
    """1000 samples at n=12 hold up to 4096 faces each; the tally holds
    them a block of samples at a time."""
    params = RandomModelParams(n=12, p1=p1, p2=0.5, seed=3)
    tracemalloc.start()
    try:
        run_batch(params, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


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
