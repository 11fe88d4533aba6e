"""The four benchmark workloads: inputs, one op, and its output check.

Each workload has two steps.  ``choose(sp, seed)`` picks the input seeds
and is not timed.  ``build(sp, chosen)`` takes the freshly imported
``simposets`` package, generates and serialises the inputs, and returns a
``Plan``; it is the timed set-up.  ``plan.job(i)`` is the i-th op.  A job's
``run`` is the timed call into the library and always starts from inputs
that share no ``Poset`` with an earlier op (it samples, or parses JSON),
so the per-object caches never carry over.  ``check`` runs outside the
timed interval, raises ``CheckFailed`` on a wrong output, and returns the
text whose digest the traced and untraced runs must agree on.

Inputs are drawn from seeds derived from the run's seed: a fixed number of
candidates per input stream, of which the ones whose shape
(``oracle.Shape``: element count plus one cost key) lies nearest a fixed
target are kept.  Each seed thus gives different posets of nearly the same
cost for the same set-up work, which keeps runs with different seeds
comparable.  Selection reads
the shape off the library's own clique complexes, which is fast; the
checks recompute it with the brute-force oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from oracle import complex_shape, derive_seed, incomparable_pairs, theta_shape, theta_shape_of

DEFAULT_SEED = 1
HOLDOUT_SEED = 977

# batch: criterion-7 traffic, `simposets random --count` in chunks.
BATCH_N, BATCH_P, BATCH_CHUNK = 6, 0.5, 100
# sha256 of the CLI output for the first chunk of the default seed.
BATCH_PINNED = "4f087b02451bb3792f74ce1fb81ecc73f5a04ad2c7a74c3243b9e68777672580"

# A target maps Shape fields to values; each input stream draws a fixed
# number of candidates and keeps the ones nearest the target.
# dense: large n=10 samples, plus the full simplex on 9 vertices.
DENSE_N, DENSE_PS = 10, (0.85, 0.9)
DENSE_TARGET = {"elements": 410, "work": 310_000, "incomparable_pairs": 75_000}
DENSE_PER_P, DENSE_PER_ROUND, DENSE_DRAWS = 8, 4, 200
FULL_N = 9

# ideal: theta samples and clique-complex face posets.  Their cost follows
# the incomparable-pair count, which is also the generator count; face
# posets are smaller because the reduce path costs more per pair.
IDEAL_THETA = (10, 0.8, {"elements": 212, "work": 50_000, "incomparable_pairs": 19_000}, 12)
IDEAL_FACE = (10, 0.65, {"elements": 92, "incomparable_pairs": 3_200}, 6)
IDEAL_DRAWS = 200

# roundtrip: theta samples of two sizes; both stay under the 500-element
# isomorphism guard.
ROUNDTRIP_SMALL = (10, 0.8, {"elements": 212, "work": 50_000, "incomparable_pairs": 20_000}, 12)
ROUNDTRIP_LARGE = (10, 0.85, {"elements": 312, "work": 90_000, "incomparable_pairs": 44_000}, 12)
ROUNDTRIP_DRAWS = 200


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    run: Callable[[], object]
    check: Callable[[object], str]
    shapes: list = field(default_factory=list)  # Shape of each input, for the census


@dataclass
class Plan:
    job: Callable[[int], Job]
    cycle: int  # ops per round; a timed run is a whole number of rounds
    trace_ops: int  # ops in the traced run


@dataclass
class Workload:
    choose: Callable  # (sp, seed) -> chosen inputs; not timed
    build: Callable  # (sp, chosen) -> Plan; timed as set-up
    # Ops per second on the baseline machine.  A timed run of --seconds S
    # runs about S * baseline_ops_per_s ops, the same number on every
    # commit, so its median and tail always rank the same set of ops.
    baseline_ops_per_s: float


def _select(seed, stream, draw, target, count, draws):
    """Of ``draws`` consecutive seeds of ``stream``, the ``count`` whose
    ``draw(seed)`` shapes lie nearest ``target``, in seed order."""
    base = derive_seed(seed, stream)
    scored = []
    for k in range(draws):
        shape = draw(base + k)
        distance = sum(abs(math.log(max(getattr(shape, key), 1) / value)) for key, value in target.items())
        scored.append((distance, k, shape))
    nearest = sorted(scored)[:count]
    return [(base + k, shape) for _, k, shape in sorted(nearest, key=lambda x: x[1])]


def _facets(complex_):
    return [frozenset(f) for f in complex_.facets]


def _theta_draw(sp, n, p):
    def draw(seed):
        rng = sp.SplitMix64(seed)
        first = sp.kahle_complex(n, p, rng)
        return theta_shape_of(_facets(first), _facets(sp.kahle_complex(n, p, rng)))

    return draw


def _theta_sample(sp, n, p, seed):
    return sp.rand_simplicial_poset(sp.RandomModelParams(n=n, p1=p, p2=p, seed=seed))


# ----- batch ---------------------------------------------------------------


def batch_choose(sp, seed):
    return seed, derive_seed(seed, "batch")


def batch_build(sp, chosen):
    seed, base = chosen

    def job(i):
        first = base + i * BATCH_CHUNK
        argv = ["random", "--n", str(BATCH_N), "--p1", str(BATCH_P), "--p2", str(BATCH_P),
                "--seed", str(first), "--count", str(BATCH_CHUNK)]
        pinned = BATCH_PINNED if seed == DEFAULT_SEED and i == 0 else None

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = sp.cli.run(argv)
            return code, buf.getvalue()

        def check(out):
            code, text = out
            expect(code == 0, f"exit code {code}")
            batch = json.loads(text)
            samples = batch["per_sample"]
            expect(batch["samples"] == BATCH_CHUNK == len(samples), "sample count")
            expect(batch["face_poset_count"] == sum(s["is_face_poset"] for s in samples), "face_poset_count")
            shapes = []
            for k, s in enumerate(samples):
                shape = theta_shape(BATCH_N, BATCH_P, BATCH_P, first + k)
                expect(s["seed"] == first + k, f"seed of sample {k}")
                expect(s["elements"] == shape.elements, f"elements of seed {first + k}")
                expect(s["is_face_poset"] == shape.face_poset, f"is_face_poset of seed {first + k}")
                expect(s["atoms"] == BATCH_N, f"atoms of seed {first + k}")
                shapes.append(shape)
            if pinned is not None:
                expect(hashlib.sha256(text.encode()).hexdigest() == pinned, "batch JSON digest")
            this.shapes[:] = shapes
            return text

        this = Job(run, check)
        return this

    return Plan(job=job, cycle=1, trace_ops=10)


# ----- dense ---------------------------------------------------------------


def dense_choose(sp, seed):
    per_p = [
        [(p, s) for s, _ in _select(seed, f"dense-{p}", _theta_draw(sp, DENSE_N, p), DENSE_TARGET,
                                    DENSE_PER_P, DENSE_DRAWS)]
        for p in DENSE_PS
    ]
    return [x for group in zip(*per_p) for x in group], derive_seed(seed, "full")


def dense_build(sp, chosen):
    # An op samples its own poset, so there is nothing to generate here.
    samples, full_seed = chosen
    expected = {}

    def job(i):
        r, k = divmod(i, DENSE_PER_ROUND + 1)
        if k == 0:
            n, p, s = FULL_N, 1.0, full_seed
        else:
            n, (p, s) = DENSE_N, samples[(r * DENSE_PER_ROUND + k - 1) % len(samples)]

        def run():
            poset = _theta_sample(sp, n, p, s)
            return poset, len(poset), poset.is_face_poset()

        def check(out):
            poset, elements, face = out
            if s not in expected:
                expected[s] = theta_shape(n, p, p, s)
            want = expected[s]
            expect(elements == want.elements, f"elements of n={n} p={p} seed={s}")
            expect(face == want.face_poset, f"is_face_poset of n={n} p={p} seed={s}")
            expect(len(poset.atoms()) == n, f"atoms of n={n} p={p} seed={s}")
            this.shapes[:] = [want]
            return poset.to_json()

        this = Job(run, check)
        return this

    return Plan(job=job, cycle=DENSE_PER_ROUND + 1, trace_ops=2 * (DENSE_PER_ROUND + 1))


# ----- ideal ---------------------------------------------------------------


def _face_complex(sp, s):
    n, p, _, _ = IDEAL_FACE
    return sp.kahle_complex(n, p, sp.SplitMix64(s))


def ideal_choose(sp, seed):
    n, p, target, count = IDEAL_THETA
    theta = _select(seed, "ideal-theta", _theta_draw(sp, n, p), target, count, IDEAL_DRAWS)
    _, _, target, count = IDEAL_FACE
    face = _select(seed, "ideal-face", lambda s: complex_shape(_facets(_face_complex(sp, s))),
                   target, count, IDEAL_DRAWS)
    return theta, face


def ideal_build(sp, chosen):
    theta_seeds, face_seeds = chosen
    n, p, _, _ = IDEAL_THETA
    theta = [(_theta_sample(sp, n, p, s).to_json(), None, shape) for s, shape in theta_seeds]
    face = []
    for s, shape in face_seeds:
        complex_ = _face_complex(sp, s)
        face.append((complex_.face_poset().to_json(), complex_.to_json(), shape))
    pairs = {}

    def job(i):
        r, k = divmod(i, 3)
        if k == 0:
            poset_text, complex_text, shape = face[r % len(face)]
        else:
            poset_text, complex_text, shape = theta[(2 * r + k - 1) % len(theta)]

        def run():
            poset = sp.Poset.from_json(poset_text)
            pres = sp.stanley_poset_ideal(poset)
            out = {"generators": len(pres.generators), "lines": pres.render_lines()}
            if complex_text is not None:
                out["reduced"] = sp.reduce_face_poset_ideal(poset)
                out["reduced_lines"] = out["reduced"].render_lines()
                out["sr"] = sp.stanley_reisner_ideal(sp.SimplicialComplex.from_json(complex_text))
                out["sr_lines"] = out["sr"].render_lines()
            return out

        def check(out):
            if poset_text not in pairs:
                pairs[poset_text] = incomparable_pairs(json.loads(poset_text))
            want = pairs[poset_text]
            expect(out["generators"] == want, f"{out['generators']} generators for {want} incomparable pairs")
            expect(len(out["lines"]) == want, "rendered generator count")
            text = "\n".join(out["lines"])
            if complex_text is not None:
                expect(sp.monomial_ideals_equal(out["reduced"], out["sr"]),
                       "reduced ideal differs from the Stanley-Reisner ideal")
                text += "\n" + "\n".join(out["reduced_lines"] + out["sr_lines"])
            return text

        return Job(run, check, [shape])

    return Plan(job=job, cycle=3, trace_ops=6)


# ----- roundtrip -----------------------------------------------------------


def roundtrip_choose(sp, seed):
    return [
        (spec, _select(seed, stream, _theta_draw(sp, spec[0], spec[1]), spec[2], spec[3], ROUNDTRIP_DRAWS))
        for stream, spec in (("roundtrip-large", ROUNDTRIP_LARGE), ("roundtrip-small", ROUNDTRIP_SMALL))
    ]


def roundtrip_build(sp, chosen):
    large, small = [
        [(_theta_sample(sp, n, p, s).to_json(), shape) for s, shape in picked]
        for (n, p, _, _), picked in chosen
    ]
    cycle = 4

    def job(i):
        r, k = divmod(i, cycle)
        if k == 0:
            text, shape = large[r % len(large)]
        else:
            text, shape = small[(r * (cycle - 1) + k - 1) % len(small)]

        def run():
            poset = sp.Poset.from_json(text)
            back = sp.quotient_by_gluing(sp.fiber_relation(sp.separation(poset)))
            first = sp.are_isomorphic(back, poset)
            d1, d2 = sp.reconstruct_theta_pair(poset)
            again = sp.theta_glue(d1, d2)
            second = sp.are_isomorphic(again, poset)
            return first, second, back, again

        def check(out):
            first, second, back, again = out
            expect(first is True, "separation quotient is not isomorphic to the input")
            expect(second is True, "reconstructed theta gluing is not isomorphic to the input")
            return back.to_json() + again.to_json()

        return Job(run, check, [shape])

    return Plan(job=job, cycle=cycle, trace_ops=2 * cycle)


# Baseline rates: medians of ten 20-second runs on the baseline machine
# (see README.md), rounded.
WORKLOADS = {
    "batch": Workload(batch_choose, batch_build, 5.75),
    "dense": Workload(dense_choose, dense_build, 2.0),
    "ideal": Workload(ideal_choose, ideal_build, 2.3),
    "roundtrip": Workload(roundtrip_choose, roundtrip_build, 4.5),
}

CENSUS_UNITS = {
    "input.elements.min": "count",
    "input.elements.p50": "count",
    "input.elements.max": "count",
    "input.face_poset_share": "ratio",
    "input.incomparable_pairs.p50": "count",
}


def census(shapes):
    """Input properties of the ops run: element counts, face-poset share,
    incomparable non-bottom pairs.  All zero when no op completed."""
    if not shapes:
        return dict.fromkeys(CENSUS_UNITS, 0)
    elements = sorted(s.elements for s in shapes)
    pairs = sorted(s.incomparable_pairs for s in shapes)
    return {
        "input.elements.min": elements[0],
        "input.elements.p50": elements[len(elements) // 2],
        "input.elements.max": elements[-1],
        "input.face_poset_share": sum(s.face_poset for s in shapes) / len(shapes),
        "input.incomparable_pairs.p50": pairs[len(pairs) // 2],
    }
