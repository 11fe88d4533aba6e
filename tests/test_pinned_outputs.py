"""Output texts pinned by digest: each entry of ``pinned_outputs.json`` is
an input recipe, the name of one output text built from it, and the
sha256 of that text.  The outputs are the ones the package promises to
keep byte-identical: ``to_json`` of theta samples, of their separations
and of the separation quotients, the complexes ``reconstruct_theta_pair``
gives back, ``delta_glue`` on the README fixtures and on random simplicial
pairs, ``to_dot`` of a few of these, the violation texts of rejected
relations in report order, and the label maps of ``find_isomorphism`` on
``oracle_pairs()``.

A digest that moves fails here and names the input and the output.  The
file is written by ``write_pinned()``:

    PYTHONPATH=src python tests/test_pinned_outputs.py

Rewriting it is an edit to test data; say why in CHANGES.md.
"""

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from simposets import (
    GluingRelation,
    InvalidGluingError,
    PreconditionError,
    RandomModelParams,
    boolean_lattice,
    delta_glue,
    fiber_relation,
    find_isomorphism,
    quotient_by_gluing,
    rand_simplicial_poset,
    reconstruct_theta_pair,
    separation,
    validate_gluing,
)
from simposets.labels import Label

PINNED = Path(__file__).with_name("pinned_outputs.json")

# n = 12 only at the two densities whose samples are the largest
THETA = [(n, p, p, 1) for n in (6, 8, 10) for p in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
THETA += [(n, p, 0.5, 2) for n in (6, 8, 10) for p in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
THETA += [(12, 0.9, 0.9, 1), (12, 1.0, 1.0, 1)]
DOT = {(6, 0.7, 0.7, 1), (8, 0.8, 0.5, 2), (10, 0.9, 0.9, 1)}

RECIPES = [
    *({"input": "theta", "n": n, "p1": p1, "p2": p2, "seed": seed} for n, p1, p2, seed in THETA),
    {"input": "delta", "fixture": "readme"},
    {"input": "delta", "fixture": "readme, atoms x1 and x2 swapped"},
    *({"input": "delta", "seed": seed} for seed in range(16)),
    *({"input": "rejected relation", "seed": seed} for seed in range(16)),
    {"input": "oracle pairs"},
]


def _theta(n, p1, p2, seed):
    q = rand_simplicial_poset(RandomModelParams(n=n, p1=p1, p2=p2, seed=seed))
    sep = separation(q)
    glued = quotient_by_gluing(fiber_relation(sep))
    try:
        d1, d2 = reconstruct_theta_pair(q)
        pair = d1.to_json() + d2.to_json()
    except PreconditionError as exc:
        pair = f"PreconditionError: {exc}"
    texts = {
        "json": q.to_json(),
        "separation json": sep.separated.to_json(),
        "quotient json": glued.to_json(),
        "reconstruction": pair,
    }
    if (n, p1, p2, seed) in DOT:
        texts |= {"dot": q.to_dot(), "separation dot": sep.separated.to_dot(), "quotient dot": glued.to_dot()}
    return texts


def _delta(fixture=None, seed=None):
    if fixture is not None:
        a = b = boolean_lattice(4)
        facet_map = {Label.parse(f): Label.parse(f) for f in ("x1*x2*x3", "x2*x3*x4")}
        atoms = ["x1", "x2", "x3", "x4"]
        images = atoms if fixture == "readme" else ["x2", "x1", "x3", "x4"]
        atom_map = {Label.parse(x): Label.parse(y) for x, y in zip(atoms, images)}
    else:
        a, b, facet_map, atom_map = _delta_inputs(random.Random(seed))
    try:
        glued = delta_glue(a, b, facet_map, atom_map)
    except InvalidGluingError as exc:
        return {"result": f"InvalidGluingError {exc.code}: {exc.detail}"}
    texts = {"json": glued.to_json()}
    if fixture == "readme":
        texts["dot"] = glued.to_dot()
    return texts


def _delta_inputs(rng):
    """Two random-model samples, an injective map from the atoms of the
    first, and a facet map that mostly sends faces over mapped atoms to an
    element of the second over the image atoms, and otherwise anywhere."""
    a, b = (
        rand_simplicial_poset(RandomModelParams(n=rng.randint(3, 5), p1=rng.choice([0.6, 0.8, 1.0]), p2=0.5, seed=s))
        for s in (rng.randrange(1000), rng.randrange(1000))
    )
    atoms_a, atoms_b = sorted(a.atoms()), sorted(b.atoms())
    rng.shuffle(atoms_a)
    atom_map = dict(zip(atoms_a, atoms_b))
    by_support = {b.atom_support(u): u for u in b.elements}
    faces = [x for x in a.elements[1:] if a.atom_support(x) <= atom_map.keys()]
    facet_map = {}
    for x in rng.sample(faces, min(2, len(faces))):
        y = by_support.get(frozenset(atom_map[s] for s in a.atom_support(x)))
        facet_map[x] = y if y is not None and rng.random() < 0.9 else rng.choice(b.elements)
    return a, b, facet_map, atom_map


def _rejected_relation(seed):
    """The violations of a partition of a random sample's separation: its
    fiber relation with one element moved to another class, or classes of
    about four random elements, one text a line in report order."""
    rng = random.Random(seed)
    params = RandomModelParams(n=3 + seed % 4, p1=(0.5, 0.7, 1.0)[seed % 3], p2=rng.random(), seed=seed)
    sep = separation(rand_simplicial_poset(params))
    groups = [set(c) for c in fiber_relation(sep).classes]
    if seed % 2:
        elems = list(sep.separated.elements)
        groups = [set() for _ in range(max(1, len(elems) // 4))]
        for v in elems:
            groups[rng.randrange(len(groups))].add(v)
    else:
        one, other = rng.sample(range(1, len(groups)), 2)  # never the bottom's class
        v = rng.choice(sorted(groups[one]))
        groups[one].discard(v)
        groups[other].add(v)
    relation = GluingRelation(sep.separated, [frozenset(g) for g in groups if g])
    return {"violations": "\n".join(map(str, validate_gluing(relation).violations))}


def _oracle_pairs():
    from test_poset import oracle_pairs

    texts = {}
    for i, (a, b) in enumerate(oracle_pairs()):
        found = find_isomorphism(a, b)
        texts[f"map {i}"] = "None" if found is None else "\n".join(sorted(f"{x} -> {y}" for x, y in found.items()))
    return texts


INPUTS = {"theta": _theta, "delta": _delta, "rejected relation": _rejected_relation, "oracle pairs": _oracle_pairs}


@lru_cache(maxsize=None)
def _digests(recipe: str) -> dict:
    """The sha256 of each output text of one recipe, given as sorted JSON."""
    args = json.loads(recipe)
    texts = INPUTS[args.pop("input")](**args)
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


def _recipe(entry) -> dict:
    return {k: v for k, v in entry.items() if k not in ("output", "sha256")}


def write_pinned():
    entries = []
    for recipe in RECIPES:
        for output, digest in _digests(json.dumps(recipe, sort_keys=True)).items():
            entries.append({**recipe, "output": output, "sha256": digest})
    PINNED.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":  # before the file is read, so that it may be missing
    write_pinned()

ENTRIES = json.loads(PINNED.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(f"{k}={v}" for k, v in e.items() if k != "sha256"))
def test_output_matches_its_pinned_digest(entry):
    assert _digests(json.dumps(_recipe(entry), sort_keys=True))[entry["output"]] == entry["sha256"]


def test_every_recipe_is_pinned():
    """The file holds every recipe above, and nothing else."""
    pinned = [_recipe(e) for e in ENTRIES]
    assert [r for r in RECIPES if r not in pinned] == []
    assert [r for r in pinned if r not in RECIPES] == []
