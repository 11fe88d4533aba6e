"""Raise sites that no other test reaches: one trigger per input check,
with the CLI's exit code where the CLI reaches it, and one injected fault
per internal invariant, so that no check is dead code."""

import json
import re

import numpy as np
import pytest

import simposets.complexes as complexes_module
import simposets.gluing as gluing_module
from simposets import (
    ElementNotFoundError,
    FormatError,
    GluingSpec,
    InvariantError,
    Poset,
    SimplicialComplex,
    StructureError,
    boolean_lattice,
    delta_glue,
    fiber_relation,
    make_graph,
    parse_facet_string,
    quotient_by_gluing,
    separation,
    theta_glue,
)
from simposets.cli import run
from simposets.labels import Label

L = Label.parse
BOT = Label.bottom()
B2 = boolean_lattice(2)
B3 = boolean_lattice(3)

# ----- input checks -----------------------------------------------------------

INPUT_CHECKS = {
    "complex facet shape": (
        lambda: SimplicialComplex.from_json_dict({"vertices": ["a"], "facets": ["a"]}),
        FormatError,
        "facet has the wrong shape: 'a'",
    ),
    "facet string": (lambda: parse_facet_string("a*,b"), FormatError, "malformed facet in string: 'a*'"),
    "graph vertex names": (lambda: make_graph(["a", "a"], []), StructureError, "vertex names must be unique"),
    "spec map shape": (
        lambda: GluingSpec.from_json_dict({"facet_map": [], "atom_map": {}}),
        FormatError,
        "gluing spec maps have the wrong shape",
    ),
    "facet_map value": (
        lambda: delta_glue(B2, B2, {L("x1"): L("zz")}, {}),
        ElementNotFoundError,
        "facet_map value not in second poset: zz",
    ),
    "atom_map key": (
        lambda: delta_glue(B2, B2, {}, {L("zz"): L("x1")}),
        ElementNotFoundError,
        "atom_map key not in first poset: zz",
    ),
    "copy base": (lambda: Label.copy(1, "x1"), FormatError, "copy label base must be a Label"),
    "class members": (lambda: Label.class_of(["x1"]), FormatError, "class label members must be Labels"),
    "vertex names": (lambda: BOT.names, FormatError, "label 0 carries no vertex names"),
    "class array shape": (
        lambda: B2.quotient(np.zeros(3, dtype=int)),
        StructureError,
        "classes must partition the elements",
    ),
    "empty class": (lambda: B2.quotient([[], B2.elements]), StructureError, "classes must be nonempty"),
    "poset JSON fields": (
        lambda: Poset.from_json_dict({"elements": "0", "covers": []}),
        FormatError,
        "poset JSON fields have the wrong shape",
    ),
}


@pytest.mark.parametrize("name", INPUT_CHECKS)
def test_input_check_raises(name):
    call, error, message = INPUT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def check(*source):
    return ["check", *source, "--test", "simplicial"]


def glue_delta(tmp_path, spec):
    a = write(tmp_path, "a.json", B2.to_json_dict())
    spec = write(tmp_path, "spec.json", spec)
    return ["glue-delta", "--a", a, "--b", a, "--spec", spec, "--out", str(tmp_path / "out.json")]


@pytest.mark.parametrize(
    "name, argv, code",
    [
        (
            "complex facet shape",
            lambda d: check("--complex", write(d, "c.json", {"vertices": ["a"], "facets": ["a"]})),
            1,
        ),
        ("facet string", lambda d: check("--complex", "a*,b"), 1),
        ("poset JSON fields", lambda d: check("--poset", write(d, "p.json", {"elements": "0", "covers": []})), 1),
        ("spec map shape", lambda d: glue_delta(d, {"facet_map": [], "atom_map": {}}), 1),
        ("facet_map value", lambda d: glue_delta(d, {"facet_map": {"x1": "zz"}, "atom_map": {}}), 3),
        ("atom_map key", lambda d: glue_delta(d, {"facet_map": {}, "atom_map": {"zz": "x1"}}), 3),
    ],
)
def test_input_check_exit_code(tmp_path, capsys, name, argv, code):
    """The documented exit code: 1 for malformed input, 3 for a gluing
    spec that names a label the posets lack, which glue-delta prints
    without the ``error:`` prefix."""
    assert run(argv(tmp_path)) == code
    message = INPUT_CHECKS[name][2]
    assert capsys.readouterr().err == (f"error: {message}\n" if code == 1 else message + "\n")
    assert not (tmp_path / "out.json").exists()


# ----- injected faults ----------------------------------------------------------


def check_fires(message, call):
    with pytest.raises(InvariantError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("fault", ["cycle", "redundant"])
def test_face_poset_checks_its_closure(monkeypatch, fault):
    real = complexes_module._dag

    def broken(n, lo, hi):
        leq, lo, hi, redundant = real(n, lo, hi)
        return None if fault == "cycle" else (leq, lo, hi, np.ones_like(redundant))

    monkeypatch.setattr(complexes_module, "_dag", broken)
    check_fires("face covers do not generate a partial order", lambda: parse_facet_string("a*b,b*c").face_poset())


@pytest.mark.parametrize(
    "blocks", [[(2, B3, np.arange(1, 8)), (1, B3, np.arange(1, 8))], [(1, B3, np.array([2, 1]))]]
)
def test_disjoint_union_checks_its_blocks_ascend(blocks):
    check_fires("disjoint union blocks must ascend", lambda: gluing_module._disjoint_union(blocks))


def test_separation_checks_its_union_is_a_face_poset(monkeypatch, two_points_two_edges):
    monkeypatch.setattr(gluing_module, "_disjoint_union", lambda blocks: two_points_two_edges)
    check_fires("separation produced a non face poset", lambda: separation(B3))


def test_theta_glue_checks_its_separation_is_a_face_poset(monkeypatch, two_points_two_edges):
    monkeypatch.setattr(gluing_module, "_facet_separation", lambda facets, index: (two_points_two_edges, None))
    d1, d2 = parse_facet_string("a*b"), parse_facet_string("a")
    check_fires("separation produced a non face poset", lambda: theta_glue(d1, d2))


def test_gluing_checks_its_quotient_is_simplicial(monkeypatch):
    relation = fiber_relation(separation(B3))
    chain = Poset.from_covers([BOT, L("a"), L("b")], [(BOT, L("a")), (L("a"), L("b"))])
    monkeypatch.setattr(Poset, "quotient", lambda self, classes: chain)
    check_fires("gluing quotient is not simplicial", lambda: quotient_by_gluing(relation))


def test_constructor_checks_reflexivity():
    leq = B3._leq.copy()
    leq[3, 3] = False
    lo, hi = B3._lo.copy(), B3._hi.copy()
    check_fires("reachability matrix is not reflexive", lambda: Poset(B3._labels, leq, lo, hi))


@pytest.mark.parametrize("order", ["reversed", "repeated"])
def test_constructor_checks_the_cover_order(order):
    at = np.arange(B3._lo.size)
    at = at[::-1] if order == "reversed" else np.repeat(at, 2)
    check_fires("covers are not in (lo, hi) order", lambda: Poset(B3._labels, B3._leq.copy(), B3._lo[at], B3._hi[at]))
