"""Raise sites that no other test reaches: one trigger per input check,
with the CLI's exit code where the CLI reaches it, and one injected fault
per internal invariant, so that no check is dead code.  A table lists every
``raise`` of the package, read off the syntax tree, with the test that
triggers it, so a new raise without a trigger fails here."""

import ast
import json
import re
from collections import Counter
from pathlib import Path

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
    monkeypatch.setattr(gluing_module, "_glued", lambda relation, below: chain)
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


# ----- every raise site and its trigger ---------------------------------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simposets"
TESTS = Path(__file__).resolve().parent

# (module, enclosing function, exception class, message head, the test that
# triggers it as file::function), in source order; the head is the first five
# words of the message, each interpolated value written {}
RAISE_SITES = [
    ("cli", "_read_json", "FormatError", "{}: {}",
     "test_cli.py::test_check_poset_that_is_not_utf8_is_io_error"),
    ("complexes", "SimplicialComplex.face_poset", "InvariantError", "face covers do not generate",
     "test_raise_sites.py::test_face_poset_checks_its_closure"),
    ("complexes", "SimplicialComplex.from_json_dict", "FormatError", "complex JSON needs 'vertices' and",
     "test_complexes.py::test_complex_json_rejects_bad_shapes"),
    ("complexes", "SimplicialComplex.from_json_dict", "FormatError", "complex JSON fields have the",
     "test_complexes.py::test_complex_json_rejects_bad_shapes"),
    ("complexes", "SimplicialComplex.from_json_dict", "FormatError", "facet has the wrong shape:",
     "test_raise_sites.py::test_input_check_raises"),
    ("complexes", "SimplicialComplex.from_json_dict", "FormatError", "facet entry is not a",
     "test_cli.py::test_complex_facet_holding_a_list_is_io_error"),
    ("complexes", "make_complex", "FormatError", "invalid vertex name: {}",
     "test_complexes.py::test_make_complex_validation"),
    ("complexes", "make_complex", "StructureError", "vertex names must be unique",
     "test_complexes.py::test_make_complex_validation"),
    ("complexes", "make_complex", "StructureError", "facet uses unknown vertex: {}",
     "test_complexes.py::test_make_complex_validation"),
    ("complexes", "_simplex_order", "SizeLimitError", "a simplex on {} vertices",
     "test_cli.py::test_check_complex_on_a_16_vertex_facet_exits_2_without_allocating"),
    ("complexes", "boolean_lattice", "ValueError", "boolean_lattice needs a nonnegative integer,",
     "test_poset.py::test_boolean_lattice_guards"),
    ("complexes", "parse_facet_string", "FormatError", "empty facet string",
     "test_complexes.py::test_parse_facet_string"),
    ("complexes", "parse_facet_string", "FormatError", "malformed facet in string: {}",
     "test_raise_sites.py::test_input_check_raises"),
    ("complexes", "make_graph", "StructureError", "vertex names must be unique",
     "test_raise_sites.py::test_input_check_raises"),
    ("complexes", "make_graph", "StructureError", "edge uses unknown vertex: {}",
     "test_complexes.py::test_graph_validation"),
    ("complexes", "make_graph", "StructureError", "loops are not allowed: {}",
     "test_complexes.py::test_graph_validation"),
    ("gluing", "GluingSpec.from_json_dict", "FormatError", "gluing spec JSON needs 'facet_map'",
     "test_cli.py::test_glue_delta_malformed_spec_exits_1"),
    ("gluing", "GluingSpec.from_json_dict", "FormatError", "gluing spec maps have the",
     "test_raise_sites.py::test_input_check_raises"),
    ("gluing", "_spec_map", "FormatError", "gluing spec {} has two",
     "test_cli.py::test_glue_delta_spec_with_two_keys_for_one_label_exits_1"),
    ("gluing", "_disjoint_union", "InvariantError", "disjoint union blocks must ascend",
     "test_raise_sites.py::test_disjoint_union_checks_its_blocks_ascend"),
    ("gluing", "separation", "PreconditionError", "separation requires a simplicial poset",
     "test_gluing.py::test_separation_requires_simplicial"),
    ("gluing", "separation", "InvariantError", "separation produced a non face",
     "test_raise_sites.py::test_separation_checks_its_union_is_a_face_poset"),
    ("gluing", "quotient_by_gluing", "PreconditionError", "not a gluing relation: {}",
     "test_gluing.py::test_quotient_by_invalid_relation_raises"),
    ("gluing", "quotient_by_gluing", "InvariantError", "gluing quotient is not simplicial",
     "test_raise_sites.py::test_gluing_checks_its_quotient_is_simplicial"),
    ("gluing", "delta_glue", "PreconditionError", "delta_glue requires simplicial posets",
     "test_gluing.py::test_delta_glue_requires_simplicial"),
    ("gluing", "delta_glue", "ElementNotFoundError", "facet_map key not in first",
     "test_cli.py::test_glue_delta_unknown_facet_exits_3"),
    ("gluing", "delta_glue", "ElementNotFoundError", "facet_map value not in second",
     "test_raise_sites.py::test_input_check_raises"),
    ("gluing", "delta_glue", "InvalidGluingError", "facet_map_domain",
     "test_gluing.py::test_delta_glue_error_codes"),
    ("gluing", "delta_glue", "ElementNotFoundError", "atom_map key not in first",
     "test_raise_sites.py::test_input_check_raises"),
    ("gluing", "delta_glue", "ElementNotFoundError", "atom_map value not in second",
     "test_gluing.py::test_delta_glue_unknown_elements"),
    ("gluing", "delta_glue", "InvalidGluingError", "atom_map_domain",
     "test_gluing.py::test_delta_glue_error_codes"),
    ("gluing", "delta_glue", "InvalidGluingError", "facet_map_not_injective",
     "test_gluing.py::test_delta_glue_error_codes"),
    ("gluing", "delta_glue", "InvalidGluingError", "atom_map_not_injective",
     "test_gluing.py::test_delta_glue_error_codes"),
    ("gluing", "delta_glue", "InvalidGluingError", "atom_map_incomplete",
     "test_gluing.py::test_delta_glue_error_codes"),
    ("gluing", "delta_glue", "InvalidGluingError", "incompatible",
     "test_acceptance.py::test_criterion_1_session_transcripts"),
    ("gluing", "delta_glue", "InvalidGluingError", "ambiguous_image",
     "test_gluing.py::test_delta_glue_ambiguous_image"),
    ("gluing", "delta_glue", "InvalidGluingError", "image_not_injective",
     "test_gluing.py::test_delta_glue_image_not_injective"),
    ("gluing", "theta_glue", "InvariantError", "separation produced a non face",
     "test_raise_sites.py::test_theta_glue_checks_its_separation_is_a_face_poset"),
    ("gluing", "atom_family", "PreconditionError", "atom_family requires a simplicial poset",
     "test_gluing.py::test_separation_requires_simplicial"),
    ("gluing", "meet_poset", "PreconditionError", "meet_poset requires a simplicial poset",
     "test_gluing.py::test_separation_requires_simplicial"),
    ("gluing", "reconstruct_theta_pair", "PreconditionError", "reconstruct_theta_pair requires a simplicial poset",
     "test_gluing.py::test_separation_requires_simplicial"),
    ("gluing", "reconstruct_theta_pair", "PreconditionError", "condition (i) fails: atom family",
     "test_gluing.py::test_reconstruct_rejects_family_with_containments"),
    ("gluing", "reconstruct_theta_pair", "PreconditionError", "condition (ii) fails: meet poset",
     "test_gluing.py::test_reconstruct_rejects_doubled_meet_poset"),
    ("ideal", "MonomialIdeal.__post_init__", "ValueError", "non-integral exponent in {}",
     "test_ideal.py::test_monomial_rejects_non_integral_entries"),
    ("ideal", "MonomialIdeal.__post_init__", "ValueError", "exponent row {} needs {}",
     "test_ideal.py::test_monomial_rejects_a_row_of_the_wrong_length"),
    ("ideal", "MonomialIdeal.__post_init__", "ValueError", "exponent row {} has an",
     "test_ideal.py::test_monomial_rejects_an_exponent_outside_int64"),
    ("ideal", "stanley_poset_ideal", "PreconditionError", "stanley_poset_ideal requires a simplicial poset",
     "test_ideal.py::test_stanley_poset_ideal_requires_simplicial"),
    ("ideal", "reduce_face_poset_ideal", "PreconditionError", "reduce_face_poset_ideal requires a face poset",
     "test_cli.py::test_ideal_and_reduce_stdout_is_pinned"),
    ("ideal", "reduce_face_poset_ideal", "InvariantError", "substituted generator is neither zero",
     "test_ideal.py::test_reduce_rejects_a_generator_that_does_not_collapse"),
    ("ideal", "monomial_ideals_equal", "StructureError", "monomial ideals live over different",
     "test_ideal.py::test_monomial_ideals_equal_rejects_mixed_universes"),
    ("labels", "Label.atom_set", "FormatError", "invalid vertex name: {}",
     "test_labels.py::test_atom_set_rejects_a_name_that_is_not_a_string_before_sorting"),
    ("labels", "Label.atom_set", "FormatError", "atom-set label needs at least",
     "test_labels.py::test_atom_set_rejects_bad_names"),
    ("labels", "Label.atom_set", "FormatError", "repeated vertex name in atom-set",
     "test_labels.py::test_atom_set_rejects_bad_names"),
    ("labels", "Label.atom_set", "FormatError", "invalid vertex name: {}",
     "test_labels.py::test_atom_set_rejects_bad_names"),
    ("labels", "Label.copy", "FormatError", "copy index must be a",
     "test_labels.py::test_copy_rejects_bad_index"),
    ("labels", "Label.copy", "FormatError", "copy label base must be",
     "test_raise_sites.py::test_input_check_raises"),
    ("labels", "Label.class_of", "FormatError", "class label members must be",
     "test_labels.py::test_class_of_rejects_a_member_that_is_not_a_label_before_sorting"),
    ("labels", "Label.class_of", "FormatError", "class label needs at least",
     "test_labels.py::test_class_members_sorted_and_unique"),
    ("labels", "Label.class_of", "FormatError", "repeated member in class label",
     "test_labels.py::test_class_members_sorted_and_unique"),
    ("labels", "Label.names", "FormatError", "label {} carries no vertex",
     "test_raise_sites.py::test_input_check_raises"),
    ("labels", "Label._copy", "FormatError", "label is nested too deeply",
     "test_gluing.py::test_separation_and_gluing_refuse_labels_past_the_cap"),
    ("labels", "Label._class", "FormatError", "label is nested too deeply",
     "test_labels.py::test_constructors_keep_the_nesting_cap"),
    ("labels", "_read", "FormatError", "cannot parse label from {}",
     "test_cli.py::test_label_that_is_not_a_string_is_io_error"),
    ("labels", "_parse", "FormatError", "label is nested too deeply",
     "test_cli.py::test_deeply_nested_poset_label_is_io_error"),
    ("labels", "_parse", "FormatError", "cannot parse label from ''",
     "test_labels.py::test_parse_matches_the_oracle_on_mutated_strings"),
    ("labels", "_parse", "FormatError", "malformed class label: {}",
     "test_labels.py::test_parse_rejects_malformed"),
    ("labels", "_parse", "FormatError", "unbalanced braces in label: {}",
     "test_labels.py::test_parse_rejects_malformed"),
    ("labels", "_parse", "FormatError", "copy index has too many",
     "test_cli.py::test_copy_index_past_the_int_digit_limit_is_io_error"),
    ("poset", "_loads", "FormatError", "JSON is nested too deeply",
     "test_cli.py::test_deeply_nested_json_is_io_error"),
    ("poset", "_key_order", "StructureError", "a poset needs at least",
     "test_poset.py::test_from_covers_rejects_unknown_and_duplicate_elements"),
    ("poset", "_key_order", "StructureError", "element labels must be unique",
     "test_poset.py::test_from_covers_rejects_unknown_and_duplicate_elements"),
    ("poset", "Poset.__init__", "InvariantError", "reachability matrix is not reflexive",
     "test_raise_sites.py::test_constructor_checks_reflexivity"),
    ("poset", "Poset.__init__", "InvariantError", "covers are not in (lo,",
     "test_raise_sites.py::test_constructor_checks_the_cover_order"),
    ("poset", "Poset.from_covers", "FormatError", "poset elements must be Labels",
     "test_poset.py::test_from_covers_rejects_wrong_types"),
    ("poset", "Poset.from_covers", "FormatError", "cover pair has the wrong",
     "test_poset.py::test_from_covers_rejects_wrong_types"),
    ("poset", "Poset.from_covers", "FormatError", "cover ends must be Labels",
     "test_poset.py::test_from_covers_rejects_wrong_types"),
    ("poset", "Poset.from_covers", "ElementNotFoundError", "unknown element in covers: {}",
     "test_poset.py::test_from_covers_rejects_unknown_and_duplicate_elements"),
    ("poset", "Poset._from_ends", "StructureError", "covers contain a cycle",
     "test_poset.py::test_from_covers_rejects_cycle"),
    ("poset", "Poset._from_ends", "StructureError", "covers must be transitively reduced",
     "test_poset.py::test_from_covers_error_messages_are_pinned"),
    ("poset", "Poset._require", "ElementNotFoundError", "element not in poset: {}",
     "test_poset.py::test_missing_element_lookups"),
    ("poset", "Poset._bottom_index", "StructureError", "poset has no unique minimal",
     "test_poset.py::test_bottom_requires_unique_minimum"),
    ("poset", "Poset.is_face_poset", "PreconditionError", "is_face_poset requires a simplicial poset",
     "test_cli.py::test_check_faceposet_on_nonsimplicial_is_precondition_error"),
    ("poset", "Poset._bounds", "InvariantError", "{} and {} have {}",
     "test_ideal.py::test_kernel_raises_like_meet_on_a_forced_nonsimplicial_poset"),
    ("poset", "Poset._pair_bounds", "PreconditionError", "{} requires a simplicial poset",
     "test_poset.py::test_meet_and_minimal_upper_bounds_need_a_simplicial_poset"),
    ("poset", "Poset.meet", "MeetUndefinedError", "{} and {} have no",
     "test_poset.py::test_meet_undefined_without_common_upper_bound"),
    ("poset", "Poset.quotient", "StructureError", "quotient is not a partial",
     "test_ideal.py::test_kernel_matches_per_pair_reference_beyond_theta_samples"),
    ("poset", "Poset._partition", "StructureError", "classes must partition the elements",
     "test_raise_sites.py::test_input_check_raises"),
    ("poset", "Poset._partition", "StructureError", "a class array must hold",
     "test_gluing.py::test_gluing_relation_requires_partition"),
    ("poset", "Poset._class_array", "StructureError", "classes must be nonempty",
     "test_raise_sites.py::test_input_check_raises"),
    ("poset", "Poset._class_array", "StructureError", "classes must partition the elements",
     "test_gluing.py::test_gluing_relation_requires_partition"),
    ("poset", "Poset.restrict", "StructureError", "an ideal mask needs one",
     "test_poset.py::test_restrict_rejects_a_bad_mask"),
    ("poset", "Poset.restrict", "StructureError", "a poset needs at least",
     "test_poset.py::test_restrict_rejects_a_subset_that_is_not_closed_downward"),
    ("poset", "Poset.restrict", "StructureError", "restrict needs an order ideal",
     "test_poset.py::test_restrict_rejects_a_subset_that_is_not_closed_downward"),
    ("poset", "Poset.from_json_dict", "FormatError", "poset JSON needs 'elements' and",
     "test_cli.py::test_check_wrong_schema_is_io_error"),
    ("poset", "Poset.from_json_dict", "FormatError", "poset JSON fields have the",
     "test_raise_sites.py::test_input_check_raises"),
    ("poset", "Poset.from_json_dict", "FormatError", "cover pair has the wrong",
     "test_poset.py::test_from_json_matches_the_oracle_on_mutated_documents"),
    ("poset", "Poset.from_json_dict", "ElementNotFoundError", "unknown element in covers: {}",
     "test_poset.py::test_from_json_matches_the_oracle_on_mutated_documents"),
    ("poset", "find_isomorphism", "SizeLimitError", "isomorphism search is guarded at",
     "test_poset.py::test_isomorphism_size_guard"),
    ("random_model", "SplitMix64.__init__", "ValueError", "seed must be an integer,",
     "test_random_model.py::test_splitmix_seed_is_masked_to_64_bits"),
    ("random_model", "RandomModelParams.__post_init__", "ValueError", "n must be a positive",
     "test_random_model.py::test_params_validation"),
    ("random_model", "RandomModelParams.__post_init__", "SizeLimitError", "the random model is guarded",
     "test_cli.py::test_random_rejects_oversize_n"),
    ("random_model", "RandomModelParams.__post_init__", "ValueError", "{} must lie in [0,",
     "test_cli.py::test_random_rejects_bad_probability"),
    ("random_model", "RandomModelParams.__post_init__", "ValueError", "seed must be a 64-bit",
     "test_random_model.py::test_params_validation"),
    ("random_model", "erdos_renyi_graph", "ValueError", "n must be a nonnegative",
     "test_random_model.py::test_erdos_renyi_rejects_bools_and_non_numbers"),
    ("random_model", "erdos_renyi_graph", "ValueError", "p must lie in [0,",
     "test_random_model.py::test_erdos_renyi_rejects_bools_and_non_numbers"),
    ("random_model", "run_batch", "ValueError", "count must be a positive",
     "test_random_model.py::test_run_batch_rejects_bad_count"),
]


def message_head(exc):
    """The exception class of a raise and the first five words of its message."""
    if exc is None:  # a bare re-raise
        return "", ""
    if not isinstance(exc, ast.Call):
        return exc.id, ""
    arg = exc.args[0] if exc.args else ast.Constant("")
    if isinstance(arg, ast.JoinedStr):
        text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
    else:
        text = arg.value if isinstance(arg, ast.Constant) else "{}"
    return exc.func.id, " ".join(text.split(" ")[:5])


def raise_sites(node, module, where=()):
    """(module, enclosing function, exception class, message head) of each
    raise statement under ``node``, in source order."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from raise_sites(child, module, (*where, child.name))
            continue
        if isinstance(child, ast.Raise):
            yield (module, ".".join(where), *message_head(child.exc))
        yield from raise_sites(child, module, where)


def test_every_raise_site_is_listed_with_a_trigger():
    """The raise statements of the package are exactly the table's, and each
    entry names a test function that exists.  A raise added without an
    entry, or an entry left behind by a deleted raise, fails here."""
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(raise_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    listed = Counter(entry[:4] for entry in RAISE_SITES)
    assert sorted((found - listed).elements()) == [], "raise sites missing from the table"
    assert sorted((listed - found).elements()) == [], "table entries with no raise site"
    defined = {}
    for path in TESTS.glob("test_*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined[path.name] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    triggers = [entry[4].split("::") for entry in RAISE_SITES]
    assert [f"{f}::{name}" for f, name in triggers if name not in defined.get(f, ())] == []
