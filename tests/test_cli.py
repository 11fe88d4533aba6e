"""Command line behavior: outputs, file round-trips, exit codes."""

import hashlib
import json
import tracemalloc

import pytest

from simposets import (
    InvalidGluingError,
    Poset,
    RandomModelParams,
    SplitMix64,
    boolean_lattice,
    kahle_complex,
    parse_facet_string,
    rand_simplicial_poset,
    reduce_face_poset_ideal,
    stanley_poset_ideal,
)
import simposets.ideal as ideal_module
from simposets.cli import run


@pytest.fixture()
def poset_file(tmp_path):
    def write(poset, name="p.json"):
        path = tmp_path / name
        path.write_text(poset.to_json())
        return str(path)

    return write


def test_check_simplicial_on_boolean_lattice(poset_file, capsys):
    path = poset_file(boolean_lattice(4))
    assert run(["check", "--poset", path, "--test", "simplicial"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_check_faceposet_inline_complex(capsys):
    assert run(["check", "--complex", "a*b*c,b*c*d", "--test", "faceposet"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_check_faceposet_false_on_doubled_edge(poset_file, capsys, two_points_two_edges):
    path = poset_file(two_points_two_edges)
    assert run(["check", "--poset", path, "--test", "faceposet"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_check_complex_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(parse_facet_string("a*b,b*c").to_json())
    assert run(["check", "--complex", str(path), "--test", "simplicial"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_check_missing_file_is_io_error(capsys):
    assert run(["check", "--poset", "/nonexistent/p.json", "--test", "simplicial"]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_malformed_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["check", "--poset", str(path), "--test", "simplicial"]) == 1


def test_check_wrong_schema_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["0"]}))
    assert run(["check", "--poset", str(path), "--test", "simplicial"]) == 1


def test_copy_index_past_the_int_digit_limit_is_io_error(tmp_path, capsys):
    """A copy index too long for ``int()`` is an unreadable label (exit 1),
    not a ValueError from Python's digit limit (exit 2)."""
    label = "1" * 5000 + "@a"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["0", label], "covers": [["0", label]]}))
    assert run(["check", "--poset", str(path), "--test", "simplicial"]) == 1
    assert capsys.readouterr().err == "error: copy index has too many digits: 5000\n"


def test_label_that_is_not_a_string_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["0", "a"], "covers": [["0", ["a"]]]}))
    assert run(["ideal", "--poset", str(path)]) == 1
    assert capsys.readouterr().err == "error: cannot parse label from ['a']\n"


def test_deeply_nested_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["check", "--poset", str(path), "--test", "simplicial"]) == 1
    assert capsys.readouterr().err == f"error: {path}: JSON is nested too deeply\n"


DEEP_LABELS = {"braces": "{" * 400 + "a" + "}" * 400, "copies": "1@" * 3000 + "a"}


@pytest.mark.parametrize("label", DEEP_LABELS.values(), ids=DEEP_LABELS)
def test_deeply_nested_poset_label_is_io_error(tmp_path, capsys, label):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"elements": ["0", label], "covers": [["0", label]]}))
    assert run(["check", "--poset", str(path), "--test", "simplicial"]) == 1
    assert capsys.readouterr().err == "error: label is nested too deeply\n"


@pytest.mark.parametrize("label", DEEP_LABELS.values(), ids=DEEP_LABELS)
def test_deeply_nested_spec_label_is_io_error(tmp_path, capsys, label):
    a = tmp_path / "a.json"
    a.write_text(boolean_lattice(2).to_json())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"facet_map": {label: "x1"}, "atom_map": {}}))
    out = tmp_path / "out.json"
    assert run(["glue-delta", "--a", str(a), "--b", str(a), "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: label is nested too deeply\n"
    assert not out.exists()


def test_check_faceposet_on_nonsimplicial_is_precondition_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps(
            {
                "elements": ["0", "a", "b", "c", "t"],
                "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "t"], ["b", "t"], ["c", "t"]],
            }
        )
    )
    assert run(["check", "--poset", str(path), "--test", "faceposet"]) == 2
    assert "error:" in capsys.readouterr().err


def _write_glue_inputs(tmp_path, atom_map):
    a = tmp_path / "a.json"
    a.write_text(boolean_lattice(4).to_json())
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "facet_map": {"x1*x2*x3": "x1*x2*x3", "x2*x3*x4": "x2*x3*x4"},
                "atom_map": atom_map,
            }
        )
    )
    return str(a), str(spec)


def test_glue_delta_writes_result(tmp_path, capsys):
    a, spec = _write_glue_inputs(
        tmp_path, {"x1": "x1", "x2": "x2", "x3": "x3", "x4": "x4"}
    )
    out = tmp_path / "glued.json"
    assert run(["glue-delta", "--a", a, "--b", a, "--spec", spec, "--out", str(out)]) == 0
    glued = Poset.from_json(out.read_text())
    assert len(glued) == 20
    assert len(glued.maximal_elements()) == 2


def test_glue_delta_invalid_spec_exits_3(tmp_path, capsys):
    a, spec = _write_glue_inputs(
        tmp_path, {"x1": "x2", "x2": "x3", "x3": "x4", "x4": "x1"}
    )
    out = tmp_path / "glued.json"
    assert run(["glue-delta", "--a", a, "--b", a, "--spec", spec, "--out", str(out)]) == 3
    assert capsys.readouterr().err == InvalidGluingError.MESSAGE + "\n"
    assert not out.exists()


def test_glue_delta_unknown_facet_exits_3(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(boolean_lattice(2).to_json())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"facet_map": {"zz": "x1"}, "atom_map": {}}))
    out = tmp_path / "out.json"
    assert run(["glue-delta", "--a", str(a), "--b", str(a), "--spec", str(spec), "--out", str(out)]) == 3


def test_glue_delta_malformed_spec_exits_1(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(boolean_lattice(2).to_json())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"facet_map": {}}))
    out = tmp_path / "out.json"
    assert run(["glue-delta", "--a", str(a), "--b", str(a), "--spec", str(spec), "--out", str(out)]) == 1


def test_glue_theta_inline_complexes(tmp_path, capsys):
    out = tmp_path / "theta.json"
    code = run(["glue-theta", "--a", "a*b*c*x,a*b*c*y", "--b", "a*b,b*c,a*c", "--out", str(out)])
    assert code == 0
    assert run(["check", "--poset", str(out), "--test", "faceposet"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_ideal_prints_generators(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(parse_facet_string("a*b").face_poset().to_json())
    assert run(["ideal", "--poset", str(path)]) == 0
    assert capsys.readouterr().out == "x[a]*x[b] - x[a*b]\n"


def test_reduce_prints_monomials(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(parse_facet_string("a*b*c,b*c*d").face_poset().to_json())
    assert run(["reduce", "--poset", str(path)]) == 0
    assert capsys.readouterr().out == "x[a]*x[d]\n"


PINNED_INPUTS = {
    # n=10, p=0.8 theta sample, 136 elements; not a face poset
    "theta": lambda: rand_simplicial_poset(RandomModelParams(n=10, p1=0.8, p2=0.8, seed=4)),
    # face poset of a clique complex of G(10, 0.65), 97 elements
    "face": lambda: kahle_complex(10, 0.65, SplitMix64(0)).face_poset(),
}


@pytest.mark.parametrize(
    "name, command, code, lines, digest",
    [
        ("theta", "ideal", 0, 7915, "5ca92f43df885fd78cf5f414c0c62eeb383f8ef1a7176a9c81384330068aaa9c"),
        ("theta", "reduce", 2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("face", "ideal", 0, 3912, "334a547af1837ac0aac4d749478ef7d7e21f6973e008bb3b0924e77e4fcd5d63"),
        ("face", "reduce", 0, 16, "0e6a85f1ddc3d996e519743d4fb4c870b36f641541e630b3a7429eba044de954"),
    ],
)
def test_ideal_and_reduce_stdout_is_pinned(poset_file, capsys, name, command, code, lines, digest):
    path = poset_file(PINNED_INPUTS[name]())
    assert run([command, "--poset", path]) == code
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, build", [("ideal", stanley_poset_ideal), ("reduce", reduce_face_poset_ideal)])
def test_ideal_and_reduce_write_the_rendered_lines(poset_file, capsys, monkeypatch, command, build):
    monkeypatch.setattr(ideal_module, "_PAIR_BLOCK", 64)
    p = PINNED_INPUTS["face"]()
    assert sum(1 for _ in ideal_module._pair_blocks(p)[2]) > 1  # several pair blocks
    path = poset_file(p)
    assert run([command, "--poset", path]) == 0
    lines = build(p).render_lines()
    assert len(lines) > 1
    assert capsys.readouterr().out.encode() == b"".join(line.encode() + b"\n" for line in lines)


@pytest.mark.parametrize("command, k", [("ideal", 1), ("reduce", 1), ("reduce", 3)])
def test_empty_ideal_prints_nothing(poset_file, capsys, command, k):
    path = poset_file(boolean_lattice(k))
    assert run([command, "--poset", path]) == 0
    assert capsys.readouterr().out == ""


def test_reduce_requires_face_poset(poset_file, capsys, two_points_two_edges):
    path = poset_file(two_points_two_edges)
    assert run(["reduce", "--poset", path]) == 2


def test_input_too_large_for_memory_exits_2(poset_file, capsys, monkeypatch):
    # A --poset file of 300 000 elements fails this way: from_covers asks
    # numpy for its 300 000 x 300 000 order matrix.
    def exhausted(obj):
        raise MemoryError("Unable to allocate 83.8 GiB for an array")

    monkeypatch.setattr(Poset, "from_json_dict", exhausted)
    path = poset_file(boolean_lattice(1))
    assert run(["check", "--poset", path, "--test", "simplicial"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 83.8 GiB for an array\n"


def test_check_complex_on_a_16_vertex_facet_exits_2_without_allocating(capsys):
    # its face poset would have 2^16 elements, a leq of 4 GiB; the simplex
    # order is refused before anything of that size is asked for
    facet = "*".join(f"v{i}" for i in range(16))
    tracemalloc.start()
    try:
        code = run(["check", "--complex", facet, "--test", "faceposet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "error: a simplex on 16 vertices has 2^16 faces; face orders are guarded at 15 vertices\n"
    )
    assert peak < 1 << 20


def test_random_stdout_json(capsys):
    assert run(["random", "--n", "4", "--p1", "0.5", "--p2", "0.5", "--seed", "3", "--count", "5"]) == 0
    batch = json.loads(capsys.readouterr().out)
    assert batch["samples"] == 5
    assert len(batch["per_sample"]) == 5


def test_random_is_byte_deterministic(capsys):
    argv = ["random", "--n", "5", "--p1", "0.5", "--p2", "0.5", "--seed", "7", "--count", "50"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_random_tally_and_out_file(tmp_path, capsys):
    out = tmp_path / "batch.json"
    argv = [
        "random", "--n", "4", "--p1", "0.5", "--p2", "0.5",
        "--seed", "11", "--count", "6", "--tally", "--out", str(out),
    ]
    assert run(argv) == 0
    batch = json.loads(out.read_text())
    printed = capsys.readouterr().out
    assert printed == f"faceposet: {batch['face_poset_count']}/6\n"


def test_random_rejects_oversize_n(capsys):
    assert run(["random", "--n", "13", "--p1", "0.5", "--p2", "0.5", "--seed", "1"]) == 2


def test_random_rejects_bad_probability(capsys):
    assert run(["random", "--n", "4", "--p1", "1.5", "--p2", "0.5", "--seed", "1"]) == 2


def test_export_dot(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(boolean_lattice(2).to_json())
    assert run(["export-dot", "--poset", str(path)]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph poset {")
    assert '"x1" -> "x1*x2";' in dot


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        run(["frobnicate"])
    assert e.value.code == 2


def test_check_requires_exactly_one_input(capsys):
    with pytest.raises(SystemExit) as e:
        run(["check", "--test", "simplicial"])
    assert e.value.code == 2
