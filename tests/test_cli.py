"""Command line behavior: outputs, file round-trips, exit codes."""

import contextlib
import hashlib
import io
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

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
    run_batch,
    stanley_poset_ideal,
)
import simposets.ideal as ideal_module
import simposets.cli as cli_module
import simposets.poset as poset_module
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


def test_check_poset_that_is_not_utf8_is_io_error(tmp_path, capsys):
    """A UnicodeDecodeError is a ValueError, yet unreadable input exits 1."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    assert run(["check", "--poset", str(path), "--test", "simplicial"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def test_glue_delta_spec_that_is_not_utf8_is_io_error(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(boolean_lattice(2).to_json())
    spec = tmp_path / "spec.json"
    spec.write_bytes(b"\xff{}")
    out = tmp_path / "out.json"
    assert run(["glue-delta", "--a", str(a), "--b", str(a), "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {spec}: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["check", "glue-theta"])
def test_complex_facet_holding_a_list_is_io_error(tmp_path, capsys, command):
    path = str(tmp_path / "c.json")
    (tmp_path / "c.json").write_text(json.dumps({"vertices": ["a"], "facets": [[["a"]]]}))
    out = tmp_path / "out.json"
    argv = {
        "check": ["check", "--complex", path, "--test", "simplicial"],
        "glue-theta": ["glue-theta", "--a", path, "--b", "a", "--out", str(out)],
    }[command]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: facet entry is not a vertex name: ['a']\n"
    assert not out.exists()


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


def test_glue_delta_past_the_label_cap_exits_1_and_writes_nothing(tmp_path, capsys):
    """Gluing copies each label one prefix deeper, so an atom at the cap of
    200 levels cannot be glued: the command fails as a malformed input
    would, instead of writing a file that ``check --poset`` rejects."""
    deep = "1@" * 200 + "m"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"elements": ["0", deep], "covers": [["0", deep]]}))
    b.write_text(json.dumps({"elements": ["0", "n"], "covers": [["0", "n"]]}))
    assert run(["check", "--poset", str(a), "--test", "simplicial"]) == 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"facet_map": {deep: "n"}, "atom_map": {deep: "n"}}))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(["glue-delta", "--a", str(a), "--b", str(b), "--spec", str(spec), "--out", str(out)]) == 1
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


@pytest.mark.parametrize(
    "field, spec",
    [
        ("facet_map", {"facet_map": {"x1*x2": "x1*x3", "x2*x1": "x2*x3"}, "atom_map": {"x1": "x2", "x2": "x3"}}),
        ("atom_map", {"facet_map": {"x1*x2": "x1*x2"}, "atom_map": {"x1": "x1", "x2": "x2", "x2*x1": "x1", "x1*x2": "x2"}}),
    ],
    ids=["facet_map", "atom_map"],
)
def test_glue_delta_spec_with_two_keys_for_one_label_exits_1(tmp_path, capsys, field, spec):
    a = tmp_path / "a.json"
    a.write_text(boolean_lattice(3).to_json())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    assert run(["glue-delta", "--a", str(a), "--b", str(a), "--spec", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: gluing spec {field} has two keys for label x1*x2\n"
    assert not out.exists()


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
    p = PINNED_INPUTS["face"]()
    monkeypatch.setattr(poset_module, "_BLOCK_CELLS", 64 * len(p))  # 64 pairs a block
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


CLI_PROBABILITIES = ["1e-05", "5e-324", "0.1", "1.0", "1", "0", "0.5", "2.5e-10", "0.30000000000000004"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.one_of(st.sampled_from(CLI_PROBABILITIES), st.floats(0.0, 1.0).map(repr)),
    st.one_of(st.sampled_from(CLI_PROBABILITIES), st.floats(0.0, 1.0).map(repr)),
    st.one_of(st.integers(0, (1 << 64) - 1), st.integers((1 << 64) - 3, (1 << 64) - 1)),
    st.integers(1, 6),
)
@example(1, "5e-324", "1e-05", (1 << 64) - 1, 1)
@example(6, "0.1", "1.0", (1 << 64) - 2, 3)
def test_random_writes_the_bytes_of_json_dumps(n, p1, p2, seed, count):
    """The batch is written in one pass, byte for byte what
    ``json.dumps(batch, indent=2)`` writes, for p as the CLI reads it,
    seeds up to 2**64 - 1, one sample, and n = 1 (no vertex pairs)."""
    argv = ["random", "--n", str(n), "--p1", p1, "--p2", p2, "--seed", str(seed), "--count", str(count)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    batch = run_batch(RandomModelParams(n=n, p1=float(p1), p2=float(p2), seed=seed), count)
    assert buf.getvalue() == json.dumps(batch, indent=2) + "\n"


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


SHARED_PARSER_SEQUENCE = [
    ["random", "--n", "6", "--p1", "0.5", "--p2", "0.7", "--seed", "3", "--count", "5", "--tally", "--out", "F.json"],
    ["random", "--n", "6", "--p1", "0.5", "--seed", "3"],  # no --p2: a parse error
    ["--help"],
    ["check", "--complex", "a*b*c,b*c*d", "--test", "faceposet"],
    ["check", "--poset", "P.json", "--test", "simplicial"],
    ["random", "--n", "6", "--p1", "0.5", "--p2", "0.7", "--seed", "3"],
]


def _run_sequence(directory, capsys):
    """Exit code, stdout, stderr and the files of ``directory`` after each
    argv of ``SHARED_PARSER_SEQUENCE``, run there in order."""
    (directory / "P.json").write_text(boolean_lattice(3).to_json())
    outcomes = []
    for argv in SHARED_PARSER_SEQUENCE:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        outcomes.append((code, out, err, files))
    return outcomes


def test_the_shared_parser_leaks_nothing_between_runs(tmp_path, monkeypatch, capsys):
    """``run`` keeps one parser for the process.  A sequence that sets
    flags, fails to parse, prints help and uses each side of a mutually
    exclusive group gives, step by step, the exit code, output and files
    of the same argv parsed by a fresh ``build_parser()``, and its last
    ``random`` run sees none of the first one's flags."""
    assert cli_module._parser() is cli_module._parser()
    (tmp_path / "shared").mkdir()
    monkeypatch.chdir(tmp_path / "shared")
    shared = _run_sequence(tmp_path / "shared", capsys)
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "fresh")
    monkeypatch.setattr(cli_module, "_parser", cli_module.build_parser)
    fresh = _run_sequence(tmp_path / "fresh", capsys)
    assert shared == fresh
    assert [code for code, *_ in shared] == [0, 2, 0, 0, 0, 0]
    assert shared[1][2].startswith("usage: simposets random")
    assert shared[2][1].startswith("usage: simposets")
    code, out, err, files = shared[-1]
    assert json.loads(out)["samples"] == 1 and "faceposet:" not in out
    assert files == shared[0][3]


def test_build_parser_returns_a_new_parser_on_each_call():
    assert cli_module.build_parser() is not cli_module.build_parser()
