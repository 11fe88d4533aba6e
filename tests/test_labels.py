"""Label grammar: construction, parsing, canonical order."""

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from simposets import FormatError, parse_facet_string
from simposets.labels import Label, valid_vertex_name

names = st.text(alphabet="abcdefgh123", min_size=1, max_size=3).filter(
    lambda s: s != "0"
)
atom_labels = st.sets(names, min_size=1, max_size=4).map(Label.atom_set)
labels = st.recursive(
    st.just(Label.bottom()) | atom_labels,
    lambda inner: st.builds(Label.copy, st.integers(0, 9), inner)
    | st.sets(inner, min_size=1, max_size=3).map(Label.class_of),
    max_leaves=6,
)


def test_bottom_is_singleton():
    assert Label.bottom() is Label.bottom()
    assert str(Label.bottom()) == "0"
    assert Label.parse("0") is Label.bottom()


def test_atom_set_sorts_names():
    assert str(Label.atom_set(["c", "a", "b"])) == "a*b*c"
    assert Label.atom_set(["b", "a"]) == Label.atom_set(["a", "b"])


def test_atom_set_rejects_bad_names():
    with pytest.raises(FormatError):
        Label.atom_set([])
    with pytest.raises(FormatError):
        Label.atom_set(["a", "a"])
    for bad in ["", "0", "a*b", "x@y", "{m}", "a,b", 'q"q', "a b", "\t"]:
        assert not valid_vertex_name(bad)
        with pytest.raises(FormatError):
            Label.atom_set([bad])


def test_copy_and_class_rendering():
    base = Label.atom_set(["a", "b"])
    assert str(Label.copy(2, base)) == "2@a*b"
    cls = Label.class_of([Label.copy(1, base), Label.copy(2, base)])
    assert str(cls) == "{1@a*b,2@a*b}"


def test_copy_rejects_bad_index():
    with pytest.raises(FormatError):
        Label.copy(-1, Label.bottom())
    with pytest.raises(FormatError):
        Label.copy("1", Label.bottom())


def test_class_members_sorted_and_unique():
    a, b = Label.atom_set(["a"]), Label.atom_set(["b"])
    assert Label.class_of([b, a]) == Label.class_of([a, b])
    with pytest.raises(FormatError):
        Label.class_of([a, a])
    with pytest.raises(FormatError):
        Label.class_of([])


def test_parse_examples():
    assert Label.parse("a*b").names == ("a", "b")
    lab = Label.parse("1@2@x")
    assert lab.kind == 2 and lab.value[0] == 1
    assert str(Label.parse("{0,a,{b,c}}")) == "{0,a,{b,c}}"


def test_parse_rejects_malformed():
    for bad in ["", "{", "{}", "{a", "a}b" + "{", "{a,{b}", "a**b", "@x", "x@"]:
        with pytest.raises(FormatError):
            Label.parse(bad)


def test_parse_rejects_deep_nesting_as_format_error():
    for deep in ["{" * 400 + "a" + "}" * 400, "1@" * 3000 + "a"]:
        with pytest.raises(FormatError, match="nested too deeply"):
            Label.parse(deep)
    assert str(Label.parse("1@" * 100 + "a")) == "1@" * 100 + "a"


def test_bottom_sorts_first():
    pool = [Label.atom_set(["a"]), Label.copy(0, Label.bottom()), Label.bottom()]
    assert sorted(pool)[0] is Label.bottom()


def test_single_vertex_name():
    assert Label.atom_set(["p"]).single_vertex_name() == "p"
    assert Label.atom_set(["p", "q"]).single_vertex_name() is None
    assert Label.bottom().single_vertex_name() is None


@given(labels)
def test_parse_str_round_trip(lab):
    assert Label.parse(str(lab)) == lab


@given(labels, labels)
def test_order_consistent_with_equality(a, b):
    assert (a == b) == (not a < b and not b < a)
    assert (a == b) == (str(a) == str(b))


@given(st.lists(labels, min_size=1, max_size=8))
def test_sorting_is_deterministic(pool):
    once = sorted(pool)
    assert sorted(reversed(pool)) == once


@given(labels)
def test_parsed_label_hashes_equal(lab):
    assert hash(Label.parse(str(lab))) == hash(lab)


def test_every_kind_hashes_equal_across_constructors():
    a, b = Label.atom_set(["a"]), Label.atom_set(["b", "c"])
    cases = [
        (Label.bottom(), Label.parse("0")),
        (Label.atom_set(["c", "b"]), Label.parse("b*c")),
        (Label.copy(3, b), Label.parse("3@b*c")),
        (Label.copy(1, Label.copy(2, Label.bottom())), Label.parse("1@2@0")),
        (Label.class_of([b, a]), Label.class_of(iter([a, b]))),
        (
            Label.class_of([Label.class_of([a, Label.copy(0, b)]), Label.bottom()]),
            Label.parse("{0,{a,0@b*c}}"),
        ),
    ]
    for one, other in cases:
        assert one == other
        assert hash(one) == hash(other)


def test_unpickled_labels_hash_in_another_process():
    """A label's hash is kept with it, and string hashes differ between
    processes, so a poset sent to another process must still find its
    elements there."""
    blob = pickle.dumps(parse_facet_string("a*b,b*c").face_poset())
    code = (
        "import pickle, sys\n"
        "from simposets.labels import Label\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "print(p.leq(Label.parse('a'), Label.parse('a*b')), Label.parse('b*c') in p)\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "7", "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], input=blob, capture_output=True, env=env, timeout=60)
    assert out.stdout.split() == [b"True", b"True"], out.stderr
