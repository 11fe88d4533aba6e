"""Label grammar: construction, parsing, canonical order."""

import os
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from simposets import (
    FormatError,
    Poset,
    RandomModelParams,
    fiber_relation,
    parse_facet_string,
    quotient_by_gluing,
    rand_simplicial_poset,
    separation,
)
from simposets.labels import (
    ATOMS,
    BOTTOM,
    CLASS,
    COPY,
    LABEL_DEPTH_MAX,
    Label,
    _shallow,
    reader,
    valid_vertex_name,
)

from oracles import nested_key, nesting_height, oracle_parse, oracle_vertex_name

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


def test_copy_rejects_a_bool_index():
    # True would share the key of index 1 but print as True@0, which no
    # parser reads back
    for index in (True, False):
        with pytest.raises(FormatError, match="copy index"):
            Label.copy(index, Label.bottom())


def test_class_members_sorted_and_unique():
    a, b = Label.atom_set(["a"]), Label.atom_set(["b"])
    assert Label.class_of([b, a]) == Label.class_of([a, b])
    with pytest.raises(FormatError):
        Label.class_of([a, a])
    with pytest.raises(FormatError):
        Label.class_of([])


@pytest.mark.parametrize("names", [["a", 5], [5, "a"], ["b", "a", None], ["a", "a", 5]])
def test_atom_set_rejects_a_name_that_is_not_a_string_before_sorting(names):
    bad = next(n for n in names if not isinstance(n, str))
    with pytest.raises(FormatError, match=re.escape(f"invalid vertex name: {bad!r}")):
        Label.atom_set(names)


@pytest.mark.parametrize("other", [5, "a", None])
def test_class_of_rejects_a_member_that_is_not_a_label_before_sorting(other):
    a = Label.parse("a")
    for members in ([a, other], [other, a], [Label.bottom(), a, a, other]):
        with pytest.raises(FormatError, match="class label members must be Labels"):
            Label.class_of(members)


def test_parse_examples():
    assert Label.parse("a*b").names == ("a", "b")
    lab = Label.parse("1@2@x")
    assert lab == Label.copy(1, Label.copy(2, Label.atom_set(["x"])))
    assert lab.key == (COPY, 1, COPY, 2, ATOMS, "x", "")
    assert Label.parse("{0,a*b}").key == (CLASS, BOTTOM, ATOMS, "a", "b", "", -1)
    # a list that is a prefix of another sorts first: the terminators sort lowest
    assert Label.parse("a") < Label.parse("a*b") < Label.parse("b")
    assert Label.parse("{a}") < Label.parse("{a,b}") < Label.parse("{b}")
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


def nest(levels, wraps, text="a"):
    """``text`` inside ``levels`` wraps, taken in turn from ``wraps``."""
    for level in range(levels):
        text = wraps[level % len(wraps)].format(text)
    return text


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_nesting_cap_is_explicit():
    """The cap is LABEL_DEPTH_MAX braces or copy prefixes, wherever the
    caller stands in the stack: parsing spends no frame per level, so a
    label at the cap parses 50 frames short of the recursion limit."""

    def nested(frames, text):
        return Label.parse(text) if frames == 0 else nested(frames - 1, text)

    down = sys.getrecursionlimit() - 50 - stack_depth()
    for wraps in (["{{{}}}"], ["1@{}"], ["2@{}", "{{0,{}}}"]):
        ok = nest(LABEL_DEPTH_MAX, wraps)
        assert str(nested(down, ok)) == ok
        with pytest.raises(FormatError, match="label is nested too deeply"):
            Label.parse(nest(LABEL_DEPTH_MAX + 1, wraps))


def test_constructors_keep_the_nesting_cap():
    """``Label.copy`` and ``Label.class_of`` take labels up to
    LABEL_DEPTH_MAX levels deep, which a poset writes and reads back from
    JSON, and refuse one level more with the reader's error."""
    a, b = Label.atom_set(["a"]), Label.atom_set(["b"])
    chain = [a]
    for _ in range(LABEL_DEPTH_MAX):
        chain.append(Label.copy(1, chain[-1]))
    copies = chain[-1]  # 200 copy prefixes
    wrapped = Label.class_of([chain[-2], b])  # a class around 199 of them
    beside = Label.class_of([chain[-2], Label.class_of([b])])
    for top in (copies, wrapped, beside):
        p = Poset.from_covers([Label.bottom(), top], [(Label.bottom(), top)])
        assert Poset.from_json(p.to_json()).elements == p.elements
    for base in (copies, wrapped, beside):
        with pytest.raises(FormatError, match="label is nested too deeply"):
            Label.copy(0, base)
        with pytest.raises(FormatError, match="label is nested too deeply"):
            Label.class_of([a, base])


def test_deep_labels_compare_hash_and_pickle_without_recursion():
    """Labels 198 copy prefixes deep lie within LABEL_DEPTH_MAX, and so does
    a class of two of them.  Comparing, sorting, pickling and parsing them
    50 frames short of the recursion limit spends no frame per level."""
    x, y = Label.parse("1@" * 198 + "a"), Label.parse("1@" * 198 + "b")

    def nested(frames):
        if frames:
            return nested(frames - 1)
        again = pickle.loads(pickle.dumps(x))
        return x < y, x == Label.parse(str(x)), sorted([y, x]), again, Label.parse(f"{{{x},{y}}}")

    less, same, order, again, pair = nested(sys.getrecursionlimit() - 50 - stack_depth())
    assert less and same and order[0] is x and order[1] is y
    assert again.key == x.key and str(again) == str(x) and hash(again) == hash(x)
    assert str(pair) == f"{{{x},{y}}}" and pair.key == (CLASS, *x.key, *y.key, -1)


BRACED = nest(150, ["{{{}}}", "1@{}"])
COPIES = "1@" * 150 + "a"  # met inside a class; a copy of it is one new chain of copies


@pytest.mark.parametrize(
    "inner, around",
    [(BRACED, w) for w in (["{{{}}}"], ["2@{}"], ["{{0,{}}}"], ["3@{}", "{{{},z}}"])]
    + [(COPIES, w) for w in (["{{{}}}"], ["{{0,{}}}"])],
    ids=["braces-in-class", "braces-in-copy", "braces-beside-0", "braces-mixed", "copies-in-class", "copies-beside-0"],
)
def test_a_remembered_label_keeps_the_nesting_cap(inner, around, monkeypatch):
    """A sub-label a reader has met shallow and meets again deeper counts
    its own depth there.  ``inner`` is 150 levels deep and each wrap adds
    one: 51 wraps pass LABEL_DEPTH_MAX and are rejected; 50 reach it and
    parse from the memo, building only the labels around ``inner``."""
    read = reader()
    assert str(read(inner)) == inner
    over = nest(LABEL_DEPTH_MAX - 150 + 1, around, inner)
    for parse in (read, Label.parse):
        with pytest.raises(FormatError, match="label is nested too deeply"):
            parse(over)
    at_cap = nest(LABEL_DEPTH_MAX - 150, around, inner)
    built = []
    init = Label.__init__
    monkeypatch.setattr(Label, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    label = read(at_cap)
    monkeypatch.undo()
    assert len(built) <= 2 * (LABEL_DEPTH_MAX - 150)  # inner alone holds 151 labels
    fresh = Label.parse(at_cap)
    assert label == fresh and str(label) == str(fresh)


@pytest.mark.parametrize("text", ["1@b*a", "{b*a}", "{0,b*a}", "{b*a,1@c}"])
def test_a_respelled_leaf_in_the_memo_keeps_its_canonical_text(text):
    """Once a reader has read ``b*a`` as ``a*b``, a shallow text around that
    leaf still reads as a fresh parse does, its leaf written ``a*b``."""
    read = reader()
    assert str(read("b*a")) == "a*b"
    label, fresh = read(text), Label.parse(text)
    assert str(label) == str(fresh) and label.key == fresh.key and "b*a" not in str(label)


def test_whitespace_rule_matches_isspace_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    names = ["a", "0", "", "00", "a b", "x\u2028", "\x1c", "\u00a0", "\u200b", 7, None]
    names += [f"a{c}" for c in '*@{},"']
    assert [valid_vertex_name(n) for n in names] == [oracle_vertex_name(n) for n in names]


def _outcome(parse, text):
    try:
        label = parse(text)
    except FormatError as exc:
        return "error", str(exc)
    return "label", str(label), label.key


def mutated_label_texts():
    """Real labels, and 6000 random edits of them with the generator that
    made the edits: ``(corpus, texts, rng)``."""
    q = rand_simplicial_poset(RandomModelParams(n=7, p1=0.7, p2=0.5, seed=3))
    corpus = [str(e) for e in q.elements]
    corpus += [str(e) for e in quotient_by_gluing(fiber_relation(separation(q))).elements[:20]]
    corpus += ["{0,a,{b,c}}", "1@2@x", "{1@{a,b},2@0}", "a*b*c", "12@{x}", "{a,b}", "{b,a}"]
    corpus += ["{1@{a,b},2@{a,b}}", "3@{1@a,2@{b,c}}", "{{0,1@{x}},2@{y,z}}", "1@2@{a}"]
    corpus += ["5" * 5000 + "@a", "{0," + "9" * 4301 + "@{b,c}}", "2@" + "1" * 4400 + "@x"]  # past the int digit limit
    # at the edges of the shallow reader's canonical texts
    corpus += ["{01@a}", "{\u0663@a}", "{b*a}", "{a,a}", "{1@b,1@a}", "{10@a,2@a}", "{0,a}", "{a,0}", "1@0"]
    corpus += ["{1@0}", "9" * 18 + "@a", "9" * 19 + "@a", "0*a", "1@2@a", "{a,a*b}"]
    alphabet = "{},@*0123ab \u0663\t\""
    rng = random.Random(20261018)
    texts = []
    for _ in range(6000):
        text = rng.choice(corpus)
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(text))
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:at] + rng.choice(alphabet) + text[at:]
            elif edit == 1 and text:
                text = text[:at] + text[at + 1 :]
            elif text:
                text = text[:at] + rng.choice(alphabet) + text[at + 1 :]
        texts.append(text)
    return corpus, texts, rng


def _shallow_agrees(text):
    """None when the shallow reader declines ``text`` on a fresh memo, else
    whether it gives the label key, text and height that the reference
    parser does."""
    got = _shallow({"0": Label.bottom()}, text)
    if got is None:
        return None
    label = oracle_parse(text)
    return (got.key, str(got), got._height) == (label.key, str(label), nesting_height(text))


def test_parse_matches_the_oracle_on_mutated_strings():
    """Accept/reject and the message of every FormatError agree with the
    reference parser on random edits of real labels, read one at a time
    and as documents: runs of labels through one reader, whose memo of
    sub-labels carries from each label to the next.  On a fresh memo the
    shallow reader declines each text or reads it as the reference does."""
    corpus, texts, rng = mutated_label_texts()
    shallow = [_shallow_agrees(text) for text in corpus + texts]
    assert False not in shallow
    assert shallow.count(True) > 500 and shallow.count(None) > 500  # both outcomes occur
    expected = [_outcome(oracle_parse, text) for text in texts]
    assert [_outcome(Label.parse, text) for text in texts] == expected
    at = 0
    while at < len(texts):
        size = min(rng.randint(1, 12), len(texts) - at)
        read = reader()
        extra = rng.sample(corpus, 2)  # read again after the edits
        outcomes = [_outcome(read, text) for text in texts[at : at + size] + extra]
        assert outcomes == expected[at : at + size] + [_outcome(oracle_parse, text) for text in extra]
        at += size
    assert sum(e[0] == "label" for e in expected) > 500  # both branches are exercised
    assert any(e[1].startswith("copy index has too many digits") for e in expected)


def test_heights_agree_with_the_oracle_on_mutated_strings():
    """Every label the mutated-string corpus parses to, alone or through one
    reader whose memo carries from each text to the next, has the height
    read off its text, and keeps it through a pickle round trip."""
    corpus, texts, _ = mutated_label_texts()
    read, heights = reader(), []
    for text in corpus + texts:
        try:
            label = Label.parse(text)
        except FormatError:
            continue
        again = pickle.loads(pickle.dumps(label))
        heights.append((label._height, read(text)._height, again._height, nesting_height(text)))
    assert len(heights) > 500 and all(len(set(h)) == 1 for h in heights)
    assert {h[0] for h in heights} >= {0, 1, 2, 3}


@given(labels)
def test_heights_agree_with_the_oracle(lab):
    again = pickle.loads(pickle.dumps(lab))
    assert lab._height == again._height == nesting_height(str(lab))


def is_flat(key):
    return type(key) is tuple and all(type(t) in (int, str) for t in key)


def agree_with_nested_keys(a, b):
    """``<`` and ``==`` of two (label, text) pairs are those of the nested
    keys of their texts."""
    (a, ka), (b, kb) = ((lab, nested_key(text)) for lab, text in (a, b))
    return (a < b) == (ka < kb) and (b < a) == (kb < ka) and (a == b) == (ka == kb)


def test_flat_keys_agree_with_the_nested_oracle_on_mutated_strings():
    """Every label the mutated-string corpus parses to has a flat key, and
    sorting by it, neighbour by neighbour and on random pairs, agrees with
    the nested keys read from the texts as written."""
    corpus, texts, rng = mutated_label_texts()
    parsed = []
    for text in corpus + texts:
        try:
            parsed.append((Label.parse(text), text))
        except FormatError:
            pass
    assert len(parsed) > 500 and all(is_flat(lab.key) for lab, _ in parsed)
    by_flat = sorted(parsed, key=lambda pair: pair[0])
    by_nested = sorted(parsed, key=lambda pair: nested_key(pair[1]))
    assert [str(lab) for lab, _ in by_flat] == [str(lab) for lab, _ in by_nested]
    assert all(agree_with_nested_keys(a, b) for a, b in zip(by_flat, by_flat[1:]))
    assert all(agree_with_nested_keys(*rng.sample(parsed, 2)) for _ in range(3000))


@given(labels, labels)
def test_flat_keys_agree_with_the_nested_oracle(a, b):
    """Also below a shared copy prefix and beside a shared class member,
    where a terminator meets a token of the other key."""
    assert is_flat(a.key) and is_flat(b.key)
    pairs = [(a, b), (Label.copy(7, a), Label.copy(7, b))]
    c = Label.parse("{0,0@0}")
    if c not in (a, b):
        pairs.append((Label.class_of([c, a]), Label.class_of([c, b])))
    for x, y in pairs:
        assert agree_with_nested_keys((x, str(x)), (y, str(y)))


def test_a_label_compares_only_with_labels():
    with pytest.raises(TypeError):
        Label.parse("a") < 1  # noqa: B015
    assert Label.parse("a") != "a"


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
    elements there.  A gluing pickled before its labels were read carries
    them built, with no recipe, and equals the same gluing built there."""
    theta = rand_simplicial_poset(RandomModelParams(n=7, p1=0.7, p2=0.5, seed=3))
    assert theta._labels._recipe is not None
    blob = pickle.dumps((parse_facet_string("a*b,b*c").face_poset(), theta))
    code = (
        "import pickle, sys\n"
        "from simposets import RandomModelParams, rand_simplicial_poset\n"
        "from simposets.labels import Label\n"
        "p, theta = pickle.loads(sys.stdin.buffer.read())\n"
        "print(p.leq(Label.parse('a'), Label.parse('a*b')), Label.parse('b*c') in p)\n"
        "again = rand_simplicial_poset(RandomModelParams(n=7, p1=0.7, p2=0.5, seed=3))\n"
        "print(theta._labels._recipe is None, theta == again, hash(theta) == hash(again))\n"
        "print(all(e in theta for e in again.elements))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "7", "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], input=blob, capture_output=True, env=env, timeout=60)
    assert out.stdout.split() == [b"True"] * 6, out.stderr
