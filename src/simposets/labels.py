"""Structured element labels with a total canonical order.

Four kinds cover everything the library constructs:

* the reserved bottom label, printed ``0``
* atom-set labels, a sorted tuple of vertex names printed ``a*b*c``
* copy labels ``<i>@<base>``, produced when a poset is pulled apart into
  disjoint pieces
* class labels ``{m1,m2,...}``, produced by quotients

Canonical strings round-trip through :meth:`Label.parse`, and labels sort
by one flat key, a tuple of ints and strings, so every listing in the
package is deterministic.  The keys are:

* the bottom ``0``: ``(0,)``
* an atom set: ``(1, *names, "")``
* a copy ``i@L``: ``(2, i, *L.key)``
* a class: ``(3, *M1.key, ..., *Mk.key, -1)``

Their order is that of the nested keys ``(0,)``, ``(1, names)``,
``(2, i, key(L))`` and ``(3, (key(M1), ..., key(Mk)))``.  Two different
flat keys first differ at some token, since a key ends only where its
grammar does, so neither is a prefix of the other.  Up to that token they
agree, so both tokens stand at the same place in this grammar.  There,
either both are of one type (names, copy indices or kind tags), or one of
them ends that place: ``""`` after the names, ``-1`` after the members,
and a terminator sorts below anything else that can stand there.  So the flat order and equality are exactly
the nested ones, and no comparison, hash or pickle recurses.

A label carries its height, the braces and copy prefixes nested inside it,
and each constructor sets it: 0 for the bottom and an atom set, one more
than the base for a copy, one more than its highest member for a class.
At most ``LABEL_DEPTH_MAX`` levels are allowed, and ``_copy`` and
``_class``, through which every copy and class label is built, refuse a
label past them with the reader's error, so the package writes no label it
cannot read back.  The cap guards no recursion: it bounds key building.
Keys share no sub-tuples, so a chain of d copy prefixes builds about d²/2
tokens.

A document's labels go through one ``reader()``, which parses each distinct
label or sub-label text once and remembers its label.  A shallow
text, a leaf or a class of leaves spelled canonically, is read by one
regular-expression match (``_shallow``): a leaf is ``0`` or an atom set
with strictly increasing names, after at most one copy index with no
leading zero, and class members stand in strictly increasing key order.
These are the texts the package writes for theta samples, face posets and
boolean lattices, and their keys are built straight from the leaves.
Every other text goes to ``_parse``, which is the one reader of nested,
non-canonical and malformed labels and so the source of every error.  It
reads a text top down, a node at a time, with an explicit stack of the
classes and copy prefixes still open, so no Python frame is spent per
level, and hands each node it has not met to ``_shallow`` first, so the
leaves and flat classes inside a nested text take the one match too.  It
refuses a text past the cap as it descends, at the first node whose depth
plus height passes it, wherever a text read whole is met and at any depth
of the caller's stack, so it never reads below level
``LABEL_DEPTH_MAX`` + 1.  ``Label.parse`` reads one text with a reader of
its own.
"""

from __future__ import annotations

import re
from functools import partial, total_ordering
from itertools import chain
from operator import lt

from .errors import FormatError

BOTTOM, ATOMS, COPY, CLASS = 0, 1, 2, 3

# Characters with a job in the grammar; vertex names may not contain them.
RESERVED = set('*@{},"')
LABEL_DEPTH_MAX = 200  # nested braces and copy prefixes a label may hold

# re's \s matches exactly the characters for which str.isspace holds
_NAME = "[^" + re.escape("".join(sorted(RESERVED))) + r"\s]+"
_NAME_RE = re.compile(_NAME)
# a leaf: "0" or an atom set, after at most one copy index in canonical digits
_LEAF = rf"(?:(?:0|[1-9][0-9]{{0,17}})@)?{_NAME}(?:\*{_NAME})*"
_SHALLOW_RE = re.compile(rf"{_LEAF}|\{{{_LEAF}(?:,{_LEAF})*\}}")
_BRACES_RE = re.compile("[{},]")


def valid_vertex_name(name) -> bool:
    return isinstance(name, str) and name != "0" and _NAME_RE.fullmatch(name) is not None


@total_ordering
class Label:
    __slots__ = ("key", "_text", "_height", "_hash")

    def __init__(self, key, text, height):
        self.key = key
        self._text = text
        self._height = height  # braces and copy prefixes nested inside
        # keys are immutable flat tuples: hash once, not on every lookup
        self._hash = hash(key)

    @classmethod
    def bottom(cls) -> "Label":
        return _BOTTOM_LABEL

    @classmethod
    def atom_set(cls, names) -> "Label":
        names = tuple(names)
        for n in names:
            if not isinstance(n, str):
                raise FormatError(f"invalid vertex name: {n!r}")
        names = tuple(sorted(names))
        if not names:
            raise FormatError("atom-set label needs at least one vertex name")
        if len(set(names)) != len(names):
            raise FormatError(f"repeated vertex name in atom-set label: {names}")
        for n in names:
            if not valid_vertex_name(n):
                raise FormatError(f"invalid vertex name: {n!r}")
        return cls._atoms(names)

    @classmethod
    def _atoms(cls, names: tuple) -> "Label":
        """Atom-set label from a nonempty sorted tuple of distinct valid
        vertex names; the caller vouches for all three."""
        return cls((ATOMS, *names, ""), "*".join(names), 0)  # "" sorts below any name

    @classmethod
    def copy(cls, index: int, base: "Label") -> "Label":
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise FormatError(f"copy index must be a nonnegative integer, got {index!r}")
        if not isinstance(base, Label):
            raise FormatError("copy label base must be a Label")
        return cls._copy(index, base)

    @classmethod
    def _copy(cls, index: int, base: "Label") -> "Label":
        """Copy label from a nonnegative int and a Label; the caller
        vouches for both.  Refuses a copy past the cap."""
        if base._height >= LABEL_DEPTH_MAX:
            raise FormatError("label is nested too deeply")
        return cls((COPY, index, *base.key), f"{index}@{base._text}", base._height + 1)

    @classmethod
    def class_of(cls, members) -> "Label":
        members = tuple(members)
        for m in members:
            if not isinstance(m, Label):
                raise FormatError("class label members must be Labels")
        members = tuple(sorted(members))
        if not members:
            raise FormatError("class label needs at least one member")
        if len(set(members)) != len(members):
            raise FormatError("repeated member in class label")
        return cls._class(members)

    @classmethod
    def _class(cls, members: tuple) -> "Label":
        """Class label from a nonempty sorted tuple of distinct Labels; the
        caller vouches for all three.  Refuses a class past the cap."""
        height = max([m._height for m in members])
        if height >= LABEL_DEPTH_MAX:
            raise FormatError("label is nested too deeply")
        key = [CLASS]
        for m in members:
            key += m.key
        key.append(-1)  # sorts below any kind tag
        return cls(tuple(key), "{" + ",".join([m._text for m in members]) + "}", height + 1)

    @classmethod
    def parse(cls, text: str) -> "Label":
        """The label written ``text``: a reader with a memo of its own."""
        return reader()(text)

    # Conveniences used by the gluing and reconstruction code.

    @property
    def names(self):
        """Vertex names of an atom-set label."""
        if self.key[0] != ATOMS:
            raise FormatError(f"label {self} carries no vertex names")
        return self.key[1:-1]

    def single_vertex_name(self):
        key = self.key
        return key[1] if key[0] == ATOMS and len(key) == 3 else None

    def __str__(self):
        return self._text

    def __repr__(self):
        return f"Label({self._text!r})"

    def __eq__(self, other):
        return isinstance(other, Label) and self.key == other.key

    def __lt__(self, other):
        if not isinstance(other, Label):
            return NotImplemented
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so unpickling hashes anew
        return (Label, (self.key, self._text, self._height))


_BOTTOM_LABEL = Label((BOTTOM,), "0", 0)


def reader():
    """A function that reads label texts as :meth:`Label.parse` does and
    remembers every sub-label it reads, so the labels of one document parse
    each distinct text once.  It refuses a text past the cap before it
    reads below level ``LABEL_DEPTH_MAX`` + 1."""
    return partial(_read, {"0": _BOTTOM_LABEL})


# A reader's memo maps each text it has read, and each node of it (of a
# shallow text, its atom sets), to its label, and it always holds "0".  A
# text met at depth d is too deep when d plus its label's height passes
# LABEL_DEPTH_MAX: that is where a fresh parse would find its first fault,
# since the text parsed before.


def _read(memo: dict, text) -> Label:
    if not isinstance(text, str) or not text:
        raise FormatError(f"cannot parse label from {text!r}")
    return memo.get(text) or _shallow(memo, text) or _parse(memo, text)


def _shallow(memo: dict, text: str):
    """The label of ``text`` when it is a leaf or a class of leaves,
    spelled canonically, with its key built straight from the leaves; None
    for any other text, which ``_parse`` then reads.  A leaf is ``0`` or an
    atom set with strictly increasing names, after at most one copy index
    with no leading zero, and class members stand in strictly increasing
    key order, so the text is the label's own.  Once the text matches, its
    commas and its one ``@`` per leaf split it, as no name holds either.
    Never raises."""
    if _SHALLOW_RE.fullmatch(text) is None:
        return None
    keys, height = [], 0
    for leaf in text[1:-1].split(",") if text[0] == "{" else [text]:
        index, _, names = leaf.rpartition("@")
        done = memo.get(names)
        if done is None or done._text != names:
            parts = names.split("*")
            if "0" in parts or not all(map(lt, parts, parts[1:])):
                return None
            done = memo[names] = Label._atoms(tuple(parts))
        if index:
            keys.append((COPY, int(index), *done.key))
            height = 1
        else:
            keys.append(done.key)
    if text[0] == "{":
        if not all(map(lt, keys, keys[1:])):
            return None
        key, height = (CLASS, *chain.from_iterable(keys), -1), height + 1
    elif index:
        key = keys[0]
    else:
        return done  # an atom set, remembered above
    memo[text] = done = Label(key, text, height)
    return done


def _class(memo: dict, s: str, members: list) -> Label:
    """The label of the class ``s`` of ``members``, which its text lists in
    strictly increasing key order unless it repeats one or is unsorted;
    ``class_of`` then sorts them or rejects the repeat."""
    keys = [m.key for m in members]
    in_order = all(map(lt, keys, keys[1:]))
    memo[s] = Label._class(tuple(members)) if in_order else Label.class_of(members)
    return memo[s]


def _scan(text: str):
    """Each ``{`` of ``text`` with the position of its matching ``}``, and
    the commas directly inside it, from one scan of the braces and commas."""
    close, commas, open_ = {}, {}, []
    for m in _BRACES_RE.finditer(text):
        ch, at = m.group(), m.start()
        if ch == "{":
            open_.append(at)
            commas[at] = []
        elif ch == "}":
            if open_:
                close[open_.pop()] = at
        elif open_:
            commas[open_[-1]].append(at)
    return close, commas


def _parse(memo: dict, text: str) -> Label:
    """The label of ``text``, read top down with an explicit stack of
    the classes and copy prefixes still open, each node remembered under its
    text.

    A node is a remembered text, a shallow one (``_shallow``), a class,
    one copy prefix ``<digits>@`` before a nonempty text, or an atom set,
    tried in that order, so errors come in the order of a left-to-right
    descent that checks a class's braces before its members.  A class is
    balanced iff its ``}`` matches its ``{`` in the one scan of ``_scan``,
    which also gives its members.  A node read whole, remembered or
    shallow, is refused when its depth plus its height passes the cap."""
    scan = None
    stack = []  # (i, j, depth, bounds, members) per class, (i, j, index) per copy
    i, j, depth = 0, len(text), 0
    while True:
        s = text[i:j]
        done = memo.get(s) or _shallow(memo, s)
        if depth + (done._height if done else 0) > LABEL_DEPTH_MAX:
            raise FormatError("label is nested too deeply")
        if done is None:
            if not s:
                raise FormatError("cannot parse label from ''")
            if s[0] == "{":
                if s[-1] != "}" or len(s) < 3:
                    raise FormatError(f"malformed class label: {s!r}")
                if scan is None:
                    scan = _scan(text)
                if scan[0].get(i) != j - 1:
                    raise FormatError(f"unbalanced braces in label: {s!r}")
                bounds = [i, *scan[1][i], j - 1]
                stack.append((i, j, depth, bounds, []))
                i, j, depth = i + 1, bounds[1], depth + 1
                continue
            at = s.find("@")
            if 0 < at < len(s) - 1 and s[:at].isdecimal():
                try:
                    stack.append((i, j, int(s[:at])))
                except ValueError:  # past Python's limit on digits in an int string
                    raise FormatError(f"copy index has too many digits: {at}") from None
                i, depth = i + at + 1, depth + 1
                continue
            done = memo[s] = Label.atom_set(s.split("*"))
        # the node is read: hand it to the innermost open class or copy
        while stack:
            frame = stack[-1]
            if len(frame) == 3:
                fi, fj, index = stack.pop()
                done = memo[text[fi:fj]] = Label._copy(index, done)
                continue
            fi, fj, fdepth, bounds, members = frame
            members.append(done)
            k = len(members)
            if k < len(bounds) - 1:
                i, j, depth = bounds[k] + 1, bounds[k + 1], fdepth + 1
                break
            stack.pop()
            done = _class(memo, text[fi:fj], members)
        else:
            return done
