"""Structured element labels with a total canonical order.

Four kinds cover everything the library constructs:

* the reserved bottom label, printed ``0``
* atom-set labels, a sorted tuple of vertex names printed ``a*b*c``
* copy labels ``<i>@<base>``, produced when a poset is pulled apart into
  disjoint pieces
* class labels ``{m1,m2,...}``, produced by quotients

Canonical strings round-trip through :meth:`Label.parse` and labels sort by
a structural key, so every listing in the package is deterministic.
Parsing finds the braces and commas in one scan of the text and accepts at
most ``LABEL_DEPTH_MAX`` nested braces and copy prefixes.
"""

from __future__ import annotations

import re
from functools import total_ordering

from .errors import FormatError

BOTTOM, ATOMS, COPY, CLASS = 0, 1, 2, 3

# Characters with a job in the grammar; vertex names may not contain them.
RESERVED = set('*@{},"')
LABEL_DEPTH_MAX = 200  # nested braces and copy prefixes that parse accepts

# re's \s matches exactly the characters for which str.isspace holds
_NAME_RE = re.compile("[^" + re.escape("".join(sorted(RESERVED))) + r"\s]+")
_DIGITS_RE = re.compile(r"\d+")  # str.isdecimal, as int() reads it
_BRACES_RE = re.compile("[{},]")


def valid_vertex_name(name) -> bool:
    return isinstance(name, str) and name != "0" and _NAME_RE.fullmatch(name) is not None


@total_ordering
class Label:
    __slots__ = ("kind", "value", "key", "_text", "_hash")

    def __init__(self, kind, value, key, text):
        self.kind = kind
        self.value = value
        self.key = key
        self._text = text
        # keys are immutable nested tuples: hash once, not on every lookup
        self._hash = hash(key)

    @classmethod
    def bottom(cls) -> "Label":
        return _BOTTOM_LABEL

    @classmethod
    def atom_set(cls, names) -> "Label":
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
        return cls(ATOMS, names, (ATOMS, names), "*".join(names))

    @classmethod
    def copy(cls, index: int, base: "Label") -> "Label":
        if not isinstance(index, int) or index < 0:
            raise FormatError(f"copy index must be a nonnegative integer, got {index!r}")
        if not isinstance(base, Label):
            raise FormatError("copy label base must be a Label")
        return cls(COPY, (index, base), (COPY, index, base.key), f"{index}@{base}")

    @classmethod
    def class_of(cls, members) -> "Label":
        members = tuple(sorted(members))
        if not members:
            raise FormatError("class label needs at least one member")
        if len(set(members)) != len(members):
            raise FormatError("repeated member in class label")
        for m in members:
            if not isinstance(m, Label):
                raise FormatError("class label members must be Labels")
        return cls._class(members)

    @classmethod
    def _class(cls, members: tuple) -> "Label":
        """Class label from a nonempty sorted tuple of distinct Labels; the
        caller vouches for all three."""
        key = (CLASS, tuple(m.key for m in members))
        return cls(CLASS, members, key, "{" + ",".join(str(m) for m in members) + "}")

    @classmethod
    def parse(cls, text: str) -> "Label":
        if not isinstance(text, str) or not text:
            raise FormatError(f"cannot parse label from {text!r}")
        try:
            return _parse(text)
        except RecursionError:  # a caller already near the recursion limit
            raise FormatError("label is nested too deeply") from None

    # Conveniences used by the gluing and reconstruction code.

    @property
    def names(self):
        """Vertex names of an atom-set label."""
        if self.kind != ATOMS:
            raise FormatError(f"label {self} carries no vertex names")
        return self.value

    def single_vertex_name(self):
        if self.kind == ATOMS and len(self.value) == 1:
            return self.value[0]
        return None

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
        return (Label, (self.kind, self.value, self.key, self._text))


_BOTTOM_LABEL = Label(BOTTOM, None, (BOTTOM,), "0")


def _parse(text: str) -> Label:
    """The label written ``text``.

    One scan over the braces and commas gives each ``{`` its matching
    ``}`` and the commas directly inside it.  A class ``{...}`` is
    balanced iff its ``}`` is the match of its ``{``, and its members are
    then split at those commas, so no part of the text is scanned twice.
    Each part is read as ``0``, a class, a copy ``<digits>@<label>`` or an
    atom set, in that order, and errors come in the order of a left-to-right
    descent that checks a class's braces before its members."""
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

    def node(i, j, depth):
        if depth > LABEL_DEPTH_MAX:
            raise FormatError("label is nested too deeply")
        if i == j:
            raise FormatError("cannot parse label from ''")
        if j - i == 1 and text[i] == "0":
            return Label.bottom()
        if text[i] == "{":
            if text[j - 1] != "}" or j - i < 3:
                raise FormatError(f"malformed class label: {text[i:j]!r}")
            if close.get(i) != j - 1:
                raise FormatError(f"unbalanced braces in label: {text[i:j]!r}")
            bounds = [i, *commas[i], j - 1]
            members = []
            for a, b in zip(bounds, bounds[1:]):  # a loop, not a comprehension: one frame per level
                members.append(node(a + 1, b, depth + 1))
            if all(a.key < b.key for a, b in zip(members, members[1:])):
                return Label._class(tuple(members))
            return Label.class_of(members)
        digits = _DIGITS_RE.match(text, i, j)
        if digits and digits.end() < j - 1 and text[digits.end()] == "@":
            try:
                index = int(digits.group())
            except ValueError:  # past Python's limit on digits in an int string
                raise FormatError(f"copy index has too many digits: {digits.end() - i}") from None
            return Label.copy(index, node(digits.end() + 1, j, depth + 1))
        return Label.atom_set(text[i:j].split("*"))

    return node(0, len(text), 0)
