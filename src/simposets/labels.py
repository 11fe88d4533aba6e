"""Structured element labels with a total canonical order.

Four kinds cover everything the library constructs:

* the reserved bottom label, printed ``0``
* atom-set labels, a sorted tuple of vertex names printed ``a*b*c``
* copy labels ``<i>@<base>``, produced when a poset is pulled apart into
  disjoint pieces
* class labels ``{m1,m2,...}``, produced by quotients

Canonical strings round-trip through :meth:`Label.parse` and labels sort by
a structural key, so every listing in the package is deterministic.
"""

from __future__ import annotations

import re
from functools import total_ordering

from .errors import FormatError

BOTTOM, ATOMS, COPY, CLASS = 0, 1, 2, 3

# Characters with a job in the grammar; vertex names may not contain them.
RESERVED = set('*@{},"')

_COPY_RE = re.compile(r"(\d+)@(.+)", re.DOTALL)


def valid_vertex_name(name) -> bool:
    return (
        isinstance(name, str)
        and bool(name)
        and name != "0"
        and not any(c in RESERVED or c.isspace() for c in name)
    )


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
        try:
            return cls._parse(text)
        except RecursionError:
            raise FormatError("label is nested too deeply") from None

    @classmethod
    def _parse(cls, text: str) -> "Label":
        if not isinstance(text, str) or not text:
            raise FormatError(f"cannot parse label from {text!r}")
        if text == "0":
            return cls.bottom()
        if text.startswith("{"):
            if not text.endswith("}") or len(text) < 3:
                raise FormatError(f"malformed class label: {text!r}")
            inner = text[1:-1]
            parts, depth, start = [], 0, 0
            for i, ch in enumerate(inner):
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth < 0:
                        raise FormatError(f"unbalanced braces in label: {text!r}")
                elif ch == "," and depth == 0:
                    parts.append(inner[start:i])
                    start = i + 1
            if depth != 0:
                raise FormatError(f"unbalanced braces in label: {text!r}")
            parts.append(inner[start:])
            return cls.class_of(cls._parse(p) for p in parts)
        m = _COPY_RE.fullmatch(text)
        if m:
            return cls.copy(int(m.group(1)), cls._parse(m.group(2)))
        return cls.atom_set(text.split("*"))

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
