"""Structured element labels with a total canonical order.

Four kinds cover everything the library constructs:

* the reserved bottom label, printed ``0``
* atom-set labels, a sorted tuple of vertex names printed ``a*b*c``
* copy labels ``<i>@<base>``, produced when a poset is pulled apart into
  disjoint pieces
* class labels ``{m1,m2,...}``, produced by quotients

Canonical strings round-trip through :meth:`Label.parse` and labels sort by
a structural key, so every listing in the package is deterministic.

A document's labels go through one ``reader()``, which parses each distinct
label or sub-label text once and remembers it with its height.  A text with
no brace, copy prefixes ``<digits>@`` then ``0`` or an atom set, is cut with
``str.split``; so is a class with no brace inside.  Deeper classes are read
with an explicit stack over one scan of their braces and commas, so no
Python frame is spent per level.  At most ``LABEL_DEPTH_MAX`` nested braces
and copy prefixes are accepted, wherever a remembered text is met again.
``Label.parse`` reads one text with a reader of its own.
"""

from __future__ import annotations

import re
from functools import partial, total_ordering
from operator import lt

from .errors import FormatError

BOTTOM, ATOMS, COPY, CLASS = 0, 1, 2, 3

# Characters with a job in the grammar; vertex names may not contain them.
RESERVED = set('*@{},"')
LABEL_DEPTH_MAX = 200  # nested braces and copy prefixes that parse accepts

# re's \s matches exactly the characters for which str.isspace holds
_NAME = "[^" + re.escape("".join(sorted(RESERVED))) + r"\s]+"
_NAME_RE = re.compile(_NAME)
_ATOMS_RE = re.compile(rf"{_NAME}(?:\*{_NAME})*")  # names joined by *, each valid but "0"
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
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise FormatError(f"copy index must be a nonnegative integer, got {index!r}")
        if not isinstance(base, Label):
            raise FormatError("copy label base must be a Label")
        return cls._copy(index, base)

    @classmethod
    def _copy(cls, index: int, base: "Label") -> "Label":
        """Copy label from a nonnegative int and a Label; the caller
        vouches for both."""
        return cls(COPY, (index, base), (COPY, index, base.key), f"{index}@{base._text}")

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
        key = (CLASS, tuple([m.key for m in members]))
        return cls(CLASS, members, key, "{" + ",".join([m._text for m in members]) + "}")

    @classmethod
    def parse(cls, text: str) -> "Label":
        """The label written ``text``: a reader with a memo of its own."""
        return reader()(text)

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


def reader():
    """A function that reads label texts as :meth:`Label.parse` does and
    remembers every sub-label it reads, with its height, so the labels of
    one document parse each distinct text once."""
    return partial(_read, {"0": (_BOTTOM_LABEL, 0)})


# A reader's memo maps each text it has read to (label, height), the height
# being the braces and copy prefixes nested inside the label, and it always
# holds "0".  A text met at depth d is too deep when d plus its height passes
# LABEL_DEPTH_MAX: that is where a fresh parse would find its first fault,
# since the text parsed before.


def _read(memo: dict, text) -> Label:
    if not isinstance(text, str) or not text:
        raise FormatError(f"cannot parse label from {text!r}")
    done = memo.get(text)
    if done is None:
        done = _node(memo, text, 0) or _parse(memo, text)
    return done[0]


def _too_deep():
    return FormatError("label is nested too deeply")


def _node(memo: dict, s: str, depth: int):
    """(label, height) of the text ``s``, met at depth ``depth`` and not in
    the memo, when it is read without a stack: copy prefixes then ``0`` or
    an atom set, or a class with no brace inside, split at its commas.
    None for a class with a brace inside or a copy of a class."""
    if not s or s[0] != "{":
        return _plain(memo, s, depth)
    if depth > LABEL_DEPTH_MAX:
        raise _too_deep()
    if s[-1] != "}" or len(s) < 3:
        raise FormatError(f"malformed class label: {s!r}")
    inner = s[1:-1]
    if "{" in inner or "}" in inner:
        return None
    members, height = [], 1
    for part in inner.split(","):
        done = memo.get(part)
        if done is None:
            done = _plain(memo, part, depth + 1)
        elif depth + 1 + done[1] > LABEL_DEPTH_MAX:
            raise _too_deep()
        members.append(done[0])
        if done[1] >= height:
            height = done[1] + 1
    return _class(memo, s, members, height)


def _plain(memo: dict, s: str, depth: int):
    """(label, height) of a text met at depth ``depth``, not in the memo,
    that opens with no brace: copy prefixes, then ``0`` or an atom set.
    None when the prefixes lead to a class."""
    if depth > LABEL_DEPTH_MAX:
        raise _too_deep()
    if not s:
        raise FormatError("cannot parse label from ''")
    chain, at = _prefixes(s, depth) if "@" in s else ((), 0)
    if not chain:
        done = memo[s] = (_atom_set(s), 0)
        return done
    base = s[at:]
    if base[0] == "{":
        return None
    if depth + len(chain) > LABEL_DEPTH_MAX:
        raise _too_deep()
    done = memo.get(base)  # 0 or an atom set, of height 0: the chain took every prefix
    if done is None:
        done = memo[base] = (_atom_set(base), 0)
    return _wrap(memo, s, chain, done)


def _prefixes(s: str, depth: int) -> tuple:
    """The copy prefixes ``<digits>@`` that open the text ``s`` at depth
    ``depth``, as (index, start) pairs, and where the base after them
    begins; a prefix must leave a nonempty base."""
    parts = s.split("@")
    chain, at = [], 0
    for part in parts[:-1] if parts[-1] else parts[:-2]:
        if not part.isdecimal():
            break
        if depth + len(chain) > LABEL_DEPTH_MAX:
            raise _too_deep()
        try:
            chain.append((int(part), at))
        except ValueError:  # past Python's limit on digits in an int string
            raise FormatError(f"copy index has too many digits: {len(part)}") from None
        at += len(part) + 1
    return chain, at


def _wrap(memo: dict, s: str, chain, done) -> tuple:
    """(label, height) of ``s``: its copy prefixes ``chain`` around its
    base ``done``, each copy remembered under its own text."""
    label, height = done
    for index, start in reversed(chain):
        label, height = Label._copy(index, label), height + 1
        memo[s[start:]] = (label, height)
    return label, height


def _atom_set(text: str) -> Label:
    names = text.split("*")
    if _ATOMS_RE.fullmatch(text) and "0" not in names and len(set(names)) == len(names):
        return Label._atoms(tuple(sorted(names)))
    return Label.atom_set(names)  # raises the FormatError of the first fault


def _class(memo: dict, s: str, members: list, height: int) -> tuple:
    """(label, height) of the class ``s`` of ``members``, which its text
    lists in strictly increasing key order unless it repeats one or is
    unsorted; ``class_of`` then sorts them or rejects the repeat."""
    keys = [m.key for m in members]
    if all(map(lt, keys, keys[1:])):
        label = Label._class(tuple(members))
    else:
        label = Label.class_of(members)
    done = memo[s] = (label, height)
    return done


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


def _parse(memo: dict, text: str) -> tuple:
    """(label, height) of a text that ``_node`` cannot read alone, with an
    explicit stack of the classes and copy chains still open.

    Each node is read as ``0``, a class, a copy ``<digits>@<label>`` or an
    atom set, in that order, and errors come in the order of a
    left-to-right descent that checks a class's braces before its members.
    A class with a brace inside is balanced iff its ``}`` matches its ``{``
    in the one scan of ``_scan``, which also gives its members."""
    scan = None
    stack = []  # [i, j, depth, bounds, members, height] per class, (i, j, chain) per copy chain
    i, j, depth = 0, len(text), 0
    while True:
        s = text[i:j]
        done = memo.get(s)
        if done is None:
            done = _node(memo, s, depth)
        elif depth + done[1] > LABEL_DEPTH_MAX:
            raise _too_deep()
        if done is None:
            if s[0] == "{":
                if scan is None:
                    scan = _scan(text)
                if scan[0].get(i) != j - 1:
                    raise FormatError(f"unbalanced braces in label: {s!r}")
                bounds = [i, *scan[1][i], j - 1]
                stack.append([i, j, depth, bounds, [], 1])
                i, j, depth = i + 1, bounds[1], depth + 1
            else:
                chain, at = _prefixes(s, depth)
                stack.append((i, j, chain))
                i, depth = i + at, depth + len(chain)
            continue
        # the node is read: hand it to the innermost open class or chain
        while stack:
            frame = stack[-1]
            if len(frame) == 3:
                stack.pop()
                fi, fj, chain = frame
                done = _wrap(memo, text[fi:fj], chain, done)
                continue
            fi, fj, fdepth, bounds, members, height = frame
            members.append(done[0])
            if done[1] >= height:
                frame[5] = done[1] + 1
            k = len(members)
            if k < len(bounds) - 1:
                i, j, depth = bounds[k] + 1, bounds[k + 1], fdepth + 1
                break
            stack.pop()
            done = _class(memo, text[fi:fj], members, frame[5])
        else:
            return done
