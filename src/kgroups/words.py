"""Exact arithmetic in finitely generated free groups.

Words are stored freely reduced, always; constructors reduce eagerly, so
equality and hashing are plain value equality on the underlying bytes.  A
word's letters index generators 1..m of an ambient FreeGroup descriptor;
mixing ranks is a hard error.

Letter-level crunching is delegated to the word kernel (`_wordops_py`,
imported as `ops`).
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from . import _wordops_py as ops

_MAX_RANK = 127

Letter = Tuple[int, int]  # (generator index 1..m, sign +1/-1)


def _default_names(rank: int) -> Tuple[str, ...]:
    if rank == 2:
        return ("x", "y")
    return tuple(f"e{j}" for j in range(1, rank + 1))


class FreeGroup:
    """Rank descriptor for one free factor, with printable generator names."""

    __slots__ = ("rank", "names", "_by_name")

    def __init__(self, rank: int, names: Optional[Sequence[str]] = None):
        if not 1 <= rank <= _MAX_RANK:
            raise ValueError(f"rank must be in 1..{_MAX_RANK}, got {rank}")
        self.rank = rank
        self.names = tuple(names) if names is not None else _default_names(rank)
        if len(self.names) != rank:
            raise ValueError("need exactly one name per generator")
        if len(set(self.names)) != rank:
            raise ValueError("generator names must be distinct")
        by_name = {}
        for j, name in enumerate(self.names, start=1):
            by_name[name] = j
        # e<j> spellings and the x,y aliases are always accepted on input
        for j in range(1, rank + 1):
            by_name.setdefault(f"e{j}", j)
        if rank >= 2:
            by_name.setdefault("x", 1)
            by_name.setdefault("y", 2)
        self._by_name = by_name

    def __eq__(self, other):
        return (isinstance(other, FreeGroup)
                and self.rank == other.rank and self.names == other.names)

    def __hash__(self):
        return hash((self.rank, self.names))

    def __repr__(self):
        return f"FreeGroup({self.rank}, names={list(self.names)})"

    @property
    def identity(self) -> "Word":
        return Word(self, b"")

    def gen(self, j: int, sign: int = 1) -> "Word":
        """The one-letter word e_j (or its inverse for sign = -1)."""
        return reduce(self, [(j, sign)])

    def word(self, text: str) -> "Word":
        return parse_word(self, text)


class Word:
    """A freely reduced word; immutable and hashable."""

    __slots__ = ("group", "data")

    def __init__(self, group: FreeGroup, data: bytes):
        # `data` must already be reduced; use reduce()/parse_word() to build
        # words from raw letters or text.
        self.group = group
        self.data = data

    # -- structure ---------------------------------------------------------

    def __len__(self):
        return len(self.data)

    @property
    def letters(self) -> Tuple[Letter, ...]:
        return tuple((c // 2 + 1, 1 if c % 2 == 0 else -1) for c in self.data)

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        return (isinstance(other, Word)
                and self.group == other.group and self.data == other.data)

    def __hash__(self):
        return hash((self.group.rank, self.data))

    def __repr__(self):
        return f"Word({to_text(self)!r})"

    def __str__(self):
        return to_text(self)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        return mul(self, other)

    def __invert__(self):
        return inv(self)

    def __pow__(self, k: int):
        if k == 0:
            return self.group.identity
        base = self if k > 0 else inv(self)
        out = base.data
        for _ in range(abs(k) - 1):
            out = ops.concat(out, base.data)
        return Word(self.group, out)


def _check_same_group(u: Word, v: Word):
    if u.group.rank != v.group.rank:
        raise ValueError(
            f"rank mismatch: {u.group.rank} vs {v.group.rank}")


def _encode(group: FreeGroup, letters: Iterable[Union[Letter, int]]) -> bytes:
    raw = bytearray()
    for item in letters:
        if isinstance(item, int):
            j, sign = abs(item), (1 if item > 0 else -1)
            if item == 0:
                raise ValueError("0 is not a signed generator index")
        else:
            j, sign = item
        if not 1 <= j <= group.rank:
            raise ValueError(f"generator index {j} out of rank {group.rank}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        raw.append(2 * (j - 1) + (0 if sign == 1 else 1))
    return bytes(raw)


def reduce(group: FreeGroup, letters: Iterable[Union[Letter, int]]) -> Word:
    """Freely reduce a raw letter sequence.

    Letters may be (index, sign) pairs or signed integers (+j / -j).
    Idempotent: reducing a Word's letters gives the word back.
    """
    return Word(group, ops.free_reduce(_encode(group, letters)))


def mul(u: Word, v: Word) -> Word:
    _check_same_group(u, v)
    return Word(u.group, ops.concat(u.data, v.data))


def inv(u: Word) -> Word:
    return Word(u.group, ops.invert(u.data))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    _check_same_group(x, y)
    d = ops.concat(ops.concat(x.data, y.data),
                   ops.concat(ops.invert(x.data), ops.invert(y.data)))
    return Word(x.group, d)


def conj(x: Word, y: Word) -> Word:
    """x conjugated by y with the conjugator on the left: y x y^-1."""
    _check_same_group(x, y)
    d = ops.concat(ops.concat(y.data, x.data), ops.invert(y.data))
    return Word(x.group, d)


def substitute(w: Word, images: Mapping[int, Word],
               target: Optional[FreeGroup] = None) -> Word:
    """Homomorphic image of w under generator index -> Word.

    Every index occurring in w needs an image; images must share one target
    group (pass `target` explicitly if `images` is empty).
    """
    for img in images.values():
        if target is None:
            target = img.group
        elif target.rank != img.group.rank:
            raise ValueError("substitution images live in different groups")
    out = b""
    for j, sign in w.letters:
        if j not in images:
            raise ValueError(f"no image for generator {j}")
        piece = images[j].data if sign == 1 else ops.invert(images[j].data)
        out = ops.concat(out, piece)
    if target is None:
        if w.data:
            raise ValueError("no image for generator")  # unreachable
        target = w.group
    return Word(target, out)


def exponent_sum(w: Word, j: int) -> int:
    if not 1 <= j <= w.group.rank:
        raise ValueError(f"generator index {j} out of rank {w.group.rank}")
    plus, minus = w.data.count(2 * (j - 1)), w.data.count(2 * (j - 1) + 1)
    return plus - minus


# -- text form --------------------------------------------------------------
#
# Grammar (whitespace optional between items):
#   word  := '1' | item*
#   item  := atom ('^' INT)?
#   atom  := NAME | '[' word ',' word ']' | '(' word ')'
# NAME is matched longest-first against the group's generator names (plus the
# always-available e<j> spellings and x,y aliases for ranks >= 2); INT is a
# possibly negative decimal integer.  print/parse round-trips exactly.

class WordParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


_INT_RE = re.compile(r"-?\d+")
_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")


class _Parser:
    def __init__(self, group: FreeGroup, text: str):
        self.group = group
        self.text = text
        self.pos = 0
        self.names = sorted(group._by_name, key=len, reverse=True)

    def error(self, message):
        raise WordParseError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self, stop: str = "") -> Word:
        parts = self.group.identity
        while True:
            ch = self.peek()
            if ch == "" or ch in stop:
                return parts
            parts = mul(parts, self.parse_item())

    def parse_item(self) -> Word:
        atom = self.parse_atom()
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "^":
            self.pos += 1
            self.skip_ws()
            m = _INT_RE.match(self.text, self.pos)
            if not m:
                self.error("expected an integer exponent after '^'")
            self.pos = m.end()
            return atom ** int(m.group())
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        if ch == "[":
            self.pos += 1
            left = self.parse_word(stop=",")
            if self.peek() != ",":
                self.error("expected ',' in commutator")
            self.pos += 1
            right = self.parse_word(stop="]")
            if self.peek() != "]":
                self.error("expected ']' closing commutator")
            self.pos += 1
            return commutator(left, right)
        if ch == "(":
            self.pos += 1
            inner = self.parse_word(stop=")")
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a generator name")
        run = m.group()
        if run == "1":
            self.pos += 1
            return self.group.identity
        for name in self.names:
            if run.startswith(name):
                self.pos += len(name)
                return self.group.gen(self.group._by_name[name])
        self.error(f"unknown generator name {run!r}")


def parse_word(group: FreeGroup, text: str) -> Word:
    p = _Parser(group, text)
    w = p.parse_word()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return w


def to_text(w: Word) -> str:
    """Canonical text: maximal same-generator runs as name^k; identity is 1."""
    if not w.data:
        return "1"
    names = w.group.names
    parts = []
    run_j, run_exp = None, 0
    for j, sign in w.letters:
        if j == run_j and (run_exp > 0) == (sign > 0):
            run_exp += sign
        else:
            if run_j is not None:
                parts.append((run_j, run_exp))
            run_j, run_exp = j, sign
    parts.append((run_j, run_exp))
    return " ".join(
        names[j - 1] if e == 1 else f"{names[j - 1]}^{e}" for j, e in parts)
