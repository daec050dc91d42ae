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
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from . import _wordops_py as ops

_MAX_RANK = 127

# the largest rank whose 2^m m! signed permutations are enumerated
_SYMMETRY_RANK = 4

Letter = Tuple[int, int]  # (generator index 1..m, sign +1/-1)


def _default_names(rank: int) -> Tuple[str, ...]:
    if rank == 2:
        return ("x", "y")
    return tuple(f"e{j}" for j in range(1, rank + 1))


class FreeGroup:
    """Rank descriptor for one free factor, with printable generator names."""

    __slots__ = ("rank", "names", "_codes")

    def __init__(self, rank: int, names: Optional[Sequence[str]] = None):
        if not 1 <= rank <= _MAX_RANK:
            raise ValueError(f"rank must be in 1..{_MAX_RANK}, got {rank}")
        self.rank = rank
        if names is None:
            self.names = _default_names(rank)
        else:
            self.names = tuple(names)
            if len(self.names) != rank:
                raise ValueError("need exactly one name per generator")
            if len(set(self.names)) != rank:
                raise ValueError("generator names must be distinct")
            for name in self.names:
                # the word grammar must read every printed name back
                if name == "1" or not _IDENT_RE.fullmatch(name):
                    raise ValueError(f"generator name {name!r} must be"
                                     " letters, digits and underscores,"
                                     " and not 1")
        # the parser's alphabet: each name's one-letter word
        codes = {name: bytes((2 * j,)) for j, name in enumerate(self.names)}
        # e<j> spellings and the x,y aliases are always accepted on input
        for j in range(rank):
            codes.setdefault(f"e{j + 1}", bytes((2 * j,)))
        if rank >= 2:
            codes.setdefault("x", b"\x00")
            codes.setdefault("y", b"\x02")
        self._codes = codes

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
        if len(self.data) * abs(k) > _MAX_LETTERS:
            raise ValueError(_TOO_LONG)
        return Word(self.group, _power(self.data, k))


def _check_same_group(u: Word, v: Word):
    if u.group.rank != v.group.rank:
        raise ValueError(
            f"rank mismatch: {u.group.rank} vs {v.group.rank}")


def reduce(group: FreeGroup, letters: Iterable[Letter]) -> Word:
    """Freely reduce a raw sequence of (index, sign) letters.

    Idempotent: reducing a Word's letters gives the word back.
    """
    raw = bytearray()
    for j, sign in letters:
        if not 1 <= j <= group.rank:
            raise ValueError(f"generator index {j} out of rank {group.rank}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        raw.append(2 * (j - 1) + (0 if sign == 1 else 1))
    return Word(group, ops.free_reduce(bytes(raw)))


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
    pieces = []
    for j, sign in w.letters:
        if j not in images:
            raise ValueError(f"no image for generator {j}")
        pieces.append(images[j].data if sign == 1
                      else ops.invert(images[j].data))
    if target is None:      # no images, so w had no letters
        target = w.group
    # free reduction has a unique result, so reducing the joined pieces
    # once equals multiplying them one by one
    return Word(target, ops.free_reduce(b"".join(pieces)))


@lru_cache(maxsize=None)
def signed_permutations(rank: int) -> Tuple[bytes, ...]:
    """``bytes.translate`` tables of the signed generator permutations.

    Each sends generator ``j`` to generator ``p(j)`` or its inverse and
    fixes every other byte: an automorphism of the free group that maps
    reduced words to reduced words of the same length.  The identity comes
    first, then the rest in ``permutations x product`` order.  Above
    ``_SYMMETRY_RANK`` only the identity is given.  The tables are built
    once per rank.
    """
    if rank > _SYMMETRY_RANK:
        return (bytes(range(256)),)
    tables = []
    for images in permutations(range(rank)):
        for flips in product((0, 1), repeat=rank):
            table = bytearray(range(256))
            for j, (k, e) in enumerate(zip(images, flips)):
                table[2 * j], table[2 * j + 1] = 2 * k + e, 2 * k + (e ^ 1)
            tables.append(bytes(table))
    return tuple(tables)


# -- text form --------------------------------------------------------------
#
# Grammar (whitespace optional between items):
#   word  := item*
#   item  := atom ('^' INT)?
#   atom  := '1' | NAME | '[' word ',' word ']' | '(' word ')'
# A run of name characters [A-Za-z0-9_] that is exactly "1" is the empty
# atom, so the identity prints and parses as 1.  Any other run is read as
# its longest prefix that is a generator name (the group's names plus the
# always-available e<j> spellings and x,y aliases for ranks >= 2), and the
# rest of the run starts the next item.  INT is a possibly negative
# decimal integer; leading zeros count for nothing.  print/parse
# round-trips exactly.
#
# One match of _ITEM_RE reads each item's name and exponent.  Each
# bracketed word is reduced in one pass as its items arrive, cancelling
# only at the seam with the next item; free reduction has a unique result,
# so this equals multiplying the items one by one.  Limits: brackets nest
# at most _MAX_NESTING deep, and no item, commutator or word read so far
# (each reduced) may pass _MAX_LETTERS letters.

class WordParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")
# an item: whitespace, then a run of name characters with the whitespace
# after it and its exponent, if any (no run: the next character is read by
# hand); the exponent's digits are missing when '^' is not followed by one
_ITEM_RE = re.compile(r"\s*(?:([A-Za-z0-9_]+)\s*(?:(\^)\s*(-?\d+)?)?)?")
# what follows a bracketed atom
_EXP_RE = re.compile(r"\s*(?:(\^)\s*(-?\d+)?)?")
# the parser recurses per bracket: stay far below Python's recursion limit
_MAX_NESTING = 100
# letters in any product the parser builds, before reduction
_MAX_LETTERS = 1 << 20
_TOO_LONG = f"word too long (limit {_MAX_LETTERS} letters)"


def _exponent(digits: str) -> int:
    """The value of an exponent's text, an optional '-' and decimal digits,
    clamped to +-(_MAX_LETTERS + 1).  int() refuses more than 4300 digits,
    but an exponent of eight or more significant digits passes the letter
    cap anyway, so only seven or fewer are read."""
    sign = -1 if digits[0] == "-" else 1
    digits = digits.lstrip("-").lstrip("0")
    return sign * (_MAX_LETTERS + 1 if len(digits) > 7 else int(digits or "0"))


def _power(atom: bytes, k: int) -> bytes:
    """The reduced bytes of the reduced word ``atom`` to the power ``k``."""
    if k < 0:
        atom, k = ops.invert(atom), -k
    # a power of one letter is reduced; copies of a longer atom may cancel
    # where they meet, and free reduction is unique, so one pass equals
    # k - 1 products
    return atom * k if len(atom) < 2 or k < 2 else ops.free_reduce(atom * k)


def _read(codes: Mapping[str, bytes], text: str, pos: int, depth: int,
          stop: str) -> Tuple[bytes, int]:
    """Read the word at ``pos`` up to the first ``stop`` character at this
    bracket depth, or to the end of ``text``; return its reduced bytes and
    the position where it ended."""
    if depth > _MAX_NESTING:
        raise WordParseError(
            f"brackets nested too deeply (limit {_MAX_NESTING})", text, pos)
    out = bytearray()
    match = _ITEM_RE.match
    while True:
        m = match(text, pos)
        run, caret, digits = m.groups()
        if run is not None:
            atom = codes.get(run)
            if atom is None and run == "1":
                atom = b""
            if atom is not None:
                pos = m.end()
            else:
                # the longest name the run starts with; no exponent follows
                start = m.start(1)
                longest = max(map(len, codes))
                for cut in range(min(len(run) - 1, longest), 0, -1):
                    atom = codes.get(run[:cut])
                    if atom is not None:
                        break
                else:
                    raise WordParseError(f"unknown generator name {run!r}",
                                         text, start)
                caret, pos = None, start + cut
        else:
            pos = m.end()
            ch = text[pos:pos + 1]
            if ch == "[":
                left, pos = _read(codes, text, pos + 1, depth + 1, ",")
                if pos == len(text):
                    raise WordParseError("expected ',' in commutator",
                                         text, pos)
                right, pos = _read(codes, text, pos + 1, depth + 1, "]")
                if pos == len(text):
                    raise WordParseError("expected ']' closing commutator",
                                         text, pos)
                pos += 1
                if 2 * (len(left) + len(right)) > _MAX_LETTERS:
                    raise WordParseError(_TOO_LONG, text, pos)
                atom = ops.free_reduce(left + right + ops.invert(left)
                                       + ops.invert(right))
            elif ch == "(":
                atom, pos = _read(codes, text, pos + 1, depth + 1, ")")
                if pos == len(text):
                    raise WordParseError("expected ')'", text, pos)
                pos += 1
            elif ch == stop or not ch:
                return bytes(out), pos
            else:
                raise WordParseError("expected a generator name", text, pos)
            m = _EXP_RE.match(text, pos)
            caret, digits = m.groups()
            pos = m.end()
        if caret:
            if digits is None:
                raise WordParseError("expected an integer exponent after '^'",
                                     text, pos)
            k = _exponent(digits)
            if len(atom) * abs(k) > _MAX_LETTERS:
                raise WordParseError(_TOO_LONG, text, pos)
            atom = _power(atom, k)
        if len(out) + len(atom) > _MAX_LETTERS:
            raise WordParseError(_TOO_LONG, text, pos)
        if out and atom and out[-1] ^ atom[0] == 1:
            # cancel across the seam, then append the rest
            i, n = 1, len(atom)
            out.pop()
            while i < n and out and out[-1] ^ atom[i] == 1:
                out.pop()
                i += 1
            out += atom[i:]
        else:
            out += atom


def parse_word(group: FreeGroup, text: str) -> Word:
    return Word(group, _read(group._codes, text, 0, 0, "")[0])


def parse_factors(group: FreeGroup, text: str) -> List[Word]:
    """The words between the ';'s of `text`, read as parse_word reads each
    one stripped of its surrounding whitespace; a parse error names its
    line and column in `text` itself."""
    out = []
    start = 0
    for part in text.split(";"):
        # cut the text after the part's last non-space character, so an
        # error at the part's end lands where it did in the stripped part
        end = start + len(part.rstrip())
        out.append(Word(group, _read(group._codes, text[:end], start, 0,
                                     "")[0]))
        start += len(part) + 1
    return out


def runs(data: bytes) -> List[Tuple[int, int]]:
    """The maximal runs of one letter byte in ``data``, as (generator index
    1..m, exponent) pairs; in a reduced word they are its syllables."""
    out = []
    prev, count = None, 0
    # no letter byte is 255 (rank <= 127), so it ends the last run
    for c in data + b"\xff":
        if c == prev:
            count += 1
        else:
            if count:
                out.append((prev // 2 + 1, -count if prev & 1 else count))
            prev, count = c, 1
    return out


def to_text(w: Word) -> str:
    """Canonical text: maximal same-generator runs as name^k; identity is 1."""
    if not w.data:
        return "1"
    names = w.group.names
    return " ".join(names[j - 1] if e == 1 else f"{names[j - 1]}^{e}"
                    for j, e in runs(w.data))
