"""The word parser against a character-by-character reference.

`RefParser` is the parser `words.parse_word` used before it read one item
per regex match: it skips whitespace and reads the text one character or
one token at a time, builds a Word per item and multiplies the items in
one by one.  On every text the two must give equal words, or raise
WordParseError with the same message, line and column.  The only change
to the reference is where it reads the alphabet (`FreeGroup._codes`, one
letter per name).  It reads exponents with int(), which refuses more than
4300 digits, so no text here has one that long (tests/test_words.py
covers those).
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from kgroups.words import (FreeGroup, Word, WordParseError, commutator, mul,
                           parse_word)

_INT_RE = re.compile(r"-?\d+")
_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")
_MAX_NESTING = 100
_MAX_LETTERS = 1 << 20


class RefParser:
    def __init__(self, group: FreeGroup, text: str):
        self.group = group
        self.text = text
        self.pos = 0
        self.depth = 0
        self.names = sorted(group._codes, key=len, reverse=True)

    def error(self, message):
        raise WordParseError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def check_length(self, letters: int):
        if letters > _MAX_LETTERS:
            self.error(f"word too long (limit {_MAX_LETTERS} letters)")

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self, stop: str = "") -> Word:
        if self.depth > _MAX_NESTING:
            self.error(f"brackets nested too deeply (limit {_MAX_NESTING})")
        self.depth += 1
        parts = self.group.identity
        while True:
            ch = self.peek()
            if ch == "" or ch in stop:
                self.depth -= 1
                return parts
            item = self.parse_item()
            self.check_length(len(parts.data) + len(item.data))
            parts = mul(parts, item)

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
            k = int(m.group())
            self.check_length(len(atom.data) * abs(k))
            return atom ** k
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
            self.check_length(2 * (len(left.data) + len(right.data)))
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
                return Word(self.group, self.group._codes[name])
        self.error(f"unknown generator name {run!r}")


def ref_parse(group: FreeGroup, text: str) -> Word:
    p = RefParser(group, text)
    w = p.parse_word()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return w


def outcome(parse, group, text):
    """The parsed word's bytes, or the parse error's message and place."""
    try:
        return "word", parse(group, text).data
    except WordParseError as e:
        return "error", str(e), e.line, e.col


F2 = FreeGroup(2)
# names where one is a prefix of another, and digits inside names
F3 = FreeGroup(3, names=("a", "ab", "b1"))
ALPHABETS = [(F2, ["x", "y", "e1", "e2"]),
             (F3, ["a", "ab", "b1", "x", "y", "e1", "e2", "e3"])]

_ws = st.sampled_from(["", " ", "  ", "\n", " \n\t"])
_exponent = st.builds(
    lambda s1, s2, zeros, k: s1 + "^" + s2 + ("-" if k < 0 else "")
    + "0" * zeros + str(abs(k)),
    _ws, _ws, st.integers(0, 2), st.integers(-3, 3))


def _items(atoms):
    item = st.tuples(_ws, atoms, st.one_of(st.just(""), _exponent))
    return st.lists(item, max_size=4).map(
        lambda items: "".join(s + a + e for s, a, e in items))


def _texts(names):
    leaves = st.sampled_from(names + ["1"])

    def bracketed(words):
        return st.one_of(
            st.builds(lambda u, v, s: "[" + u + "," + v + s + "]",
                      words, words, _ws),
            st.builds(lambda u, s: "(" + u + s + ")", words, _ws))

    return st.recursive(_items(leaves),
                        lambda words: _items(st.one_of(leaves, bracketed(words))),
                        max_leaves=12)


def _cases():
    return st.one_of(*[st.tuples(st.just(group), _texts(names))
                       for group, names in ALPHABETS])


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_valid_texts_parse_as_the_reference_does(case):
    group, text = case
    assert outcome(parse_word, group, text) == outcome(ref_parse, group, text)


_CORRUPTION = "[](),^-019 \nxyeab_!;é٣"


@settings(max_examples=200, deadline=None)
@given(_cases(), st.data())
def test_corrupted_texts_fail_as_the_reference_does(case, data):
    group, text = case
    pos = data.draw(st.integers(0, len(text)))
    kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    ch = data.draw(st.sampled_from(_CORRUPTION))
    if kind == "insert":
        text = text[:pos] + ch + text[pos:]
    elif kind == "delete":
        text = text[:pos] + text[pos + 1:]
    else:
        text = text[:pos] + ch + text[pos + 1:]
    assert outcome(parse_word, group, text) == outcome(ref_parse, group, text)


@pytest.mark.parametrize("text", [
    # the caps, at and past the limit: nesting, items, commutators, words
    "(" * 100 + "x" + ")" * 100,
    "(" * 101 + "x" + ")" * 101,
    "x " + "[" * 101 + "x" + ", y]" * 101,
    "x^1048576", "x^1048577", "1^1048577", "(x y)^524288", "(x y)^524289",
    "(x y x^-1)^1048577",
    "x^1048576 x", "x^1048576 x^-1", "x^1048576 x^-1 x",
    "x^1048575 (x\n)",
    "[x^262144, y^262144]", "[x^262144, y^262145]",
    "[x^262144 y^262145, 1]",
    "[" * 20 + "x" + ", y]" * 20,
])
def test_the_caps_match_the_reference(text):
    assert outcome(parse_word, F2, text) == outcome(ref_parse, F2, text)
