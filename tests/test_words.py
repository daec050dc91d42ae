import pytest
from hypothesis import given, strategies as st

from kgroups import _wordops_py as ops
from kgroups.words import (FreeGroup, Word, WordParseError, commutator, conj,
                           exponent_sum, inv, mul, parse_word, reduce,
                           substitute, to_text)

F2 = FreeGroup(2)
F3 = FreeGroup(3, names=("a", "b", "c"))


def letters(rank, max_len=40):
    letter = st.tuples(st.integers(1, rank), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_len)


def words(rank=2, max_len=40):
    return letters(rank, max_len).map(lambda ls: reduce(FreeGroup(rank), ls))


def test_reduce_cancels_adjacent_inverses():
    w = reduce(F2, [(1, 1), (2, 1), (2, -1), (1, -1)])
    assert not w
    assert to_text(w) == "1"


def test_reduce_cascades():
    # x y z z^-1 y^-1 collapses from the inside out
    w = reduce(F3, [(1, 1), (2, 1), (3, 1), (3, -1), (2, -1)])
    assert w == F3.gen(1)


@given(letters(3))
def test_reduced_words_have_no_adjacent_cancellation(ls):
    w = reduce(FreeGroup(3), ls)
    for a, b in zip(w.data, w.data[1:]):
        assert a ^ b != 1


@given(words(2))
def test_inverse_law(w):
    assert not mul(w, inv(w))
    assert not mul(inv(w), w)
    assert inv(inv(w)) == w


@given(words(2, 20), words(2, 20), words(2, 20))
def test_multiplication_associates(u, v, w):
    assert mul(mul(u, v), w) == mul(u, mul(v, w))


@given(words(3, 15), words(3, 15))
def test_product_inverse_reverses(u, v):
    assert inv(mul(u, v)) == mul(inv(v), inv(u))


def test_powers():
    x = F2.gen(1)
    assert (x ** 3).data == x.data * 3
    assert x ** 0 == F2.identity
    assert x ** -2 == inv(x) ** 2
    w = parse_word(F2, "x y")
    assert w ** 2 == parse_word(F2, "x y x y")


def test_commutator_and_conj():
    x, y = F2.gen(1), F2.gen(2)
    assert to_text(commutator(x, y)) == "x y x^-1 y^-1"
    assert not commutator(x, x)
    # x^y = y x y^-1
    assert conj(x, y) == mul(mul(y, x), inv(y))


@given(words(2, 15), words(2, 15))
def test_conj_is_homomorphic_in_the_first_slot(u, v):
    x, y = F2.gen(1), F2.gen(2)
    assert conj(mul(x, y), u) == mul(conj(x, u), conj(y, u))
    assert conj(conj(u, v), inv(v)) == u


def test_exponent_sum():
    w = parse_word(F2, "x^3 y x^-1 y^-1")
    assert exponent_sum(w, 1) == 2
    assert exponent_sum(w, 2) == 0


def test_substitute():
    x, y = F2.gen(1), F2.gen(2)
    w = parse_word(F2, "x y x^-1")
    out = substitute(w, {1: commutator(x, y), 2: x})
    assert out == mul(mul(commutator(x, y), x), inv(commutator(x, y)))


@given(words(2, 12))
def test_substituting_generators_is_identity(w):
    assert substitute(w, {1: F2.gen(1), 2: F2.gen(2)}) == w


class TestParser:
    def test_basic_forms(self):
        assert parse_word(F2, "x y^-1") == mul(F2.gen(1), F2.gen(2, -1))
        assert parse_word(F2, "1") == F2.identity
        assert parse_word(F2, "[x,y]") == commutator(F2.gen(1), F2.gen(2))
        assert parse_word(F2, "(x y)^2") == parse_word(F2, "x y x y")
        assert parse_word(F2, "e1 e2") == parse_word(F2, "x y")

    def test_named_alphabet(self):
        w = parse_word(F3, "a b^-2 c")
        assert w.letters == ((1, 1), (2, -1), (2, -1), (3, 1))

    def test_nested(self):
        w = parse_word(F2, "[x^2, (y x)^2]^-1")
        a, b = F2.gen(1) ** 2, parse_word(F2, "y x") ** 2
        assert w == inv(commutator(a, b))

    def test_errors_carry_position(self):
        with pytest.raises(WordParseError) as e:
            parse_word(F2, "x (y")
        assert "column" in str(e.value)
        with pytest.raises(WordParseError):
            parse_word(F2, "q")
        # x/y aliases work on any group of rank >= 2, whatever the names
        assert parse_word(F3, "x") == F3.gen(1)


@given(words(2, 25))
def test_text_round_trip(w):
    assert parse_word(F2, to_text(w)) == w


def test_rank_bounds():
    with pytest.raises(ValueError):
        FreeGroup(0)
    with pytest.raises(ValueError):
        FreeGroup(128)
    FreeGroup(127)  # the largest encodable rank


def test_words_hash_consistently():
    u = parse_word(F2, "x y")
    v = mul(F2.gen(1), F2.gen(2))
    assert u == v and hash(u) == hash(v)
    assert len({u, v}) == 1


# The word kernel on raw bytes, against an oracle that shares no code with it:
# delete any adjacent letter/inverse pair until none is left.  Free
# reduction is confluent, so every deletion order ends at the same word.

def naive_reduce(data):
    out = list(data)
    i = 0
    while i + 1 < len(out):
        if out[i] ^ out[i + 1] == 1:
            del out[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return bytes(out)


raw = st.binary(max_size=60).map(lambda b: bytes(c % 6 for c in b))
reduced = raw.map(naive_reduce)


@given(raw)
def test_free_reduce_matches_the_oracle(data):
    r = ops.free_reduce(data)
    assert r == naive_reduce(data)
    assert all(a ^ b != 1 for a, b in zip(r, r[1:]))
    assert ops.free_reduce(r) == r


@given(reduced, reduced)
def test_concat_is_reduced_juxtaposition(a, b):
    assert ops.concat(a, b) == ops.free_reduce(a + b)


@given(reduced, reduced, st.data())
def test_insert_reduce_is_reduced_insertion(w, v, data):
    p = data.draw(st.integers(0, len(w)))
    assert ops.insert_reduce(w, p, v) == ops.free_reduce(w[:p] + v + w[p:])


@given(reduced)
def test_invert_cancels_on_both_sides(a):
    inv_a = ops.invert(a)
    assert ops.concat(a, inv_a) == b""
    assert ops.concat(inv_a, a) == b""
    assert ops.invert(inv_a) == a
