import pytest
from hypothesis import given, strategies as st

from kgroups import _wordops_py as ops
from kgroups.words import (FreeGroup, Word, WordParseError, commutator, inv,
                           mul, parse_word, reduce, runs, signed_permutations,
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


@given(st.one_of(words(2, 12), st.just(parse_word(F2, "x y x^-1"))),
       st.integers(-6, 6))
def test_power_is_repeated_product(w, k):
    # bases that are not cyclically reduced cancel across every seam
    expect = F2.identity
    for _ in range(abs(k)):
        expect = mul(expect, w if k > 0 else inv(w))
    assert w ** k == expect


def test_commutator():
    x, y = F2.gen(1), F2.gen(2)
    assert to_text(commutator(x, y)) == "x y x^-1 y^-1"
    assert not commutator(x, x)


def test_substitute():
    x, y = F2.gen(1), F2.gen(2)
    w = parse_word(F2, "x y x^-1")
    out = substitute(w, {1: commutator(x, y), 2: x})
    assert out == mul(mul(commutator(x, y), x), inv(commutator(x, y)))


@given(words(2, 12))
def test_substituting_generators_is_identity(w):
    assert substitute(w, {1: F2.gen(1), 2: F2.gen(2)}) == w


def test_signed_permutations_of_rank_two():
    tables = list(signed_permutations(2))
    assert len(set(tables)) == 8
    assert tables[0] == bytes(range(256))
    # permutations x product order: x -> y and y -> x^-1 is the sixth
    x, y = F2.gen(1), F2.gen(2)
    assert commutator(x, y).data.translate(tables[5]) == \
        commutator(y, inv(x)).data


def test_signed_permutations_above_rank_four_are_the_identity():
    assert list(signed_permutations(5)) == [bytes(range(256))]
    assert len(list(signed_permutations(4))) == 2 ** 4 * 24


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

    def test_deep_nesting_is_a_parse_error(self):
        # the parser recurses per bracket: too deep must be a WordParseError,
        # not a RecursionError
        assert parse_word(F2, "(" * 100 + "x" + ")" * 100) == F2.gen(1)
        for text in ["(" * 101 + "x" + ")" * 101,
                     "x " + "[" * 400 + "x" + ", y]" * 400]:
            with pytest.raises(WordParseError, match="nested too deeply"):
                parse_word(F2, text)
        with pytest.raises(WordParseError) as e:
            parse_word(F2, "(" * 400 + "x" + ")" * 400)
        assert e.value.col == 102

    def test_overlong_words_are_a_parse_error(self):
        # short text must not allocate a huge word: an exponent past what
        # fits in memory, and k nested commutators (2^(k+1) letters)
        assert len(parse_word(F2, "x^1000").data) == 1000
        for text in ["x^99999999999999999999", "y^-99999999999999999999",
                     "[" * 20 + "x" + ", y]" * 20,
                     "(x^1048576) x"]:
            with pytest.raises(WordParseError, match="word too long"):
                parse_word(F2, text)

    def test_exponents_past_int_digit_limit(self):
        # int() refuses more than 4300 digits; the parser reads any number
        # of them, and leading zeros count for nothing
        zeros = "0" * 5000
        assert parse_word(F2, "x^-" + zeros + "1 x") == F2.identity
        assert parse_word(F2, "y^" + zeros) == F2.identity
        assert parse_word(F2, "(x y)^-" + zeros + "2") == parse_word(
            F2, "y^-1 x^-1 y^-1 x^-1")
        assert parse_word(F2, "x^" + zeros + "1048576") == F2.gen(1) ** 1048576
        # the empty atom to any power is the identity
        for text in ["1^" + "9" * 5000, "1^-" + "9" * 5000,
                     "(x x^-1)^" + "7" * 4301]:
            assert parse_word(F2, text) == F2.identity
        # a nonempty atom past the letter cap fails at the end of its exponent
        for digits in ["9" * 5000, "-" + "9" * 5000, zeros + "1048577",
                       "1" + zeros]:
            text = "y [x, y]^" + digits + " x"
            with pytest.raises(WordParseError, match="word too long") as e:
                parse_word(F2, text)
            assert (e.value.line, e.value.col) == (1, len(text) - 1)


@given(words(2, 25))
def test_text_round_trip(w):
    assert parse_word(F2, to_text(w)) == w


def _to_text_by_letters(w):
    """The run merger to_text used over Word.letters, kept as a reference."""
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


def _alternating(rank, n):
    """(e_1 e_2^-1 ... e_rank^(+-1))^n: every run one letter long."""
    F = FreeGroup(rank)
    one = " ".join(f"e{j}" if j % 2 else f"e{j}^-1"
                   for j in range(1, rank + 1))
    return parse_word(F, f"({one})^{n}")


@given(st.one_of(
    st.integers(2, 4).flatmap(lambda rank: words(rank, 200)),
    st.builds(_alternating, st.integers(2, 4), st.integers(0, 400)),
    st.just(F2.identity), st.just(F3.identity)))
def test_to_text_matches_the_letter_merger(w):
    assert to_text(w) == _to_text_by_letters(w)


def test_runs_are_the_maximal_runs_of_one_letter():
    w = parse_word(F3, "a^2 b^-1 a c^-3")
    assert runs(w.data) == [(1, 2), (2, -1), (1, 1), (3, -3)]
    assert runs(b"") == []


@pytest.mark.parametrize("k", [-4, -1, 1])
def test_power_applies_the_letter_cap(k):
    # a base whose |k| copies fill the 2^20-letter cap exactly, and the
    # same base one letter longer
    cap = 1 << 20
    base = Word(F2, b"\x00\x02" * (cap // abs(k) // 2))
    assert len(base ** k) == cap
    with pytest.raises(ValueError, match=r"word too long \(limit 1048576"):
        Word(F2, base.data + b"\x00") ** k


def test_zeroth_power_of_any_word_is_the_identity():
    assert Word(F2, b"\x00" * ((1 << 20) + 1)) ** 0 == F2.identity


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


def ref_concat(a: bytes, b: bytes) -> bytes:
    """`concat` as it was before long seams took one XOR: the seam walked
    letter by letter, kept as the reference."""
    i, j = len(a), 0
    while i > 0 and j < len(b) and (a[i - 1] ^ b[j]) == 1:
        i -= 1
        j += 1
    return a[:i] + b[j:]


# reduced words over rank 2 and over every letter byte of rank 127, long
# enough that their seams pass the switch from the loop to the XOR count
long_raw = st.binary(min_size=40, max_size=160)
long_reduced = st.one_of(
    long_raw.map(lambda b: bytes(c % 4 for c in b)),
    long_raw.map(lambda b: bytes(c % 254 for c in b)),
).map(naive_reduce)


@given(long_reduced, long_reduced)
def test_concat_matches_the_letter_loop_on_every_seam_length(a, c):
    # b = a[k:]^-1 c meets a in a seam of about len(a) - k letters
    for k in range(len(a) + 1):
        b = naive_reduce(ops.invert(a[k:]) + c)
        assert ops.concat(a, b) == ref_concat(a, b)
        assert ops.concat(ops.invert(b), ops.invert(a)) == ops.invert(
            ref_concat(a, b))


@given(long_reduced, long_reduced)
def test_concat_cancels_either_side_completely(a, c):
    # a cancels whole against a^-1 c, and so does c a^-1 against a,
    # unless c's own end cancels with a too
    b = naive_reduce(ops.invert(a) + c)
    assert ops.concat(a, b) == ref_concat(a, b) == naive_reduce(a + b)
    d = naive_reduce(c + ops.invert(a))
    assert ops.concat(d, a) == ref_concat(d, a) == naive_reduce(d + a)
    assert ops.concat(a, ops.invert(a)) == ops.concat(ops.invert(a), a) == b""
    assert ops.concat(a, b"") == ops.concat(b"", a) == a
    assert ops.concat(b"", b"") == b""


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


@given(reduced, reduced, reduced)
def test_two_sided_step_is_concat_by_fixed_words(a, u, w):
    step = ops.two_sided_step(u, w)
    # the later words start with u's inverse or end with w's, so seams cancel
    left = ops.concat(ops.invert(u), a)
    for x in (a, left, ops.concat(a, ops.invert(w)),
              ops.concat(left, ops.invert(w))):
        assert step(x) == ops.concat(ops.concat(u, x), w)


@given(st.binary(max_size=200).map(lambda b: bytes(c % 254 for c in b)))
def test_invert_matches_the_letter_loop(a):
    # the translate table against the generator it replaced, on every
    # letter byte of rank up to 127
    assert ops.invert(a) == bytes(c ^ 1 for c in reversed(a))


@given(st.integers(1, 5).flatmap(
    lambda rank: st.tuples(st.just(rank), st.lists(st.integers(0, 2 * rank - 1),
                                                   max_size=60))))
def test_exponent_sums_match_a_per_letter_count(case):
    rank, data = case
    want = [0] * rank
    for b in data:
        want[b // 2] += -1 if b % 2 else 1
    assert ops.exponent_sums(bytes(data), range(rank)) == want
    assert ops.exponent_sums(bytes(data), [rank - 1, 0]) == [want[-1], want[0]]


@given(words(3))
def test_cyclic_reduce_strips_cancelling_ends(w):
    d = w.data
    r = ops.cyclic_reduce(d)
    k = (len(d) - len(r)) // 2
    assert r == d[k:len(d) - k]
    assert ops.invert(d[:k]) == d[len(d) - k:]
    assert len(r) < 2 or r[0] ^ r[-1] != 1
