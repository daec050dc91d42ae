import random

import pytest
from hypothesis import given, strategies as st

from kgroups.abelian import (FactorHom, ab_image, apply_moves, invert_moves,
                             is_surjective, normalize_basis, standard_hom)
from kgroups.kernels import KernelGroup, ProductElement, contains
from kgroups.words import FreeGroup, inv, mul, parse_word, substitute


def element(G, texts):
    """The product element with factor words ``texts``."""
    return ProductElement([G.factor_group().word(t) for t in texts])


def test_standard_hom_images():
    h = standard_hom(3, 2)
    assert h.images == ((1, 0), (0, 1), (0, 0))
    assert h.is_standard()
    assert is_surjective(h)


def test_ab_image_counts_signed_occurrences():
    F = FreeGroup(3)
    h = standard_hom(3, 2)
    w = parse_word(F, "e1 e2 e1 e3^5 e2^-1")
    assert ab_image(h, w) == (2, 0)


@given(st.integers(1, 4), st.data())
def test_ab_image_is_homomorphic(m, data):
    F = FreeGroup(m)
    h = standard_hom(m, min(m, 2))
    letter = st.tuples(st.integers(1, m), st.sampled_from((1, -1)))
    from kgroups.words import reduce
    u = reduce(F, data.draw(st.lists(letter, max_size=15)))
    v = reduce(F, data.draw(st.lists(letter, max_size=15)))
    iu, iv = ab_image(h, u), ab_image(h, v)
    assert ab_image(h, mul(u, v)) == tuple(a + b for a, b in zip(iu, iv))
    assert ab_image(h, inv(u)) == tuple(-a for a in iu)


def test_hom_validation():
    with pytest.raises(ValueError):
        FactorHom(2, 1, [(1,)])  # missing a row
    with pytest.raises(ValueError):
        FactorHom(2, 2, [(1, 0), (1,)])  # ragged
    h = FactorHom(2, 1, [(2,), (4,)])
    assert not is_surjective(h)  # image is 2Z


@pytest.mark.parametrize("entry", [1.5, "1", True])
def test_hom_rejects_entries_that_are_not_ints(entry):
    # int() used to read these as 1, so [[1.5], [0]] became [[1], [0]]
    with pytest.raises(ValueError):
        FactorHom(2, 1, [[entry], [0]])


def random_surjective_hom(rng):
    while True:
        m = rng.randint(1, 4)
        r = rng.randint(0, min(m, 3))
        h = FactorHom(m, r, [[rng.randint(-3, 3) for _ in range(r)]
                             for _ in range(m)])
        if is_surjective(h):
            return h


def _standard_pattern(h, words):
    """Each basis word must read e_i -> t_i (i <= r) and -> 0 (i > r)."""
    for i, w in enumerate(words, start=1):
        want = tuple(1 if i == c + 1 else 0 for c in range(h.target_rank))
        if ab_image(h, w) != (want if i <= h.target_rank
                              else (0,) * h.target_rank):
            return False
    return True


def test_normalize_basis_randomized():
    rng = random.Random(20260817)
    for _ in range(100):
        h = random_surjective_hom(rng)
        change = normalize_basis(h)
        assert _standard_pattern(h, change.new_basis)


def test_normalize_basis_is_an_automorphism():
    rng = random.Random(5)
    F = FreeGroup(3)
    h = FactorHom(3, 2, [(2, 1), (1, 1), (3, -2)])
    assert is_surjective(h)
    change = normalize_basis(h)
    from kgroups.words import reduce

    def apply(w):   # the automorphism e_i -> new_basis[i]
        return substitute(w, dict(enumerate(change.new_basis, 1)))
    for _ in range(50):
        letters = [(rng.randint(1, 3), rng.choice((1, -1)))
                   for _ in range(rng.randrange(12))]
        w = reduce(F, letters)
        assert change.unapply(apply(w)) == w
        assert apply(change.unapply(w)) == w


def test_invert_moves_round_trip():
    h = FactorHom(4, 2, [(0, 1), (1, 1), (2, -1), (1, 0)])
    change = normalize_basis(h)
    F = change.group
    # applying the runs and then their inverse restores the basis
    words = apply_moves(F, change.runs + invert_moves(change.runs))
    assert words == tuple(F.gen(j) for j in range(1, 5))


def _replay_one_by_one(group, runs):
    """apply_moves as it ran before runs of equal moves were merged: each
    run expanded into its unit moves, one product per unit move, kept as
    a reference."""
    basis = [group.gen(j) for j in range(1, group.rank + 1)]
    for move in (move for move, t in runs for _ in range(t)):
        if move[0] == "swap":
            _, i, j = move
            basis[i - 1], basis[j - 1] = basis[j - 1], basis[i - 1]
        elif move[0] == "invert":
            basis[move[1] - 1] = inv(basis[move[1] - 1])
        else:
            _, i, j, s = move
            bj = basis[j - 1]
            basis[i - 1] = mul(basis[i - 1], bj if s == 1 else inv(bj))
    return tuple(basis)


@st.composite
def move_runs(draw):
    """A rank and up to three Nielsen move runs (move, t).

    A run of t <= 40 moves at most multiplies the longest basis word by
    41, and 41^3 < 2^20, so with at most three runs no power passes the
    letter cap.  Two neighbouring runs may repeat one move."""
    rank = draw(st.integers(2, 4))
    index = st.integers(1, rank)
    runs = []
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        move = draw(st.sampled_from([("swap", i, j), ("invert", i),
                                     ("mult", i, j, 1), ("mult", i, j, -1)]))
        runs.append((move, draw(st.integers(1, 40))))
    return rank, runs


@given(move_runs())
def test_apply_moves_matches_the_one_by_one_replay(case):
    rank, runs = case
    F = FreeGroup(rank)
    assert apply_moves(F, runs) == _replay_one_by_one(F, runs)
    assert (apply_moves(F, invert_moves(runs))
            == _replay_one_by_one(F, invert_moves(runs)))


def test_apply_moves_refuses_a_power_past_the_letter_cap():
    # b_2 = y x^(2^20) has 2^20 + 1 letters, so b_2^2 passes the cap
    runs = [(("mult", 2, 1, 1), 1 << 20), (("mult", 1, 2, 1), 2)]
    with pytest.raises(ValueError, match="word too long"):
        apply_moves(FreeGroup(2), runs)


def test_normalize_basis_refuses_a_run_of_moves_past_the_letter_cap():
    # 10^12 equal moves would put a power of 10^12 letters into b_1
    with pytest.raises(ValueError, match="word too long"):
        normalize_basis(FactorHom(2, 1, [(10 ** 12,), (1,)]))
    # 2^20 + 1 would put 2^20 + 1 letters there; 2^20 fits, as one run
    with pytest.raises(ValueError, match="word too long"):
        normalize_basis(FactorHom(2, 1, [((1 << 20) + 1,), (1,)]))
    assert normalize_basis(FactorHom(2, 1, [(1 << 20,), (1,)])).runs == [
        (("mult", 1, 2, -1), 1 << 20), (("swap", 2, 1), 1)]


def test_is_surjective_is_not_held_to_the_letter_cap():
    # the elimination takes 10^12 equal row steps; only normalize_basis
    # builds their power, so only it refuses them (see the test above)
    h = FactorHom(2, 1, [(10 ** 12,), (1,)])
    assert is_surjective(h)
    G = KernelGroup(2, 2, 1, homs=[h, h])
    assert contains(G, element(G, ["x", "x^-1"]))
    assert not contains(G, element(G, ["x", "y"]))
    # a map that is not onto says so, whatever its row steps would cost
    far = FactorHom(2, 1, [(10 ** 12,), (2,)])
    assert not is_surjective(far)
    with pytest.raises(ValueError, match="not surjective"):
        normalize_basis(far)


@pytest.mark.parametrize("move", [
    # three b_1 <- b_1 * b_1 moves give x^8 one by one and x^4 as one run
    ("mult", 1, 1, 1), ("mult", 1, 1, -1), ("mult", 1, 2, 2),
    ("mult", 1, 2, 0), ("mult", 3, 1, 1), ("mult", 1, 0, -1),
    # index 0 would wrap to b_2
    ("swap", 0, 1), ("swap", 1, 3), ("invert", 0), ("invert", -1),
    ("turn", 1)])
def test_apply_moves_rejects_what_is_not_a_nielsen_move(move):
    for runs in ([(move, 1)], [(("invert", 1), 1), (move, 3)]):
        with pytest.raises(ValueError, match="Nielsen move|out of range|unknown"):
            apply_moves(FreeGroup(2), runs)


@pytest.mark.parametrize("t", [0, -1, True, 1.0])
def test_apply_moves_rejects_a_run_count_that_is_not_a_positive_int(t):
    # True and 1.0 would read as one move, 0 and -1 as none
    for move in (("mult", 1, 2, 1), ("swap", 1, 2), ("invert", 1)):
        with pytest.raises(ValueError, match="run count"):
            apply_moves(FreeGroup(2), [(move, t)])


def test_normalize_rejects_non_surjective():
    with pytest.raises(ValueError):
        normalize_basis(FactorHom(2, 2, [(1, 0), (2, 0)]))


def _ab_image_by_letters(h, w):
    """The letter loop: add each letter's signed image vector in turn."""
    out = [0] * h.target_rank
    for j, sign in w.letters:
        for c, v in enumerate(h.images[j - 1]):
            out[c] += sign * v
    return tuple(out)


def test_ab_image_matches_the_letter_loop():
    rng = random.Random(5150)
    for _ in range(200):
        m = rng.randint(1, 6)
        r = rng.randint(0, m)
        h = FactorHom(m, r, [[rng.randint(-3, 3) for _ in range(r)]
                             for _ in range(m)])
        F = FreeGroup(m)
        text = " ".join("e%d^%d" % (rng.randint(1, m), rng.choice((-2, -1, 1, 3)))
                        for _ in range(rng.randrange(12)))
        w = parse_word(F, text) if text else F.identity
        assert ab_image(h, w) == _ab_image_by_letters(h, w)
    h = FactorHom(2, 2, [(2, -1), (0, 5)])
    assert ab_image(h, FreeGroup(2).identity) == (0, 0)
    assert ab_image(h, parse_word(FreeGroup(2), "e1^3 e2^-1 e1^-1")) == (4, -7)
    with pytest.raises(ValueError, match="rank mismatch"):
        ab_image(h, parse_word(FreeGroup(3), "e1"))
