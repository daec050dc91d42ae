import random

import pytest

from kgroups.abelian import FactorHom
from kgroups.kernels import (KernelGroup, ProductElement, contains,
                             random_kernel_element, theta)
from kgroups.splitting import (SplittingData, amalgam_image, in_Lk, in_M, p_k,
                               reassemble, semidirect_decompose, syllable_form,
                               theta_k)
from kgroups.words import FreeGroup, parse_word
from kgroups.words import reduce as reduce_word


D32 = SplittingData(3, 2)


def el(texts, rank=2):
    F = FreeGroup(rank)
    return ProductElement([parse_word(F, t) for t in texts])


def test_theta_k_deletes_one_coordinate():
    g = el(["x y", "y x"])
    assert theta_k(1, g) == (2,)   # only the y-sums survive
    assert theta_k(2, g) == (2,)   # only the x-sums survive
    with pytest.raises(ValueError):
        theta_k(3, g)


def test_p_k_totals_one_generator():
    g = el(["x y^-1", "x^3"])
    assert p_k(1, g) == 4
    assert p_k(2, g) == -1


def test_predicates_agree_on_crafted_cases():
    in_kernel = el(["x y x^-1 y^-1", "1"])
    assert in_M(in_kernel) and in_Lk(1, in_kernel) and p_k(1, in_kernel) == 0
    only_l1 = el(["x", "x^-2"])       # y-sums zero, x-sum -1
    assert in_Lk(1, only_l1) and p_k(1, only_l1) != 0 and not in_M(only_l1)
    neither = el(["x y", "1"])
    assert not in_Lk(1, neither) and not in_M(neither)


def test_predicate_equivalence_randomized():
    rng = random.Random(6107)
    F = FreeGroup(2)
    from kgroups.words import reduce
    for _ in range(200):
        factors = [reduce(F, [(rng.randint(1, 2), rng.choice((1, -1)))
                              for _ in range(rng.randrange(10))])
                   for _ in range(2)]
        g = ProductElement(factors)
        for k in (1, 2):
            assert in_M(g) == (in_Lk(k, g) and p_k(k, g) == 0)


def _reference_theta_k(k, g):
    # the deleted-coordinate map built as a kernel with custom factor maps
    m = g.m
    rows = [[int(c == j) for c in range(m - 1)] for j in range(m - 1)]
    rows.insert(k - 1, [0] * (m - 1))
    hom = FactorHom(m, m - 1, rows)
    return theta(KernelGroup(g.n, m, m - 1, [hom] * g.n), g)


def _random_elements(seed):
    rng = random.Random(seed)
    for m in (1, 2, 3):
        F = FreeGroup(m)
        for _ in range(40):
            n = rng.randint(1, 4)
            yield ProductElement([
                reduce_word(F, [(rng.randint(1, m), rng.choice((1, -1)))
                                for _ in range(rng.randrange(12))])
                for _ in range(n)])


def test_predicates_match_the_kernel_construction():
    seen_in_m = 0
    for g in _random_elements(4421):
        assert in_M(g) == contains(KernelGroup(g.n, g.m, g.m), g)
        seen_in_m += in_M(g)
        for k in range(1, g.m + 1):
            assert theta_k(k, g) == _reference_theta_k(k, g)
    assert seen_in_m    # the zero case is exercised too


def test_predicates_build_no_group_or_map(monkeypatch):
    elements = list(_random_elements(90))
    built = []
    for cls in (KernelGroup, FactorHom):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kw):
            built.append(_name)
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counting)
    for g in elements:
        in_M(g)
        for k in range(1, g.m + 1):
            p_k(k, g), theta_k(k, g), in_Lk(k, g)
    assert built == []
    KernelGroup(2, 2, 2)    # the counter does see a construction
    assert {"KernelGroup", "FactorHom"} <= set(built)


def test_hat_generators_land_in_the_kernel():
    for hat in D32.hat_generators:
        assert contains(D32.group, hat)
        assert not hat.factors[0]  # supported on the last two factors


def test_decompose_reassemble_round_trip():
    G = D32.group
    for seed in range(200):
        gamma = random_kernel_element(G, 10, seed)
        m_part, hat = semidirect_decompose(D32, gamma)
        assert m_part.n == 2
        assert contains(KernelGroup(D32.n - 1, D32.m, D32.m), m_part)
        assert reassemble(D32, m_part, hat) == gamma


def test_decompose_rejects_outsiders():
    with pytest.raises(ValueError):
        semidirect_decompose(D32, el(["x", "1", "1"]))
    with pytest.raises(ValueError):
        semidirect_decompose(D32, el(["x", "x^-1"]))  # wrong shape


def test_syllable_form_blocks():
    # last factor y x^-2: hat letters mirror it with inverted signs
    gamma = el(["x", "x y^-1", "y x^-2"])
    assert contains(D32.group, gamma)
    form = syllable_form(D32, gamma)
    assert form.blocks == [(2, -1), (1, 2)]
    letters = []
    for k, e in form.blocks:
        letters += [(k, 1 if e > 0 else -1)] * abs(e)
    hat = reduce_word(D32.hat_group, letters)
    assert reassemble(D32, form.m_part, hat) == gamma


def _blocks_by_letters(hat_word):
    """The block merger syllable_form used over Word.letters, kept as a
    reference."""
    blocks = []
    for k, s in hat_word.letters:
        if blocks and blocks[-1][0] == k:
            blocks[-1] = (k, blocks[-1][1] + s)
        else:
            blocks.append((k, s))
    return blocks


def test_syllable_form_matches_the_letter_merger():
    rng = random.Random(2523)
    for seed in range(300):
        gamma = random_kernel_element(D32.group, rng.randrange(40), seed)
        _, hat = semidirect_decompose(D32, gamma)
        assert syllable_form(D32, gamma).blocks == _blocks_by_letters(hat)


def test_amalgam_image_of_short_forms():
    gamma = el(["x", "x^-1", "1"])
    form = syllable_form(D32, gamma)
    assert form.blocks == []
    # block-free elements already live in the quotient kernel
    assert amalgam_image(D32, form) == ProductElement(gamma.factors[:-1])
    one_block = el(["1", "x^2", "x^-2"])
    form = syllable_form(D32, one_block)
    assert len(form.blocks) == 1
    img = amalgam_image(D32, form)
    assert img.n == 2 and img == el(["1", "x^2"])
    two_blocks = syllable_form(D32, el(["1", "y x", "x^-1 y^-1"]))
    assert len(two_blocks.blocks) == 2
    with pytest.raises(ValueError):
        amalgam_image(D32, two_blocks)


def test_splitting_needs_two_factors():
    with pytest.raises(ValueError):
        SplittingData(1, 2)
