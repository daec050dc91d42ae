"""One product evaluator: `kernels.evaluate` and `words.substitute` reduce
the joined pieces once; each must equal the letter-by-letter product."""

import random

import pytest

from kgroups.abelian import FactorHom
from kgroups.certificates import toy_scenario
from kgroups.kernels import (GenWord, KernelGroup, evaluate, identity_element,
                             standard_generators)
from kgroups.splitting import SplittingData
from kgroups.words import FreeGroup, inv, mul, reduce, substitute


def letter_product(images, letters, n, m):
    """The reference: multiply in one image at a time."""
    acc = identity_element(n, m)
    for key, sign in letters:
        g = images[key]
        acc = acc * (g if sign == 1 else ~g)
    return acc


def random_letters(rng, keys, length):
    return [(rng.choice(keys), rng.choice((1, -1))) for _ in range(length)]


GROUPS = [
    KernelGroup(2, 2, 2),
    KernelGroup(3, 2, 1),
    KernelGroup(2, 2, 2, homs=[FactorHom(2, 2, [[2, 1], [1, 1]]),
                               FactorHom(2, 2, [[0, 1], [1, 0]])]),
    KernelGroup(3, 3, 2, homs=[FactorHom(3, 2, [[1, 0], [0, 1], [1, 1]]),
                               FactorHom(3, 2, [[1, 2], [0, 1], [0, 0]]),
                               FactorHom(3, 2, [[1, 0], [3, 1], [2, 0]])]),
]


@pytest.mark.parametrize("G", GROUPS, ids=repr)
def test_generator_words_evaluate_as_letter_products(G):
    gens = standard_generators(G)
    rng = random.Random(101)
    for length in range(0, 60, 3):
        syms = random_letters(rng, gens.symbols, length)
        want = letter_product(gens.realization, syms, G.n, G.m)
        assert evaluate(gens.realization, syms, G.n, G.m) == want
        assert gens.eval(GenWord(gens, syms)) == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_toy_evaluation_is_the_letter_product(k):
    P = toy_scenario(k).presentation
    rng = random.Random(200 + k)
    for length in range(40):
        w = reduce(P.group, random_letters(rng, range(1, 6), length))
        want = letter_product(P.evaluation.images,
                              [(j - 1, s) for j, s in w.letters], 2, 2)
        assert P.evaluation.eval_word(w) == want


def test_hats_of_K3_2_2_evaluate_as_letter_products():
    D = SplittingData(3, 2)
    rng = random.Random(303)
    for length in range(40):
        hat = reduce(D.hat_group, random_letters(rng, (1, 2), length))
        want = letter_product(D.hat_generators,
                              [(k - 1, s) for k, s in hat.letters], 3, 2)
        assert D.eval_hat(hat) == want


def test_substitute_is_the_letter_product():
    source, target = FreeGroup(3), FreeGroup(2)
    rng = random.Random(404)
    for _ in range(100):
        images = {j: reduce(target, random_letters(rng, (1, 2),
                                                   rng.randrange(6)))
                  for j in (1, 2, 3)}
        w = reduce(source, random_letters(rng, (1, 2, 3), rng.randrange(25)))
        want = target.identity
        for j, s in w.letters:
            want = mul(want, images[j] if s == 1 else inv(images[j]))
        assert substitute(w, images) == want


def test_evaluate_edge_cases():
    G = KernelGroup(2, 2, 2)
    gens = standard_generators(G)
    assert evaluate(gens.realization, [], 2, 2) == identity_element(2, 2)
    with pytest.raises(ValueError):
        evaluate(gens.realization, [("a1_2", 1)], 3, 2)
