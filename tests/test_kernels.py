import hashlib
import random
import types

import pytest

from kgroups import _wordops_py as ops
from kgroups import kernels
from kgroups.abelian import FactorHom, ab_image, standard_hom
from kgroups.kernels import (GenWord, KernelGroup, ProductElement, contains,
                             identity_element, random_kernel_element,
                             rewrite_in_generators, standard_generators,
                             theta)
from kgroups.metrics import h_family
from kgroups.words import (FreeGroup, Word, commutator, inv, parse_word,
                           reduce)


K222 = KernelGroup(2, 2, 2)


def element(G, texts):
    """The product element of ``G`` with factor words ``texts``."""
    return ProductElement([G.factor_group().word(t) for t in texts])


def test_product_element_shape_checks():
    F2, F3 = FreeGroup(2), FreeGroup(3)
    with pytest.raises(ValueError):
        ProductElement([])
    with pytest.raises(ValueError):
        ProductElement([F2.identity, F3.identity])
    g = ProductElement([F2.gen(1), F2.gen(2, -1)])
    assert g.n == 2 and g.m == 2
    assert (~g * g) == identity_element(2, 2)
    assert g.total_length() == 2


def test_theta_and_membership():
    g = element(K222, ["x y x^-1 y^-1", "1"])
    assert theta(K222, g) == (0, 0)
    assert contains(K222, g)
    assert not contains(K222, element(K222, ["x", "1"]))
    # r = 1 ignores the second coordinate
    K221 = KernelGroup(2, 2, 1)
    assert contains(K221, element(K221, ["y", "y^5"]))
    assert not contains(K221, element(K221, ["x", "y"]))


def test_standard_generator_realizations():
    gens = standard_generators(K222)
    assert gens.symbols == ("a1_2", "a2_2", "c1_2")
    F = K222.factor_group()
    x, y = F.gen(1), F.gen(2)
    assert gens.realization["a1_2"] == ProductElement([x, inv(x)])
    assert gens.realization["a2_2"] == ProductElement([y, inv(y)])
    assert gens.realization["c1_2"] == ProductElement([commutator(x, y),
                                                       F.identity])


def test_standard_generators_by_family():
    # i > r contributes one b-symbol per factor; i < j <= r the commutators
    K321 = KernelGroup(3, 2, 1)
    gens = standard_generators(K321)
    assert set(gens.symbols) == {"a1_2", "a1_3", "b2_1", "b2_2", "b2_3"}
    K232 = KernelGroup(2, 3, 2)
    gens = standard_generators(K232)
    assert set(gens.symbols) == {"a1_2", "a2_2", "b3_1", "b3_2", "c1_2"}


def _one_letter_generators(n, m, r):
    """The symbols and realization bytes of the three layers built straight
    from one-letter words, the reference for a standard map."""
    letter = [bytes((2 * i,)) for i in range(m)]

    def put(at):
        return tuple(at.get(j, b"") for j in range(1, n + 1))
    gens = [(f"a{i}_{j}", put({1: letter[i - 1], j: ops.invert(letter[i - 1])}))
            for i in range(1, r + 1) for j in range(2, n + 1)]
    gens += [(f"b{i}_{j}", put({j: letter[i - 1]}))
             for i in range(r + 1, m + 1) for j in range(1, n + 1)]
    gens += [(f"c{i}_{j}", put({1: letter[i - 1] + letter[j - 1]
                                + ops.invert(letter[i - 1])
                                + ops.invert(letter[j - 1])}))
             for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    return gens


@pytest.mark.parametrize("n,m,r", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 3, 3),
                                   (4, 3, 1), (2, 2, 0)])
def test_standard_maps_give_the_one_letter_generators(n, m, r):
    # a standard map's normalized basis is its one-letter words, so the one
    # basis path builds exactly the one-letter generating set
    want = _one_letter_generators(n, m, r)
    for G in (KernelGroup(n, m, r),
              KernelGroup(n, m, r, homs=[standard_hom(m, r)] * n)):
        gens = standard_generators(G)
        assert list(gens.symbols) == [name for name, _ in want]
        assert [gens.realization[s].key() for s in gens.symbols] == [
            key for _, key in want]


def test_genword_reduces_symbols():
    gens = standard_generators(K222)
    w = GenWord(gens, [("a1_2", 1), ("c1_2", 1), ("c1_2", -1), ("a1_2", -1)])
    assert len(w) == 0
    assert w.eval() == identity_element(2, 2)
    with pytest.raises(ValueError):
        GenWord(gens, [("nope", 1)])


def test_genword_product_needs_one_generating_set():
    # the same symbol names, realized differently: the right factor's
    # symbols must not be read in the left factor's set
    B1 = standard_generators(K222)
    h = FactorHom(2, 2, [(1, 0), (1, 1)])
    B2 = standard_generators(KernelGroup(2, 2, 2, homs=[h, h]))
    u, v = GenWord(B1, [("a2_2", 1)]), GenWord(B2, [("a2_2", 1)])
    assert u.eval() * v.eval() != GenWord(B1, u.syms + v.syms).eval()
    assert GenWord(B1, u.syms + u.syms).eval() == u.eval() * u.eval()


def test_genword_inverse_and_equality():
    B1 = standard_generators(K222)
    h = FactorHom(2, 2, [(1, 0), (1, 1)])
    B2 = standard_generators(KernelGroup(2, 2, 2, homs=[h, h]))
    syms = [("a1_2", 1), ("c1_2", -1), ("a2_2", 1), ("a1_2", 1)]
    w = GenWord(B1, syms)
    inverse = GenWord(B1, [(nm, -s) for nm, s in reversed(syms)])
    assert inverse.eval() == ~(w.eval())
    assert GenWord(B1, w.syms + inverse.syms).syms == ()
    assert inverse != w
    assert w == GenWord(B1, syms)
    # the same symbols over another generating set are another word
    assert w != GenWord(B2, syms)


def test_rewrite_simple_cases():
    gens = standard_generators(K222)
    for text, expect in [
        (["x y x^-1 y^-1", "1"], "c1_2"),
        (["x", "x^-1"], "a1_2"),
        (["y", "y^-1"], "a2_2"),
    ]:
        g = element(K222, text)
        w = rewrite_in_generators(K222, g)
        assert w.to_text() == expect
        assert w.eval() == g
    assert rewrite_in_generators(K222, identity_element(2, 2)).syms == ()


def test_rewrite_rejects_non_members():
    with pytest.raises(ValueError):
        rewrite_in_generators(K222, element(K222, ["x", "1"]))


@pytest.mark.parametrize("n,m,r", [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2)])
def test_rewrite_round_trip_randomized(n, m, r):
    G = KernelGroup(n, m, r)
    for seed in range(60):
        g = random_kernel_element(G, 12, seed)
        w = rewrite_in_generators(G, g)
        assert w.eval() == g, (n, m, r, seed)


def test_rewrite_handles_high_letters_inside_conjugators():
    # elements whose canceling parts weave through rank-3 letters
    G = KernelGroup(2, 3, 2)
    g = element(G, ["e3 e1 e3^-2 e2 e3", "e2^-1 e1^-1"])
    assert contains(G, g)
    w = rewrite_in_generators(G, g)
    assert w.eval() == g


@pytest.mark.parametrize("m", [3, 4, 5])
def test_peels_return_the_last_prefix_and_reduced_seams(m):
    # P_K then (R_t, P_t^-1 P_{t-1}) for t = K..1: concatenating the seams
    # onto P_K rebuilds every prefix before a letter above r, down to the
    # empty P_0, and the head and seams hold at most twice the word
    F = FreeGroup(m)
    rng = random.Random(m)
    for r in range(m):
        for _ in range(60):
            data = ops.free_reduce(bytes(
                rng.randrange(2 * m) for _ in range(rng.randrange(120))))
            head, items, residual = kernels.peel_high_letters(Word(F, data), r)
            cuts = [t for t, c in enumerate(data) if c >= 2 * r]
            assert [c for c, _ in items] == [data[t] for t in reversed(cuts)]
            prefix = head
            for t, (_, seam) in zip(reversed(cuts), items):
                assert prefix == data[:t]
                assert seam == ops.free_reduce(seam)
                prefix = ops.concat(prefix, seam)
            assert prefix == b""
            assert len(head) + sum(len(s) for _, s in items) <= 2 * len(data)
            assert residual.data == ops.free_reduce(
                bytes(c for c in data if c < 2 * r))


def test_custom_hom_kernel_round_trip():
    # a non-standard surjection: e1 -> t1+t2, e2 -> t2, e3 -> t1
    h = FactorHom(3, 2, [(1, 1), (0, 1), (1, 0)])
    G = KernelGroup(2, 3, 2, homs=[h, h])
    g = element(G, ["e1 e3^-1 e2^-1", "1"])
    assert contains(G, g)
    w = rewrite_in_generators(G, g)
    assert w.eval() == g
    for seed in range(40):
        g = random_kernel_element(G, 10, seed)
        w = rewrite_in_generators(G, g)
        assert w.eval() == g


def test_mixed_homs_across_factors():
    h1 = FactorHom(2, 1, [(1,), (1,)])
    h2 = FactorHom(2, 1, [(2,), (1,)])
    G = KernelGroup(2, 2, 1, homs=[h1, h2])
    assert not G.is_standard
    for seed in range(40):
        g = random_kernel_element(G, 10, seed)
        assert contains(G, g)
        assert rewrite_in_generators(G, g).eval() == g


def _theta_groups():
    # the custom-hom family's map, shared and next to a second custom map,
    # two rank-1 maps spread over five factors, and a standard kernel
    h = FactorHom(3, 2, [(1, 1), (0, 1), (1, 0)])
    k = FactorHom(3, 2, [(0, 1), (1, 0), (2, -1)])
    h1 = FactorHom(2, 1, [(1,), (1,)])
    h2 = FactorHom(2, 1, [(2,), (1,)])
    return [KernelGroup(2, 3, 2, homs=[h, h]),
            KernelGroup(3, 3, 2, homs=[h, k, h]),
            KernelGroup(5, 2, 1, homs=[h1, h2, h1, h1, h2]),
            KernelGroup(3, 2, 1)]


@pytest.mark.parametrize("G", _theta_groups(), ids=repr)
def test_theta_is_the_sum_of_the_factor_images(G):
    # theta joins the factors that share a map and counts them once; the
    # per-factor sum of ab_image is the definition
    rng = random.Random(23)
    F = G.factor_group()
    elements = [random_kernel_element(G, 8, seed) for seed in range(10)]
    for _ in range(40):
        elements.append(ProductElement([
            reduce(F, [(rng.randint(1, G.m), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 9))])
            for _ in range(G.n)]))
    members = 0
    for g in elements:
        want = [0] * G.r
        for h, w in zip(G.homs, g.factors):
            want = [a + b for a, b in zip(want, ab_image(h, w))]
        assert theta(G, g) == tuple(want)
        assert contains(G, g) == (want == [0] * G.r)
        members += contains(G, g)
    assert 10 <= members < len(elements)
    with pytest.raises(ValueError, match="shape mismatch"):
        theta(G, ProductElement([F.identity] * (G.n + 1)))
    with pytest.raises(ValueError, match="shape mismatch"):
        theta(G, ProductElement([FreeGroup(G.m + 1).identity] * G.n))


def test_kernel_group_builds_the_standard_map_once(monkeypatch):
    # the default factor maps and the is_standard test share one map
    built = []
    init = FactorHom.__init__

    def counting(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)
    monkeypatch.setattr(FactorHom, "__init__", counting)
    G = KernelGroup(2, 2, 2)
    assert G.is_standard and len(built) == 1
    h = FactorHom(2, 1, [(2,), (1,)])
    built.clear()
    G = KernelGroup(2, 2, 1, homs=[h, h])
    assert not G.is_standard and len(built) == 1


def test_shared_factor_maps_are_checked_and_normalized_once(monkeypatch):
    calls = {"is_surjective": 0, "normalize_basis": 0}
    for name in calls:
        def counted(h, _orig=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _orig(h)
        monkeypatch.setattr(kernels, name, counted)
    h1 = FactorHom(2, 1, [(1,), (1,)])
    h2 = FactorHom(2, 1, [(2,), (1,)])
    G = KernelGroup(64, 2, 1, homs=[h1, h2] * 32)
    assert calls["is_surjective"] == 2
    assert not G.is_standard and "custom maps" in repr(G)
    changes = G.basis_changes()
    assert calls["normalize_basis"] == 2
    assert len(changes) == 64
    assert all(c is changes[k % 2] for k, c in enumerate(changes))
    # the default maps: one check, and standard without any normalizing
    std = KernelGroup(1000, 2, 2)
    assert calls["is_surjective"] == 3
    assert std.is_standard and repr(std) == "KernelGroup(n=1000, m=2, r=2)"
    assert calls["normalize_basis"] == 2


def test_kernel_group_validation():
    with pytest.raises(ValueError):
        KernelGroup(0, 2, 1)
    with pytest.raises(ValueError):
        KernelGroup(2, 2, 3)  # r cannot exceed m
    with pytest.raises(ValueError):
        KernelGroup(2, 2, 1, homs=[FactorHom(2, 1, [(2,), (0,)])] * 2)


def test_random_elements_are_deterministic_in_the_seed():
    a = random_kernel_element(K222, 15, 99)
    b = random_kernel_element(K222, 15, 99)
    assert a == b


def test_collection_residue_is_a_value_error(monkeypatch):
    # a broken collection must surface as the ValueError the CLI turns into
    # exit 1, never as an AssertionError traceback: force a sorted residue
    # by making every product in the collection loop return e_1
    from kgroups import kernels
    F2 = FreeGroup(2)
    w = parse_word(F2, "[e2, e1]")
    real = kernels.ops
    monkeypatch.setattr(kernels, "ops", types.SimpleNamespace(
        invert=real.invert, free_reduce=real.free_reduce,
        exponent_sums=real.exponent_sums, concat=lambda a, b: b"\x00"))
    with pytest.raises(ValueError, match="nonempty sorted residue"):
        kernels.collect_commutators(w, 2)


def _pinned_cases(family):
    if family == "h_n":
        return [(K222, h_family(n)) for n in range(1, 33)]
    if family == "custom-hom":
        # the kernel and elements of test_custom_hom_kernel_round_trip
        h = FactorHom(3, 2, [(1, 1), (0, 1), (1, 0)])
        G = KernelGroup(2, 3, 2, homs=[h, h])
        return [(G, element(G, ["e1 e3^-1 e2^-1", "1"]))] + [
            (G, random_kernel_element(G, 10, seed)) for seed in range(40)]
    G = KernelGroup(*(int(c) for c in family[1:].split("_")))
    return [(G, random_kernel_element(G, 6 + seed % 11, seed))
            for seed in range(30)]


# sha256 of the rewrites' to_text() lines, joined by newlines; the rewriter
# promises exact output bytes (certify prints them), not just round trips
PINNED_REWRITES = {
    "h_n":
        "63b89e7c5dec21791534d91caaee1961b61776955fa62cdbb657d7b3bdf8636b",
    "K2_2_2":
        "e9ea5077a1e258f6809dda53a76625b7f341e5ea461b463556da027a75ab4391",
    "K3_2_2":
        "c52bb77b6898213753a68a237e6c45dc9482b9d5078067d6f82f2d5e830565a4",
    "K2_3_2":
        "d5688dad2d48586cbda668b2c1ee04d08933d8c4726a491f57ead47bf4b17179",
    "K2_3_3":
        "0bc69793de80e95d25bcd9d7f1bb3b37bd270706680d1f65475e29aa483b49e6",
    "custom-hom":
        "41eb91d3a4e5522386e4b33f7fbceb6fc99b795818bd7932a0d2303e1e1750df",
}


@pytest.mark.parametrize("family", sorted(PINNED_REWRITES))
def test_rewrite_output_is_pinned(family):
    texts = []
    for G, g in _pinned_cases(family):
        w = rewrite_in_generators(G, g)
        assert w.eval() == g
        texts.append(w.to_text())
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == PINNED_REWRITES[family]
