import json
import random

import pytest

from kgroups import certificates
from kgroups.certificates import (AmalgamScenario, CertificateError,
                                  derive_null_expression,
                                  distortion_test_words, letter_length,
                                  lower_bound_report, pair_presentation,
                                  substitution_split, test_word,
                                  toy_amalgam_check, toy_scenario)
from kgroups.kernels import (GenWord, GeneratingSet, KernelGroup,
                             ProductElement, random_kernel_element,
                             rewrite_in_generators, standard_generators)
from kgroups.metrics import h_family
from kgroups.presentations import (Evaluation, Presentation, area_search,
                                   parse_presentation, verify_null_expression)
from kgroups.words import (FreeGroup, commutator, inv, mul, parse_word,
                           to_text)

G = KernelGroup(2, 2, 2)
B = standard_generators(G)


def random_genword(rng, length):
    syms = [(rng.choice(B.symbols), rng.choice((1, -1))) for _ in range(length)]
    return GenWord(B, syms)


def test_test_word_shape():
    F = FreeGroup(2)
    w, u = parse_word(F, "x"), parse_word(F, "y")
    t = test_word(w, u, u, 1)
    assert t == parse_word(F, "x y^2 x^-1 y^-2")
    with pytest.raises(ValueError):
        test_word(w, u, parse_word(FreeGroup(3, names=("p", "q", "r")), "p"), 1)
    with pytest.raises(ValueError):
        test_word(w, u, u, 0)


def test_distortion_test_words_evaluate_correctly():
    for n in (1, 2, 3):
        w_n, tword, ev = distortion_test_words(n)
        assert ev.eval_word(w_n) == h_family(n)
        assert len(tword.data) == 12 * n
        assert letter_length(tword, ev) == 16 * n
        # the commuting block evaluates to (x^n, x^n): disjoint support
        blocks = ev.eval_word(tword)
        assert not blocks  # the whole test word evaluates to the identity


def test_substitution_split_on_random_words():
    rng = random.Random(40)
    for _ in range(100):
        w = random_genword(rng, rng.randrange(25))
        w1, w2 = substitution_split(w)
        # substitution_split verifies internally; spot-check the shape too
        ev = w.eval()
        assert (w1, w2) == (ev.factors[0], ev.factors[1])


def _split_by_symbols(w):
    """The symbol-by-symbol product substitution_split used, kept as a
    reference."""
    F = G.factor_group()
    x, y = F.gen(1), F.gen(2)
    first = {"a1_2": x, "a2_2": y, "c1_2": commutator(x, y)}
    second = {"a1_2": inv(x), "a2_2": inv(y), "c1_2": F.identity}
    w1 = w2 = F.identity
    for name, sign in w.syms:
        w1 = mul(w1, first[name] if sign == 1 else inv(first[name]))
        w2 = mul(w2, second[name] if sign == 1 else inv(second[name]))
    return w1, w2


def test_substitution_split_matches_the_symbol_product():
    rng = random.Random(2524)
    for seed in range(150):
        g = random_kernel_element(G, rng.randrange(30), seed)
        w = rewrite_in_generators(G, g)
        assert substitution_split(w) == _split_by_symbols(w)


def test_substitution_split_requires_standard_triple():
    K321 = KernelGroup(3, 2, 1)
    other = standard_generators(K321)
    with pytest.raises(ValueError):
        substitution_split(GenWord(other, [("a1_2", 1)]))


def test_substitution_split_checks_every_realization():
    # c1_2 realized as ([y, x], 1): the word below does not use it, so its
    # split and evaluation agree, yet the substitution is not this set's
    F = G.factor_group()
    x, y = F.gen(1), F.gen(2)
    realization = dict(B.realization)
    realization["c1_2"] = ProductElement((commutator(y, x), F.identity))
    odd = GeneratingSet(G, B.symbols, realization)
    w = GenWord(odd, [("a1_2", 1), ("a2_2", -1)])
    assert ProductElement(substitution_split(GenWord(B, w.syms))) == w.eval()
    with pytest.raises(CertificateError):
        substitution_split(w)


def test_derive_null_expression_from_rewriter_output():
    P = pair_presentation()
    for n in (1, 2, 3):
        wB = rewrite_in_generators(G, h_family(n))
        expr = derive_null_expression(wB, n)
        c_count = sum(1 for name, _ in wB.syms if name == "c1_2")
        assert expr.area == c_count >= n * n
        target = P.word(f"[x^{n}, y^{n}]")
        assert verify_null_expression(P, target, expr)


def test_derive_null_expression_from_a_handwritten_word():
    # a ten-symbol word for h_2 found by hand, nothing like the rewriter's
    from test_metrics import H2_WORD
    w = GenWord(B, H2_WORD)
    expr = derive_null_expression(w, 2)
    assert expr.area == 4
    P = pair_presentation()
    assert verify_null_expression(P, P.word("[x^2, y^2]"), expr)
    with pytest.raises(ValueError):
        derive_null_expression(GenWord(B, [("a1_2", 1)]), 1)


def test_derive_null_expression_refuses_another_realization():
    # the deletion reads both coordinates off the standard substitution,
    # so a generating set with the standard symbols but other realizations
    # is refused, whether or not its word evaluates to h_n
    F = G.factor_group()
    x, y = F.gen(1), F.gen(2)
    wB = rewrite_in_generators(G, h_family(2))
    flipped = dict(B.realization)
    flipped["c1_2"] = ProductElement((commutator(y, x), F.identity))
    swapped = {"a1_2": B.realization["a2_2"], "a2_2": B.realization["a1_2"],
               "c1_2": ProductElement((commutator(y, x), F.identity))}
    # under the swap, the word for h_2 with x and y exchanged is one for h_2
    wS = rewrite_in_generators(
        G, ProductElement((commutator(y ** 2, x ** 2), F.identity)))
    for realization, syms in ((flipped, wB.syms), (swapped, wS.syms)):
        w = GenWord(GeneratingSet(G, B.symbols, realization), syms)
        with pytest.raises(CertificateError, match="commutator-deletion"):
            derive_null_expression(w, 2)
    swapped_word = GenWord(GeneratingSet(G, B.symbols, swapped), wS.syms)
    assert swapped_word.eval() == h_family(2)


def test_derive_null_expression_checks_the_second_coordinate():
    # c1_2^-1 [a1_2, a2_2] is trivial in the first coordinate and
    # [x^-1, y^-1] in the second: appended to a word for h_2, the first
    # coordinate still matches and the word does not evaluate to h_2
    wB = rewrite_in_generators(G, h_family(2))
    tail = [("c1_2", -1), ("a1_2", 1), ("a2_2", 1), ("a1_2", -1),
            ("a2_2", -1)]
    w = GenWord(B, wB.syms + tuple(tail))
    assert w.eval().factors[0] == h_family(2).factors[0]
    with pytest.raises(ValueError, match="does not evaluate to h_2"):
        derive_null_expression(w, 2)


def test_pair_presentation_oracle():
    P = pair_presentation()
    assert P.to_text() == "< x, y | x y x^-1 y^-1 >"
    assert P.evaluation is not None


class TestToyScenario:
    def test_validates(self):
        scen = toy_scenario(1)
        scen.validate()

    def test_evaluation_realizes_the_gluing(self):
        scen = toy_scenario(1)
        P = scen.presentation
        a, c, s = (scen._eval(P.word(t)) for t in ("a", "c", "s"))
        assert ~a * c == s  # the edge relation a^-1 c = s
        assert scen.subgroup_power(scen.h) == 1
        assert scen.subgroup_power(s * s) == 2
        assert scen.subgroup_power(~s) == -1
        assert scen.subgroup_power(a) is None

    def test_power_of_an_edge_that_is_not_cyclically_reduced(self):
        # edge s = (x y x^-1, 1): |s^j| = 2 + |j|, not |j| times |s|
        F = FreeGroup(2)
        images = [ProductElement([F.word(a), F.word(b)])
                  for a, b in (("x", "1"), ("1", "x"), ("x y x^-1", "1"))]
        P = Presentation(("a", "b", "s"), [], Evaluation(images))
        scen = AmalgamScenario(P, ("a",), ("b",), "s", P.word("s"),
                               P.word("a"), P.word("b"))
        for j in range(-3, 4):
            assert scen.subgroup_power(scen._eval(P.word("s^%d" % j))) == j
        for text in ("a", "b", "a s^2", "a^-1 s a", "s b", "s^2 a s^-2"):
            assert scen.subgroup_power(scen._eval(P.word(text))) is None

    def test_powers_of_w(self):
        for k in (1, 2, 3):
            scen = toy_scenario(k)
            assert scen.subgroup_power(scen.h) == k

    def test_rejects_malformed_scenarios(self):
        scen = toy_scenario(1)
        bad = AmalgamScenario(scen.presentation, ("a", "c"), ("b", "d"),
                              "s", scen.w, scen.u,
                              scen.presentation.word("b^-1 d"))
        with pytest.raises(ValueError, match="outside the edge"):
            bad.validate()  # b^-1 d evaluates to the edge generator itself
        sideless = AmalgamScenario(scen.presentation, ("a", "c", "b", "d"),
                                   (), "s", scen.w, scen.u, scen.v)
        with pytest.raises(ValueError, match="each side"):
            sideless.validate()


def test_toy_amalgam_check_smallest_instance():
    rep = toy_amalgam_check(1, 1)
    assert rep.status == "verified-bound"
    assert rep.d_value == 1 and rep.required == 2
    assert rep.area.lower_bound >= 2
    assert rep.word_length == 8
    data = rep.to_json()
    assert data["status"] == "verified-bound"
    assert data["search"]["stop_reason"] == "reached requested bound"


def test_toy_amalgam_check_respects_budgets():
    rep = toy_amalgam_check(2, 1, node_cap=2000)
    assert rep.status == "verified-bound"
    assert rep.required == 4
    # the root bound already reaches the requirement, so no node is settled
    assert rep.area.lower_bound == 4 and rep.area.nodes == 0
    # exhaustion is a budget statement, never a refutation: over BS(1,2),
    # [t a t^-1, a] has area 2 but a root bound of 0 (a's exponent sum is
    # not conserved, so no winding plane counts), and one node is all the
    # search gets
    P = parse_presentation("< a, t | t a t^-1 a^-2 >")
    res = area_search(P, P.word("[t a t^-1, a]"), node_cap=1)
    assert res.status == "exhausted" and res.stop_reason == "node cap"
    assert not res.regime_empty
    assert res.lower_bound is not None and res.lower_bound < 2


def test_toy_amalgam_bounds_hold_at_the_root():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            rep = toy_amalgam_check(k, n)
            assert rep.status == "verified-bound", (k, n)
            assert rep.area.lower_bound == rep.required == 2 * k * n
            assert rep.area.nodes == 0


def test_lower_bound_report_values():
    for n, bound in ((1, 2), (2, 16), (3, 54)):
        rep = lower_bound_report(n)
        assert rep.area_bound == bound
        assert rep.distance_bound == n * n
        assert all(e["status"] == "verified" for e in rep.evidence)
        verifiers = [e["verifier"] for e in rep.evidence]
        assert verifiers[:4] == ["test-word-hypotheses", "substitution-split",
                                 "commutator-deletion", "area-fact"]


def test_lower_bound_report_bytes_are_deterministic():
    a = lower_bound_report(2).to_bytes()
    b = lower_bound_report(2).to_bytes()
    assert a == b
    data = json.loads(a)
    assert data["area_bound"] == 16
    for item in data["evidence"]:
        assert set(item) == {"verifier", "inputs", "inputs_sha256", "status",
                             "details"}
        assert len(item["inputs_sha256"]) == 64


def test_lower_bound_report_rejects_bad_n():
    with pytest.raises(ValueError):
        lower_bound_report(0)


def test_area_fact_is_the_deletion_expression():
    P = pair_presentation()
    for n in range(1, 33):
        evidence = {e["verifier"]: e for e in lower_bound_report(n).evidence}
        fact = evidence["area-fact"]
        word = to_text(P.word("[x^%d, y^%d]" % (n, n)))
        assert fact["inputs"] == {"presentation": P.to_text(),
                                  "word": word}, n
        assert fact["details"]["area"] == n * n, n
        assert fact["details"]["unconditional"] is True, n
        deletion = evidence["commutator-deletion"]
        assert deletion["details"]["expression_area"] == n * n, n
        wB = rewrite_in_generators(G, h_family(n, G))
        assert fact["details"]["witness"] == \
            derive_null_expression(wB, n).to_json(), n


def test_lower_bound_report_runs_no_area_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lower_bound_report ran an area search")
    monkeypatch.setattr(certificates, "area_search", refuse)
    rep = lower_bound_report(32)
    assert rep.area_bound == 2 * 32 ** 3
