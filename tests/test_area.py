import ast
import json
import os
import random
import subprocess
import sys
import time

import pytest

import kgroups
from kgroups import presentations
from kgroups import _wordops_py as ops
from kgroups.abelian import FactorHom, ab_image
from kgroups.areasearch import AdditiveHeuristic, run_search
from kgroups.certificates import toy_scenario
from kgroups.kernels import ProductElement
from kgroups.presentations import (DEFAULT_LEN_CAP_FACTOR, DEFAULT_NODE_CAP,
                                   Evaluation, NullExpression, Presentation,
                                   _canonical_class, _null_classes,
                                   _root_bound, _variants, area_search,
                                   dehn_function, is_null_homotopic,
                                   parse_presentation, verify_null_expression,
                                   with_abelian_evaluation)
from kgroups.words import (FreeGroup, Word, inv, mul, parse_word,
                           signed_permutations, to_text)


@pytest.fixture
def zz():
    """< x, y | [x,y] >, with the abelianization as equality oracle."""
    return Presentation(("x", "y"), ("[x,y]",), Evaluation([(1, 0), (0, 1)]))


def test_presentation_parsing_and_validation(zz):
    P = parse_presentation("< x, y | [x,y] >")
    assert P.to_text() == "< x, y | x y x^-1 y^-1 >"
    with pytest.raises(ValueError):
        Presentation(("x", "y"), ("1",))  # empty relator
    with pytest.raises(ValueError):
        # relator fails the oracle
        Presentation(("x", "y"), ("x y",), Evaluation([(1, 0), (0, 1)]))


def test_null_homotopy_oracle(zz):
    assert is_null_homotopic(zz, zz.word("[x^3, y]"))
    assert not is_null_homotopic(zz, zz.word("x y"))


def test_null_expression_verification(zz):
    w = zz.word("[x,y]")
    good = NullExpression([(zz.group.identity, 0, 1)])
    assert verify_null_expression(zz, w, good)
    bad = NullExpression([(zz.word("x"), 0, 1)])
    assert not verify_null_expression(zz, w, bad)


def test_null_expression_json_round_trip(zz):
    expr = NullExpression([(zz.word("x y"), 0, -1), (zz.group.identity, 0, 1)])
    data = json.loads(json.dumps(expr.to_json()))
    back = NullExpression.from_json(zz, data)
    assert [(to_text(c), r, s) for c, r, s in back.items] == \
        [(to_text(c), r, s) for c, r, s in expr.items]


@pytest.mark.parametrize("bad", [{"rel": 0.9}, {"sign": 1.7},
                                 {"rel": "0", "sign": True}, {"rel": False},
                                 {"conj": 1}, {"sign": None}])
def test_null_expression_json_rejects_malformed_items(zz, bad):
    # int() coerces the first four into a witness that verifies
    good = {"conj": "1", "rel": 0, "sign": 1}
    assert verify_null_expression(zz, zz.word("[x,y]"),
                                  NullExpression.from_json(zz, [good]))
    with pytest.raises(ValueError):
        NullExpression.from_json(zz, [dict(good, **bad)])


@pytest.mark.parametrize("make", [
    lambda P: (P.word("x"), True, 1),   # verified as relator 1, not JSON
    lambda P: (P.word("x"), 0.0, 1),    # TypeError in verification
    lambda P: (P.word("x"), 0, -1.0),   # printed as "sign": -1.0
    lambda P: ("x", 0, 1)],             # AttributeError in verification
    ids=["bool-index", "float-index", "float-sign", "str-conjugator"])
def test_null_expression_rejects_malformed_items(zz, make):
    # the constructor checked only the signs, from_json only the types
    with pytest.raises(ValueError, match="malformed"):
        NullExpression([make(zz)])


@pytest.mark.parametrize("data", [
    [{"conj": "1", "rel": 0}],              # no sign
    [{"conj": "1", "sign": 1}],             # no rel
    [["1", 0, 1]],                          # an item that is not a dict
    None])
def test_null_expression_json_rejects_malformed_data(zz, data):
    # these raised KeyError and TypeError, outside the ValueError contract
    with pytest.raises(ValueError):
        NullExpression.from_json(zz, data)


def test_presentation_refuses_relators_over_another_alphabet():
    # the rank-3 word used to be printed with the rank-2 names, and the
    # area search on it died with IndexError
    with pytest.raises(ValueError, match="not over x, y"):
        Presentation(("x", "y"), [FreeGroup(3).word("[e1,e3]")])
    P = parse_presentation("< x, y | [x,y] >")
    assert Presentation(("x", "y"), P.relators).relators == P.relators


def test_abelian_evaluation_keeps_integer_images():
    # int() used to truncate 1.5 to 1 before the map saw the rows
    with pytest.raises(ValueError):
        Evaluation([(1.5, 0), (0, 1)])
    with pytest.raises(ValueError):
        Evaluation([(True, 0), (0, 1)])


def test_integer_rows_evaluate_as_exponent_sums():
    # unit, negative and zero entries: a row is an element of F_1^k, whose
    # factors' exponent sums are the word's image in Z^k
    rows = [(1, 0, -2), (0, -1, 3), (0, 0, 0)]
    ev = Evaluation(rows)
    x = FreeGroup(1).gen(1)
    assert ev.images[0] == ProductElement((x, x ** 0, x ** -2))
    hom = FactorHom(3, 3, rows)
    rng = random.Random(43)
    F = FreeGroup(3)
    for length in range(30):
        w = Word(F, ops.free_reduce(bytes(rng.randrange(6)
                                          for _ in range(length))))
        image = ev.eval_word(w)
        sums = tuple(ops.exponent_sums(f.data, [0])[0] for f in image.factors)
        assert sums == ab_image(hom, w)


def test_rows_of_length_zero_make_every_word_null():
    P = Presentation(("x", "y"), ("x", "y^2 x"), Evaluation([(), ()]))
    assert is_null_homotopic(P, P.word("x y^-3"))
    assert [w.data for w in _null_classes(P, 2)] == [b"\x00", b"\x02",
                                                    b"\x00\x00", b"\x00\x02",
                                                    b"\x00\x03", b"\x02\x02"]


def test_integer_rows_refuse_entries_past_the_letter_cap():
    cap = 1 << 20
    assert Evaluation([(cap,), (-cap,)]).images[0].total_length() == cap
    for entry in (cap + 1, -cap - 1, 10 ** 30):
        with pytest.raises(ValueError, match="too long"):
            Evaluation([(0, entry), (1, 0)])


@pytest.mark.parametrize("images", [
    [(1, 0), (0,)],
    [(), (0,)],             # Z^0 beside Z^1, both read in one F_1 factor
    [(1, 0, 0), (0, 1)]])
def test_integer_rows_share_one_length(images):
    with pytest.raises(ValueError, match="one length"):
        Evaluation(images)


def test_product_images_beside_integer_rows_share_one_shape():
    F2, F1 = FreeGroup(2), FreeGroup(1)
    with pytest.raises(ValueError, match="one shape"):
        Evaluation([ProductElement((F2.gen(1), F2.gen(2))), (1, 0)])
    x = F1.gen(1)
    ev = Evaluation([ProductElement((x, inv(x))), (1, -1)])
    assert ev.images[0] == ev.images[1]


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 9)])
def test_commutator_power_areas(zz, n, expected):
    w = zz.word(f"[x^{n}, y^{n}]")
    res = area_search(zz, w)
    assert res.status == "exact"
    assert res.area == expected
    assert verify_null_expression(zz, w, res.witness)
    # the greedy probe matches the cocycle bound, so no search ran
    assert res.unconditional


def test_area_of_conjugated_relator(zz):
    w = zz.word("y^2 [x,y] y^-2")
    res = area_search(zz, w)
    assert res.status == "exact" and res.area == 1
    assert verify_null_expression(zz, w, res.witness)


def test_area_search_rejects_non_null_words(zz):
    with pytest.raises(ValueError):
        area_search(zz, zz.word("x"))


def test_obstruction_precheck_without_oracle():
    P = parse_presentation("< x, y | [x,y] >")  # no evaluation attached
    res = area_search(P, P.word("x y"))
    assert res.status == "exhausted"
    assert res.regime_empty  # conserved sums prove impossibility
    assert res.nodes == 0


def plain_search(P, w, stop_at_bound=None):
    """Uniform-cost search for w (run_search with no heuristic terms), at
    area_search's default caps; cost None means no expression was found."""
    variants, _ = _variants(P)
    len_cap = len(w.data) + DEFAULT_LEN_CAP_FACTOR * max(map(len, variants))
    return run_search(w.data, variants, len_cap=len_cap,
                      node_cap=DEFAULT_NODE_CAP, push_cap=8 * DEFAULT_NODE_CAP,
                      heuristic=AdditiveHeuristic(variants),
                      stop_at_bound=stop_at_bound)


def test_stop_at_bound_certificate(zz):
    w = zz.word("[x^2, y^2]")
    plain = plain_search(zz, w, stop_at_bound=3)
    assert plain.cost is None
    assert not plain.regime_empty
    assert plain.lower_bound >= 3
    assert plain.stop_reason == "reached requested bound"
    # area_search stops at the same request, with its root bound 4 folded in
    res = area_search(zz, w, stop_at_bound=3)
    assert res.status == "exhausted" and not res.regime_empty
    assert res.lower_bound == 4
    assert res.stop_reason == "reached requested bound"


def test_plain_search_agrees_with_heuristic_on_small_words(zz):
    for text in ("[x,y]", "y [x,y] y^-1", "[x,y]^2", "[x,y^2]"):
        w = zz.word(text)
        plain = plain_search(zz, w)
        fancy = area_search(zz, w)
        assert plain.cost is not None and fancy.status == "exact"
        assert plain.cost == fancy.area


@pytest.fixture
def heuristic_builds(monkeypatch):
    """A list that grows by one for every AdditiveHeuristic built."""
    builds = []
    init = AdditiveHeuristic.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AdditiveHeuristic, "__init__", counted)
    return builds


@pytest.mark.parametrize("text,stop_at_bound,builds,reason", [
    ("[x^2, y^2]", None, 1, "greedy probe matched the heuristic lower bound"),
    # area 4: the probe spends its budget and fails, and A* settles 269
    # states
    ("x^4 y x y^-1 x^-2 y x^-3 y^-1", None, 1, "goal"),
    ("[x^2, y^2]", 3, 1, "reached requested bound"),
    ("x y", None, 0, "abelianization obstruction: no expression exists at"
                     " any length"),
])
def test_area_search_builds_at_most_one_heuristic(heuristic_builds, text,
                                                  stop_at_bound, builds,
                                                  reason):
    P = parse_presentation("< x, y | [x,y] >")
    res = area_search(P, P.word(text), stop_at_bound=stop_at_bound)
    assert res.stop_reason == reason
    assert len(heuristic_builds) == builds


def test_torus_relator_of_higher_genus():
    # a length-8 relator with no evaluation oracle: the surface relation
    P = parse_presentation("< a, b, c, d | [a,b] [c,d] >")
    w = P.word("[a,b] [c,d]")
    res = area_search(P, w)
    assert res.status == "exact" and res.area == 1
    conj = P.word("c")
    w2 = P.word("c [a,b] [c,d] c^-1")
    res2 = area_search(P, w2)
    assert res2.status == "exact" and res2.area == 1
    assert verify_null_expression(P, w2, res2.witness)
    assert to_text(res2.witness.items[0][0]) == to_text(conj)


def test_dehn_function_small_values(zz):
    res3 = dehn_function(zz, 3)
    assert res3.exact and res3.value == 0
    res4 = dehn_function(zz, 4)
    assert res4.exact and res4.value == 1
    assert to_text(res4.witness) == "x y x^-1 y^-1"
    res6 = dehn_function(zz, 6)
    assert res6.exact and res6.value == 2
    assert res6.classes_searched >= res4.classes_searched


def _orbits(P, n):
    """The classes of length <= n, grouped by the signed generator
    permutations that map the set of relator classes onto itself."""
    relators = {_canonical_class(r.data) for r in P.relators}
    tables = [t for t in signed_permutations(P.group.rank)
              if {_canonical_class(r.translate(t)) for r in relators}
              == relators]
    orbits = {}
    for w in _null_classes(P, n):
        images = {_canonical_class(w.data.translate(t)) for t in tables}
        rep = min(images, key=lambda d: (len(d), d))
        orbits.setdefault(rep, []).append(w)
    return orbits, tables


def _searched_words(monkeypatch, P, n):
    """dehn_function(P, n), and the words its area searches ran on."""
    searched = []

    def spy(P, w, **caps):
        searched.append(w.data)
        return area_search(P, w, **caps)

    monkeypatch.setattr(presentations, "area_search", spy)
    return dehn_function(P, n), searched


Z2 = "< x, y | [x,y] >"
Z3 = "< x, y, z | [x,y], [x,z], [y,z] >"


@pytest.mark.parametrize("text,n_max", [(Z2, 10), (Z3, 6)])
def test_dehn_searches_one_class_per_symmetry_orbit(monkeypatch, text, n_max):
    P = with_abelian_evaluation(parse_presentation(text))
    assert len(_orbits(P, 0)[1]) == (8 if P.group.rank == 2 else 48)
    for n in range(n_max + 1):
        orbits, _ = _orbits(P, n)
        assert sum(map(len, orbits.values())) == len(_null_classes(P, n))
        got, searched = _searched_words(monkeypatch, P, n)
        assert searched == sorted(orbits, key=lambda d: (len(d), d))
        assert got.classes_searched == len(_null_classes(P, n))
    # the area is constant on each orbit, and the representative is the
    # orbit's least class
    for rep, members in orbits.items():
        assert members[0].data == rep
        results = [area_search(P, w) for w in members]
        assert {(r.status, r.area) for r in results} == \
            {("exact", results[0].area)}


def _dehn_per_class(P, n):
    """dehn_function's output from one area search on every class."""
    value, exact, unconditional, witness = 0, True, True, None
    words = _null_classes(P, n)
    for w in words:
        res = area_search(P, w)
        exact = exact and res.status == "exact"
        unconditional = exact and unconditional and res.unconditional
        area = res.area if res.status == "exact" else res.lower_bound
        if area is not None and area > value:
            value, witness = area, w
    return {"n": n, "value": value, "exact": exact,
            "unconditional": unconditional,
            "witness": to_text(witness) if witness else None,
            "classes_searched": len(words)}


def test_dehn_keeps_only_the_symmetries_of_the_relators(monkeypatch):
    # x <-> y sends [x^2,y] to [y^2,x], in no relator class, so only the
    # four sign flips remain
    P = with_abelian_evaluation(
        parse_presentation("< x, y | [x,y], [x^2,y] >"))
    orbits, tables = _orbits(P, 8)
    assert [t[:4] for t in tables] == [bytes(f) for f in
                                       ((0, 1, 2, 3), (0, 1, 3, 2),
                                        (1, 0, 2, 3), (1, 0, 3, 2))]
    for n in range(9):
        got, searched = _searched_words(monkeypatch, P, n)
        assert got.to_json() == _dehn_per_class(P, n)
        assert searched == sorted(_orbits(P, n)[0],
                                  key=lambda d: (len(d), d))
    assert (got.value, got.exact) == (3, True)


def test_dehn_above_rank_four_searches_every_class(monkeypatch):
    names = "a b c d e".split()
    rels = [f"[{u},{v}]" for i, u in enumerate(names) for v in names[i + 1:]]
    P = with_abelian_evaluation(parse_presentation(
        f"< {', '.join(names)} | {', '.join(rels)} >"))
    got, searched = _searched_words(monkeypatch, P, 4)
    assert searched == [w.data for w in _null_classes(P, 4)]
    assert (got.value, got.exact, got.classes_searched) == (1, True, 10)


# a small node cap leaves some searches exhausted: the value is then the
# largest exact area or exhausted lower bound, and neither exact nor
# unconditional.  Over Z^3 an exact search attains it; in the second
# case only an exhausted one does
@pytest.mark.parametrize("text,n,cap,value,witness,classes", [
    ("< a, b, c | [a,b], [b,c], [a,c] >", 8, 1, 5,
     "a^2 b c a^-2 b^-1 c^-1", 313),
    ("< x, y | [x,y], [x^2,y^2] >", 6, 30, 2, "x^2 y x^-2 y^-1", 3)])
def test_dehn_with_an_exhausted_search_reports_a_lower_bound(
        monkeypatch, text, n, cap, value, witness, classes):
    P = with_abelian_evaluation(parse_presentation(text))
    results = []

    def spy(P, w, **caps):
        results.append(area_search(P, w, **caps))
        return results[-1]

    monkeypatch.setattr(presentations, "area_search", spy)
    got = dehn_function(P, n, node_cap=cap)
    assert {r.status for r in results} == {"exact", "exhausted"}
    assert got.value == max(r.area if r.status == "exact" else r.lower_bound
                            for r in results) == value
    assert (got.exact, got.unconditional, got.classes_searched) == \
        (False, False, classes)
    assert to_text(got.witness) == witness


def _null_classes_by_evaluation(P, n):
    """The null classes found by evaluating every prefix from scratch."""
    reps = set()
    stack = [b""]
    while stack:
        prefix = stack.pop()
        if prefix and is_null_homotopic(P, Word(P.group, prefix)):
            reps.add(_canonical_class(prefix))
        if len(prefix) < n:
            stack += [prefix + bytes((c,)) for c in range(2 * P.group.rank)
                      if not prefix or prefix[-1] ^ c != 1]
    reps.discard(b"")
    return sorted(reps, key=lambda d: (len(d), d))


def test_null_classes_carry_the_image_down_the_walk(zz):
    # abelian images of rank 2 and 3, and the toy amalgam's product image
    z3 = with_abelian_evaluation(parse_presentation(Z3))
    for P, n_max in ((zz, 8), (z3, 6), (toy_scenario(1).presentation, 4)):
        for n in range(n_max + 1):
            got = [w.data for w in _null_classes(P, n)]
            assert got == _null_classes_by_evaluation(P, n)
    assert len(_null_classes(zz, 8)) == 17


def test_product_evaluation_needs_one_shape(zz):
    x = zz.word("x")
    with pytest.raises(ValueError, match="one shape"):
        Evaluation([ProductElement((x, x)), ProductElement((x,))])


def test_dehn_needs_oracle():
    with pytest.raises(ValueError):
        dehn_function(parse_presentation("< x, y | [x,y] >"), 3)


def test_area_result_json_is_deterministic(zz):
    w = zz.word("[x^2, y^2]")
    a = json.dumps(area_search(zz, w).to_json(), sort_keys=True)
    b = json.dumps(area_search(zz, w).to_json(), sort_keys=True)
    assert a == b


def test_area_of_a_deep_commutator_is_exact(zz):
    # h0 = 1024: the probe dives 1024 levels deep
    w = zz.word("[x^32, y^32]")
    res = area_search(zz, w)
    assert res.status == "exact" and res.area == 1024
    assert res.unconditional
    assert verify_null_expression(zz, w, res.witness)


def test_node_cap_bounds_the_greedy_probe(zz):
    # the probe needs 4096 expansions, past a node cap of 100: the run ends
    # exhausted with its root bound, not exact after 4096 probe expansions
    res = area_search(zz, zz.word("[x^64, y^64]"), node_cap=100)
    assert res.status == "exhausted" and res.lower_bound == 4096
    assert res.nodes <= 100


ADMISSIBILITY_PRESENTATIONS = (
    "< x, y | [x,y] >",
    "< a, b, c | [a,b], [b,c], [a,c] >",
    "< a, b, c, d | [a,b] [c,d] >",
    "< a, c, b, d, s | [a,c], [b,d], s c^-1 a, s d^-1 b >",
)


def random_null_word(rng, P, pieces, conj_len):
    """A product of `pieces` random conjugates of relators or their inverses."""
    w = P.group.identity
    for _ in range(pieces):
        c = P.group.identity
        for _ in range(rng.randint(0, conj_len)):
            c = mul(c, P.group.gen(rng.randint(1, P.group.rank),
                                   rng.choice((1, -1))))
        r = rng.choice(P.relators)
        if rng.random() < 0.5:
            r = inv(r)
        w = mul(w, mul(mul(c, r), inv(c)))
    return w


@pytest.mark.parametrize("text", ADMISSIBILITY_PRESENTATIONS)
def test_root_bound_never_exceeds_the_exact_area(text):
    # The search without a heuristic, stopped at the root bound h0, settles
    # every state cheaper than h0: it reaches the bound without meeting the
    # goal exactly when the exact area is >= h0.  (Run to the goal instead,
    # it meets the push cap on several of these area-2 words.)
    P = parse_presentation(text)
    variants, _ = _variants(P)
    rng = random.Random(7)
    checked = positive = 0
    while checked < 8:
        w = random_null_word(rng, P, rng.randint(1, 2), 2)
        if not w:
            continue
        heur, _, _, obstruction = _root_bound(P, variants, w.data)
        assert heur is not None, obstruction
        h0 = heur.bound(heur.values(w.data))
        plain = plain_search(P, w, stop_at_bound=h0)
        assert plain.cost is None, (to_text(w), h0, plain.cost)
        assert plain.stop_reason == "reached requested bound"
        assert plain.lower_bound >= h0
        checked += 1
        positive += h0 > 1
    assert positive  # some words need more than one relator, and h0 sees it


def test_area_cocycle_obstruction_beyond_rank_two():
    # Z x F(b, c): [b,c] is not null-homotopic, and the Heisenberg term with
    # L = (b, c) is moved by no relator but is 2 on the word
    P = parse_presentation("< a, b, c | [a,b], [a,c] >")
    res = area_search(P, P.word("[b,c]"))
    assert res.status == "exhausted" and res.regime_empty
    assert res.stop_reason.startswith("area-cocycle obstruction")
    assert res.nodes == 0


def test_term_selection_at_rank_six_is_fast():
    names = "abcdef"
    rels = ", ".join("[%s,%s]" % (p, q) for i, p in enumerate(names)
                     for q in names[i + 1:])
    P = parse_presentation("< %s | %s >" % (", ".join(names), rels))
    assert len(P.relators) == 15
    w = P.word("[a b c, d e f]")
    variants, _ = _variants(P)
    started = time.perf_counter()
    heur = _root_bound(P, variants, w.data)[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    # any two of a, b, c against any two of d, e, f: 9 unit commutators
    assert heur.bound(heur.values(w.data)) >= 1


CORRUPTED_PATH = r"""
from kgroups.presentations import (CertificateError, _variants,
                                   _witness_from_path, parse_presentation)
P = parse_presentation("< x, y | [x,y] >")
w = P.word("[x,y]")
variants, meta = _variants(P)
undo = variants.index(P.word("[y,x]").data)
ri, sigma, u = meta[undo]
flipped = list(meta)
flipped[undo] = (ri, -sigma, u)
# a path that does not reach the empty word, and a path that does but
# whose recorded relator sign is wrong
for path, m in (([(0, 0)], meta), ([(0, undo)], flipped)):
    try:
        _witness_from_path(P, w, path, variants, m)
    except CertificateError as e:
        print("rejected:", e)
    else:
        print("accepted")

# the checks in the metric and certificate code run under -O as well
from kgroups import certificates, metrics
print("h_2:", metrics.h_family(2))
print("toy:", certificates.toy_amalgam_check(1, 1).status)
# a deletion expression one item short of n^2 misses the root bound
from kgroups.presentations import NullExpression
derive = certificates.derive_null_expression
certificates.derive_null_expression = \
    lambda w, n: NullExpression(derive(w, n).items[1:])
try:
    certificates.lower_bound_report(2)
except CertificateError as e:
    print("rejected:", e)
else:
    print("accepted")
metrics.contains = lambda group, g: False
certificates.AmalgamScenario.subgroup_power = lambda self, g: None
for call in (lambda: metrics.h_family(2),
             lambda: certificates.toy_amalgam_check(1, 1)):
    try:
        call()
    except (ValueError, CertificateError) as e:
        print("rejected:", e)
    else:
        print("accepted")
"""


def test_corrupted_path_is_rejected_under_optimize():
    src = os.path.dirname(os.path.dirname(kgroups.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_PATH],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 7
    assert lines[2:4] == ["h_2: (x^2 y^2 x^-2 y^-2, 1)", "toy: verified-bound"]
    assert lines[4].startswith("rejected: area-fact:")
    assert all(line.startswith("rejected:") for line in lines[:2] + lines[4:])


def test_the_package_imports_no_unused_name():
    # an import nothing reads is dead weight (and hides a stale seam)
    pkg = os.path.dirname(kgroups.__file__)
    names = sorted(n for n in os.listdir(pkg)
                   if n.endswith(".py") and n != "__init__.py")
    assert "kernels.py" in names
    unused = []
    for name in names:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in read:
                    unused.append("%s:%s" % (name[:-3], bound))
    assert unused == []


def test_every_word_kernel_function_has_a_caller():
    # a kernel op nothing calls is dead weight: each top-level function of
    # _wordops_py is read as `ops.name` or imported by name in another
    # module, or perfbench's tracer looks it up (spans.WORDOPS)
    pkg = os.path.dirname(kgroups.__file__)
    spans = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "spans.py")

    def parse(path):
        with open(path, encoding="utf-8") as fh:
            return ast.parse(fh.read(), path)

    used = set(next(ast.literal_eval(node.value)
                    for node in parse(spans).body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "WORDOPS"))
    kernel = {node.name for node in parse(os.path.join(pkg, "_wordops_py.py")).body
              if isinstance(node, ast.FunctionDef)}
    assert "concat" in kernel
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "_wordops_py.py":
            continue
        for node in ast.walk(parse(os.path.join(pkg, name))):
            if isinstance(node, ast.ImportFrom) and node.module == "_wordops_py":
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) == "ops"):
                used.add(node.attr)
    assert sorted(kernel - used) == []
