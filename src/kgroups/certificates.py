"""Certified area lower bounds for commutator test words.

The pipeline ties the other modules into verifiable inequality chains:

* build the test words ``[w_n, (y2 x2)^n]`` over a combined alphabet and
  check the hypotheses they must satisfy (evaluation, commutation);
* split a word over the three kernel symbols into its two coordinate
  words and verify the substitution identity componentwise;
* convert any kernel word representing ``h_n`` into a null expression
  for ``[x^n, y^n]`` by deleting its commutator symbols — the bridge
  from area facts to subgroup distance bounds;
* brute-force the amalgam inequality ``Area >= 2n * d(1, h)`` on a toy
  scenario whose hypotheses are all machine-checked.

Nothing here claims an asymptotic statement as a computed fact; each
report carries only per-instance certificates, each naming its verifier
and the hash of its inputs, so the output bytes are reproducible.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import _wordops_py as ops, jsonout, metrics
from .words import (FreeGroup, Word, commutator, inv, mul, parse_word,
                    to_text)
from .kernels import (GenWord, GeneratingSet, KernelGroup, ProductElement,
                      evaluate, rewrite_in_generators, standard_generators)
from .metrics import distance, h_family
from .presentations import (DEFAULT_NODE_CAP, AreaResult, CertificateError,
                            Evaluation, NullExpression, Presentation,
                            area_search, parse_presentation,
                            verify_lower_bound, verify_null_expression,
                            with_abelian_evaluation)

# Not called here: perfbench's tracer patches this name on this module.  Its
# observer still reads the old (depths, hit, explored) tuple, so nothing may
# call this name until the tracer entry goes (ROADMAP item 7).
_ball_search = metrics._ball_search


# The interpreter's builtin SHA-256, as `random` takes its SHA-512: hashlib
# would map OpenSSL (about 3.7 MB of RSS) for a few digests per report.
try:
    from _sha256 import sha256            # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256          # Python 3.12 and later
    except ImportError:
        from hashlib import sha256


def _sha256_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


def _evidence(verifier: str, inputs: dict, details: dict) -> dict:
    return {
        "verifier": verifier,
        "inputs": inputs,
        "inputs_sha256": _sha256_of({"verifier": verifier, "inputs": inputs}),
        "status": "verified",
        "details": details,
    }


def pair_presentation() -> Presentation:
    """``< x, y | [x,y] >`` with its free-abelian evaluation oracle."""
    return with_abelian_evaluation(parse_presentation("< x, y | [x,y] >"))


# -- test words ---------------------------------------------------------------

def test_word(w: Word, u: Word, v: Word, n: int) -> Word:
    """The literal commutator ``w (uv)^n w^-1 (uv)^-n``, freely reduced."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if u.group != w.group or v.group != w.group:
        raise ValueError("w, u, v must share one combined alphabet")
    return commutator(w, mul(u, v) ** n)


test_word.__test__ = False  # keep pytest from collecting the constructor


_COMBINED_NAMES = ("x_diag", "y1", "y2", "x1", "x2", "y_diag")


def combined_alphabet() -> Tuple[FreeGroup, Evaluation]:
    """Six symbols mapping onto a product of two rank-2 free groups.

    The first three generate the same subgroup as ``{x_diag, y1, y2}``
    realized as (x, x^-1), (y, 1), (1, y); the last three realize
    (x, 1), (1, x), (y, y^-1).  Together they generate the full product.
    """
    F = FreeGroup(6, names=_COMBINED_NAMES)
    free = FreeGroup(2)
    x, y, one = free.gen(1), free.gen(2), free.identity
    ev = Evaluation([
        ProductElement((x, inv(x))),   # x_diag
        ProductElement((y, one)),      # y1
        ProductElement((one, y)),      # y2
        ProductElement((x, one)),      # x1
        ProductElement((one, x)),      # x2
        ProductElement((y, inv(y))),   # y_diag
    ])
    return F, ev


def distortion_test_words(n: int) -> Tuple[Word, Word, Evaluation]:
    """``w_n = [x_diag^n, y1^n]`` and its test word ``[w_n, (y2 x2)^n]``.

    ``w_n`` evaluates to the distortion element ``h_n``; the test word
    commutes it against a word whose evaluation commutes with ``h_n``
    letterwise, which is what makes the area bound bite.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    F, ev = combined_alphabet()
    xd, y1 = F.gen(1), F.gen(2)
    y2, x2 = F.gen(3), F.gen(5)
    w_n = commutator(xd ** n, y1 ** n)
    tword = test_word(w_n, y2, x2, n)
    return w_n, tword, ev


def letter_length(w: Word, ev: Evaluation) -> int:
    """Length of ``w`` after expanding each symbol to its realization."""
    if ev.kind != "product":
        raise ValueError("letter_length needs a product evaluation")
    return sum(ev.images[j - 1].total_length() for j, _ in w.letters)


# -- substitution and deletion ------------------------------------------------

def _split_images(gens: GeneratingSet, verifier: str):
    """The factor group and each kernel symbol's first and second
    coordinate words, checked against the symbols' realization; the
    verifier's name heads the CertificateError a mismatch raises."""
    group = gens.group
    if (group.n, group.m, group.r) != (2, 2, 2) or not group.is_standard:
        raise ValueError("expected the standard two-factor rank-2 full kernel")
    if tuple(gens.symbols) != ("a1_2", "a2_2", "c1_2"):
        raise ValueError("expected the three standard kernel symbols")
    free = group.factor_group()
    x, y = free.gen(1), free.gen(2)
    first = {"a1_2": x, "a2_2": y, "c1_2": commutator(x, y)}
    second = {"a1_2": inv(x), "a2_2": inv(y), "c1_2": free.identity}
    if any(ProductElement((first[name], second[name]))
           != gens.realization[name] for name in first):
        raise CertificateError(
            f"{verifier}: substitution disagrees with the realization")
    return free, first, second


def substitution_split(w: GenWord) -> Tuple[Word, Word]:
    """Coordinate words of a word over the three kernel symbols.

    Substituting (x, y, [x,y]) for the symbols gives the first
    coordinate, substituting (x^-1, y^-1, nothing) the second.  Each
    symbol's pair is checked against its realization first; evaluation
    is a homomorphism, so the split then equals the word's evaluation.
    """
    _, first, second = _split_images(w.gens, "substitution-split")
    pairs = {name: ProductElement((first[name], second[name]))
             for name in first}
    return evaluate(pairs, w.syms, 2, 2).factors


def derive_null_expression(w: GenWord, n: int) -> NullExpression:
    """Null expression for ``[x^n, y^n]`` read off a kernel word for h_n.

    Every occurrence of the commutator symbol in the first coordinate
    word becomes one conjugated relator, conjugated by the full prefix
    before it; deleting them leaves a word that is trivial because the
    second coordinate is.  With full prefixes the product telescopes in
    descending occurrence order, so items are emitted last-to-first.
    The expression verifies over ``pair_presentation`` and its area is
    exactly the number of commutator-symbol occurrences.

    One walk over the symbols reads both coordinates off the checked
    realization: the reduced first-coordinate prefix at every symbol,
    which is each conjugator and at the end the first coordinate, and
    the second coordinate's letters, reduced once.
    """
    free, first, second = _split_images(w.gens, "commutator-deletion")
    target = h_family(n, w.gens.group)
    pieces = {}     # (symbol, sign) -> its first and second coordinate
    for name in first:
        one, two = first[name].data, second[name].data
        pieces[name, 1] = one, two
        pieces[name, -1] = ops.invert(one), ops.invert(two)
    prefix, records, column = bytearray(), [], []
    for name, sign in w.syms:
        if name == "c1_2":
            records.append((Word(free, bytes(prefix)), 0, sign))
        one, two = pieces[name, sign]
        for c in one:
            if prefix and (prefix[-1] ^ c) == 1:
                prefix.pop()
            else:
                prefix.append(c)
        column.append(two)
    if (prefix, ops.free_reduce(b"".join(column))) != tuple(
            f.data for f in target.factors):
        raise ValueError("word does not evaluate to h_%d" % n)
    expr = NullExpression(reversed(records))
    P = pair_presentation()
    if not verify_null_expression(P, target.factors[0], expr):
        raise CertificateError(
            "commutator-deletion: derived expression failed verification")
    return expr


# -- toy amalgam --------------------------------------------------------------

class AmalgamScenario:
    """Two vertex groups glued along a cyclic edge subgroup, with checks.

    The presentation's alphabet splits into two vertex-side letter sets
    and the one edge letter, which generates the edge subgroup and
    carries one relator writing it as a word over each side.  The
    distinguished words w, u live on the first side, v on the second; h
    is the evaluation of w and must lie in the edge subgroup, while u and
    v must evaluate outside it and commute with h.
    """

    def __init__(self, presentation: Presentation, side1: Sequence[str],
                 side2: Sequence[str], edge: str,
                 w: Word, u: Word, v: Word):
        self.presentation = presentation
        self.side1 = tuple(side1)
        self.side2 = tuple(side2)
        self.edge = edge
        self.w = w
        self.u = u
        self.v = v
        ev = presentation.evaluation
        if ev is None or ev.kind != "product":
            raise ValueError("scenario needs a faithful product evaluation")
        self.edge_element = self._eval(parse_word(presentation.group, edge))
        # the cyclically reduced length of the edge (subgroup_power)
        self._core = sum(len(ops.cyclic_reduce(e.data))
                         for e in self.edge_element.factors)
        self.h = self._eval(w)

    def _eval(self, word: Word) -> ProductElement:
        return self.presentation.evaluation.eval_word(word)

    def subgroup_power(self, g: ProductElement) -> Optional[int]:
        """The j with g = edge^j, or None when g is outside the edge group.

        Each factor of the edge reads c k c^-1, reduced with k cyclically
        reduced, so edge^j reads c k^j c^-1 there with no cancellation.
        Summed over the factors, |edge^j| = |edge| + (|j| - 1) core, with
        core the total length of the k's, which gives |j|; evaluating edge^j
        and edge^-j confirms the sign.
        """
        if not g:
            return 0
        le, core = self.edge_element.total_length(), self._core
        if core == 0 or (g.total_length() - le) % core:
            return None
        j = (g.total_length() - le) // core + 1
        for sign in (1, -1):
            if evaluate((self.edge_element,), [(0, sign)] * j, g.n, g.m) == g:
                return sign * j
        return None

    def _side_of(self, name: str) -> str:
        if name in self.side1:
            return "1"
        if name in self.side2:
            return "2"
        if name == self.edge:
            return "e"
        raise ValueError(f"symbol {name!r} belongs to no side")

    def _word_sides(self, word: Word) -> set:
        names = self.presentation.group.names
        return {self._side_of(names[j - 1]) for j, _ in word.letters}

    def validate(self) -> int:
        """Check every structural hypothesis; raise naming the first failure.

        Returns the j with h = edge^j (``subgroup_power``).
        """
        names = self.presentation.group.names
        if set(self.side1) | set(self.side2) | {self.edge} != set(names) or \
                len(self.side1) + len(self.side2) + 1 != len(names):
            raise ValueError("sides and edge must partition the alphabet")
        covered = set()
        for rel in self.presentation.relators:
            sides = self._word_sides(rel)
            if sides <= {"1"} or sides <= {"2"}:
                continue  # a vertex relator
            first_j, first_s = rel.letters[0]
            bname = names[first_j - 1]
            rest = {self._side_of(names[j - 1]) for j, _ in rel.letters[1:]}
            if bname != self.edge or first_s != 1 or len(rest) != 1 or \
                    rest <= {"e"}:
                raise ValueError(
                    f"relator {to_text(rel)} is neither vertex-sided nor"
                    " edge-letter times an inverse one-side word")
            covered.add(rest.pop())
        if covered != {"1", "2"}:
            raise ValueError(f"edge letter {self.edge!r} needs a defining"
                             " relator over each side")
        if not self._word_sides(self.w) <= {"1"}:
            raise ValueError("w must be a word over the first side")
        if not self._word_sides(self.u) <= {"1"}:
            raise ValueError("u must be a word over the first side")
        if not self._word_sides(self.v) <= {"2"}:
            raise ValueError("v must be a word over the second side")
        power = self.subgroup_power(self.h)
        if power is None:
            raise ValueError("w must evaluate into the edge subgroup")
        for label, word in (("u", self.u), ("v", self.v)):
            g = self._eval(word)
            if self.subgroup_power(g) is not None:
                raise ValueError(f"{label} must evaluate outside the edge"
                                 " subgroup")
            if g * self.h != self.h * g:
                raise ValueError(f"{label} must commute with h")
        return power


def toy_scenario(k: int = 1) -> AmalgamScenario:
    """Two commuting-pair vertex groups glued along ``s = a^-1 c = b^-1 d``.

    The evaluation realizes the glued group inside a product of two
    rank-2 free groups; the second factor only ever uses its first
    letter, so it plays the role of an infinite cyclic coordinate and
    injectivity is unaffected.  ``w = (a^-1 c)^k`` evaluates to the k-th
    power of the edge generator, and ``u = a``, ``v = b`` commute with it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    free = FreeGroup(2)
    x, y, one = free.gen(1), free.gen(2), free.identity
    t = free.gen(1)
    ev = Evaluation([
        ProductElement((x, one)),  # a
        ProductElement((x, t)),    # c
        ProductElement((y, one)),  # b
        ProductElement((y, t)),    # d
        ProductElement((one, t)),  # s
    ])
    P = Presentation(("a", "c", "b", "d", "s"),
                     ("[a,c]", "[b,d]", "s c^-1 a", "s d^-1 b"), ev)
    w = parse_word(P.group, "(a^-1 c)^%d" % k)
    u = parse_word(P.group, "a")
    v = parse_word(P.group, "b")
    return AmalgamScenario(P, ("a", "c"), ("b", "d"), "s", w, u, v)


class ToyAmalgamReport(NamedTuple):
    k: int
    n: int
    word: str
    word_length: int
    d_value: int
    required: int
    area: AreaResult
    status: str  # verified-bound | inconclusive | refuted

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "word": self.word,
            "word_length": self.word_length,
            "subgroup_distance": self.d_value,
            "required_bound": self.required,
            "search": self.area.to_json(),
            "status": self.status,
        }


def toy_amalgam_check(k: int, n: int, *,
                      node_cap: int = DEFAULT_NODE_CAP) -> ToyAmalgamReport:
    """Brute-force the inequality Area >= 2n * d(1, h) on the toy scenario.

    d is the word length of h over {edge, edge^-1}, read from the scenario
    as ``validate`` checks it: it returns the j with h = edge^j, from
    ``subgroup_power``, which confirms j by evaluating edge^j.  A nonzero
    power exists only when the edge's core length is positive, and then the
    edge has infinite order, so edge^j has word length exactly |j| over
    its one letter: d = |j|, in O(k) steps and memory, for any k.

    The search runs in certificate mode: it stops as soon as every state
    cheaper than the required bound is settled, which proves the
    inequality without finding the exact area.  So it reaches the goal
    only below the bound, and an exact area is a refutation.  Exhaustion
    below the bound is reported as inconclusive — a budget statement,
    never a refutation.
    """
    scen = toy_scenario(k)
    d = abs(scen.validate())
    tword = test_word(scen.w, scen.u, scen.v, n)
    required = 2 * n * d

    res = area_search(scen.presentation, tword, node_cap=node_cap,
                      stop_at_bound=required)
    if res.status == "exact":
        status = "refuted"
    elif res.lower_bound is not None and res.lower_bound >= required:
        status = "verified-bound"
    else:
        status = "inconclusive"
    return ToyAmalgamReport(k, n, to_text(tword), len(tword.data), d,
                            required, res, status)


# -- the full report ----------------------------------------------------------

class CertificateReport(NamedTuple):
    """Inequality chain for one n, assembled from named verifiers.

    ``to_bytes`` is canonical JSON: running the same configuration twice
    yields identical bytes.
    """

    n: int
    test_word_text: str
    symbol_length: int
    letter_length: int
    distance_bound: int
    area_bound: int
    evidence: List[dict]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "test_word": self.test_word_text,
            "test_word_symbols": self.symbol_length,
            "test_word_letters": self.letter_length,
            "subgroup_distance_bound": self.distance_bound,
            "area_bound": self.area_bound,
            "conclusion": (
                "the test word has area at least %d over any presentation"
                " extending the kernel generators; the bound grows like"
                " 2n * n^2, cubically in the word length, which is linear"
                " in n" % self.area_bound),
            "evidence": self.evidence,
        }

    def to_bytes(self) -> bytes:
        return jsonout.dumps(self.to_json()).encode("utf-8") + b"\n"


def lower_bound_report(n: int) -> CertificateReport:
    """Assemble the certified chain for one n; raise on any red verifier.

    The chain: the test word's hypotheses hold; a kernel word for h_n
    splits and deletes into a verified null expression with n^2 items;
    [x^n, y^n] winds n^2 times around the unit squares of the (x, y)
    plane and the relator [x, y] once, so verify_lower_bound accepts the
    winding witness area >= n^2 at any word length, and with no search
    that expression witnesses the minimal area n^2;
    therefore every kernel word for h_n carries at least n^2 commutator
    symbols and the subgroup distance is at least n^2, giving the area
    bound 2n * n^2 for the test word.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    evidence: List[dict] = []
    group = KernelGroup(2, 2, 2)
    h = h_family(n, group)

    # test word construction and hypotheses
    w_n, tword, ev = distortion_test_words(n)
    if ev.eval_word(w_n) != h:
        raise CertificateError("test-word-hypotheses: w_n does not evaluate"
                               " to h_%d" % n)
    for sym_index, sym_name in ((3, "y2"), (5, "x2")):
        g = ev.images[sym_index - 1]
        if g * h != h * g:
            raise CertificateError(
                f"test-word-hypotheses: h_{n} fails to commute with"
                f" {sym_name}")
    sym_len = len(tword.data)
    let_len = letter_length(tword, ev)
    evidence.append(_evidence(
        "test-word-hypotheses",
        {"n": n, "w_n": to_text(w_n), "test_word": to_text(tword)},
        {"evaluates_to_h_n": True, "commutes_with": ["y2", "x2"],
         "symbol_length": sym_len, "letter_length": let_len}))

    # substitution identity on a concrete kernel word
    wB = rewrite_in_generators(group, h)
    w1, w2 = substitution_split(wB)
    evidence.append(_evidence(
        "substitution-split",
        {"word": wB.to_text()},
        {"first_coordinate": to_text(w1), "second_coordinate": to_text(w2),
         "componentwise_equal": True}))

    # deletion certificate
    expr = derive_null_expression(wB, n)
    evidence.append(_evidence(
        "commutator-deletion",
        {"word": wB.to_text(), "n": n},
        {"expression_area": expr.area,
         "commutator_occurrences": sum(1 for name, _ in wB.syms
                                       if name == "c1_2")}))

    # area fact: the deletion expression meets the winding lower bound
    P = pair_presentation()
    target = h.factors[0]       # [x^n, y^n] over P's generators x, y
    bound = {"kind": "winding", "planes": [[0, 1]], "step": 1, "value": n * n}
    if not (verify_lower_bound(P, target, bound) and expr.area == n * n):
        raise CertificateError(
            "area-fact: the winding bound n^2 = %d fails to verify or"
            " differs from the expression area %d" % (n * n, expr.area))
    evidence.append(_evidence(
        "area-fact",
        {"presentation": P.to_text(), "word": to_text(target)},
        {"area": expr.area, "unconditional": True,
         "witness": expr.to_json()}))

    # direct ball-search evidence where feasible
    if n <= 2:
        gens = standard_generators(group)
        radius = 1 if n == 1 else n * n
        d_res = distance(gens, h, radius)
        if n == 1:
            if not (d_res.found and d_res.value == 1):
                raise CertificateError("subgroup-distance: h_1 must be one"
                                       " generator away")
            detail = {"distance": 1}
        else:
            if d_res.found and d_res.value < n * n:
                raise CertificateError(
                    "subgroup-distance: found h_%d below the deletion bound"
                    % n)
            detail = ({"distance": d_res.value} if d_res.found else
                      {"certificate": "distance > %d" % d_res.radius,
                       "ball_size": d_res.explored})
        evidence.append(_evidence(
            "subgroup-distance",
            {"n": n, "radius": radius}, detail))

    d_bound = n * n
    evidence.append(_evidence(
        "distance-inference",
        {"n": n},
        {"statement": (
            "every word over the kernel symbols evaluating to h_%d yields,"
            " by deletion, a null expression whose area equals its"
            " commutator-symbol count; the minimal area is %d, so the word"
            " has at least %d symbols and the subgroup distance is at least"
            " %d" % (n, n * n, n * n, n * n))}))

    bound = 2 * n * d_bound
    return CertificateReport(n, to_text(tword), sym_len, let_len, d_bound,
                             bound, evidence)
