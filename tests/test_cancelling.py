"""The search keeps only insertions that cancel a letter at a seam.

Van Kampen's lemma (areasearch's module docstring) says some optimal
expression cancels at every move.  The property test runs the search
again with a successor rule that tries every insertion, and compares.
The last three tests pin areas that the search proves within its
default budgets only because it skips the insertions that cancel
nothing.
"""

import json
import random

import pytest

from kgroups import _wordops_py as ops
from kgroups import areasearch
from kgroups.areasearch import run_search
from kgroups.cli import main
from kgroups.presentations import (DEFAULT_LEN_CAP_FACTOR, NullExpression,
                                   _root_bound, _variants, area_search,
                                   parse_presentation, verify_null_expression)
from kgroups.words import Word

Z2 = "< x, y | [x,y] >"
Z3 = "< x, y, z | [x,y], [x,z], [y,z] >"

LEMMA_PRESENTATIONS = (
    Z2,
    Z3,
    # the toy amalgam's presentation
    "< a, c, b, d, s | [a,c], [b,d], s c^-1 a, s d^-1 b >",
    # a relator that is not cyclically reduced: a x a^-1 has the conjugates
    # of x, and its rotations reduce to x
    "< a, x | a x a^-1 >",
    "< x, y | x y x^-1 y^-1 x >",
    "< x, y | x^2, [x,y] >",
    "< x, y | x^3, y^3, (x y)^3 >",
    "< a, b, c, d | [a,b] [c,d] >",
)


def every_insertion(state, variants, len_cap):
    """Every variant at every position within the cap, in ops.expand's
    order: the successor set before the search kept only cancelling
    insertions."""
    return [(child, pos, k)
            for k, v in enumerate(variants)
            for pos in range(len(state) + 1)
            for child in [ops.insert_reduce(state, pos, v)]
            if len(child) <= len_cap]


def null_words(P, rng, count, max_len):
    """Seeded nonempty reduced products of one to three conjugated
    relators, each conjugator of at most two letters."""
    letters = range(2 * P.group.rank)
    rels = [r.data for r in P.relators]
    out = set()
    for _ in range(50 * count):
        word = b""
        for _ in range(rng.randint(1, 3)):
            conj = bytes(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            rel = rng.choice(rels)
            if rng.random() < 0.5:
                rel = ops.invert(rel)
            word = ops.concat(word, ops.free_reduce(conj + rel
                                                    + ops.invert(conj)))
        if word and len(word) <= max_len:
            out.add(word)
            if len(out) == count:
                break
    return sorted(out, key=lambda w: (len(w), w))


@pytest.mark.parametrize("text", LEMMA_PRESENTATIONS)
def test_cancelling_moves_keep_the_area(monkeypatch, text):
    P = parse_presentation(text)
    variants, _ = _variants(P)
    maxlen = max(map(len, variants))
    rng = random.Random(4057)
    compared = 0
    for w in null_words(P, rng, 40, 14):
        heur = _root_bound(P, variants, w)[0]
        kw = dict(len_cap=len(w) + DEFAULT_LEN_CAP_FACTOR * maxlen,
                  node_cap=2000, push_cap=20000, heuristic=heur)
        pruned = run_search(w, variants, **kw)
        with monkeypatch.context() as m:
            m.setattr(areasearch.ops, "expand", every_insertion)
            full = run_search(w, variants, **kw)
        if full.cost is not None:
            assert pruned.cost == full.cost, Word(P.group, w)
            compared += 1
        if pruned.cost is not None and full.lower_bound is not None:
            assert full.lower_bound <= pruned.cost, Word(P.group, w)
    assert compared


def _area_json(capsys, presentation, word, *flags):
    code = main(["area", "--presentation", presentation, "--word", word,
                 "--format", "json", *flags])
    report = json.loads(capsys.readouterr().out)
    if report["status"] == "exact":
        P = parse_presentation(presentation)
        witness = NullExpression.from_json(P, report["witness"])
        assert verify_null_expression(P, P.word(word), witness)
        assert witness.area == report["area"]
    return code, report


def test_z3_word_is_exact(capsys):
    code, report = _area_json(capsys, Z3, "x y x^-1 z x y^-1 x^-1 z^-1",
                              "--node-cap", "20000")
    assert (code, report["status"], report.get("area")) == (0, "exact", 3)


def test_z2_word_is_exact_and_unconditional(capsys):
    code, report = _area_json(capsys, Z2, "x^4 y x^-1 y^-2 x^-3 y")
    assert (code, report["status"], report.get("area")) == (0, "exact", 4)
    assert report["unconditional"] is True


def test_dehn_over_z3_at_8_is_exact(capsys):
    code = main(["dehn", "--presentation", Z3, "--n", "8",
                 "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["value"], report["exact"]) == (0, 5, True)
    P = parse_presentation(Z3)
    w = P.word(report["witness"])
    res = area_search(P, w)
    assert (res.status, res.area) == ("exact", 5)
    assert verify_null_expression(P, w, res.witness)
