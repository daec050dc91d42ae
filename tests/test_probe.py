"""The successor rule and the greedy probe's ranking against references
that try every insertion."""

import random

import pytest

from kgroups.areasearch import greedy_probe, seam_ranked
from kgroups import _wordops_py as ops
from kgroups.presentations import (DEFAULT_LEN_CAP_FACTOR, _root_bound,
                                   _variants, parse_presentation)

RANKING_PRESENTATIONS = (
    "< x, y | [x,y] >",
    "< a, b, c | [a,b], [b,c], [a,c] >",
    "< a, b, c, d | [a,b] [c,d] >",
    "< a, c, b, d, s | [a,c], [b,d], s c^-1 a, s d^-1 b >",
    # short relators: x^2 and its rotations are absorbed whole by x^-1 x^-1
    # and the cancellation runs on into the state
    "< x, y | x^2, [x,y] >",
)


def cancelling_children(state, variants, len_cap):
    """Insert every variant at every position with insert_reduce, and keep
    the children shorter than len(state) + len(v), which are exactly the
    insertions that cancel, within the cap: (child, pos, variant index),
    variants outer, positions ascending."""
    return [(child, pos, k)
            for k, v in enumerate(variants)
            for pos in range(len(state) + 1)
            for child in [ops.insert_reduce(state, pos, v)]
            if len(child) < len(state) + len(v) and len(child) <= len_cap]


def reference_ranking(state, variants, child_h, h_max, len_cap):
    """Sort the cancelling children of the variants with h <= h_max by
    (h, length, code)."""
    width = len(state) + 1
    keys = sorted((child_h[k], len(child), k * width + pos)
                  for child, pos, k in
                  cancelling_children(state, variants, len_cap)
                  if child_h[k] <= h_max)
    return [code for _, _, code in keys]


def random_reduced(rng, letters, length):
    data = []
    while len(data) < length:
        c = rng.choice(letters)
        if data and data[-1] ^ c == 1:
            continue
        data.append(c)
    return bytes(data)


@pytest.mark.parametrize("text", RANKING_PRESENTATIONS)
def test_seam_ranking_matches_build_and_sort(text):
    P = parse_presentation(text)
    variants, _ = _variants(P)
    letters = list(range(2 * P.group.rank))
    maxlen = max(map(len, variants))
    rng = random.Random(11)
    capped = absorbed = 0
    for _ in range(400):
        state = random_reduced(rng, letters, rng.randrange(30))
        child_h = [rng.randrange(3) for _ in variants]
        h_max = rng.randrange(3)
        # tight caps drop the longer children, loose ones keep every child
        len_cap = len(state) + rng.choice((-2, 0, 2, maxlen,
                                           DEFAULT_LEN_CAP_FACTOR * maxlen))
        want = reference_ranking(state, variants, child_h, h_max, len_cap)
        assert seam_ranked(state, variants, child_h, h_max, len_cap) == want
        children = cancelling_children(state, variants, len_cap)
        assert ops.expand(state, variants, len_cap) == children
        # the cap dropped a child that cancels
        capped += len(children) < len(
            cancelling_children(state, variants, len(state) + maxlen))
        # more letters gone than the variant brought: it was absorbed whole
        absorbed += any(len(child) < len(state) - len(variants[k])
                        for child, _, k in children)
    assert capped
    if "x^2" in text:
        assert absorbed


def parent_probe(start, variants, *, len_cap, node_budget, heuristic):
    """The probe as it was before the seam ranking: build the children,
    filter and sort; here the children are cancelling_children's."""
    h0 = heuristic.bound(heuristic.values(start))
    if h0 <= 0:
        return None
    visited = {start}
    path = []
    budget = node_budget

    def ranked(state, g):
        hv = heuristic.child_bounds(heuristic.values(state))
        useful = [k for k in range(len(variants)) if g + 1 + hv[k] <= h0]
        width = len(state) + 1
        keep = sorted((hv[useful[k]], len(child), useful[k] * width + pos)
                      for child, pos, k in
                      cancelling_children(state, [variants[k] for k in useful],
                                          len_cap)
                      if child not in visited)
        return [code for _, _, code in keep]

    if budget <= 0:
        return None
    budget -= 1
    levels = [[start, 0, ranked(start, 0), 0]]
    while levels:
        top = levels[-1]
        state, g, codes, i = top
        if i == len(codes):
            levels.pop()
            if levels:
                path.pop()
            continue
        top[3] = i + 1
        vidx, pos = divmod(codes[i], len(state) + 1)
        child = ops.insert_reduce(state, pos, variants[vidx])
        if child in visited:
            continue
        path.append((pos, vidx))
        if child == b"":
            return path
        visited.add(child)
        if budget <= 0:
            path.pop()
            continue
        budget -= 1
        levels.append([child, g + 1, ranked(child, g + 1), 0])
    return None


PROBE_CASES = (
    [("< x, y | [x,y] >", "[x^%d, y^%d]" % (n, n)) for n in range(1, 13)]
    + [("< a, b, c | [a,b], [b,c], [a,c] >", "[a^2, b]"),
       ("< a, b, c | [a,b], [b,c], [a,c] >", "[a, b c]"),
       ("< a, b, c, d | [a,b] [c,d] >", "[a,b] [c,d] b [a,b] [c,d] b^-1"),
       # area 3 over h0 = 1: the probe backtracks through its shell and fails
       ("< x, y | [x,y] >", "[x,y] x^2 [y,x] x^-2 [x,y]")])


@pytest.mark.parametrize("text,word", PROBE_CASES)
def test_probe_path_matches_the_parent_probe(text, word):
    P = parse_presentation(text)
    w = P.word(word)
    variants, _ = _variants(P)
    heur = _root_bound(P, variants, w.data)[0]
    h0 = heur.bound(heur.values(w.data))
    len_cap = len(w.data) + DEFAULT_LEN_CAP_FACTOR * max(map(len, variants))
    # area_search's budget, and budgets small enough to run out mid-dive
    for budget in (50 * h0 + 200, h0, 3):
        kw = dict(len_cap=len_cap, node_budget=budget, heuristic=heur)
        assert greedy_probe(w.data, variants, target=h0, **kw) == \
            parent_probe(w.data, variants, **kw)
