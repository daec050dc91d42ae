"""Characterization of run_search: one recorded outcome per stop reason.

The literals pin the pop order (f ascending, then h ascending, then push
order), not just the optimum: a row popped last-in first-out, or a frontier
keyed by f alone, settles other states and changes the nodes, the pushes or
the path.
"""

import pytest

from kgroups.areasearch import AdditiveHeuristic, run_search
from kgroups.presentations import _root_bound, _variants, parse_presentation

Z2 = "< x, y | [x,y] >"
# area 3 over h0 = 1: the greedy probe fails on it, so area_search searches
PROBE_FAILS = "[x,y] x^2 [y,x] x^-2 [x,y]"

# (presentation, word, run_search keywords, {heuristic: outcome}); an
# outcome is (cost, path, lower_bound, nodes, pushes, regime_empty,
# stop_reason), and every case searches within len(word) + one relator
CASES = [
    (Z2, PROBE_FAILS, {}, {
        True: (3, [(0, 4), (2, 0), (0, 4)], None, 67, 593, False, "goal"),
        False: (3, [(6, 0), (0, 4), (0, 4)], None, 1614, 20024, False, "goal"),
    }),
    (Z2, PROBE_FAILS, {"node_cap": 30}, {
        True: (None, None, 1, 30, 328, False, "node cap"),
        False: (None, None, 1, 30, 333, False, "node cap"),
    }),
    (Z2, PROBE_FAILS, {"push_cap": 300}, {
        True: (None, None, 1, 21, 300, False, "push cap"),
        False: (None, None, 1, 22, 300, False, "push cap"),
    }),
    (Z2, PROBE_FAILS, {"stop_at_bound": 2}, {
        True: (None, None, 3, 33, 339, False, "reached requested bound"),
        False: (None, None, 2, 65, 462, False, "reached requested bound"),
    }),
    ("< x, y | x^2, y^2 >", "[x,y]", {}, {
        True: (None, None, None, 144, 143, True, "frontier exhausted"),
        False: (None, None, None, 144, 143, True, "frontier exhausted"),
    }),
]


@pytest.mark.parametrize("heuristic", [True, False])
@pytest.mark.parametrize("text,word,caps,expected", CASES,
                         ids=[c[3][True][-1] for c in CASES])
def test_run_search_outcome_is_pinned(text, word, caps, expected, heuristic):
    P = parse_presentation(text)
    w = P.word(word).data
    variants, _ = _variants(P)
    heur = (_root_bound(P, variants, w)[0] if heuristic
            else AdditiveHeuristic(variants))
    kw = {"node_cap": 10 ** 6, "push_cap": 10 ** 6, **caps}
    out = run_search(w, variants, len_cap=len(w) + max(map(len, variants)),
                     heuristic=heur, **kw)
    assert (out.cost, out.path, out.lower_bound, out.nodes, out.pushes,
            out.regime_empty, out.stop_reason) == expected[heuristic]
