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
# area 3 over an additive bound of 1, so run_search has levels to search;
# area_search's winding root bound is 3 and its greedy probe closes the
# word with 0 nodes
PROBE_FAILS = "[x,y] x^2 [y,x] x^-2 [x,y]"

# (presentation, word, run_search keywords, {heuristic: outcome}); an
# outcome is (cost, path, lower_bound, nodes, pushes, regime_empty,
# stop_reason), and every case searches within len(word) + one relator
CASES = [
    (Z2, PROBE_FAILS, {}, {
        True: (3, [(0, 4), (2, 0), (0, 4)], None, 10, 120, False, "goal"),
        False: (3, [(6, 0), (0, 4), (0, 4)], None, 416, 2024, False, "goal"),
    }),
    (Z2, PROBE_FAILS, {"node_cap": 8}, {
        True: (None, None, 1, 8, 103, False, "node cap"),
        False: (None, None, 1, 8, 107, False, "node cap"),
    }),
    (Z2, PROBE_FAILS, {"push_cap": 100}, {
        True: (None, None, 1, 7, 100, False, "push cap"),
        False: (None, None, 1, 7, 100, False, "push cap"),
    }),
    (Z2, PROBE_FAILS, {"stop_at_bound": 2}, {
        True: (None, None, 3, 8, 115, False, "reached requested bound"),
        False: (None, None, 2, 18, 193, False, "reached requested bound"),
    }),
    ("< x, y | x^2, y^2 >", "[x,y]", {}, {
        True: (None, None, None, 16, 15, True, "frontier exhausted"),
        False: (None, None, None, 16, 15, True, "frontier exhausted"),
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
