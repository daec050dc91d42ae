import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kgroups import _wordops_py as ops
from kgroups.certificates import toy_scenario
from kgroups.kernels import (GenWord, KernelGroup, ProductElement,
                             identity_element, standard_generators)
from kgroups import metrics
from kgroups.metrics import (SEP, _ball_search, _key_factors, _meet, _moves,
                             _orbit_shells, _search_inputs, _step_plan,
                             _symmetries, ambient_length, ball_key, distance,
                             distance_map, distortion_table, h_family)
from kgroups.words import FreeGroup, reduce, signed_permutations

G = KernelGroup(2, 2, 2)
B = standard_generators(G)


def ball_shells(gens, radius):
    """Shell sizes ``[1, s_1, ..., s_radius]`` of the Cayley ball."""
    return _orbit_shells(*_search_inputs(gens, radius), radius)


def test_h_family_elements():
    h1 = h_family(1)
    assert h1.factors[0].data and not h1.factors[1]
    for n in (1, 2, 3, 4):
        assert ambient_length(h_family(n)) == 4 * n
    with pytest.raises(ValueError):
        h_family(0)
    # 4n letters just over the parser's cap of 2^20
    with pytest.raises(ValueError, match="too long"):
        h_family(262145)


def test_distance_of_identity_and_h1():
    res = distance(B, identity_element(2, 2), 3)
    assert res.found and res.value == 0
    res = distance(B, h_family(1), 3)
    assert res.found and res.value == 1
    assert res.explored == 6


def test_distance_of_generator_products():
    g = (B.realization["a1_2"] * B.realization["c1_2"])
    res = distance(B, g, 3)
    assert res.found and res.value == 2


def test_h2_is_outside_radius_six():
    """The ball of radius 6 misses h_2 = ([x^2,y^2], 1).

    Deleting commutator symbols turns any word for h_2 into a null
    expression for [x^2,y^2], whose minimal area is 4, so at least four
    c-symbols are needed; the a-side bookkeeping pushes the true
    distance higher still (see test_explicit_word_for_h2).
    """
    res = distance(B, h_family(2), 6)
    assert not res.found
    assert res.value == 6
    assert res.explored == 23285


# ten symbols: walk the conjugator 1 -> x -> 1 -> yx -> y -> 1 with a-letters,
# dropping a commutator at each station where [x^2,y^2] needs one
H2_WORD = [("a1_2", 1), ("c1_2", 1), ("a1_2", -1), ("c1_2", 1), ("a2_2", 1),
           ("a1_2", 1), ("c1_2", 1), ("a1_2", -1), ("c1_2", 1), ("a2_2", -1)]


def test_explicit_word_for_h2():
    w = GenWord(B, H2_WORD)
    assert len(w) == 10
    assert w.eval() == h_family(2)


@pytest.mark.stretch
def test_h2_distance_is_exactly_ten():
    # radius-8 exclusion plus parity: symbol words for h_2 have even
    # length (both a-symbol sums must vanish mod 2), so d > 8 means
    # d >= 10, and the explicit word above gives d <= 10.
    res = distance(B, h_family(2), 8)
    assert not res.found
    assert res.explored == 575745
    # the radius-10 ball is too large to search directly; the equality
    # rests on the exclusion, the parity argument and the witness word
    w = GenWord(B, H2_WORD)
    assert w.eval() == h_family(2) and len(w) == 10


@pytest.mark.stretch
def test_h3_is_outside_radius_eight():
    res = distance(B, h_family(3), 8)
    assert not res.found
    assert res.explored == 575745


def test_distance_is_symmetric_under_inversion():
    for seed_el in (h_family(1), B.realization["c1_2"] * ~B.realization["a2_2"]):
        d1 = distance(B, seed_el, 4)
        d2 = distance(B, ~seed_el, 4)
        assert d1.found and d2.found and d1.value == d2.value


def test_distance_map_satisfies_triangle_inequality():
    dm = distance_map(B, 3)
    assert dm[identity_element(2, 2).key()] == 0
    moves = [B.realization[s] for s in B.symbols]
    moves += [~g for g in moves]
    from kgroups.kernels import ProductElement
    from kgroups.words import FreeGroup, Word
    F = FreeGroup(2)
    for key, d in dm.items():
        g = ProductElement([Word(F, data) for data in key])
        for mv in moves:
            nk = (g * mv).key()
            if nk in dm:
                assert abs(dm[nk] - d) <= 1


def test_ball_profile_shells():
    assert ball_shells(B, 0) == [1]
    assert ball_shells(B, 3) == [1, 6, 30, 150]
    assert ball_shells(B, 5) == [1, 6, 30, 150, 750, 3740]
    assert ball_shells(B, 7) == [1, 6, 30, 150, 750, 3740, 18608, 92540]
    with pytest.raises(ValueError):
        _search_inputs(B, -1)


def test_distortion_table_and_csv():
    rows = distortion_table(range(1, 4), 5)
    assert [r.n for r in rows] == [1, 2, 3]
    assert [r.ambient_length for r in rows] == [4, 8, 12]
    assert rows[0].status == "exact" and rows[0].value == 1
    assert rows[1].status == "lower-bound" and rows[1].value == 6


def test_distance_requires_matching_shape():
    K321 = KernelGroup(3, 2, 1)
    with pytest.raises(ValueError):
        distance(B, identity_element(3, 2), 2)
    with pytest.raises(ValueError):
        h_family(2, K321)


# -- parity with a search over group objects -----------------------------------

def _reference_ball(gens, radius):
    """The ball by breadth-first search over ProductElement products.

    Shares nothing with the raw-key search but the move order: every edge
    is a ProductElement.__mul__, and the dict records discovery order.
    """
    return _reference_search(_product_moves(gens), radius)


def _product_moves(gens):
    """Each generator's realization followed by its inverse."""
    moves = []
    for sym in gens.symbols:
        g = gens.realization[sym]
        moves += [g, ~g]
    return moves


def _reference_search(moves, radius):
    ident = identity_element(moves[0].n, moves[0].m)
    dist = {ident.key(): 0}
    frontier = [ident]
    for depth in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for mv in moves:
                h = g * mv
                if h.key() not in dist:
                    dist[h.key()] = depth
                    nxt.append(h)
        frontier = nxt
    return dist


def _reference_meet(moves, target, radius):
    """``(distance, explored)`` of a meet in the middle over ProductElement
    products, or ``(None, None)`` without a meeting.

    The expansion rule of ``metrics._meet``: grow the side with the smaller
    frontier (the identity's on ties) by one whole shell, and stop at the
    first new element the other side has seen.
    """
    ident = identity_element(target.n, target.m)
    if target.key() == ident.key():
        return 0, 1
    seen = [{ident.key(): 0}, {target.key(): 0}]
    frontiers = [[ident], [target]]
    depths = [0, 0]
    while sum(depths) < radius and all(frontiers):
        s = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = seen[s], seen[1 - s]
        depths[s] += 1
        nxt = []
        for g in frontiers[s]:
            for mv in moves:
                h = g * mv
                if h.key() in mine:
                    continue
                mine[h.key()] = depths[s]
                if h.key() in other:
                    return (depths[s] + other[h.key()],
                            len(mine) + len(other) - 1)
                nxt.append(h)
        frontiers[s] = nxt
    return None, None


# K3_2_2 has moves that leave one or two of the three factors unchanged
@pytest.mark.parametrize("shape, radius",
                         [((2, 2, 2), 5), ((3, 2, 1), 3), ((3, 2, 2), 3)],
                         ids=["K2_2_2", "K3_2_1", "K3_2_2"])
def test_raw_key_search_matches_the_product_search(shape, radius):
    gens = standard_generators(KernelGroup(*shape))
    ref = _reference_ball(gens, radius)
    dm = distance_map(gens, radius)
    assert dm == ref and list(dm) == list(ref)
    shells = [0] * (radius + 1)
    for d in ref.values():
        shells[d] += 1
    assert ball_shells(gens, radius) == shells
    if shape == (2, 2, 2):
        assert shells == [1, 6, 30, 150, 750, 3740]
    if shape == (3, 2, 2):
        assert shells == [1, 10, 82, 622]
    # a found distance counts the elements of the two half-balls a meet
    # over group objects stores; an exclusion counts the whole ball
    moves = _product_moves(gens)
    rng = random.Random(20071)
    syms = [(s, e) for s in gens.symbols for e in (1, -1)]
    for _ in range(50):
        w = GenWord(gens, [rng.choice(syms)
                           for _ in range(rng.randrange(radius + 3))])
        target = w.eval()
        res = distance(gens, target, radius)
        key = target.key()
        if key in ref:
            d, explored = _reference_meet(moves, target, radius)
            assert d == ref[key]
            want = (True, ref[key], explored)
        else:
            want = (False, radius, len(ref))
        assert (res.found, res.value, res.explored) == want


def test_joined_key_is_injective_at_the_top_rank():
    # rank 127 puts letters on bytes up to 253, next to the b"\xff" separator
    gens = standard_generators(KernelGroup(2, 127, 1))
    ref = _reference_ball(gens, 1)
    dm = distance_map(gens, 1)
    assert len(ref) == 507
    assert max(max(w, default=0) for key in ref for w in key) == 253
    assert dm == ref and list(dm) == list(ref)


def test_ball_memory_per_key():
    # one joined bytes key per element: about 127 traced bytes per key, where
    # a tuple of per-factor bytes (with the last shell queued) took 203-207
    h = h_family(2)
    tracemalloc.start()
    try:
        res = distance(B, h, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.explored == 23285
    assert peak / res.explored < 160


def test_distortion_table_matches_one_search_per_n():
    for radius in (0, 1, 3, 5):
        rows = distortion_table(range(1, 7), radius)
        for row in rows:
            res = distance(B, h_family(row.n), radius)
            want = (("exact", res.value) if res.found
                    else ("lower-bound", radius + 1))
            assert (row.status, row.value) == want
    assert distortion_table([], 3) == []


def test_edge_power_search_matches_the_product_search():
    # the ball of the toy's edge subgroup: one move pair, the one-letter
    # edge and its inverse
    ident = ball_key(identity_element(2, 2))
    for k in range(1, 9):
        scen = toy_scenario(k)
        edge = scen.edge_element
        moves = [edge.key(), (~edge).key()]
        ref = _reference_search([edge, ~edge], k + 2)
        depths = _ball_search(ident, moves, k + 2)
        assert [(_key_factors(h), d) for h, d in depths.items()] == list(
            ref.items())
        assert len(depths) == 2 * k + 5
        # the toy reads d from the scenario; the ball search agrees
        d = depths[ball_key(scen.h)]
        assert abs(scen.subgroup_power(scen.h)) == k == d


def test_ball_search_rejects_moves_without_inverse_pairs():
    ident = ball_key(identity_element(2, 2))
    moves = _moves(B)
    assert len(_ball_search(ident, moves, 2)) == 37
    with pytest.raises(ValueError, match="inverse pairs"):
        _ball_search(ident, moves[:-1], 2)
    # the same six moves, but no longer each next to its inverse
    unpaired = [moves[0], moves[2], moves[1], moves[3], moves[4], moves[5]]
    with pytest.raises(ValueError, match="not the inverse"):
        _ball_search(ident, unpaired, 2)
    with pytest.raises(ValueError, match="not the inverse"):
        _ball_search(ident, moves[:4] + [moves[4], moves[4]], 2)
    with pytest.raises(ValueError, match="factors"):
        _ball_search(ball_key(identity_element(3, 2)), moves, 2)


# -- one step per move --------------------------------------------------------

def _random_elements(n, m, gens, count, seed):
    """Seeded elements of the product of ``n`` rank-``m`` free groups, each
    factor a reduced word of up to 8 letters over the 1-based ``gens``."""
    rng = random.Random(seed)
    F = FreeGroup(m)
    for _ in range(count):
        yield ProductElement([
            reduce(F, [(rng.choice(gens), rng.choice((1, -1)))
                       for _ in range(rng.randrange(9))])
            for _ in range(n)])


def _check_steps(moves, elements):
    """Each planned step maps ``ball_key(g)`` to ``ball_key(g * move)``, on
    ``g`` and on ``g * move^-1``, whose key cancels against the move."""
    ident = ball_key(identity_element(moves[0].n, moves[0].m))
    plan = _step_plan(ident, [mv.key() for mv in moves], 0)
    assert [i for i, _ in plan] == list(range(len(moves)))
    for g in elements:
        assert _key_factors(ball_key(g)) == g.key()
        for (_, step), mv in zip(plan, moves):
            assert step(ball_key(g)) == ball_key(g * mv)
            assert step(ball_key(g * ~mv)) == ball_key(g)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1), (3, 2, 2),
                                   (2, 127, 1)],
                         ids=["K2_2_2", "K3_2_1", "K3_2_2", "K2_127_1"])
def test_steps_match_product_arithmetic(shape):
    # K3_2_1 and K3_2_2 have moves on the middle factor; K2_127_1 puts
    # letters on bytes up to 253, next to the separator
    n, m, _ = shape
    gens = standard_generators(KernelGroup(*shape))
    moves = _product_moves(gens)
    if m == 2:
        elements = _random_elements(n, m, [1, 2], 200, 4417)
    else:
        # the 506 moves of the top rank are slow to multiply out
        elements = _random_elements(n, m, [1, 2, m - 1, m], 20, 4417)
    _check_steps(moves, list(elements))


def test_steps_of_multi_letter_moves_match_product_arithmetic():
    # the toy edge and its powers (one end), and products of generators
    # that put words of several letters on both ends and the middle
    elements = list(_random_elements(2, 2, [1, 2], 200, 4418))
    edge = toy_scenario(1).edge_element
    _check_steps([edge, ~edge, edge * edge, ~(edge * edge),
                  edge * edge * edge, ~(edge * edge * edge)], elements)
    for shape, words in (
            ((2, 2, 2), [["a1_2", "c1_2", "a2_2"], ["c1_2", "a1_2"]]),
            ((3, 2, 2),
             [["a1_2", "a2_2", "a1_3"], ["a2_3", "c1_2", "a1_2"]])):
        gens = standard_generators(KernelGroup(*shape))
        moves = []
        for syms in words:
            g = GenWord(gens, [(s, 1) for s in syms]).eval()
            moves += [g, ~g]
        assert any(len(w) > 1 for mv in moves for w in mv.key())
        elements = _random_elements(shape[0], 2, [1, 2], 100, 4419)
        _check_steps(moves, list(elements))


def test_width_one_steps_match_product_arithmetic():
    # one factor: the key is the inverted word alone, the identity's empty
    F = FreeGroup(2)
    x, y = F.gen(1), F.gen(2)
    moves = [ProductElement([w]) for w in (x, ~x, y * x, ~(y * x))]
    elements = list(_random_elements(1, 2, [1, 2], 200, 4420))
    assert identity_element(1, 2) in elements
    assert ball_key(identity_element(1, 2)) == b""
    _check_steps(moves, elements)


# -- meet in the middle --------------------------------------------------------

def _run_meet(ident, moves, radius, target):
    """``(hit, explored, forward side)`` of the meet from ``ident``."""
    return _meet(_step_plan(ident, moves, radius), ident, target, radius)


def _seeded_targets(gens, radius, count, seed):
    rng = random.Random(seed)
    syms = [(s, e) for s in gens.symbols for e in (1, -1)]
    for _ in range(count):
        yield GenWord(gens, [rng.choice(syms)
                             for _ in range(rng.randrange(radius + 3))]).eval()


def _check_meet(ident, moves, radius, targets, ref, product_moves):
    """The meet finds exactly the targets in the reference ball, at their
    reference distances, having stored what the reference meet stores."""
    found = 0
    for target in targets:
        hit, explored = _run_meet(ident, moves, radius, ball_key(target))
        if target.key() in ref:
            want = _reference_meet(product_moves, target, radius)
            assert want[0] == ref[target.key()]
            assert (hit, explored) == want
            found += 1
        else:
            assert hit is None
    return found


@pytest.mark.parametrize("shape, radius",
                         [((2, 2, 2), 5), ((3, 2, 1), 3), ((3, 2, 2), 3),
                          ((2, 127, 1), 1)],
                         ids=["K2_2_2", "K3_2_1", "K3_2_2", "K2_127_1"])
def test_meet_matches_the_reference_ball(shape, radius):
    gens = standard_generators(KernelGroup(*shape))
    ident = ball_key(identity_element(shape[0], shape[1]))
    ref = _reference_ball(gens, radius)
    targets = list(_seeded_targets(gens, radius, 60, 15))
    found = _check_meet(ident, _moves(gens), radius, targets, ref,
                        _product_moves(gens))
    # both outcomes occur
    assert 0 < found < len(targets)


def test_meet_over_the_edge_power_moves():
    # the toy scenario's one move pair, the one-letter edge and its inverse;
    # the targets are powers of the edge, and a generator off its cyclic group
    ident = ball_key(identity_element(2, 2))
    for k in (1, 2, 3):
        edge = toy_scenario(k).edge_element
        radius = k + 2
        ref = _reference_search([edge, ~edge], radius)
        powers = [edge]
        while len(powers) < radius + 2:
            powers.append(powers[-1] * edge)
        targets = ([identity_element(2, 2), B.realization["c1_2"]] + powers
                   + [~p for p in powers])
        found = _check_meet(ident, [edge.key(), (~edge).key()], radius,
                            targets, ref, [edge, ~edge])
        # the identity and edge^j, edge^-j for j <= radius
        assert found == 1 + 2 * radius


def test_meet_edge_cases():
    ident = ball_key(identity_element(2, 2))
    moves = _moves(B)
    h1 = ball_key(h_family(1))
    # radius 0: only the identity is at distance 0
    assert _run_meet(ident, moves, 0, ident) == (0, 1)
    assert _run_meet(ident, moves, 0, h1) == (None, 2)
    assert distance(B, h_family(1), 0) == (False, 0, 0, 1)
    assert distance(B, identity_element(2, 2), 0) == (True, 0, 0, 1)
    # the identity as target stores nothing beyond itself, at any radius
    for radius in (1, 2, 5):
        assert _run_meet(ident, moves, radius, ident) == (0, 1)
    # odd radii: a meeting at odd distance, and the radius just below it
    g = B.realization["a1_2"] * B.realization["c1_2"] * B.realization["a2_2"]
    assert distance(B, g, 3).found and distance(B, g, 3).value == 3
    assert distance(B, g, 5).value == 3
    res = distance(B, g, 2)
    assert not res.found and res.explored == 37
    # h_1 is the fifth move, met before the first shell is complete
    assert _run_meet(ident, moves, 1, h1) == (1, 6)
    # no moves: the identity's frontier empties at once, with no meeting
    assert _run_meet(ident, [], 5, h1) == (None, 2)
    assert _run_meet(ident, [], 5, ident) == (0, 1)
    assert _ball_search(ident, [], 5) == {ident: 0}


def test_distance_rejects_moves_without_inverse_pairs(monkeypatch):
    # distance's meet checks its moves where the ball search does, even for
    # the identity as target
    moves = _moves(B)
    for bad, match in (
            (moves[:-1], "inverse pairs"),
            ([moves[0], moves[2], moves[1], moves[3], moves[4], moves[5]],
             "not the inverse"),
            (moves[:4] + [moves[4], moves[4]], "not the inverse")):
        with monkeypatch.context() as m:
            m.setattr(metrics, "_moves", lambda gens, bad=bad: bad)
            for target in (h_family(1), identity_element(2, 2)):
                with pytest.raises(ValueError, match=match):
                    distance(B, target, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        distance(B, h_family(1), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        distortion_table(range(1, 4), -1)


def test_equal_moves_share_one_checked_plan():
    # a fresh generating set with the same moves gets the plan built for B,
    # whatever the radius; the plan cache is bounded
    fresh = standard_generators(KernelGroup(2, 2, 2))
    assert fresh is not B
    plan = _step_plan(SEP, _moves(B), 2)
    assert isinstance(plan, tuple)
    assert _step_plan(SEP, _moves(fresh), 7) is plan
    assert _step_plan(SEP, _moves(fresh), 0) is plan
    assert metrics._checked_plan.cache_info().maxsize == 4


def test_equal_moves_share_one_symmetry_list_and_vector_memo(monkeypatch):
    # the symmetries and the vector memo depend on the moves alone: two fresh
    # generating sets of K(2,2,2) share them, another move list has its own
    metrics._vector_classes.cache_clear()
    built = []
    symmetries = metrics._symmetries
    monkeypatch.setattr(metrics, "_symmetries",
                        lambda moves: built.append(moves) or symmetries(moves))
    a, b = (standard_generators(KernelGroup(2, 2, 2)) for _ in range(2))
    assert a is not b and a.group is not b.group
    assert ball_shells(a, 4) == ball_shells(b, 4) == _unreduced_shells(a, 4)
    assert len(built) == 1
    tables = metrics._vector_classes(tuple(_moves(a)))
    assert tables is metrics._vector_classes(tuple(_moves(b)))
    assert tables.perms == [range(6), (2, 3, 0, 1, 5, 4)]
    other = standard_generators(KernelGroup(2, 3, 2))
    assert ball_shells(other, 3) == _unreduced_shells(other, 3)
    assert len(built) == 2
    others = metrics._vector_classes(tuple(_moves(other)))
    assert others is not tables and len(others.perms) == 4
    assert metrics._vector_classes.cache_info().maxsize == 4


def test_one_vector_memo_serves_every_radius():
    # a count at radius 6, then 3, then 6 reads and extends one memo, and
    # each equals the unreduced ball's shells
    metrics._vector_classes.cache_clear()
    want = _unreduced_shells(B, 6)
    tables = metrics._vector_classes(tuple(_moves(B)))
    sizes = []
    for radius in (6, 3, 6):
        assert ball_shells(B, radius) == want[:radius + 1]
        sizes.append(len(tables))
    assert metrics._vector_classes(tuple(_moves(B))) is tables
    assert metrics._vector_classes.cache_info().currsize == 1
    # the radius-3 count asks only for vectors the radius-6 one memoized
    assert sizes[0] == sizes[1] == sizes[2] > 0
    assert all(len(v) == 4 and all(type(e) is int for e in v) for v in tables)


def test_distortion_rows_match_one_distance_call_per_n():
    for radius in range(8):
        rows = distortion_table(range(1, 9), radius)
        want = []
        for n in range(1, 9):
            res = distance(B, h_family(n), radius)
            want.append((n, 4 * n) + (("exact", res.value) if res.found
                                      else ("lower-bound", radius + 1)))
        assert [tuple(r) for r in rows] == want


def test_distortion_rows_out_of_reach_build_no_words():
    # h_n is built only when its 4n letters fit in the ball, so a long
    # range at radius 0 costs one row each
    start = time.perf_counter()
    rows = distortion_table(range(1, 200001), 0)
    assert time.perf_counter() - start < 1.0
    assert rows == [(n, 4 * n, "lower-bound", 1) for n in range(1, 200001)]


# -- counting the ball one symmetry orbit at a time ----------------------------

def _depth_counts(depths):
    shells = [0] * (max(depths.values()) + 1)
    for d in depths.values():
        shells[d] += 1
    return shells


def _unreduced_shells(gens, radius):
    """Shell sizes of the ball as the unreduced ``_ball_search`` stores it."""
    return _depth_counts(_ball_search(
        ball_key(identity_element(gens.group.n, gens.group.m)), _moves(gens),
        radius))


@pytest.mark.parametrize("shape, radius, order",
                         [((2, 2, 2), 7, 2), ((2, 3, 2), 4, 4),
                          ((2, 2, 1), 5, 4), ((2, 3, 3), 4, 6),
                          ((3, 3, 2), 3, 4), ((2, 2, 0), 5, 8),
                          ((3, 2, 2), 4, 2)],
                         ids=["K2_2_2", "K2_3_2", "K2_2_1", "K2_3_3",
                              "K3_3_2", "K2_2_0", "K3_2_2"])
def test_orbit_counts_match_the_unreduced_ball(shape, radius, order):
    gens = standard_generators(KernelGroup(*shape))
    assert len(_symmetries(_moves(gens))) + 1 == order
    want = _unreduced_shells(gens, radius)
    for r in range(radius + 1):
        assert ball_shells(gens, r) == want[:r + 1]
    # an exclusion reports the whole ball, counted the same way; a power of
    # the first generator longer than any ball element lies outside it
    reach = radius * max(map(ambient_length, gens.realization.values()))
    far = GenWord(gens, [(gens.symbols[0], 1)] * (reach + 1)).eval()
    res = distance(gens, far, radius)
    assert (res.found, res.explored) == (False, sum(want))


def test_symmetries_of_k222_are_x_swapped_with_y():
    moves = _moves(B)
    # the moves are a1_2, a2_2, c1_2, each followed by its inverse; x <-> y
    # swaps the a-moves and sends c1_2 = ([x,y], 1) to its inverse
    assert B.symbols == ("a1_2", "a2_2", "c1_2")
    (table, perm), = _symmetries(moves)
    assert table[:4] == bytes([2, 3, 0, 1]) and table[4:] == bytes(range(4, 256))
    assert perm == (2, 3, 0, 1, 5, 4)
    for mv, i in zip(moves, perm):
        assert tuple(w.translate(table) for w in mv) == moves[i]


def test_moves_without_symmetry_get_none():
    x, y = b"\x00", b"\x02"
    X, Y = b"\x01", b"\x03"
    # x and y x, with their inverses: no signed letter map keeps the set
    assert _symmetries([(x,), (X,), (y + x,), (X + Y,)]) == []
    # a repeated move, and a rank above the enumerated ones
    assert _symmetries([(x,), (X,), (x,), (X,)]) == []
    assert _symmetries(_moves(standard_generators(KernelGroup(2, 5, 2)))) == []
    assert _symmetries([]) == []
    # a lone letter and its inverse are swapped by x -> x^-1
    assert _symmetries([(x,), (X,)]) == [(bytes([1, 0]) + bytes(range(2, 256)),
                                          (1, 0))]


@st.composite
def _symmetric_moves(draw):
    """Inverse-paired moves over 1-3 factors of rank 2-3, closed under a
    signed letter permutation other than the identity."""
    width, rank = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    table = draw(st.sampled_from(signed_permutations(rank)[1:]))
    word = st.lists(st.integers(0, 2 * rank - 1), max_size=3).map(
        lambda letters: ops.free_reduce(bytes(letters)))
    # a move the table moves, so that it is one of the move list's symmetries
    moved = st.tuples(*[word] * width).filter(
        lambda mv: tuple(w.translate(table) for w in mv) != mv)
    bases = draw(st.lists(moved, min_size=1, max_size=2))
    moves = []
    for mv in bases:
        # the orbit of mv under the table, each move followed by its inverse
        while mv not in moves:
            moves += [mv, tuple(map(ops.invert, mv))]
            mv = tuple(w.translate(table) for w in mv)
    return moves


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_symmetric_moves(), st.integers(2, 4))
def test_orbit_counts_match_the_unreduced_ball_on_random_moves(moves, radius):
    # the symmetries include sign flips, maps that fix a generator (so some
    # elements are fixed by a map) and, over three factors, moves that change
    # the middle factor; the radius shrinks to keep the ball small
    while len(moves) ** radius > 20000:
        radius -= 1
    assert _symmetries(moves)
    ident = SEP * (len(moves[0]) - 1)
    plan = _step_plan(ident, moves, radius)
    want = _depth_counts(_ball_search(ident, moves, radius))
    assert _orbit_shells(ident, moves, plan, radius) == want


def test_orbit_ball_memory_per_explored_element():
    # the exclusion stores one key per x <-> y orbit of the last two shells
    # and one vector class of the new one: about 14 traced bytes per element
    # of the ball, where storing every element took about 127
    tracemalloc.start()
    try:
        res = distance(B, h_family(2), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.found, res.explored) == (False, 23285)
    assert peak / res.explored < 80


def test_exclusion_memory_holds_one_class_of_the_last_shell():
    # the last shell, 80% of the ball, is counted one class of exponent-sum
    # vectors at a time; holding the ball's orbit representatives took 53
    # traced bytes per element here, this reads about 12
    tracemalloc.start()
    try:
        res = distance(B, h_family(2), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.found, res.explored) == (False, 115825)
    assert peak / res.explored < 25


def test_unreduced_ball_memory_per_key():
    # _ball_search stores one joined key per element, as distance_map and
    # the meet's sides do: about 127 traced bytes per key
    ident = ball_key(identity_element(2, 2))
    tracemalloc.start()
    try:
        depths = _ball_search(ident, _moves(B), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(depths) == 23285
    assert peak / len(depths) < 160
