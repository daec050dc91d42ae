"""The additive heuristic's term choice and its conserved-term rule.

`reference_heuristic` is an independent copy of the earlier term chooser,
which scanned every word for its exponent sums and its pair-area matrix
and scored each candidate plane by dotting 2x2 minors with those areas.
`_root_bound` must choose the same terms, with the same steps, additive
root bound and obstruction reason, reading each candidate's |z_L(w)| off
the word's pair-area rows and its step off one `plane_value` pass per
relator.  `plane_value` is the package's one z_L loop; the rows suffice
because z_L is bilinear in L, which is tested here too.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from kgroups.areasearch import plane_value
from kgroups.certificates import toy_scenario
from kgroups.presentations import (_kernel_basis, _root_bound, _variants,
                                   area_search, parse_presentation)
from kgroups.words import inv, mul

ABELIANIZATION = "abelianization obstruction: no expression exists at any length"
AREA_COCYCLE = "area-cocycle obstruction: no expression exists at any length"

RANK6 = "< a, b, c, d, e, f | %s >" % ", ".join(
    "[%s,%s]" % (p, q) for i, p in enumerate("abcdef") for q in "abcdef"[i + 1:])

CHOICE_PRESENTATIONS = {
    "Z2": parse_presentation("< x, y | [x,y] >"),
    "Z2 with x^2": parse_presentation("< x, y | x^2, [x,y] >"),
    "Z3": parse_presentation("< a, b, c | [a,b], [b,c], [a,c] >"),
    "genus 2": parse_presentation("< a, b, c, d | [a,b] [c,d] >"),
    "toy": toy_scenario(3).presentation,
    "rank 6": parse_presentation(RANK6),
    "Z x F2": parse_presentation("< a, b, c | [a,b], [a,c] >"),
}


def exponent_sums(data, rank):
    out = [0] * rank
    for b in data:
        out[b // 2] += 1 if b % 2 == 0 else -1
    return out


def pair_areas(data, images, d):
    """Upper triangle of the word's pair-area matrix in Z^d."""
    p = [0] * d
    a = [0] * (d * (d - 1) // 2)
    for b in data:
        s = images[b]
        k = 0
        for i in range(d):
            for j in range(i + 1, d):
                a[k] += p[i] * s[j] - p[j] * s[i]
                k += 1
        for i in range(d):
            p[i] += s[i]
    return a


def reference_plane(P, variants, w):
    """(plane, |z(w)|, step, obstructed) of the minors-scored choice."""
    rank = P.group.rank
    basis = _kernel_basis([exponent_sums(r.data, rank) for r in P.relators], rank)
    d = len(basis)
    if d < 2:
        return None, 0, 0, False
    images = []
    for j in range(rank):
        s = [f[j] for f in basis]
        images += [s, [-v for v in s]]
    word_areas = pair_areas(w, images, d)
    variant_areas = [pair_areas(v, images, d) for v in variants]
    rows = [[0] * d for _ in range(d)]
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            rows[i][j], rows[j][i] = word_areas[k], -word_areas[k]
            k += 1

    def unit(i):
        return [int(k == i) for k in range(d)]

    candidates = [(unit(0), unit(1))]
    order = sorted(range(d), key=lambda i: (-sum(map(abs, rows[i])), i))
    for i in order[:3]:
        if any(rows[i]):
            candidates.append((unit(i), [(v > 0) - (v < 0) for v in rows[i]]))
    best = None
    for x, y in candidates:
        m = [x[i] * y[j] - x[j] * y[i] for i in range(d) for j in range(i + 1, d)]
        zw = abs(sum(a * b for a, b in zip(m, word_areas)))
        zmax = max((abs(sum(a * b for a, b in zip(m, va)))
                    for va in variant_areas), default=0)
        if zmax == 0:
            if zw:
                return None, 0, 0, True
            continue
        if best is None or zw * best[1] > best[0] * zmax:
            best = (zw, zmax, x, y)
    if best is None:
        return None, 0, 0, False
    zw, zmax, x, y = best
    lx, ly = [], []
    for j in range(rank):
        f = sum(x[i] * basis[i][j] for i in range(d))
        g = sum(y[i] * basis[i][j] for i in range(d))
        lx += (f, -f)
        ly += (g, -g)
    return (lx, ly), zw, zmax, False


def reference_heuristic(P, variants, w):
    """(gens, plane, steps, root bound, obstruction reason)."""
    rank = P.group.rank
    variant_sums = [exponent_sums(v, rank) for v in variants]
    moved = [j for j in range(rank) if any(s[j] for s in variant_sums)]
    sums = exponent_sums(w, rank)
    if any(sums[j] for j in range(rank) if j not in moved):
        return None, None, None, None, ABELIANIZATION
    plane, zw, zmax, obstructed = reference_plane(P, variants, w)
    if obstructed:
        return None, None, None, None, AREA_COCYCLE
    steps = [max(abs(s[j]) for s in variant_sums) for j in moved]
    values = [abs(sums[j]) for j in moved]
    if plane is not None:
        steps.append(zmax)
        values.append(zw)
    h0 = max((-(-v // s) for v, s in zip(values, steps)), default=0)
    return tuple(moved), plane, tuple(steps), h0, ""


def random_word(rng, P, length):
    letters = [rng.randrange(2 * P.group.rank) for _ in range(length)]
    w = P.group.identity
    for b in letters:
        w = mul(w, P.group.gen(b // 2 + 1, -1 if b % 2 else 1))
    return w


def seeded_words(P, seed):
    """Null words (products of conjugated relators) and commutators of
    random words, which may carry an obstruction."""
    rng = random.Random(seed)
    words = []
    while len(words) < 12:
        w = P.group.identity
        for _ in range(rng.randint(1, 3)):
            c = random_word(rng, P, rng.randint(0, 2))
            r = rng.choice(P.relators)
            w = mul(w, mul(mul(c, r if rng.random() < 0.5 else inv(r)), inv(c)))
        if w:
            words.append(w)
    while len(words) < 20:
        u = random_word(rng, P, rng.randint(1, 3))
        v = random_word(rng, P, rng.randint(1, 3))
        w = mul(mul(u, v), inv(mul(v, u)))
        if w:
            words.append(w)
    return words


def basis_plane(basis, x, y):
    """L = (x, y) in coordinates of the basis, as (lx, ly) per letter byte."""
    lx, ly = [], []
    for j in range(len(basis[0])):
        f = sum(xi * row[j] for xi, row in zip(x, basis))
        g = sum(yi * row[j] for yi, row in zip(y, basis))
        lx += (f, -f)
        ly += (g, -g)
    return lx, ly


@pytest.mark.parametrize("name", ["Z3", "genus 2", "toy", "rank 6"])
def test_plane_value_is_bilinear_in_the_plane(name):
    # z_L(w) = sum over a, b of x_a y_b Z_ab(w), Z being the unit planes'
    # values: _plane_term reads every candidate's |z_L(w)| off Z's rows
    P = CHOICE_PRESENTATIONS[name]
    rank = P.group.rank
    basis = _kernel_basis([exponent_sums(r.data, rank) for r in P.relators],
                          rank)
    d = len(basis)
    unit = [[int(k == i) for k in range(d)] for i in range(d)]
    rng = random.Random(5)
    moved = 0
    for w in seeded_words(P, 5):
        Z = [[plane_value(w.data, basis_plane(basis, unit[a], unit[b]))
              for b in range(d)] for a in range(d)]
        moved += any(map(any, Z))
        for _ in range(4):
            x = [rng.randint(-3, 3) for _ in range(d)]
            y = [rng.randint(-3, 3) for _ in range(d)]
            want = sum(x[a] * y[b] * Z[a][b] for a in range(d) for b in range(d))
            assert plane_value(w.data, basis_plane(basis, x, y)) == want, w
    assert moved


@pytest.mark.parametrize("name", CHOICE_PRESENTATIONS)
def test_term_choice_matches_the_minors_reference(name):
    P = CHOICE_PRESENTATIONS[name]
    variants, _ = _variants(P)
    for w in seeded_words(P, 11):
        gens, plane, steps, h0, reason = reference_heuristic(P, variants, w.data)
        heur, _, _, got_reason = _root_bound(P, variants, w.data)
        assert got_reason == reason, w
        if heur is None:
            assert reason
            continue
        assert heur.gens == gens, w
        assert heur.plane == plane, w
        assert heur.steps == steps, w
        assert heur.bound(heur.values(w.data)) == h0, w


@pytest.mark.parametrize("text,word,reason", [
    ("< x, y | >", "x", ABELIANIZATION),
    ("< x, y | >", "[x,y]", AREA_COCYCLE),
])
def test_a_conserved_term_nonzero_on_the_word_is_an_obstruction(text, word, reason):
    P = parse_presentation(text)
    assert _variants(P) == ([], [])
    w = P.word(word)
    assert _root_bound(P, [], w.data) == (None, 0, None, reason)
    res = area_search(P, w)
    assert res.stop_reason == reason
    assert res.regime_empty and res.nodes == 0


def test_a_conserved_term_zero_on_the_word_is_dropped():
    # no relator moves the exponent sum of y or of t, and both are 0 on the
    # word; L = (y, t) is moved by no relator either and is 0 on the word
    P = parse_presentation("< x, y, t | x^2, [x,y] >")
    variants, _ = _variants(P)
    w = P.word("t x^2 t^-1")
    heur, _, _, reason = _root_bound(P, variants, w.data)
    assert reason == ""
    assert (heur.gens, heur.plane, heur.steps) == ((0,), None, (2,))
    res = area_search(P, w)
    assert res.status == "exact" and res.area == 1
    assert res.stop_reason == "greedy probe matched the heuristic lower bound"
    assert not res.regime_empty and res.nodes == 0



def rational_rank(rows):
    """The rank over Q of a list of integer rows, by Fraction elimination."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_kernel_basis_spans_the_rational_kernel_with_primitive_vectors():
    # every abelianization obstruction rests on this basis; rows repeat
    # and combine often, so the elimination's row combinations run
    rng = random.Random(34)
    for _ in range(2000):
        rank = rng.randint(1, 6)
        span = rng.choice((1, 2, 5))
        rows = [[rng.randint(-span, span) for _ in range(rank)]
                for _ in range(rng.randint(0, 5))]
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([2 * u - 3 * v for u, v in zip(a, b)])
        basis = _kernel_basis(rows, rank)
        assert all(len(v) == rank and math.gcd(*v) == 1 for v in basis)
        assert all(sum(map(operator.mul, v, r)) == 0
                   for v in basis for r in rows)
        assert len(basis) == rank - rational_rank(rows)
        assert rational_rank(basis) == len(basis)
