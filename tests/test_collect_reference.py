"""The commutator collector against its restart-from-0 reference.

`ref_collect` is the loop `kernels.collect_commutators` ran before it
resumed its scan just before the first letter a swap can have changed:
after every swap it scans the new word again from position 0.  Both make
the same swaps in the same order, so on every zero-exponent-sum word they
must emit equal items: the reference's full conjugators, and the
collector's first conjugator followed by the reduced seam from each
conjugator to the next.  The corpus holds words on which a later resume
point misses a descent.
"""

import random
import tracemalloc

from kgroups import _wordops_py as ops
from kgroups.kernels import (KernelGroup, ProductElement,
                             collect_commutators, normalize_basic_commutator,
                             rewrite_in_generators)
from kgroups.metrics import h_family
from kgroups.words import FreeGroup, Word


def ref_collect(data: bytes):
    emitted = []
    cur = data
    while True:
        for t in range(len(cur) - 1):
            a, b = cur[t], cur[t + 1]
            if a >> 1 > b >> 1:
                suffix = cur[t + 2:]
                i, j, sign, c = normalize_basic_commutator(a ^ 1, b ^ 1)
                emitted.append((ops.concat(ops.invert(suffix), c), i, j, sign))
                cur = ops.concat(ops.concat(cur[:t], bytes((b, a))), suffix)
                break
        else:
            break
    if cur:
        raise ValueError("collection left a nonempty sorted residue")
    emitted.reverse()
    return emitted


def _zero_sum_word(rng: random.Random, r: int) -> bytes:
    """A reduced word over e_1..e_r whose exponent sums all vanish."""
    letters = [rng.randrange(2 * r) for _ in range(rng.randrange(1, 15))]
    for j, s in enumerate(ops.exponent_sums(bytes(letters), range(r))):
        letters += [2 * j + (s > 0)] * abs(s)
    rng.shuffle(letters)
    return ops.free_reduce(bytes(letters))


def _corpus():
    rng = random.Random(2024)
    words = [(r, _zero_sum_word(rng, r)) for r in (2, 3, 4) for _ in range(400)]
    # Y x Y X y x Y X y y: after the swap at t = 2 the seam cancels, and the
    # new word agrees with the old one past t, where a descent is unseen
    words.append((2, bytes((3, 0, 3, 1, 2, 0, 3, 1, 2, 2))))
    # words on which a resume later than max(t - d // 2 - 1, 0) misses a
    # descent (d letters cancelled by the swap at t): the first at t - 1,
    # t - d // 2 and t - d // 4 - 1, the second at t - d // 2, the third at
    # t - 1 and t - d // 2
    words += [(3, bytes((5, 1, 2, 2, 0, 2, 1, 3, 4, 3, 0, 3))),
              (3, bytes((0, 5, 3, 0, 2, 0, 4, 2, 1, 1, 3, 1))),
              (2, bytes((3, 3, 0, 3, 0, 2, 1, 2, 1, 2)))]
    # [x^n, y^n], the rewriter's main input
    words += [(2, h_family(n).factors[0].data) for n in range(1, 9)]
    return words


def _conjugators(first, items):
    """Rebuild the collector's conjugators from its seams, checking that
    every seam is reduced and that the chain closes to the empty word."""
    out, conj = [], first
    for i, j, sign, seam in items:
        assert seam == ops.free_reduce(seam), seam
        out.append((conj, i, j, sign))
        conj = ops.concat(conj, seam)
    assert conj == b""
    return out


def test_collector_matches_the_restart_reference():
    for r, data in _corpus():
        w = Word(FreeGroup(r), data)
        assert _conjugators(*collect_commutators(w, r)) == ref_collect(data), \
            (r, data)


def test_collector_holds_seams_not_conjugators():
    # the 16,384 conjugators of [x^128, y^128] held 5.8 MB in full
    w = h_family(128).factors[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = collect_commutators(w, 2)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(out[1]) == 128 ** 2
    assert held < 2_000_000


def test_rank_two_corpus_rewrites_round_trip():
    G = KernelGroup(2, 2, 2)
    free = G.factor_group()
    for r, data in _corpus():
        if r == 2:
            g = ProductElement((Word(free, data), free.identity))
            assert rewrite_in_generators(G, g).eval() == g
