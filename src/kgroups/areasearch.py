"""Best-first insertion search over freely reduced words.

One move inserts a relator variant (a cyclic rotation of a relator or its
inverse) at some position and freely reduces; every move costs 1 and the
goal is the empty word.  With heuristic terms this is A* with a
consistent heuristic, without them plain uniform-cost search; either way
the first settlement of the goal is optimal within the length-cap regime.

Inserting and reducing happen in the word kernel (`_wordops_py`, imported
as `ops`); the loop around it is plain Python.

Heuristic: additive invariants.  A move inserts a relator variant and
freely reduces, and reduction can cancel letters of the *old* word
against each other once the insertion bridges them (e.g. inserting
y^-1 x^-1 into y y x y^-1 leaves the empty word: four letters gone for
two inserted).  So letter counts and total length may drop by more than
the variant carries, and heuristics built on them would overestimate.
The invariants used here cannot be touched by free reduction at all,
because each is a coordinate of a homomorphism out of the free group:

  - the signed exponent sum of one generator (a map to Z);
  - one Heisenberg term z_L, for a linear map L: Z^rank -> Z^2 that kills
    the abelianization of every relator.  Sending a letter to (L(letter), 0)
    in the group Z^2 x Z with product (a, c)(a', c') = (a + a', c + c' +
    det(a, a')) gives z_L(w) = sum over letters of det(L(prefix), L(letter)).
    Every relator, hence every variant, lands in the centre {(0, c)}.

In both cases the image of a variant commutes with everything, so
inserting variant v anywhere moves the invariant by exactly I(v):
I(child) = I(state) + I(v), whatever the position and however much the
insertion reduces.  With step = max |I(v)| over the variants, the term
ceil(|I(w)| / step) changes by at most 1 per unit-cost move and vanishes
at the goal, so it is consistent and admissible, and so is the maximum of
several such terms.  The search computes a state's invariant values once,
when it settles the state; each child's bound is then a table lookup by
variant index, and no child is rescanned.  The greedy probe scans only its
start: down the dive, a child's values are its parent's plus the inserted
variant's.

Seam lengths: the probe ranks children by length without building them.
The state and the variant are reduced, so inserting v at position p can
cancel letters only across its two seams: a letters of v's head against
state[:p], then b of v's tail against state[p:].  If a + b = len(v), v is
gone and state[:p-a] meets state[p+b:], which may cancel on by some run r.
So len(child) = len(state) + len(v) - 2c with c = a + b + r, and c > 0
only where state[p-1] = v[0]^-1 or state[p] = v[-1]^-1.  Every other
position gives length len(state) + len(v), and the dive builds only the
child it enters.

Frontier layout: edge costs are 1 and the heuristic is consistent, so
f-values surface in nondecreasing order and the frontier can be an array
of buckets indexed by f instead of a heap.  Within one f-bucket states
are popped smallest h first (equivalently deepest first); consistency
makes any within-bucket order exact, and diving pays off when the
heuristic is sharp.  Ties beyond that are FIFO, so runs are deterministic.
"""

from __future__ import annotations

from array import array
from itertools import compress, groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from . import _wordops_py as ops

# _MARK[x].translate maps byte x to 1 and every other byte to 0
_MARK = [bytes(x) + b"\x01" + bytes(255 - x) for x in range(256)]


class AdditiveHeuristic:
    """h(w) = max over terms of ceil(|I(w)| / step); see module docstring.

    gens lists the 0-based generators whose exponent sums are terms; plane
    is None or the pair (lx, ly) giving L(letter) for every letter byte.
    Every term must be moved by some variant (a nonzero step): a term no
    variant moves is a conserved quantity, which the caller turns into an
    obstruction or drops.
    """

    __slots__ = ("gens", "plane", "steps", "deltas")

    def __init__(self, variants: Sequence[bytes], gens: Sequence[int] = (),
                 plane: Optional[Tuple[Sequence[int], Sequence[int]]] = None):
        self.gens = tuple(gens)
        self.plane = plane
        self.deltas = [self.values(v) for v in variants]
        self.steps = tuple(max((abs(d[t]) for d in self.deltas), default=0)
                           for t in range(len(self.gens) + (plane is not None)))
        if not all(self.steps):
            raise ValueError("every heuristic term needs a variant that moves it")

    def values(self, word: bytes) -> List[int]:
        """The invariant values of `word`, one per term."""
        out = [word.count(2 * j) - word.count(2 * j + 1) for j in self.gens]
        if self.plane is not None:
            lx, ly = self.plane
            px = py = z = 0
            for b in word:
                dx = lx[b]
                dy = ly[b]
                z += px * dy - py * dx
                px += dx
                py += dy
            out.append(z)
        return out

    def bound(self, values: Sequence[int]) -> int:
        """The lower bound on the moves left, from a state's invariant values."""
        h = 0
        for v, step in zip(values, self.steps):
            v = -(-abs(v) // step)
            if v > h:
                h = v
        return h

    def child_bounds(self, values: Sequence[int]) -> List[int]:
        """h of the child made by each variant, indexed like the variants."""
        if not self.steps:
            return [0] * len(self.deltas)
        steps = self.steps
        return [max(-(-abs(a + d) // s) for a, d, s in zip(values, delta, steps))
                for delta in self.deltas]


class SearchOutcome:
    """Raw result of one search run, before any certificate dressing."""

    __slots__ = ("cost", "path", "lower_bound", "nodes", "pushes",
                 "regime_empty", "stop_reason")

    def __init__(self, cost: Optional[int], path: Optional[List[Tuple[int, int]]],
                 lower_bound: Optional[int], nodes: int, pushes: int,
                 regime_empty: bool, stop_reason: str):
        self.cost = cost
        self.path = path            # [(pos, variant_index), ...] start -> empty
        self.lower_bound = lower_bound
        self.nodes = nodes
        self.pushes = pushes
        self.regime_empty = regime_empty
        self.stop_reason = stop_reason


def seam_ranked(state: bytes, variants: Sequence[bytes], child_h: Sequence[int],
                h_max: int, len_cap: int) -> List[int]:
    """The probe's ranking of one state's children, none of them built.

    Returns the codes vidx * (len(state) + 1) + pos of every child
    insert_reduce(state, pos, variants[vidx]) with h = child_h[vidx] <= h_max
    and length <= len_cap, sorted by (h, length, code): the order a sort of
    ops.expand's children gives, visited or not.  Variants are nonempty and
    reduced.  A child's length is len(state) + len(v) - 2c for the c letter
    pairs that cancel (module docstring), and c > 0 only at a seam position,
    where state[pos-1] = v[0]^-1 or state[pos] = v[-1]^-1.  The other
    positions are found with byte masks and enter as one ascending run per
    variant; only seam positions are walked letter by letter.
    """
    n = len(state)
    width = n + 1
    every = int.from_bytes(b"\x01" * width, "little")   # one 1 per position
    out: List[int] = []
    order = sorted((h, k) for k, h in enumerate(child_h) if h <= h_max)
    for _, group in groupby(order, key=itemgetter(0)):
        # length -> codes; variants come in ascending index and each one's
        # positions ascend, so every list is sorted by code as it grows
        by_len: Dict[int, List[int]] = {}
        for _, k in group:
            v = variants[k]
            lv = len(v)
            base = k * width
            # byte pos of `seam` is 1 where pos is a seam position
            seam = (int.from_bytes(state.translate(_MARK[v[0] ^ 1]), "little") << 8
                    | int.from_bytes(state.translate(_MARK[v[-1] ^ 1]), "little"))
            if n + lv <= len_cap:
                by_len.setdefault(n + lv, []).extend(compress(
                    range(base, base + width),
                    (every ^ seam).to_bytes(width, "little")))
            for p in compress(range(width), seam.to_bytes(width, "little")):
                a = 0                       # v's head against state[:p]
                while a < lv and a < p and state[p - 1 - a] ^ v[a] == 1:
                    a += 1
                b = 0                       # v's tail against state[p:]
                while a + b < lv and p + b < n and state[p + b] ^ v[lv - 1 - b] == 1:
                    b += 1
                c = a + b
                if c == lv:                 # v is gone: the state closes up
                    i, j = p - a, p + b
                    while i > 0 and j < n and state[i - 1] ^ state[j] == 1:
                        i -= 1
                        j += 1
                        c += 1
                length = n + lv - 2 * c
                if length <= len_cap:
                    by_len.setdefault(length, []).append(base + p)
        for length in sorted(by_len):
            out.extend(by_len[length])
    return out


def greedy_probe(start: bytes, variants: Sequence[bytes], *, len_cap: int,
                 node_budget: int, heuristic: AdditiveHeuristic
                 ) -> Optional[List[Tuple[int, int]]]:
    """Depth-first hunt for an expression of area exactly h(start).

    The admissible heuristic bounds the true area from below with no
    length-cap caveat (any expression is a move sequence, each move shifts
    h by at most 1, and h vanishes at the goal) -- so an expression whose
    area equals h(start) is unconditionally optimal.  This probe searches
    only the f = h(start) shell (children with g + h > h(start) are
    pruned), ordered by (h, length), and gives up after node_budget
    expansions; the caller falls back to the full search.

    The dive is iterative: each level keeps its state, its invariant
    values and the codes vidx * (len(state) + 1) + pos of its children in
    the shell, best first (seam_ranked, which computes every child's
    length from the two seams and builds none), in a machine-int array:
    as a list of int objects they held 18 MB at depth 961.  When the dive reaches a
    code it builds that one child with insert_reduce, skips it if it was
    visited, and gets its values as values(state) + deltas[vidx], the
    additivity of the module docstring, so no state is rescanned.  A
    visited child is skipped at the dive and not at ranking: the visited
    set only grows, so the traversal is the same either way.
    """
    values = heuristic.values(start)
    h0 = heuristic.bound(values)
    if h0 <= 0:
        return None
    visited = {start}
    path: List[Tuple[int, int]] = []
    budget = node_budget
    deltas = heuristic.deltas

    def ranked(state: bytes, g: int, values: List[int]) -> array:
        return array("q", seam_ranked(state, variants,
                                      heuristic.child_bounds(values),
                                      h0 - g - 1, len_cap))

    if budget <= 0:
        return None
    budget -= 1
    # [state, g, values, codes, next]
    levels = [[start, 0, values, ranked(start, 0, values), 0]]
    while levels:
        top = levels[-1]
        state, g, values, codes, i = top
        if i == len(codes):
            levels.pop()
            if levels:
                path.pop()
            continue
        top[4] = i + 1
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
        values = [a + d for a, d in zip(values, deltas[vidx])]
        levels.append([child, g + 1, values, ranked(child, g + 1, values), 0])
    return None


def run_search(start: bytes, variants: Sequence[bytes], *, len_cap: int,
               node_cap: int, push_cap: int, heuristic: AdditiveHeuristic,
               stop_at_bound: Optional[int] = None) -> SearchOutcome:
    """Search from `start` to the empty word; see module docstring.

    stop_at_bound halts as soon as the cheapest unsettled f reaches the
    bound: every cheaper state is settled by then, so the optimum is at
    least that f and the caller only wanted the inequality.
    """
    h0 = heuristic.bound(heuristic.values(start))
    buckets: Dict[int, Dict[int, List[Tuple[bytes, int]]]] = {h0: {h0: [(start, 0)]}}
    cursor: Dict[Tuple[int, int], int] = {}
    remaining: Dict[int, int] = {h0: 1}
    minh: Dict[int, int] = {h0: h0}
    seen: Dict[bytes, int] = {start: 0}
    meta: Dict[bytes, Tuple[bytes, int, int]] = {}
    settled = set()
    fmax = h0
    f = h0
    nodes = pushes = 0

    while True:
        if remaining.get(f, 0) == 0:
            f += 1
            if f > fmax:
                return SearchOutcome(None, None, None, nodes, pushes,
                                     True, "frontier exhausted")
            continue
        hrow = buckets[f]
        h = minh[f]
        while True:
            row = hrow.get(h)
            i = cursor.get((f, h), 0)
            if row is not None and i < len(row):
                break
            h += 1
            minh[f] = h
        cursor[(f, h)] = i + 1
        remaining[f] -= 1
        state, g = row[i]
        if state in settled or seen.get(state) != g:
            continue
        if stop_at_bound is not None and f >= stop_at_bound:
            return SearchOutcome(None, None, f, nodes, pushes, False,
                                 "reached requested bound")
        settled.add(state)
        nodes += 1
        if state == b"":
            path: List[Tuple[int, int]] = []
            cur = state
            while cur != start:
                parent, pos, vidx = meta[cur]
                path.append((pos, vidx))
                cur = parent
            path.reverse()
            return SearchOutcome(g, path, None, nodes, pushes, False, "goal")
        if nodes >= node_cap:
            return SearchOutcome(None, None, f, nodes, pushes, False,
                                 "node cap")
        hv = heuristic.child_bounds(heuristic.values(state))
        for child, pos, vidx in ops.expand(state, variants, len_cap):
            gc = g + 1
            old = seen.get(child)
            if old is not None and old <= gc:
                continue
            hc = hv[vidx]
            seen[child] = gc
            meta[child] = (state, pos, vidx)
            fc = gc + hc
            frow = buckets.setdefault(fc, {})
            frow.setdefault(hc, []).append((child, gc))
            remaining[fc] = remaining.get(fc, 0) + 1
            if hc < minh.get(fc, hc + 1):
                minh[fc] = hc
            if fc > fmax:
                fmax = fc
            pushes += 1
            if pushes >= push_cap:
                return SearchOutcome(None, None, f, nodes, pushes, False,
                                     "push cap")
