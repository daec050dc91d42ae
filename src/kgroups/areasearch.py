"""Best-first insertion search over freely reduced words.

One move inserts a relator variant (a cyclic rotation of a relator or its
inverse) at some position and freely reduces; every move costs 1 and the
goal is the empty word.  With heuristic terms this is A* with a
consistent heuristic, without them plain uniform-cost search; either way
the first settlement of the goal is optimal within the search's regime:
moves that cancel (below), words within the length cap.

Inserting, reducing and counting exponent sums happen in the word kernel
(`_wordops_py`, imported as `ops`); the loop around it is plain Python.

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
several such terms.  A term that no variant moves (step 0) is conserved,
and presentations._root_bound settles all of them by one rule: the
integer kernel basis of the relators' exponent sums spans the conserved
linear functionals, a basis functional nonzero on the start word (or a
conserved plane term that the word moves) is an obstruction, and no
conserved term is kept.  plane_value is the one z_L loop, used both to
choose the plane and by the search.  The search computes a state's
invariant values once, when it settles the state; each child's bound is
then a table lookup by variant index, and no child is rescanned.  The
greedy probe scans only its start: down the dive, a child's values are
its parent's plus the inserted variant's.

Root bound: unsigned winding.  Take a coordinate plane (i, j) whose two
generators have exponent sum 0 in every relator; a null-homotopic word
then has exponent sum 0 in both too, so its projection onto (e_i, e_j)
(other letters stand still) is a closed lattice path with a winding number
c(s) around each unit square s.  Free reduction deletes a step and its
reverse, which changes no winding number, and inserting the variant
u^-1 r^sigma u anywhere splices in a walk along u^-1, the loop r^sigma and
back along u, so it adds one translated copy of r's winding function.  By
the triangle inequality W(w) = sum over the planes and squares of |c(s)|
moves by at most step = max over relators of W(r) per move, and it is 0
at the goal, so ceil(W / step) is admissible with no length-cap caveat
(Gersten 1992 bounds area by such l1 norms of a filling 2-chain).  It is
at least the signed plane term, and can be much larger when a loop winds
+1 in one place and -1 in another.  It is not additive: a child's W
depends on where the copy lands, not only on which variant was inserted,
so no table gives it and each child would need a rescan.  So winding_sum
is a root-only bound: the caller takes the larger of it and the additive
bound as the start's h0, the probe's target, while children keep their
additive bounds.

Successors: insertions that cancel.  ops.expand is the one successor
rule of the search and the probe: it keeps variant v at position p only
when v cancels a letter at a seam, state[p-1] = v[0]^-1 or
state[p] = v[-1]^-1 (the state and v are reduced, so they can cancel
nowhere else).  By van Kampen's lemma (Lyndon and Schupp, Combinatorial
Group Theory, 1977, ch. V) some optimal expression cancels at every
move.  Let w be a reduced nonempty null word with a van Kampen diagram D
of least area A >= 1.  An edge that lies on no cell is crossed twice by
the boundary, once each way, and if every edge were, w would reduce to
the empty word; so some boundary edge e, read as the letter w_i, lies on
a cell sigma.  Read sigma's boundary starting just after e, in the
direction w reads e: it spells rho w_i.  Cutting sigma out leaves a
diagram of area A - 1 whose boundary reads w[:i] rho^-1 w[i+1:], and
inserting (rho w_i)^-1 at position i + 1 and reducing gives that word,
the variant's first letter w_i^-1 cancelling w_i.  Read from e itself,
sigma spells w_i rho, and (w_i rho)^-1 at position i gives the same
word, its last letter cancelling w_i.  By induction on A, the children
that cancel hold an optimal path.

  - Relators that are not cyclically reduced.  A relator u c u^-1, with
    c cyclically reduced, has exactly the conjugates of c, so every word
    has the same area over the relators' cyclic reductions, and D may be
    taken over those.  Then both readings of sigma's boundary, from e
    and from just after it, and their inverses are rotations of c or
    c^-1, which are reduced, and _variants holds each of them: the free
    reduction of the rotation of u c^(+-1) u^-1 by |u| + t is the
    rotation of c^(+-1) by t.
  - The regime.  An exact area is least, and a lower bound holds, over
    the expressions whose every move cancels and whose intermediate
    words stay within the length cap.  The lemma's path may pass a
    longer word than some other path of the same area, so the cap
    still matters.  An unconditional result is unaffected: it matches
    the root bound, which holds for every expression at any length.

Frontier layout: edge costs are 1 and the heuristic is consistent, so f
never falls along an edge.  The frontier is a min-heap of (f, h) keys and
a dict from each key to a deque of bare states (g = f - h) in push order:
pops take f ascending, then h ascending (deepest first, which pays off
when the heuristic is sharp), then first in, first out, so runs are
deterministic.  Consistency makes any order within one f exact: a state
popped at the least f has its optimal g and is never reopened.  One table
maps each state to (g, parent, pos, vidx); a popped copy whose g is not the
table's was superseded by a cheaper push and is skipped.
"""

from __future__ import annotations

from array import array
from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import _wordops_py as ops


def plane_value(word: bytes, plane: Tuple[Sequence[int], Sequence[int]]
                ) -> int:
    """z_L(word), the package's one z_L loop; plane = (lx, ly) gives L of
    each letter byte (module docstring)."""
    lx, ly = plane
    px = py = z = 0
    for b in word:
        dx = lx[b]
        dy = ly[b]
        z += px * dy - py * dx
        px += dx
        py += dy
    return z


class AdditiveHeuristic:
    """h(w) = max over terms of ceil(|I(w)| / step); see module docstring.

    gens lists the 0-based generators whose exponent sums are terms; plane
    is None or the pair (lx, ly) giving L(letter) for every letter byte,
    whose term plane_value computes.  bound and child_bounds need every
    step nonzero: a conserved term is settled before the search.
    """

    __slots__ = ("gens", "plane", "steps", "deltas")

    def __init__(self, variants: Sequence[bytes], gens: Sequence[int] = (),
                 plane: Optional[Tuple[Sequence[int], Sequence[int]]] = None):
        self.gens = tuple(gens)
        self.plane = plane
        self.deltas = [self.values(v) for v in variants]
        self.steps = tuple(max((abs(d[t]) for d in self.deltas), default=0)
                           for t in range(len(self.gens) + (plane is not None)))

    def values(self, word: bytes) -> List[int]:
        """The invariant values of `word`, one per term."""
        out = ops.exponent_sums(word, self.gens)
        if self.plane is not None:
            out.append(plane_value(word, self.plane))
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


def winding_sum(word: bytes, planes: Sequence[Tuple[int, int]]) -> int:
    """W(word): the sum over the 0-based coordinate planes (i, j) of the
    word's |winding number| around each unit square; see module docstring.

    One pass per plane records each step along e_i as a crossing of its
    column, at the path's height on e_j.  The square of column x between
    two heights is wound once for every net crossing of x below it, so a
    sorted walk up each column sums the windings.  The projections must
    be closed paths.
    """
    total = 0
    for i, j in planes:
        xp, yp = 2 * i, 2 * j
        crossings: Dict[Tuple[int, int], int] = {}
        x = y = 0
        for b in word:
            if b == xp:
                crossings[x, y] = crossings.get((x, y), 0) + 1
                x += 1
            elif b == xp + 1:
                x -= 1
                crossings[x, y] = crossings.get((x, y), 0) - 1
            elif b == yp:
                y += 1
            elif b == yp + 1:
                y -= 1
        column = run = height = None
        for (cx, cy), d in sorted(crossings.items()):
            if cx == column:
                total += abs(run) * (cy - height)
                run += d
            else:
                column, run = cx, d
            height = cy
    return total


class SearchOutcome(NamedTuple):
    """Raw result of one search run, before any certificate dressing."""

    cost: Optional[int]
    # [(pos, variant_index), ...] start -> empty
    path: Optional[List[Tuple[int, int]]]
    lower_bound: Optional[int]
    nodes: int
    pushes: int
    regime_empty: bool
    stop_reason: str


def seam_ranked(state: bytes, variants: Sequence[bytes], child_h: Sequence[int],
                h_max: int, len_cap: int) -> List[int]:
    """The probe's ranking of one state's children.

    Returns the codes vidx * (len(state) + 1) + pos of ops.expand's
    children made by the variants with h = child_h[vidx] <= h_max, sorted
    by (h, length, code), visited or not.
    """
    useful = [k for k, h in enumerate(child_h) if h <= h_max]
    width = len(state) + 1
    keys = sorted((child_h[useful[k]], len(child), useful[k] * width + pos)
                  for child, pos, k in
                  ops.expand(state, [variants[k] for k in useful], len_cap))
    return [code for _, _, code in keys]


def greedy_probe(start: bytes, variants: Sequence[bytes], *, len_cap: int,
                 node_budget: int, heuristic: AdditiveHeuristic, target: int
                 ) -> Optional[List[Tuple[int, int]]]:
    """Depth-first hunt for an expression of area exactly `target`.

    `target` is the caller's root lower bound on the area of `start`, one
    that holds with no length-cap caveat: the larger of h(start) and the
    winding bound (module docstring).  An expression of that area is then
    unconditionally optimal.  The additive heuristic h bounds each child's
    remaining area from below with no caveat either (any expression is a
    move sequence, each move shifts h by at most 1, and h vanishes at the
    goal), so the probe searches only the f = target shell (children with
    g + h > target are pruned), ordered by (h, length), and gives up after
    node_budget expansions; the caller falls back to the full search.

    The dive is iterative: each level keeps its state, its invariant
    values and the codes vidx * (len(state) + 1) + pos of its children in
    the shell, best first (seam_ranked), in a machine-int array: as a list
    of int objects they held 18 MB at depth 961.  When the dive reaches a
    code it builds that one child with insert_reduce, skips it if it was
    visited, and gets its values as values(state) + deltas[vidx], the
    additivity of the module docstring, so no state is rescanned.  A
    visited child is skipped at the dive and not at ranking: the visited
    set only grows, so the traversal is the same either way.

    So an entered child is built three times: by ops.expand to rank it, by
    insert_reduce to enter it, and again when the caller replays the path
    as a witness.  The rank keeps codes, not children, because every
    level's ranking stays alive until the dive returns past it.  On
    [x^32, y^32] over Z^2 (area 1024) the dive ranks 254,139 children over
    1,024 levels: as 8-byte codes they hold 1.94 MiB, and as child words
    (sys.getsizeof: a 33-byte header plus the word) 39.2 MiB, before any
    list or tuple around them.
    """
    if target <= 0:
        return None
    values = heuristic.values(start)
    visited = {start}
    path: List[Tuple[int, int]] = []
    budget = node_budget
    deltas = heuristic.deltas

    def ranked(state: bytes, g: int, values: List[int]) -> array:
        return array("q", seam_ranked(state, variants,
                                      heuristic.child_bounds(values),
                                      target - g - 1, len_cap))

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

    Stops at the goal, at node_cap settled states or push_cap pushes
    (lower_bound is the f being popped), or when the frontier runs dry
    (regime_empty: no expression whose every move cancels within len_cap).

    stop_at_bound halts as soon as the cheapest unsettled f reaches the
    bound: every cheaper state is settled by then, so the optimum is at
    least that f and the caller only wanted the inequality.
    """
    h0 = heuristic.bound(heuristic.values(start))
    keys = [(h0, h0)]                       # min-heap of the rows' (f, h)
    rows = {(h0, h0): deque([start])}       # (f, h) -> states, push order
    best = {start: (0, None, 0, 0)}         # state -> (g, parent, pos, vidx)
    nodes = pushes = 0

    while keys:
        key = keys[0]
        row = rows[key]
        state = row.popleft()
        if not row:
            heappop(keys)
            del rows[key]
        f, h = key
        g = f - h
        if best[state][0] != g:
            continue
        if stop_at_bound is not None and f >= stop_at_bound:
            return SearchOutcome(None, None, f, nodes, pushes, False,
                                 "reached requested bound")
        nodes += 1
        if state == b"":
            path: List[Tuple[int, int]] = []
            while state != start:
                _, state, pos, vidx = best[state]
                path.append((pos, vidx))
            path.reverse()
            return SearchOutcome(g, path, None, nodes, pushes, False, "goal")
        if nodes >= node_cap:
            return SearchOutcome(None, None, f, nodes, pushes, False,
                                 "node cap")
        hv = heuristic.child_bounds(heuristic.values(state))
        gc = g + 1
        for child, pos, vidx in ops.expand(state, variants, len_cap):
            old = best.get(child)
            if old is not None and old[0] <= gc:
                continue
            best[child] = (gc, state, pos, vidx)
            key = (gc + hv[vidx], hv[vidx])
            row = rows.get(key)
            if row is None:
                row = rows[key] = deque()
                heappush(keys, key)
            row.append(child)
            pushes += 1
            if pushes >= push_cap:
                return SearchOutcome(None, None, f, nodes, pushes, False,
                                     "push cap")
    return SearchOutcome(None, None, None, nodes, pushes, True,
                         "frontier exhausted")
