"""Word metrics on kernel subgroups and distortion experiments.

The intrinsic metric ``d_B`` on a subgroup is computed by breadth-first
search over the implicit Cayley graph: a state is one ``bytes`` key, the
element's reduced factor words joined by the separator byte ``SEP`` with
the first one inverted (``ball_key``), and an edge is right multiplication
by a generator or its inverse.  With the first factor inverted, a move
acts on the key's two ends: right-multiplying the first factor by ``w``
left-multiplies the key by ``w``'s inverse, and the last factor's word
right-multiplies the key.  ``SEP`` cancels against no letter, so each end
stops at it.  Each search first builds a step plan: one step per move,
key to child key, both ends in one call (the word kernel's
``two_sided_step``), so an edge builds no group objects and, unless the
move changes a middle factor (three or more factors), does not split the
key.  Moves come in inverse pairs, ``moves[i ^ 1]`` undoing
``moves[i]``; the search checks this and never takes the move back to a
node's parent, whose result it has already seen.  Equality of states is
componentwise free equality, which is exact and cheap, so no quotient
trickery is needed.  One breadth-first core, ``_Side.expand`` (one shell,
stopping at the first new element in a given collection), serves every
search; none finds the toy amalgam's edge power, which comes from
``AmalgamScenario.subgroup_power``.

``distance`` and ``distortion_table`` meet in the middle (``_meet``): they
grow a ball around the identity and one around the target, each a shell
at a time and the smaller frontier first, and stop at the first element
both have seen.  A meeting of a new element at depth ``a + 1`` with one at
depth ``b`` on the other side gives the exact distance ``a + 1 + b``: no
earlier meeting means the distance exceeds ``a + b``.  A found distance's
``explored`` counts the distinct elements of the two half-balls, about
two balls of half the distance where a one-sided search walks the whole
ball below the target.

A failed search is still a certificate: if the ball of radius ``r`` is
exhausted without meeting the target, the distance is provably ``> r``.
``distance`` then counts the identity's ball of radius ``r`` one symmetry
orbit at a time, so its ``explored`` is that ball's size.  A symmetry is a
signed permutation of the letters, applied to every factor, that maps the
move list onto itself (``_symmetries``); it is an automorphism of the
Cayley graph fixing the identity, so the search stores one representative
per orbit and counts the orbit's size.  K(2,2,2)'s standard moves have one
such map, x <-> y, which halves the stored ball.  ``ball_profile`` does
this count, shell by shell; ``distance_map``, which needs every element,
enumerates the ball with ``_ball_search``.  Reports preserve that logical
shape instead of guessing.

The distortion experiments compare ``d_B`` against the ambient word
metric of the enclosing product of free groups along the test family
``h_n = ([x^n, y^n], 1)``.
"""

from __future__ import annotations

from array import array
from typing import (Callable, Collection, Dict, List, NamedTuple,
                    Optional, Sequence, Tuple)

from . import _wordops_py as ops
from .words import _MAX_LETTERS, commutator, signed_permutations
from .kernels import (
    GeneratingSet,
    KernelGroup,
    ProductElement,
    contains,
    standard_generators,
)

# A ball key: the reduced factor words joined by SEP, the first inverted.
# Letter bytes are at most 2 * words._MAX_RANK - 1 = 253, so SEP is never a
# letter, the join is injective, and no letter c cancels SEP (c ^ 255 != 1).
Key = bytes
SEP = b"\xff"


def ball_key(g: ProductElement) -> Key:
    """The ball search's key for ``g``: ``invert(f0) + SEP + f1 [+ SEP +
    ...]`` for its reduced factor words ``f0, f1, ...``.  Inverting the
    first factor puts both ends of the key where moves act on it (see
    ``_step_plan``)."""
    f = g.key()
    return SEP.join((ops.invert(f[0]),) + f[1:])


def _key_factors(key: Key) -> Tuple[bytes, ...]:
    """The reduced factor words of a ball key, ``ProductElement.key()``'s
    tuple; the inverse of ``ball_key``."""
    f = key.split(SEP)
    f[0] = ops.invert(f[0])
    return tuple(f)


class DistanceResult(NamedTuple):
    """Outcome of a distance search.

    ``found`` tells whether the target was met within ``radius``.  When it
    was, ``value`` is the exact geodesic distance, and ``explored`` counts
    the distinct elements the meet in the middle stored: those of the
    ball around the identity and of the ball around the target, the
    meeting element once (1 when the target is the identity).  Otherwise
    ``value`` equals ``radius`` and certifies ``distance > radius``, and
    ``explored`` is the size of the whole ball of that radius, which was
    counted one symmetry orbit at a time.
    """

    found: bool
    value: int
    radius: int
    explored: int

    def describe(self) -> str:
        if self.found:
            return "distance = %d" % self.value
        return "distance > %d (ball of %d elements exhausted)" % (
            self.value,
            self.explored,
        )


def _moves(gens: GeneratingSet) -> List[Tuple[bytes, ...]]:
    """Generator realizations as factor-word tuples, in a fixed order, each
    followed by its inverse (the pairing ``_step_plan`` requires)."""
    out: List[Tuple[bytes, ...]] = []
    for sym in gens.symbols:
        key = gens.realization[sym].key()
        out.append(key)
        out.append(tuple(map(ops.invert, key)))
    return out


# per move: its index and its step, which maps a ball key to the key of the
# element times the move
Plan = List[Tuple[int, Callable[[Key], Key]]]


def _step_plan(ident: Key, moves: Sequence[Tuple[bytes, ...]], radius: int
               ) -> Plan:
    """Check a search's inputs and build its step plan.

    A move is a tuple of factor words, one per factor of ``ident``, and the
    child of ``g`` along it replaces each factor ``f`` by the reduced
    ``f * w``.  Moves come in inverse pairs: ``moves[i ^ 1]`` must be the
    factorwise inverse of ``moves[i]``, else ``ValueError``.

    The plan holds one step per move, ``ball_key(g)`` to
    ``ball_key(g * move)``.  In the key the first factor is inverted, so
    its word ``w0`` acts as the left factor ``invert(w0)`` on the key's
    left end, and the last factor's word on its right end:
    ``ops.two_sided_step`` does both in one call, and ``SEP`` keeps the
    two ends apart.  Only a move that changes a middle factor (a key of
    three or more factors) splits the key, steps those factors and joins
    it again (``_middle_step``).
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if len(moves) % 2:
        raise ValueError("moves must come in inverse pairs")
    width = ident.count(SEP) + 1
    for i, mv in enumerate(moves):
        if len(mv) != width:
            raise ValueError("move %d has %d factors, the identity %d"
                             % (i, len(mv), width))
        if tuple(map(ops.invert, mv)) != tuple(moves[i ^ 1]):
            raise ValueError("move %d is not the inverse of move %d"
                             % (i ^ 1, i))
    plan: Plan = []
    for i, mv in enumerate(moves):
        step = ops.two_sided_step(ops.invert(mv[0]),
                                  mv[-1] if width > 1 else b"")
        middle = [(k, ops.two_sided_step(b"", w))
                  for k, w in enumerate(mv[1:-1], 1) if w]
        plan.append((i, _middle_step(step, middle) if middle else step))
    return plan


def _middle_step(ends: Callable[[Key], Key],
                 middle: List[Tuple[int, Callable[[bytes], bytes]]]
                 ) -> Callable[[Key], Key]:
    """A step that applies ``ends`` to the key's two ends, then each
    ``(k, step)`` of ``middle`` to the key's factor ``k``."""
    def step(key: Key) -> Key:
        f = ends(key).split(SEP)
        for k, right in middle:
            f[k] = right(f[k])
        return SEP.join(f)
    return step


# a letter symmetry: its translate table, and the move index each move maps to
Symmetry = Tuple[bytes, Tuple[int, ...]]


def _symmetries(moves: Sequence[Tuple[bytes, ...]]) -> List[Symmetry]:
    """The nontrivial letter symmetries of a move list.

    A signed permutation of the letters, sending generator ``j`` to
    generator ``p(j)`` or its inverse and applied to every factor, is an
    automorphism of the product of free groups that maps reduced words to
    reduced words.  When it maps the set of moves onto itself it is an
    automorphism of the Cayley graph that fixes the identity:
    ``s(g * m) = s(g) * s(m)``.  Each such map is returned once per
    permutation of the moves it induces, as ``(table, perm)``: the
    ``bytes.translate`` table of its letters (every other byte, ``SEP``
    included, is fixed) and ``perm[i]``, the index of the image of
    ``moves[i]``.  The induced permutations form a group, of which the
    identity is left out.  As ``moves[i ^ 1]`` is the inverse of
    ``moves[i]`` and no move repeats, ``perm[i ^ 1] == perm[i] ^ 1``.

    The rank is read from the moves' largest letter, and the candidates
    are ``signed_permutations(rank)``, only the identity above
    ``words._SYMMETRY_RANK``.  There, and for a move list with a repeated
    move, the list is empty, which leaves every count exact.  The moves
    must be checked by ``_step_plan`` first.
    """
    index = {mv: i for i, mv in enumerate(moves)}
    rank = max((c for mv in moves for w in mv for c in w), default=-1) // 2 + 1
    if len(index) != len(moves):
        return []
    perms = {tuple(range(len(moves)))}
    out: List[Symmetry] = []
    for table in signed_permutations(rank):
        mapped = [tuple(w.translate(table) for w in mv) for mv in moves]
        if set(mapped) != index.keys():
            continue
        perm = tuple(index[mv] for mv in mapped)
        if perm not in perms:
            perms.add(perm)
            out.append((table, perm))
    return out


class _Side:
    """One breadth-first search from ``root``, grown a shell at a time.

    ``depths`` maps every element seen to its exact distance from ``root``,
    in discovery order, and ``shells[k]`` is the size of shell ``k`` once
    it is complete.  ``frontier`` is the last complete shell, at ``depth``,
    and ``backs[j]`` the index of the move from ``frontier[j]`` back to its
    parent, which the search skips: it leads to an element already seen,
    so the skip changes no outcome.  A shell at ``radius`` is never
    expanded, so it is not kept.

    Each child is one call of its move's step (``_step_plan``) on the
    parent's key.  ``_meet`` runs two sides; ``ball_profile`` and
    ``_ball_search`` grow one to its radius.

    With symmetries (``_symmetries`` of the moves, and ``root`` the
    identity, which they fix), the search stores one element per orbit:
    each child ``h`` is replaced by its least image ``s(h)`` over the
    group, and a new one adds its orbit's size to its shell, the group
    order over the number of maps that send ``h`` to ``s(h)``.  This
    counts every element.  The maps are graph automorphisms fixing the
    identity, so they keep distances to it and an orbit lies within one
    shell.  Every ``h`` in shell ``k + 1`` is ``g * m`` for some ``g`` in
    shell ``k`` and move ``m`` (``S_(k+1) = S_k * M - B(k)``); with
    ``g = t(r)`` for a stored ``r`` and a map ``t``, ``t^-1(h) =
    r * t^-1(m)`` is a child of ``r``, so expanding the stored elements
    alone reaches every orbit of shell ``k + 1``.  The move from ``s(h)``
    back to ``s(r)`` is ``s(moves[i ^ 1])``, index ``perm[i] ^ 1``, and is
    skipped as before.  A map acts on a key by ``bytes.translate``: a
    signed letter map commutes with ``invert``, so the translated key is
    the image's key, its first factor still inverted.
    """

    __slots__ = ("plan", "radius", "syms", "depths", "depth", "frontier",
                 "backs", "shells")

    def __init__(self, plan: Plan, root: Key, radius: int,
                 syms: Sequence[Symmetry] = ()) -> None:
        self.plan = plan
        self.radius = radius
        self.syms = syms
        self.depths = {root: 0}
        self.depth = 0
        self.frontier = [root]
        # one byte per move index where they fit; len(plan) marks the
        # root, which has no parent
        self.backs = array("B" if len(plan) < 256 else "L", [len(plan)])
        self.shells = [1]

    def expand(self, stop: Collection[Key]) -> Optional[Key]:
        """Discover the next shell, stopping at the first new element that
        lies in ``stop`` and returning it (the side is then left mid-shell);
        ``None`` once the shell is complete."""
        depth = self.depth = self.depth + 1
        grow = depth < self.radius
        plan, depths, syms = self.plan, self.depths, self.syms
        order = len(syms) + 1
        seen = len(depths)
        size = 0
        nxt: List[Key] = []
        nxt_backs = array(self.backs.typecode)
        for g, back in zip(self.frontier, self.backs):
            for i, step in plan:
                if i == back:
                    continue
                h = step(g)
                if syms:
                    # the least image c, the move index leading to it, and
                    # how many maps send h to c
                    c, j, fixed = h, i, 1
                    for t, perm in syms:
                        x = h.translate(t)
                        if x < c:
                            c, j, fixed = x, perm[i], 1
                        elif x == c:
                            fixed += 1
                    if c in depths:
                        continue
                    h, i = c, j
                    size += order // fixed
                elif h in depths:
                    continue
                depths[h] = depth
                if h in stop:
                    return h
                if grow:
                    nxt.append(h)
                    nxt_backs.append(i ^ 1)
        self.frontier, self.backs = nxt, nxt_backs
        self.shells.append(size if syms else len(depths) - seen)
        return None

    def grow(self) -> None:
        """Expand shells up to ``radius``, or until one is empty."""
        while self.depth < self.radius and self.frontier:
            self.expand(())


def _ball_search(ident: Key, moves: Sequence[Tuple[bytes, ...]],
                 radius: int) -> Dict[Key, int]:
    """Breadth-first enumeration of the ball around ``ident``.

    States are ball keys (``ball_key``), and ``moves`` are checked and
    planned by ``_step_plan``.  Returns ``depths``, which maps every
    element of the ball to its exact distance, in discovery order.  The
    enumeration is serial and the move order fixed, so outcomes are
    deterministic.
    """
    side = _Side(_step_plan(ident, moves, radius), ident, radius)
    side.grow()
    return side.depths


def _meet(plan: Plan, ident: Key, target: Key, radius: int
          ) -> Tuple[Optional[int], int]:
    """Meet-in-the-middle distance from ``ident`` to ``target``.

    Two ``_Side`` searches use the same right-multiplication moves, as
    planned by ``_step_plan``: a forward one from ``ident`` and a backward
    one from ``target``.  The moves come in inverse pairs, so the
    Cayley graph is undirected and the backward side's depths are
    distances to ``target``.  Each step expands one shell of the side
    whose frontier is smaller (the forward side on ties) and stops at the
    first new element already in the other side's ``depths``.

    Exactness: a new element is checked against the other side when it is
    stored, so before a step the two dicts are disjoint.  The forward side
    then holds every element within ``a`` of ``ident`` and the backward
    side every element within ``b`` of ``target``; were ``d <= a + b``,
    the point at distance ``min(a, d)`` along a geodesic would lie in
    both.  So ``d > a + b``, and a new forward element at depth ``a + 1``
    seen by the backward side at depth ``b' <= b`` gives a path of length
    ``a + 1 + b' <= a + 1 + b <= d``; no path is shorter than ``d``, so
    the distance is exactly ``a + 1 + b'`` (the same for a backward
    step).  The search stops without a meeting when the depth sum reaches
    ``radius``, which proves ``d > radius``, or when either frontier
    empties, which proves ``target`` unreachable.

    Returns ``(hit, explored)``: ``hit`` is the distance, or ``None``
    without a meeting; ``explored`` counts the distinct elements the two
    sides stored, ``len(forward) + len(backward) - 1`` at a meeting, since
    the two share only the meeting element, and 1 when ``target`` is
    ``ident``.
    """
    fwd, bwd = _Side(plan, ident, radius), _Side(plan, target, radius)
    if target == ident:
        return 0, 1
    while fwd.depth + bwd.depth < radius and fwd.frontier and bwd.frontier:
        side, other = ((fwd, bwd) if len(fwd.frontier) <= len(bwd.frontier)
                       else (bwd, fwd))
        hit = side.expand(other.depths)
        if hit is not None:
            return (side.depth + other.depths[hit],
                    len(fwd.depths) + len(bwd.depths) - 1)
    return None, len(fwd.depths) + len(bwd.depths)


def _identity_key(gens: GeneratingSet) -> Key:
    """``ball_key`` of the identity: ``n`` empty factor words."""
    return SEP * (gens.group.n - 1)


def distance(
    gens: GeneratingSet, target: ProductElement, max_radius: int
) -> DistanceResult:
    """Exact word-metric distance from the identity, or a ``> r`` certificate.

    A meet in the middle (``_meet``) grows one ball around the identity
    and one around the target, each to about half the distance, and
    reports the distance where they first share an element; ``explored``
    then counts the distinct elements the two balls hold.  Without a
    meeting, the identity's ball of radius ``max_radius`` is counted one
    symmetry orbit at a time (``ball_profile``), so the ``distance > r``
    certificate reports, as ``explored``, the size of the whole ball it
    rests on.

    The caller is responsible for the target actually lying in the
    subgroup generated by ``gens``; for targets outside it the search can
    only ever produce the exhaustion certificate.
    """
    if target.n != gens.group.n or target.m != gens.group.m:
        raise ValueError("target has the wrong ambient product shape")
    ident = _identity_key(gens)
    hit, explored = _meet(_step_plan(ident, _moves(gens), max_radius),
                          ident, ball_key(target), max_radius)
    if hit is not None:
        return DistanceResult(True, hit, max_radius, explored)
    return DistanceResult(False, max_radius, max_radius,
                          sum(ball_profile(gens, max_radius)))


def ball_profile(gens: GeneratingSet, radius: int) -> List[int]:
    """Shell sizes ``[1, s_1, ..., s_radius]`` of the Cayley ball.

    The list stops early at the first empty shell (a finite subgroup).
    The shells are counted one orbit of the moves' letter symmetries at a
    time (see ``_Side``).
    """
    ident, moves = _identity_key(gens), _moves(gens)
    side = _Side(_step_plan(ident, moves, radius), ident, radius,
                 _symmetries(moves))
    side.grow()
    shells = side.shells
    if shells[-1] == 0:
        shells.pop()
    return shells


def distance_map(gens: GeneratingSet, radius: int
                 ) -> Dict[Tuple[bytes, ...], int]:
    """All elements of the radius-``radius`` ball with exact distances.

    Keys are ``ProductElement.key()`` tuples, in discovery order.  Useful
    for property checks (symmetry, triangle inequality) that need many
    distances at once rather than one target.
    """
    depths = _ball_search(_identity_key(gens), _moves(gens), radius)
    return {_key_factors(key): d for key, d in depths.items()}


def ambient_length(g: ProductElement) -> int:
    """Word length of ``g`` in the standard generators of the product.

    Each standard generator moves exactly one coordinate by one letter,
    so the ambient geodesic length is the sum of reduced factor lengths.
    """
    return g.total_length()


def _check_h_index(n: int) -> None:
    if n < 1:
        raise ValueError("h_n is defined for n >= 1")
    if 4 * n > _MAX_LETTERS:
        raise ValueError(f"h_{n} is too long (limit {_MAX_LETTERS} letters)")


def h_family(n: int, group: Optional[KernelGroup] = None) -> ProductElement:
    """The distortion test element ``h_n = ([x^n, y^n], 1)``.

    Lives in the kernel of the rank-2 map on a product of two rank-2
    free groups; raises ``ValueError`` for ``n < 1``, and when its 4n
    letters exceed the parser's word-length cap.
    """
    _check_h_index(n)
    if group is None:
        group = KernelGroup(2, 2, 2)
    if (group.n, group.m, group.r) != (2, 2, 2):
        raise ValueError("h_n lives in the two-factor rank-2 full kernel")
    free = group.factor_group()
    x, y = free.gen(1), free.gen(2)
    w = commutator(x ** n, y ** n)
    g = ProductElement((w, free.identity))
    if not contains(group, g):
        raise ValueError("h_n must lie in the kernel")
    return g


class DistortionRow(NamedTuple):
    n: int
    ambient_length: int
    status: str  # "exact" or "lower-bound"
    value: int


def distortion_table(n_range: Sequence[int], radius_budget: int
                     ) -> List[DistortionRow]:
    """Distortion evidence for the family ``h_n``.

    For each ``n``, reports the exact subgroup distance when a meet in the
    middle (``_meet``) finds ``h_n`` within ``radius_budget``, and
    otherwise the certified lower bound ``distance >= radius_budget + 1``.
    The ambient length of ``h_n`` is ``4n``, so ``h_n`` is built, and
    searched for, only when it is short enough to lie in the ball.  The
    word-length cap is checked on the largest ``n`` first, so a range past
    it fails at once.
    """
    if n_range:
        # a range's largest element is one of its ends: max() need not
        # walk (or build) the whole range
        ends = ((n_range[0], n_range[-1]) if isinstance(n_range, range)
                else n_range)
        _check_h_index(max(ends))
    gens = standard_generators(KernelGroup(2, 2, 2))
    ident, moves = _identity_key(gens), _moves(gens)
    plan = _step_plan(ident, moves, radius_budget)
    # a ball element is at most radius * (longest move) letters long
    reach = radius_budget * max(sum(map(len, mv)) for mv in moves)
    rows: List[DistortionRow] = []
    for n in n_range:
        d = None
        if 4 * n <= reach:
            d = _meet(plan, ident, ball_key(h_family(n, gens.group)),
                      radius_budget)[0]
        if d is not None:
            rows.append(DistortionRow(n, 4 * n, "exact", d))
        else:
            rows.append(DistortionRow(n, 4 * n, "lower-bound",
                                      radius_budget + 1))
    return rows
