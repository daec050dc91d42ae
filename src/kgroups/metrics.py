"""Word metrics on kernel subgroups and distortion experiments.

The intrinsic metric ``d_B`` on a subgroup is computed by breadth-first
search over the implicit Cayley graph: a state is one ``bytes`` key, the
element's reduced factor words joined by the separator byte ``SEP``, and
an edge is right multiplication by a generator or its inverse.  Each
search first builds a step plan: for every move, the factors it changes,
each with a step specialised to the move's word there (the word kernel's
``right_step``), so an edge touches only those factors and builds no group
objects.  Moves come in inverse pairs, ``moves[i ^ 1]`` undoing
``moves[i]``; the search checks this and never takes the move back to a
node's parent, whose result it has already seen.  Equality of states is
componentwise free equality, which is exact and cheap, so no quotient
trickery is needed.  One search serves ``distance``, ``ball_profile``,
``distance_map`` and ``distortion_table``.

A failed search is still a certificate: if the ball of radius ``r`` is
exhausted without meeting the target, the distance is provably ``> r``.
Reports preserve that logical shape instead of guessing.

The distortion experiments compare ``d_B`` against the ambient word
metric of the enclosing product of free groups along the test family
``h_n = ([x^n, y^n], 1)``.
"""

from __future__ import annotations

from array import array
from typing import (Collection, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import _wordops_py as ops
from .words import _MAX_LETTERS, commutator
from .kernels import (
    GeneratingSet,
    KernelGroup,
    ProductElement,
    contains,
    identity_element,
    standard_generators,
)

# A ball key: the reduced factor words joined by SEP.  Letter bytes are at
# most 2 * words._MAX_RANK - 1 = 253, so SEP is never a letter and the join
# is injective.
Key = bytes
SEP = b"\xff"


def ball_key(g: ProductElement) -> Key:
    """The ball search's key for ``g``."""
    return SEP.join(g.key())


class DistanceResult(NamedTuple):
    """Outcome of a ball search.

    ``found`` tells whether the target was met within ``radius``.  When it
    was, ``value`` is the exact geodesic distance; otherwise ``value``
    equals ``radius`` and certifies ``distance > radius`` (the whole ball
    was enumerated).  ``explored`` counts distinct elements seen.
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
    followed by its inverse (the pairing ``_ball_search`` requires)."""
    out: List[Tuple[bytes, ...]] = []
    for sym in gens.symbols:
        g = gens.realization[sym]
        out.append(g.key())
        out.append((~g).key())
    return out


def _ball_search(
    ident: Key,
    moves: Sequence[Tuple[bytes, ...]],
    radius: int,
    targets: Collection[Key] = (),
) -> Tuple[Dict[Key, int], Optional[int], int]:
    """Breadth-first enumeration of the ball around ``ident``.

    States are joined keys (see ``SEP``); a move is a tuple of factor
    words, one per factor of ``ident``, and the child of ``g`` along it
    replaces each factor ``f`` by the reduced ``f * w``.  Moves come in
    inverse pairs: ``moves[i ^ 1]`` must be the factorwise inverse of
    ``moves[i]``, else ``ValueError``.  The search first builds a step
    plan, listing for each move only the factors it changes, each with an
    ``ops.right_step`` for the move's word there.  It keeps, next to each
    frontier key, the index of the move back to its parent and skips that
    move: it leads to an element already seen, so the skip changes no
    outcome.

    Returns ``(depths, hit, explored)``: ``depths`` maps every element seen
    to its exact distance, in discovery order, and ``explored`` is its
    size.  A search with targets stops the moment the last of them is
    seen, so ``depths`` then holds only part of the last shell; ``hit`` is
    that target's depth, and ``None`` when there are no targets or some
    target lies outside the ball.
    The enumeration is serial and the move order fixed, so outcomes are
    deterministic.
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
    plan = [(i, [(k, ops.right_step(w)) for k, w in enumerate(mv) if w])
            for i, mv in enumerate(moves)]
    depths = {ident: 0}
    left = set(targets)
    left.discard(ident)
    if targets and not left:
        return depths, 0, 1
    join = SEP.join
    # backs[j] is the index of the move from frontier[j] back to its parent,
    # held one byte per key where the move indices fit; len(moves) marks
    # the root, which has no parent
    code = "B" if len(moves) < 256 else "L"
    frontier, backs = [ident], array(code, [len(moves)])
    for depth in range(1, radius + 1):
        # the last shell is never expanded, so it is not kept
        grow = depth < radius
        nxt: List[Key] = []
        nxt_backs = array(code)
        for g, back in zip(frontier, backs):
            factors = g.split(SEP)
            for i, steps in plan:
                if i == back:
                    continue
                f = factors.copy()
                for k, step in steps:
                    f[k] = step(f[k])
                h = join(f)
                if h in depths:
                    continue
                depths[h] = depth
                if h in left:
                    left.remove(h)
                    if not left:
                        return depths, depth, len(depths)
                if grow:
                    nxt.append(h)
                    nxt_backs.append(i ^ 1)
        if not nxt:
            break
        frontier, backs = nxt, nxt_backs
    return depths, None, len(depths)


def _ball(gens: GeneratingSet, radius: int, targets: Collection[Key] = ()
          ) -> Tuple[Dict[Key, int], Optional[int], int]:
    ident = ball_key(identity_element(gens.group.n, gens.group.m))
    return _ball_search(ident, _moves(gens), radius, targets)


def distance(
    gens: GeneratingSet, target: ProductElement, max_radius: int
) -> DistanceResult:
    """Exact word-metric distance from the identity, or a ``> r`` certificate.

    The caller is responsible for the target actually lying in the
    subgroup generated by ``gens``; for targets outside it the search can
    only ever produce the exhaustion certificate.
    """
    if target.n != gens.group.n or target.m != gens.group.m:
        raise ValueError("target has the wrong ambient product shape")
    _, hit, explored = _ball(gens, max_radius, (ball_key(target),))
    if hit is not None:
        return DistanceResult(True, hit, max_radius, explored)
    return DistanceResult(False, max_radius, max_radius, explored)


def ball_profile(gens: GeneratingSet, radius: int) -> List[int]:
    """Shell sizes ``[1, s_1, ..., s_radius]`` of the Cayley ball.

    The list stops early at the first empty shell (a finite subgroup).
    """
    depths, _, _ = _ball(gens, radius)
    shells = [0] * (max(depths.values()) + 1)
    for d in depths.values():
        shells[d] += 1
    return shells


def distance_map(gens: GeneratingSet, radius: int
                 ) -> Dict[Tuple[bytes, ...], int]:
    """All elements of the radius-``radius`` ball with exact distances.

    Keys are ``ProductElement.key()`` tuples, in discovery order.  Useful
    for property checks (symmetry, triangle inequality) that need many
    distances at once rather than one target.
    """
    depths, _, _ = _ball(gens, radius)
    return {tuple(key.split(SEP)): d for key, d in depths.items()}


def ambient_length(g: ProductElement) -> int:
    """Word length of ``g`` in the standard generators of the product.

    Each standard generator moves exactly one coordinate by one letter,
    so the ambient geodesic length is the sum of reduced factor lengths.
    """
    return sum(len(w.data) for w in g.factors)


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


def distortion_table(n_range: Iterable[int], radius_budget: int
                     ) -> List[DistortionRow]:
    """Distortion evidence for the family ``h_n``.

    For each ``n``, reports the exact subgroup distance when the ball
    search finds ``h_n`` within ``radius_budget``, and otherwise the
    certified lower bound ``distance >= radius_budget + 1``.  One search
    serves every ``n``: it stops once all the ``h_n`` are met.  The
    word-length cap is checked on the largest ``n`` before any ``h_n`` is
    built, so a range past it fails at once.
    """
    n_range = list(n_range)
    if n_range:
        _check_h_index(max(n_range))
    gens = standard_generators(KernelGroup(2, 2, 2))
    # a ball element is at most radius * (longest move) letters long, so a
    # longer h_n lies outside the ball and its key need not be kept
    reach = radius_budget * max(sum(map(len, mv)) for mv in _moves(gens))
    sized: List[Tuple[int, int, Optional[Key]]] = []
    for n in n_range:
        h = h_family(n, gens.group)
        length = ambient_length(h)
        sized.append((n, length, ball_key(h) if length <= reach else None))
    if not sized:
        return []
    depths, _, _ = _ball(gens, radius_budget,
                         {key for _, _, key in sized if key is not None})
    rows: List[DistortionRow] = []
    for n, length, key in sized:
        d = depths.get(key)
        if d is not None:
            rows.append(DistortionRow(n, length, "exact", d))
        else:
            rows.append(DistortionRow(n, length, "lower-bound",
                                      radius_budget + 1))
    return rows
