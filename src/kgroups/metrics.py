"""Word metrics on kernel subgroups and distortion experiments.

The intrinsic metric ``d_B`` on a subgroup is computed by breadth-first
search over the implicit Cayley graph: states are raw keys (tuples of
reduced factor words as bytes), and an edge is right multiplication by a
generator or its inverse, done factor by factor with the word kernel's
``concat``, so the search builds no group objects per edge.  Equality of
states is componentwise free equality, which is exact and cheap, so no
quotient trickery is needed.  One search serves ``distance``,
``ball_profile`` and ``distance_map``.

A failed search is still a certificate: if the ball of radius ``r`` is
exhausted without meeting the target, the distance is provably ``> r``.
Reports preserve that logical shape instead of guessing.

The distortion experiments compare ``d_B`` against the ambient word
metric of the enclosing product of free groups along the test family
``h_n = ([x^n, y^n], 1)``.
"""

from __future__ import annotations

import io
import csv
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import _wordops_py as ops
from .words import commutator
from .kernels import (
    GeneratingSet,
    KernelGroup,
    ProductElement,
    contains,
    identity_element,
    standard_generators,
)

Key = Tuple[bytes, ...]


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


def _moves(gens: GeneratingSet) -> List[Key]:
    """Keys of the generator realizations and their inverses, in a fixed order."""
    out: List[Key] = []
    for sym in gens.symbols:
        g = gens.realization[sym]
        out.append(g.key())
        out.append((~g).key())
    return out


def _ball_search(
    ident: Key,
    moves: Sequence[Key],
    radius: int,
    target_key: Optional[Key],
) -> Tuple[Dict[Key, int], Optional[int], int]:
    """Breadth-first enumeration of the ball around ``ident``.

    States are keys; the child of ``g`` along a move is the factorwise
    reduced concatenation of ``g`` and the move's key.  Returns
    ``(depths, hit_depth, explored)``: ``depths`` maps every element seen
    to its exact distance, in discovery order, and ``explored`` is its
    size.  A search with a target stops the moment the target is seen, so
    ``depths`` then holds only part of the last shell.  The enumeration
    is serial and the move order fixed, so outcomes are deterministic.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    depths = {ident: 0}
    if target_key == ident:
        return depths, 0, 1
    concat = ops.concat
    frontier = [ident]
    for depth in range(1, radius + 1):
        nxt: List[Key] = []
        for g in frontier:
            for mv in moves:
                h = tuple(map(concat, g, mv))
                if h in depths:
                    continue
                depths[h] = depth
                if h == target_key:
                    return depths, depth, len(depths)
                nxt.append(h)
        if not nxt:
            break
        frontier = nxt
    return depths, None, len(depths)


def _ball(gens: GeneratingSet, radius: int, target_key: Optional[Key] = None
          ) -> Tuple[Dict[Key, int], Optional[int], int]:
    ident = identity_element(gens.group.n, gens.group.m).key()
    return _ball_search(ident, _moves(gens), radius, target_key)


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
    _, hit, explored = _ball(gens, max_radius, target.key())
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


def distance_map(gens: GeneratingSet, radius: int) -> Dict[Key, int]:
    """All elements of the radius-``radius`` ball with exact distances.

    Useful for property checks (symmetry, triangle inequality) that need
    many distances at once rather than one target.
    """
    depths, _, _ = _ball(gens, radius)
    return depths


def ambient_length(g: ProductElement) -> int:
    """Word length of ``g`` in the standard generators of the product.

    Each standard generator moves exactly one coordinate by one letter,
    so the ambient geodesic length is the sum of reduced factor lengths.
    """
    return sum(len(w.data) for w in g.factors)


def h_family(n: int, group: Optional[KernelGroup] = None) -> ProductElement:
    """The distortion test element ``h_n = ([x^n, y^n], 1)``.

    Lives in the kernel of the rank-2 map on a product of two rank-2
    free groups; raises ``ValueError`` for ``n < 1``.
    """
    if n < 1:
        raise ValueError("h_n is defined for n >= 1")
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


def distortion_table(
    n_range: Iterable[int],
    radius_budget: int,
    gens: Optional[GeneratingSet] = None,
) -> List[DistortionRow]:
    """Distortion evidence for the family ``h_n``.

    For each ``n``, reports the exact subgroup distance when the ball
    search finds ``h_n`` within ``radius_budget``, and otherwise the
    certified lower bound ``distance >= radius_budget + 1``.
    """
    if gens is None:
        gens = standard_generators(KernelGroup(2, 2, 2))
    rows: List[DistortionRow] = []
    for n in n_range:
        h = h_family(n, gens.group)
        res = distance(gens, h, radius_budget)
        if res.found:
            rows.append(DistortionRow(n, ambient_length(h), "exact", res.value))
        else:
            rows.append(
                DistortionRow(n, ambient_length(h), "lower-bound", res.radius + 1)
            )
    return rows


def distortion_csv(rows: Sequence[DistortionRow]) -> str:
    """Render distortion rows as CSV with a fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "ambient_length", "status", "value"])
    for row in rows:
        writer.writerow([row.n, row.ambient_length, row.status, row.value])
    return buf.getvalue()
