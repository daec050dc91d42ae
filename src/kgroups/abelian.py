"""Homomorphisms from a free factor onto Z^r, as integer matrices.

A FactorHom sends generator e_j to an integer vector (the coefficients of
t_1..t_r).  The interesting algorithm here is normalize_basis: integer
column elimination on the matrix of images, where every elementary row
move is mirrored by a Nielsen transformation of the free-group basis, so
the output is a genuine new basis of the free group on which the map takes
the standard shape (e_i -> t_i for i <= r, -> 0 above).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from . import _wordops_py as ops
from .words import FreeGroup, Word, inv, mul, substitute

AbelianVector = Tuple[int, ...]

# A Nielsen move, 1-based indices:
#   ("swap", i, j)        exchange basis elements i and j
#   ("invert", i)         replace b_i by b_i^-1
#   ("mult", i, j, s)     replace b_i by b_i * b_j^s   (s = +1 or -1, i != j)
# Moves travel as runs (move, t): t >= 1 equal moves in a row.  apply_moves
# rejects a move that breaks these rules or a t that is not a positive int,
# and meets the 2^20-letter cap through the power it takes for each run
# (Word.__pow__).
NielsenMove = Tuple


class FactorHom:
    """A homomorphism from a rank-m free group to Z^r, by generator images."""

    __slots__ = ("rank", "target_rank", "images")

    def __init__(self, rank: int, target_rank: int,
                 images: Sequence[Sequence[int]]):
        if rank < 1 or target_rank < 0:
            raise ValueError("need rank >= 1 and target rank >= 0")
        if len(images) != rank:
            raise ValueError(f"expected {rank} generator images, got {len(images)}")
        rows = tuple(map(tuple, images))
        for row in rows:
            if len(row) != target_rank:
                raise ValueError(f"image rows must have length {target_rank}")
            # int() would truncate 1.5 and read "1"; bools are not entries
            if not all(type(v) is int for v in row):
                raise ValueError(f"image entries must be ints, got {list(row)}")
        self.rank = rank
        self.target_rank = target_rank
        self.images = rows

    def __eq__(self, other):
        return (isinstance(other, FactorHom) and self.rank == other.rank
                and self.target_rank == other.target_rank
                and self.images == other.images)

    def __hash__(self):
        return hash((self.rank, self.target_rank, self.images))

    def __repr__(self):
        return f"FactorHom({self.rank}, {self.target_rank}, {list(map(list, self.images))})"

    def is_standard(self) -> bool:
        """True when e_j -> t_j for j <= r and e_j -> 0 for j > r."""
        return self == standard_hom(self.rank, self.target_rank)


def standard_hom(m: int, r: int) -> FactorHom:
    """e_j -> t_j for j <= r, and e_j -> 0 for j > r."""
    if r > m:
        raise ValueError("target rank cannot exceed the free rank")
    rows = [[1 if j == c else 0 for c in range(r)] for j in range(m)]
    return FactorHom(m, r, rows)


def ab_image(h: FactorHom, w: Word) -> AbelianVector:
    """Image of a word: its exponent sums times the generator images."""
    if w.group.rank != h.rank:
        raise ValueError(f"rank mismatch: word has {w.group.rank}, hom has {h.rank}")
    return data_image(h, w.data)


def data_image(h: FactorHom, data: bytes) -> AbelianVector:
    """Image of the letters in ``data``, reduced or not, under ``h``: the
    image is additive, so a join of several words maps to the sum of
    their images."""
    out = [0] * h.target_rank
    for k, row in zip(ops.exponent_sums(data, range(h.rank)), h.images):
        if k:
            for c, v in enumerate(row):
                out[c] += k * v
    return tuple(out)


def _eliminate(rows: List[List[int]], r: int) -> Optional[List[Tuple]]:
    """Column-by-column gcd elimination of ``rows`` in place.

    Returns the row operations in order as (move, times) runs, read as
    Nielsen moves via
        row_i <- row_i + s*row_j   <=>   b_i <- b_i * b_j^s
        negate row_i               <=>   b_i <- b_i^-1
        swap rows i, j             <=>   swap b_i, b_j
    (ab_image is a homomorphism, so each of these preserves "rows = images
    of the current basis").  After column c is finished, that column is the
    c-th unit vector; earlier columns stay untouched because row c has
    zeros there.  Returns None if some column's residual gcd is not 1,
    which is exactly failure of surjectivity.
    """
    m, runs = len(rows), []
    for c in range(r):
        while True:
            live = [i for i in range(c, m) if rows[i][c] != 0]
            if not live:
                return None
            p = min(live, key=lambda i: (abs(rows[i][c]), i))
            if rows[p][c] < 0:
                rows[p] = [-v for v in rows[p]]
                runs.append((("invert", p + 1), 1))
            if len(live) == 1:
                break
            for i in live:
                if i != p:
                    k = rows[i][c] // rows[p][c]
                    rows[i] = [a - k * b for a, b in zip(rows[i], rows[p])]
                    runs.append((("mult", i + 1, p + 1, -1 if k > 0 else 1), abs(k)))
        if rows[p][c] != 1:
            return None
        if p != c:
            rows[p], rows[c] = rows[c], rows[p]
            runs.append((("swap", p + 1, c + 1), 1))
        for i in range(c):   # rows below c are already 0 in column c
            k = rows[i][c]
            if k:
                rows[i] = [a - k * b for a, b in zip(rows[i], rows[c])]
                runs.append((("mult", i + 1, c + 1, -1 if k > 0 else 1), abs(k)))
    return runs


def is_surjective(h: FactorHom) -> bool:
    """Do the generator images span all of Z^r?"""
    return _eliminate([list(row) for row in h.images], h.target_rank) is not None


def apply_moves(group: FreeGroup, runs: Sequence[Tuple[NielsenMove, int]]
                ) -> Tuple[Word, ...]:
    """Run a sequence of Nielsen move runs from the standard basis.

    Each run (move, t) is applied at once: t copies of ("mult", i, j, s)
    give b_i * b_j^(s t), and swap and invert, being involutions, apply
    once when t is odd and not at all when it is even.
    """
    basis = [group.gen(j) for j in range(1, group.rank + 1)]
    for move, t in runs:
        if type(t) is not int or t < 1:     # no bool, no float
            raise ValueError(f"run count must be a positive int, got {t!r}")
        # a 0 or negative index would wrap to the end of the basis
        if not all(1 <= i <= group.rank for i in move[1:3]):
            raise ValueError(f"move index out of range 1..{group.rank}: {move!r}")
        if move[0] == "swap":
            _, i, j = move
            if t % 2:
                basis[i - 1], basis[j - 1] = basis[j - 1], basis[i - 1]
        elif move[0] == "invert":
            if t % 2:
                basis[move[1] - 1] = inv(basis[move[1] - 1])
        elif move[0] == "mult":
            _, i, j, s = move
            if i == j or s not in (1, -1):
                raise ValueError(f"not a Nielsen move: {move!r}")
            basis[i - 1] = mul(basis[i - 1], basis[j - 1] ** (s * t))
        else:
            raise ValueError(f"unknown move {move!r}")
    return tuple(basis)


def invert_moves(runs: Sequence[Tuple[NielsenMove, int]]
                 ) -> List[Tuple[NielsenMove, int]]:
    """The runs undoing `runs`: reversed, each mult's sign flipped."""
    out = []
    for move, t in reversed(runs):
        if move[0] == "mult":   # swap and invert are involutions
            _, i, j, s = move
            move = ("mult", i, j, -s)
        out.append((move, t))
    return out


class BasisChange:
    """Result of normalize_basis: the move runs plus both bases.

    runs are the (move, t) pairs apply_moves reads, one pair per run
    whatever its t.  new_basis[i] is a word in the *old* generators; on
    it the homomorphism reads e_i -> t_i (i <= r), -> 0 (i > r).
    inverse_basis expresses the automorphism's inverse the same way, so
    that substituting new_basis into inverse_basis (or vice versa) gives
    back the identity map.
    """

    __slots__ = ("group", "runs", "new_basis", "inverse_basis")

    def __init__(self, group: FreeGroup,
                 runs: Sequence[Tuple[NielsenMove, int]]):
        self.group = group
        self.runs = list(runs)
        self.new_basis = apply_moves(group, self.runs)
        self.inverse_basis = apply_moves(group, invert_moves(self.runs))

    def apply(self, w: Word) -> Word:
        """The basis-change automorphism: e_i -> new_basis[i]."""
        return substitute(w, dict(enumerate(self.new_basis, start=1)),
                          target=self.group)

    def unapply(self, w: Word) -> Word:
        """Inverse automorphism: apply(unapply(w)) == w."""
        return substitute(w, dict(enumerate(self.inverse_basis, start=1)),
                          target=self.group)


def normalize_basis(h: FactorHom) -> BasisChange:
    """Find a free-group basis on which h looks standard.

    Raises ValueError unless h is surjective.  The returned basis is one
    valid choice (elimination pivots: smallest absolute value, then lowest
    index); callers should check the postcondition via ab_image rather
    than expect one particular basis.  The elimination's (move, t) runs
    go to BasisChange as they are; a run whose power would pass the
    2^20-letter cap raises ValueError("word too long ...") from
    Word.__pow__.
    """
    runs = _eliminate([list(row) for row in h.images], h.target_rank)
    if runs is None:
        raise ValueError("homomorphism is not surjective; no normal basis exists")
    return BasisChange(FreeGroup(h.rank), runs)
