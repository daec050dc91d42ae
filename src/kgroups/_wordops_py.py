"""Pure-Python letter crunching for reduced words stored as bytes.

Encoding: generator j (1-based) with sign +1 is byte 2*(j-1), with sign -1
byte 2*(j-1)+1, so a letter and its inverse differ exactly in the lowest
bit and `a ^ b == 1` tests cancellation.

This is the package's only word kernel.  `words`, `presentations`,
`areasearch` and `metrics` import it under the name `ops`, the name
perfbench's tracer swaps for a timing handle.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

BACKEND = "python"

# heuristic() is called by nothing in the package: the area search computes
# its bounds from additive invariants (areasearch module).  It stays only
# because perfbench's tracer looks every name in its WORDOPS list up on
# `ops`.  Its hparams are None (bound 0), or a pair (tables, grid_amax):
#   tables    = tuple of (tbl, maxw): tbl is 256 bytes holding signed
#               weights offset by 128, maxw >= 1; the term contributed is
#               ceil(|sum of weights over the word| / maxw).
#   grid_amax = 0 to disable, else the divisor for the lattice-area term
#               (only meaningful for rank-2 words, bytes 0..3).
# expand() is called only by run_search: the greedy probe ranks children by
# their seam lengths and builds one child per level with insert_reduce.


def free_reduce(data: bytes) -> bytes:
    """Freely reduce: delete adjacent letter/inverse pairs until none remain."""
    out = bytearray()
    for c in data:
        if out and (out[-1] ^ c) == 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


def invert(a: bytes) -> bytes:
    return bytes(c ^ 1 for c in reversed(a))


def concat(a: bytes, b: bytes) -> bytes:
    """Product of two reduced words (cancel across the seam only)."""
    i, j = len(a), 0
    while i > 0 and j < len(b) and (a[i - 1] ^ b[j]) == 1:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def insert_reduce(word: bytes, pos: int, rv: bytes) -> bytes:
    """Insert a reduced variant at pos and reduce."""
    return concat(concat(word[:pos], rv), word[pos:])


def heuristic(state: bytes, hparams) -> int:
    """Admissible lower bound on the moves still needed to empty `state`."""
    if hparams is None:
        return 0
    tables, grid_amax = hparams
    h = 0
    for tbl, maxw in tables:
        s = 0
        for b in state:
            s += tbl[b] - 128
        if s < 0:
            s = -s
        v = -(-s // maxw)
        if v > h:
            h = v
    if grid_amax:
        cx = 0
        area = 0
        for b in state:
            if b == 0:
                cx += 1
            elif b == 1:
                cx -= 1
            elif b == 2:
                area += cx
            elif b == 3:
                area -= cx
        if area < 0:
            area = -area
        v = -(-area // grid_amax)
        if v > h:
            h = v
    return h


def expand(state: bytes, variants: Sequence[bytes],
           len_cap: int) -> List[Tuple[bytes, int, int]]:
    """All single-insertion successors within the length cap.

    Returns (child, pos, variant_index) tuples, variants outer, positions
    0..len(state) inner, both ascending.
    """
    out = []
    n = len(state)
    for vidx, rv in enumerate(variants):
        for pos in range(n + 1):
            child = insert_reduce(state, pos, rv)
            if len(child) <= len_cap:
                out.append((child, pos, vidx))
    return out
