"""Linear-time LCS construction via breadth-first L-interval traversal.

Round i right-extends the right endpoint of every interval claimed in
round i-1 by each base and stamps value i-1 into the slot just past each
new endpoint. Every slot is written exactly once; total intervals
processed is at most n, so the whole run is O(n) for the fixed
four-letter alphabet.

Only right endpoints are tracked, one rank query per base. Empty
extensions are not detected; their would-be slots either carry the same
value this round or were claimed in an earlier round, so the unset-slot
guard discards them. Rounds are processed as batches: per base, one
vectorized rank call over all round entries replaces the per-interval
queries.
"""

from __future__ import annotations

import numpy as np

from .index import FormatError, SbwtIndex
from .stats import BuildStats


def _claim(lcs, slots, value):
    """Claim the unset slots; returns the position of the first candidate
    on each claimed slot.

    slots must be non-decreasing, which every BFS round guarantees: the
    round's endpoints ascend, rank is monotone, no destination of a base
    exceeds one of the next base, and the seeded slot 1 comes first.
    Duplicate slots are then adjacent, so the first of each run of equal
    unset slots wins and stamps the value.
    """
    first = np.ones(len(slots), dtype=bool)
    first[1:] = slots[1:] != slots[:-1]
    won = np.flatnonzero(first & (lcs[slots] < 0))
    lcs[slots[won]] = value
    return won


def lcs_linear(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array by the BFS over interval right endpoints.

    Raises FormatError if the index is not a consistent subset matrix and
    the traversal leaves a slot unfilled.
    """
    n, k = index.n, index.k
    lcs = np.full(n, -1, dtype=np.int32)
    lcs[0] = 0
    rounds = rank_queries = pushed = 0
    his = np.array([n], dtype=np.int64)
    for i in range(1, k + 1):
        if len(his) == 0:
            break
        rounds += 1
        rank_queries += 4 * len(his)
        cand = []
        if i == 1 and n > 1:
            # seeded interval of "$": claims slot 2 definitionally
            cand.append(np.array([1], dtype=np.int64))
        for c in range(4):
            new_hi = index.counts[c] + index.matrix.rows[c].rank_many(his)
            cand.append(new_hi[new_hi < n])  # the slot past rank n does not exist
        slots = np.concatenate(cand)  # 0-based slot index == right endpoint
        won = _claim(lcs, slots, i - 1)
        his = slots[won]
        pushed += len(won)
    unfilled = int(np.count_nonzero(lcs < 0))
    if unfilled:
        raise FormatError(f"inconsistent index: the BFS left {unfilled} LCS slots unfilled")
    if stats is not None:
        stats.rounds = rounds
        stats.rank_queries = rank_queries
        stats.intervals_pushed = pushed
        stats.lcs_writes = n
    return lcs


# the endpoint BFS is the only linear construction; the name stays importable
lcs_linear_endpoints = lcs_linear
