"""Linear-time LCS construction via breadth-first L-interval traversal.

Round i right-extends every interval claimed in round i-1 and stamps value
i-1 into the slot just past each new interval's right end. Every slot is
written exactly once; total intervals processed is at most n, so the whole
run is O(n) for the fixed four-letter alphabet.

Rounds are processed as batches: per base, one vectorized rank call over
all round entries replaces the per-interval queries. Within a round the
claim order is immaterial because competing claims always carry the same
value and push the same endpoint, so duplicates are resolved by an owner
scatter rather than a sort.
"""

from __future__ import annotations

import numpy as np

from .index import SbwtIndex
from .stats import BuildStats


def _claim(lcs, owner, slots, value):
    """Claim the unset slots; returns one winning candidate index per slot.

    Candidates on already-set slots drop out, the rest stamp the value and
    write their position into owner (an int32 scratch array of length n);
    the candidate that reads its own position back wins its slot.
    """
    pos = np.flatnonzero(lcs[slots] < 0)
    free = slots[pos]
    lcs[free] = value
    owner[free] = pos
    return pos[owner[free] == pos]


def lcs_linear(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """Two-sided variant: tracks both interval endpoints, skips empty extensions."""
    n, k = index.n, index.k
    lcs = np.full(n, -1, dtype=np.int32)
    lcs[0] = 0
    owner = np.empty(n, dtype=np.int32)
    rounds = rank_queries = pushed = 0
    los = np.array([1], dtype=np.int64)
    his = np.array([n], dtype=np.int64)
    for i in range(1, k + 1):
        if len(los) == 0:
            break
        rounds += 1
        rank_queries += 8 * len(los)
        cand_lo = []
        cand_hi = []
        if i == 1 and n > 1:
            # seeded interval of "$": claims slot 2 definitionally
            cand_lo.append(np.array([1], dtype=np.int64))
            cand_hi.append(np.array([1], dtype=np.int64))
        for c in range(4):
            row = index.matrix.rows[c]
            base = index.counts.values[c]
            rlo = row.rank_many(los - 1)
            rhi = row.rank_many(his)
            nonempty = rhi > rlo
            new_lo = base + rlo[nonempty] + 1
            new_hi = base + rhi[nonempty]
            keep = new_hi < n  # the slot past rank n does not exist
            cand_lo.append(new_lo[keep])
            cand_hi.append(new_hi[keep])
        slots = np.concatenate(cand_hi)  # 0-based slot index == right endpoint
        all_lo = np.concatenate(cand_lo)
        won = _claim(lcs, owner, slots, i - 1)
        los = all_lo[won]
        his = slots[won]
        pushed += len(won)
    if (lcs < 0).any():
        raise AssertionError("BFS terminated with unfilled LCS slots")
    if stats is not None:
        stats.rounds = rounds
        stats.rank_queries = rank_queries
        stats.intervals_pushed = pushed
        stats.lcs_writes = n
    return lcs


def lcs_linear_endpoints(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """Endpoint-only variant: tries all four bases with one rank query each.

    Empty extensions are not detected; their would-be slots either carry
    the same value this round or were claimed in an earlier round, so the
    unset-slot guard keeps the output identical to the two-sided variant.
    """
    n, k = index.n, index.k
    lcs = np.full(n, -1, dtype=np.int32)
    lcs[0] = 0
    owner = np.empty(n, dtype=np.int32)
    rounds = rank_queries = pushed = 0
    his = np.array([n], dtype=np.int64)
    for i in range(1, k + 1):
        if len(his) == 0:
            break
        rounds += 1
        rank_queries += 4 * len(his)
        cand = []
        if i == 1 and n > 1:
            cand.append(np.array([1], dtype=np.int64))
        for c in range(4):
            new_hi = index.counts.values[c] + index.matrix.rows[c].rank_many(his)
            cand.append(new_hi[new_hi < n])
        slots = np.concatenate(cand)
        won = _claim(lcs, owner, slots, i - 1)
        his = slots[won]
        pushed += len(won)
    if (lcs < 0).any():
        raise AssertionError("BFS terminated with unfilled LCS slots")
    if stats is not None:
        stats.rounds = rounds
        stats.rank_queries = rank_queries
        stats.intervals_pushed = pushed
        stats.lcs_writes = n
    return lcs
