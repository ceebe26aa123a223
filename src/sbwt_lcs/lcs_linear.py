"""Linear-time LCS construction via breadth-first L-interval traversal,
handed over from width-1 rounds.

Round i right-extends the right endpoint of every interval claimed in
round i-1 by each base and stamps value i-1 into the slot just past each
new endpoint. Every slot is written exactly once; total intervals
processed is at most n, so the whole run is O(n) for the fixed
four-letter alphabet.

Only right endpoints are tracked, one rank query per base. Empty
extensions are not detected; their would-be slots either carry the same
value this round or were claimed in an earlier round, so the open-slot
mask discards them. Rounds are processed as batches: per base, one
vectorized rank call over all round entries replaces the per-interval
queries.

The hand-over from the width-1 rounds to the BFS is exact. After r
rounds every closed slot holds its final value, which is below r, and
the slots of value r-1 are the ones BFS round r would have claimed. So
the BFS resumes at round r+1 from those slots, with the rounds' open mask.
The constructions differ only in r: lcs_basic never hands over,
lcs_linear hands over after round 1, whose value-0 slots are the symbol
block starts that BFS round 1 claims from the whole interval, and
lcs_adaptive after the round its rule picks.
"""

from __future__ import annotations

import numpy as np

from .index import FormatError, SbwtIndex
from .lcs_basic import width1_rounds
from .stats import BuildStats

# A BFS claim costs about 64 times as much per slot as one width-1 round
# (about 80 ns against 1.2 ns per slot at n = 10^6)
CLAIM_COST = 64


def _claim(lcs, still_open, slots, value):
    """Claim the slots still open, stamping the value and closing them;
    returns the position of the first candidate on each claimed slot.

    slots must be non-decreasing, which every BFS round guarantees: the
    round's endpoints ascend, rank is monotone, and no destination of a
    base exceeds one of the next base. Duplicate slots are then adjacent,
    so the first of each run of equal open slots wins.
    """
    first = np.ones(len(slots), dtype=bool)
    first[1:] = slots[1:] != slots[:-1]
    won = np.flatnonzero(first & still_open[slots])
    lcs[slots[won]] = value
    still_open[slots[won]] = False
    return won


def _bfs(index: SbwtIndex, lcs, r: int, still_open, stats: BuildStats | None) -> np.ndarray:
    """BFS rounds r+1..k over the array lcs that r width-1 rounds left,
    filling the slots of their mask still_open. Round r+1 starts from the
    slots of value r-1, the endpoints that BFS round r would have claimed.

    Raises FormatError if the index is not a consistent subset matrix and
    the traversal leaves a slot unfilled. stats.rounds counts the r
    width-1 rounds as well.
    """
    n, k = index.n, index.k
    his = np.flatnonzero(lcs[1:] == r - 1) + 1
    rounds = rank_queries = pushed = 0
    for i in range(r + 1, k + 1):
        if len(his) == 0:
            break
        rounds += 1
        rank_queries += 4 * len(his)
        cand = []
        for c in range(4):
            new_hi = index.counts[c] + index.matrix.rows[c].rank_many(his)
            cand.append(new_hi[new_hi < n])  # the slot past rank n does not exist
        slots = np.concatenate(cand)  # 0-based slot index == right endpoint
        won = _claim(lcs, still_open, slots, i - 1)
        his = slots[won]
        pushed += len(won)
    unfilled = int(np.count_nonzero(still_open))
    if unfilled:
        raise FormatError(f"inconsistent index: the BFS left {unfilled} LCS slots unfilled")
    if stats is not None:
        stats.rounds = r + rounds
        stats.rank_queries = rank_queries
        stats.intervals_pushed = pushed
        stats.lcs_writes = n
    return lcs


def lcs_linear(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array by the BFS over interval right endpoints, handed over
    after width-1 round 1, which reads no predecessor.

    Raises FormatError if the index is not a consistent subset matrix and
    the traversal leaves a slot unfilled.
    """
    return _bfs(index, *width1_rounds(index, lambda r, same: True), stats)


# the endpoint BFS is the only linear construction; the name stays importable
lcs_linear_endpoints = lcs_linear


def lcs_adaptive(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array by width-1 rounds while they pay, then the BFS from the
    slots still open.

    After round r, with `closed` slots closed by that round and
    `still_open` left open, the rounds stop when none is open and hand
    over when most slots are closed (2 still_open <= n), another round
    would close few (CLAIM_COST closed <= n), and the BFS, which claims
    the open slots from the closed ones, costs less than the k-r rounds
    left, less about two for the hand-over's own passes. stats.handover
    is that r, or None if the rounds finished by themselves.

    Raises FormatError, as lcs_basic and lcs_linear do, if the index is
    not a consistent subset matrix.
    """
    n, k = index.n, index.k
    was_open = n - 1

    def stop(r, same):
        nonlocal was_open
        still_open = int(np.count_nonzero(same))
        closed, was_open = was_open - still_open, still_open
        return not still_open or (
            2 * still_open <= n
            and CLAIM_COST * closed <= n
            and CLAIM_COST * (closed + still_open) <= n * (k - r - 2)
        )

    lcs, r, same = width1_rounds(index, stop)
    handover = r if was_open else None
    if stats is not None:
        stats.handover = handover
    if handover is None:
        if stats is not None:
            stats.rounds = r
            stats.lcs_writes = n
        return lcs
    return _bfs(index, lcs, r, same, stats)
