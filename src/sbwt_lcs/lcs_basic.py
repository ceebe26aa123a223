"""Round-based LCS construction, O(nk) time.

Each round reconstructs one more character of every k-mer, back to
front, by one gather through the index's predecessor array. A position's
LCS value is the number of rounds in which its label has matched its left
neighbour's without a break.
"""

from __future__ import annotations

import numpy as np

from .index import FormatError, SbwtIndex
from .stats import BuildStats


def initial_labels(index: SbwtIndex) -> np.ndarray:
    """Last symbol of each k-mer, decoded from the count blocks (codes)."""
    sizes = [1, *(bv.popcount for bv in index.matrix.rows)]
    return np.repeat(np.arange(5, dtype=np.uint8), sizes)


def lcs_basic(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array via k propagation rounds over the matrix, where round r
    compares the characters at offset r from the end.

    Entry i-1 holds the value for rank i; rank 1 is 0 by definition. The
    mask `same` holds the slots that have matched their left neighbour in
    every round so far, and a counter of the narrowest type that holds k
    counts those rounds. Raises FormatError if a slot matches through
    offset k-1, as only two equal k-mers can.
    """
    n, k = index.n, index.k
    labels = initial_labels(index)
    lcs = np.zeros(n, dtype=np.min_scalar_type(k))
    same = np.ones(n - 1, dtype=bool)
    for r in range(k):
        if r:
            labels = labels[index.pred]
        equal = labels[1:] == labels[:-1]
        lcs[1:] += same & equal
        same &= equal
    still_open = int(np.count_nonzero(same))
    if still_open:
        raise FormatError(
            f"inconsistent index: {still_open} LCS slots still open after all k={k} symbols"
        )
    if stats is not None:
        stats.rounds = k
        stats.lcs_writes = n
    return lcs.astype(np.int32)
