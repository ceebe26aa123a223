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


def lcs_dtype(k: int) -> np.dtype:
    """The type of an LCS array: the narrowest unsigned one that holds k-1."""
    return np.min_scalar_type(k - 1)


def width1_rounds(index: SbwtIndex, stop=None) -> tuple[np.ndarray, int, np.ndarray]:
    """The width-1 rounds: round r compares the characters at offset r-1
    from the end. Returns (lcs, r, same) after round r.

    Entry i-1 of lcs, of type lcs_dtype(k), holds the value for rank i;
    rank 1 is 0 by definition. The mask `same` holds the slots that have
    matched their left neighbour in every round so far (never slot 0),
    and lcs counts those rounds. So after round r every closed slot holds
    its final value, below r, and every open one holds r. The rounds run
    to k unless stop(r, same), called after every round, is true. Raises
    FormatError if they run out with a slot still open, as only two equal
    k-mers can leave one.
    """
    n, k = index.n, index.k
    labels = initial_labels(index)
    lcs = np.zeros(n, dtype=lcs_dtype(k))
    same = np.ones(n, dtype=bool)
    same[0] = False
    for r in range(1, k + 1):
        if r > 1:
            labels = labels[index.pred]
        same[1:] &= labels[1:] == labels[:-1]
        lcs += same
        if stop is not None and stop(r, same):
            break
    else:
        still_open = int(np.count_nonzero(same))
        if still_open:
            raise FormatError(
                f"inconsistent index: {still_open} LCS slots still open after all k={k} symbols"
            )
    return lcs, r, same


def lcs_basic(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array via all k width-1 rounds over the matrix; raises
    FormatError if a slot is still open after them."""
    lcs, r, _ = width1_rounds(index)
    if stats is not None:
        stats.rounds = r
        stats.lcs_writes = index.n
    return lcs
