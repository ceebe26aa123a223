"""Round-based LCS construction and spectrum decoding, O(nk) time.

Each round reconstructs one more character of every k-mer, back to front,
by moving every column's label to its LF successor: one gather through the
index's predecessor array. A position's LCS value is the round at which
its label first differs from its left neighbour's.
"""

from __future__ import annotations

import numpy as np

from .alphabet import decode
from .index import FormatError, SbwtIndex
from .oracle import SortedSpectrum
from .stats import BuildStats


def initial_labels(index: SbwtIndex) -> np.ndarray:
    """Last symbol of each k-mer, decoded from the count blocks (codes)."""
    sizes = [index.counts["A"]] + [stop - start for start, stop in index.lf_slices]
    return np.repeat(np.arange(5, dtype=np.uint8), sizes)


def propagate_round(labels: np.ndarray, index: SbwtIndex) -> np.ndarray:
    """Labels one character further from the k-mer end; the root keeps $."""
    return labels[index.pred]


def stamp_mismatches(
    labels: np.ndarray, open_slots: np.ndarray, lcs: np.ndarray, value: int
) -> None:
    """Give every open slot whose label differs from its left neighbour's the
    value, and close it."""
    hits = np.flatnonzero(open_slots[1:] & (labels[1:] != labels[:-1])) + 1
    lcs[hits] = value
    open_slots[hits] = False


def lcs_basic(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array via k propagation rounds over the matrix.

    Entry i-1 of the result holds the value for rank i; rank 1 is 0 by
    definition. Round r compares the characters at offset r from the end,
    so a position first differing there receives value r and is frozen.
    Raises FormatError if a slot is still open after k rounds, which means
    the index holds two equal k-mers and is not a subset matrix.
    """
    n = index.n
    labels = initial_labels(index)
    lcs = np.zeros(n, dtype=np.int32)
    open_slots = np.ones(n, dtype=bool)
    open_slots[0] = False
    stamp_mismatches(labels, open_slots, lcs, 0)
    for rnd in range(1, index.k):
        labels = propagate_round(labels, index)
        stamp_mismatches(labels, open_slots, lcs, rnd)
    still_open = int(np.count_nonzero(open_slots))
    if still_open:
        raise FormatError(
            f"inconsistent index: {still_open} LCS slots still open after k={index.k} rounds"
        )
    if stats is not None:
        stats.rounds = index.k
        stats.lcs_writes = n
    return lcs


def decode_spectrum(index: SbwtIndex) -> SortedSpectrum:
    """Recover the full sorted spectrum; inverse of build_index.

    Raises FormatError if the decoded k-mers are not strictly increasing in
    colex order, which no subset matrix can produce. pred ascends within
    each base's block, so the decoded order never falls; it fails to rise
    only where two neighbours are equal.
    """
    n, k = index.n, index.k
    chars = np.empty((k, n), dtype=np.uint8)
    chars[0] = initial_labels(index)  # row j holds the char at offset j from the end
    for j in range(1, k):
        chars[j] = propagate_round(chars[j - 1], index)
    equal = np.flatnonzero((chars[:, 1:] == chars[:, :-1]).all(axis=0))
    if len(equal):
        r = int(equal[0]) + 1
        raise FormatError(
            f"inconsistent index: ranks {r} and {r + 1} decode to the same k-mer, "
            "so the k-mers are not strictly colex-increasing"
        )
    columns = np.ascontiguousarray(chars[::-1].T)
    return SortedSpectrum(k, tuple(decode(columns[i]) for i in range(n)))
