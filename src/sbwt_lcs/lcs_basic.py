"""Round-based LCS construction and spectrum decoding, O(nk) time.

Each round reconstructs one more character of every k-mer, back to front,
by pushing the current label of each column into its LF destination block.
A position's LCS value is the round at which its label first differs from
its left neighbour's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import DOLLAR_CODE, decode
from .index import SbwtIndex
from .oracle import SortedSpectrum
from .stats import BuildStats


@dataclass
class PropagationState:
    """Mutable label-propagation state: current labels plus a scratch buffer."""

    labels: np.ndarray
    scratch: np.ndarray
    rounds_done: int = 0


def initial_labels(index: SbwtIndex) -> np.ndarray:
    """Last symbol of each k-mer, decoded from the count blocks (codes)."""
    sizes = [index.counts["A"]] + [stop - start for start, stop in index.lf_slices]
    return np.repeat(np.arange(5, dtype=np.uint8), sizes)


def start_state(index: SbwtIndex) -> PropagationState:
    return PropagationState(
        labels=initial_labels(index),
        scratch=np.empty(index.n, dtype=np.uint8),
    )


def propagate_round(state: PropagationState, index: SbwtIndex) -> PropagationState:
    """Advance labels one character away from the k-mer end, in place.

    Equivalent to scanning the matrix column by column and dropping each
    set bit's label into the next free slot of its base's block; the block
    fills are contiguous, so they vectorize to one gather per base.
    """
    state.scratch[:] = DOLLAR_CODE
    for c in range(4):
        start, stop = index.lf_slices[c]
        state.scratch[start:stop] = state.labels[index.char_columns[c]]
    state.labels, state.scratch = state.scratch, state.labels
    state.rounds_done += 1
    return state


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
    definition. Mismatches are checked at the start of each round, so a
    position first differing at round r receives value r and is frozen.
    """
    n = index.n
    state = start_state(index)
    lcs = np.zeros(n, dtype=np.int32)
    open_slots = np.ones(n, dtype=bool)
    open_slots[0] = False
    for rnd in range(index.k):
        stamp_mismatches(state.labels, open_slots, lcs, rnd)
        propagate_round(state, index)
    if stats is not None:
        stats.rounds = state.rounds_done
        stats.lcs_writes = n - int(open_slots.sum())
    return lcs


def decode_spectrum(index: SbwtIndex) -> SortedSpectrum:
    """Recover the full sorted spectrum; inverse of build_index."""
    n, k = index.n, index.k
    chars = np.empty((k, n), dtype=np.uint8)
    state = start_state(index)
    chars[k - 1] = state.labels  # row j holds the char at offset k-1-j from the end
    for j in range(k - 2, -1, -1):
        propagate_round(state, index)
        chars[j] = state.labels
    columns = np.ascontiguousarray(chars.T)
    return SortedSpectrum(k, tuple(decode(columns[i]) for i in range(n)))
