"""Round-based LCS construction and spectrum decoding, O(nk) time.

Each round reconstructs c more characters of every k-mer, back to front,
by one gather through the index's predecessor array composed c times. A
position's LCS value is the offset at which its label first differs from
its left neighbour's. The basic construction runs the rounds at width 1,
the super-alphabet one (lcs_superalphabet) at width c.
"""

from __future__ import annotations

import numpy as np

from .alphabet import decode
from .index import FormatError, SbwtIndex
from .oracle import SortedSpectrum
from .stats import BuildStats


def initial_labels(index: SbwtIndex) -> np.ndarray:
    """Last symbol of each k-mer, decoded from the count blocks (codes)."""
    sizes = [1, *(bv.popcount for bv in index.matrix.rows)]
    return np.repeat(np.arange(5, dtype=np.uint8), sizes)


def step_map(index: SbwtIndex, c: int) -> np.ndarray:
    """pred composed c times: the column whose label reaches each column
    after c rounds."""
    step = index.pred
    for _ in range(c - 1):
        step = index.pred[step]
    return step


def lcs_rounds(index: SbwtIndex, c: int) -> np.ndarray:
    """LCS array by rounds that each read c symbols of every k-mer.

    Entry i-1 holds the value for rank i; rank 1 is 0 by definition.
    Round r gathers a label buffer of the symbols at offsets r..r+c-1 from
    the k-mer end in 3-bit fields, offset r highest. The mask `same` holds
    the slots that have matched their left neighbour in every round so far,
    and a counter of the narrowest type that holds k + c counts those rounds
    at width 1; at width c a slot that stops matching takes r plus its first
    differing field, read from the XOR's bit length. Raises FormatError if a
    slot matches through offset k-1, as only two equal k-mers can.
    """
    n, k = index.n, index.k
    labels = initial_labels(index)
    packed = labels.astype(np.min_scalar_type(8**c - 1), copy=False)
    for _ in range(c - 1):
        labels = labels[index.pred]
        packed = (packed << 3) | labels
    del labels
    step = step_map(index, c)
    # bit length of the XOR -> index of the first differing field, highest first
    first_field = np.array([0] + [c - 1 - (b - 1) // 3 for b in range(1, 3 * c + 1)])
    lcs = np.zeros(n, dtype=np.min_scalar_type(k + c))
    same = np.ones(n - 1, dtype=bool)
    for r in range(0, k, c):
        if r:
            packed = packed[step]
        equal = packed[1:] == packed[:-1]
        if c == 1:
            lcs[1:] += same & equal
        else:
            ends = np.flatnonzero(same & ~equal)
            _, bits = np.frexp(packed[ends + 1] ^ packed[ends])
            lcs[ends + 1] = r + first_field[bits]
        same &= equal
    still_open = int(np.count_nonzero(same | (lcs[1:] >= k)))
    if still_open:
        raise FormatError(
            f"inconsistent index: {still_open} LCS slots still open after all k={k} symbols"
        )
    return lcs.astype(np.int32)


def lcs_basic(index: SbwtIndex, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array via k propagation rounds over the matrix: the round
    kernel at width 1, where round r compares the characters at offset r
    from the end."""
    lcs = lcs_rounds(index, 1)
    if stats is not None:
        stats.rounds = index.k
        stats.lcs_writes = index.n
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
        chars[j] = chars[j - 1][index.pred]
    equal = np.flatnonzero((chars[:, 1:] == chars[:, :-1]).all(axis=0))
    if len(equal):
        r = int(equal[0]) + 1
        raise FormatError(
            f"inconsistent index: ranks {r} and {r + 1} decode to the same k-mer, "
            "so the k-mers are not strictly colex-increasing"
        )
    text = decode(chars[::-1].T)
    return SortedSpectrum(k, tuple(text[i : i + k] for i in range(0, n * k, k)))
