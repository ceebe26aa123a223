"""Super-alphabet LCS construction: read c symbols per round.

A reference construction for `verify` and the tests, which `sbwt-lcs
lcs` (it runs lcs_adaptive) never loads: each k-mer's next c symbols
form one super-character of 3-bit fields, advanced by one gather through
the c-step map pred^c, so about k/c rounds replace k. The first
differing field of two neighbours is read from the bit length of their
XOR.
"""

from __future__ import annotations

import numpy as np

from .index import FormatError, SbwtIndex
from .lcs_basic import initial_labels, lcs_dtype
from .stats import BuildStats

# the widest super-character whose 3-bit fields (48 bits) frexp reads exactly
MAX_WIDTH = 16


def step_map(index: SbwtIndex, c: int) -> np.ndarray:
    """pred composed c times: the column whose label reaches each column
    after c rounds."""
    step = index.pred
    for _ in range(c - 1):
        step = index.pred[step]
    return step


def lcs_super(index: SbwtIndex, c: int = 2, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array via width-c super-characters; output equals lcs_basic.

    Widths are the powers of two of the paper's alphabet doubling, up to
    MAX_WIDTH; c=2 is the configuration the benchmarks exercise. Round r
    reads offsets r..r+c-1 from the k-mer end, offset r in the highest field.
    A slot that stops matching its left neighbour takes r plus its first
    differing field. Raises FormatError if a slot matches through offset
    k-1, as only two equal k-mers can.
    """
    if c < 2:
        raise ValueError("super-alphabet width must be >= 2")
    if c & (c - 1):
        raise ValueError("super-alphabet width must be a power of two")
    if c > MAX_WIDTH:
        raise ValueError(f"super-alphabet width must be <= {MAX_WIDTH}")
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
        ends = np.flatnonzero(same & ~equal)
        _, bits = np.frexp(packed[ends + 1] ^ packed[ends])
        lcs[ends + 1] = r + first_field[bits]
        same &= equal
    still_open = int(np.count_nonzero(same | (lcs[1:] >= k)))
    if still_open:
        raise FormatError(
            f"inconsistent index: {still_open} LCS slots still open after all k={k} symbols"
        )
    if stats is not None:
        stats.rounds = len(range(c, k, c))
        stats.lcs_writes = n
    return lcs.astype(lcs_dtype(k))
