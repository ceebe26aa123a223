"""Super-alphabet LCS construction: read c symbols per round.

The basic rounds at width c (lcs_basic.lcs_rounds): each k-mer's next c
symbols form one super-character of 3-bit fields, advanced by one gather
through the c-step map pred^c, so about k/c rounds replace k. The first
differing field of two neighbours is read from the bit length of their XOR.
"""

from __future__ import annotations

import numpy as np

from .index import SbwtIndex
from .lcs_basic import lcs_rounds
from .stats import BuildStats

# the widest super-character whose 3-bit fields (48 bits) frexp reads exactly
MAX_WIDTH = 16


def lcs_super(index: SbwtIndex, c: int = 2, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array via width-c super-characters; output equals lcs_basic.

    Widths are the powers of two of the paper's alphabet doubling, up to
    MAX_WIDTH; c=2 is the configuration the benchmarks exercise.
    """
    if c < 2:
        raise ValueError("super-alphabet width must be >= 2")
    if c & (c - 1):
        raise ValueError("super-alphabet width must be a power of two")
    if c > MAX_WIDTH:
        raise ValueError(f"super-alphabet width must be <= {MAX_WIDTH}")
    lcs = lcs_rounds(index, c)
    if stats is not None:
        stats.rounds = len(range(c, index.k, c))
        stats.lcs_writes = index.n
    return lcs
