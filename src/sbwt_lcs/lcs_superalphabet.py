"""Super-alphabet LCS construction: decode several symbols per round.

Phase 1 runs the basic algorithm for c rounds and packs each k-mer's
length-c suffix into one super-character (base-5 digits, the symbol
nearest the k-mer end most significant, so integer order equals colex
order of the component strings). Phase 2 then advances a whole
super-character per round with one gather through the c-step map
pred^c, cutting the remaining round count from k-c to about (k-c)/c.
"""

from __future__ import annotations

import numpy as np

from .index import FormatError, SbwtIndex
from .lcs_basic import initial_labels, propagate_round, stamp_mismatches
from .stats import BuildStats

# the widest super-character whose packed digits fit one 64-bit word
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
    MAX_WIDTH; c=2 is the configuration the benchmarks exercise.
    """
    if c < 2:
        raise ValueError("super-alphabet width must be >= 2")
    if c & (c - 1):
        raise ValueError("super-alphabet width must be a power of two")
    if c > MAX_WIDTH:
        raise ValueError(f"super-alphabet width must be <= {MAX_WIDTH}")
    n, k = index.n, index.k
    lcs = np.zeros(n, dtype=np.int32)
    open_slots = np.ones(n, dtype=bool)
    open_slots[0] = False

    # phase 1: c basic rounds, packing the decoded suffix digits as we go
    labels = initial_labels(index)
    packed = labels.astype(np.min_scalar_type(5**c - 1))
    stamp_mismatches(labels, open_slots, lcs, 0)
    for rnd in range(1, c):
        labels = propagate_round(labels, index)
        packed = packed * 5 + labels
        stamp_mismatches(labels, open_slots, lcs, rnd)

    phase2 = 0
    if c < k:
        step = step_map(index, c)
        powers = [5 ** (c - 1 - d) for d in range(c)]
        for r in range(c, k, c):
            phase2 += 1
            packed = packed[step]
            cand = np.flatnonzero(open_slots[1:] & (packed[1:] != packed[:-1])) + 1
            if not len(cand):
                continue
            a = packed[cand].astype(np.int64)
            b = packed[cand - 1].astype(np.int64)
            undecided = np.ones(len(cand), dtype=bool)
            for d in range(c):
                if r + d >= k:
                    break  # components past the k-mer's first character
                hit = undecided & ((a // powers[d]) % 5 != (b // powers[d]) % 5)
                lcs[cand[hit]] = r + d
                open_slots[cand[hit]] = False
                undecided &= ~hit

    if open_slots.any():
        raise FormatError("inconsistent index: super-alphabet rounds left unfilled LCS slots")
    if stats is not None:
        stats.rounds = phase2
        stats.phase1_rounds = c
        stats.lcs_writes = n
    return lcs
