"""Super-alphabet LCS construction: decode several symbols per round.

Phase 1 runs the basic algorithm for c rounds and packs each k-mer's
length-c suffix into one super-character (base-5 digits, the symbol
nearest the k-mer end most significant, so integer order equals colex
order of the component strings). Phase 2 then advances a whole
super-character per round over the width-c concatenated representation,
cutting the remaining round count from k-c to about (k-c)/c.
"""

from __future__ import annotations

import numpy as np

from .index import ConcatRep, FormatError, SbwtIndex, to_concat
from .lcs_basic import propagate_round, stamp_mismatches, start_state
from .stats import BuildStats


def packed_dtype(width: int) -> type:
    """Smallest unsigned dtype holding 5**width super-character values."""
    span = 5**width
    if span <= 1 << 8:
        return np.uint8
    if span <= 1 << 16:
        return np.uint16
    if span <= 1 << 32:
        return np.uint32
    return np.uint64


def expand_alphabet(rep: ConcatRep, index: SbwtIndex) -> ConcatRep:
    """Double the representation width by propagating edge labels one step
    backward in the graph: each width-w edge label u from column i grows to
    u followed by each label of the destination's own width-w subset.

    Destinations come from the carried LF bookkeeping (rep.dest), which is
    exactly what advancing a working copy of the width-w counts yields; no
    rank queries are involved.
    """
    if rep.n != index.n:
        raise ValueError(
            f"representation of {rep.n} subsets does not match index with n={index.n}"
        )
    # entries sourced at rank d are contiguous because entries are ordered
    # by source rank; locate each destination's slice by binary search
    starts = np.searchsorted(rep.src, rep.dest, side="left")
    stops = np.searchsorted(rep.src, rep.dest, side="right")
    sizes = stops - starts
    total = int(sizes.sum())
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])) if len(sizes) else sizes
    flat = np.repeat(starts, sizes) + (np.arange(total) - np.repeat(offsets, sizes))
    span = np.int64(5**rep.width)
    labels = rep.labels[flat].astype(np.int64) * span + np.repeat(rep.labels, sizes)
    n_edges = len(rep.labels)
    if n_edges == 0:
        boundaries = np.ones(1, dtype=bool)  # degenerate one-column index
    else:
        boundaries = np.zeros(n_edges + total, dtype=bool)
        boundaries[np.arange(n_edges) + offsets] = True
    return ConcatRep(
        width=rep.width * 2,
        n=rep.n,
        labels=labels,
        boundaries=boundaries,
        src=np.repeat(rep.src, sizes),
        dest=rep.dest[flat],
    )


def lcs_super(index: SbwtIndex, c: int = 2, stats: BuildStats | None = None) -> np.ndarray:
    """LCS array via width-c super-characters; output equals lcs_basic.

    Widths are limited to the powers of two reachable by repeated alphabet
    doubling; c=2 is the configuration the benchmarks exercise.
    """
    if c < 2:
        raise ValueError("super-alphabet width must be >= 2")
    if c & (c - 1):
        raise ValueError("super-alphabet width must be a power of two")
    n, k = index.n, index.k
    lcs = np.zeros(n, dtype=np.int32)
    open_slots = np.ones(n, dtype=bool)
    open_slots[0] = False

    # phase 1: c basic rounds, packing the decoded suffix digits as we go
    state = start_state(index)
    packed = state.labels.astype(np.int64)
    for rnd in range(c):
        stamp_mismatches(state.labels, open_slots, lcs, rnd)
        if rnd < c - 1:
            propagate_round(state, index)
            packed = packed * 5 + state.labels

    phase2 = 0
    if c < k:
        rep = to_concat(index)
        while rep.width < c:
            rep = expand_alphabet(rep, index)
        src = rep.src - 1
        dest = rep.dest - 1
        dtype = packed_dtype(c)
        labels = packed.astype(dtype)
        scratch = np.empty(n, dtype=dtype)
        powers = [5 ** (c - 1 - d) for d in range(c)]
        for r in range(c, k, c):
            phase2 += 1
            scratch[:] = 0  # the all-$ super-character
            scratch[dest] = labels[src]
            labels, scratch = scratch, labels
            cand = np.flatnonzero(open_slots[1:] & (labels[1:] != labels[:-1])) + 1
            if not len(cand):
                continue
            a = labels[cand].astype(np.int64)
            b = labels[cand - 1].astype(np.int64)
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
