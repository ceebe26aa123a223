"""Consumer queries: k-mer membership lookup and left contraction.

Lookup folds right extensions over the query's symbols, at most k steps.
A step costs two rank queries while the interval spans several columns
and one once it is a single column. Left contraction widens a
suffix interval to a shorter suffix by a galloping scan of the LCS array
outward from both ends: past a first entry that is not below the target
length, numpy chunks of 16, 64, 256, ... entries are compared with it
until one holds a smaller entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import ROW_OF, check_bases
from .index import ColexInterval, FormatError, SbwtIndex


@dataclass(frozen=True)
class SuffixInterval:
    """Colex interval of all k-mers sharing a suffix of the given length."""

    interval: ColexInterval
    suffix_len: int


def lookup(index: SbwtIndex, kmer: str) -> int | None:
    """Colex rank of the k-mer in the spectrum, or None if absent.

    Each step is oracle.extend_right with its rank queries inlined and
    without its argument checks: the interval of the suffix read so far is
    ranks lo+1..hi, and it stays inside 1..n. Once it is the single column lo,
    base c extends it iff bit lo of row c is set, and the one rank below
    that bit gives the next column: rank(lo + 1) - rank(lo) is that bit,
    so this is the two-rank step on any index. Raises FormatError if the
    k-mer's interval is not a single rank, which only an inconsistent
    index can give.
    """
    if len(kmer) != index.k:
        raise ValueError(f"query length {len(kmer)} != k={index.k}")
    check_bases(kmer, "query k-mer")
    steps = index.steps
    symbols = iter(kmer.encode().translate(ROW_OF))
    lo, hi = 0, index.n
    if hi > 1:
        for c in symbols:
            words, cum, before = steps[c]
            q = lo >> 6
            lo = before + cum[q] + (words[q] & ((1 << (lo & 63)) - 1)).bit_count()
            q = hi >> 6
            hi = before + cum[q] + (words[q] & ((1 << (hi & 63)) - 1)).bit_count()
            if hi - lo <= 1:
                break
        if lo == hi:
            return None
        if hi - lo != 1:
            raise FormatError(f"inconsistent index: k-mer {kmer} spans ranks {lo + 1}..{hi}")
    for c in symbols:
        words, cum, before = steps[c]
        q, bit = lo >> 6, lo & 63
        word = words[q]
        if not word >> bit & 1:
            return None
        lo = before + cum[q] + (word & ((1 << bit) - 1)).bit_count()
    return lo + 1


# first chunk of the galloping scan; each next chunk is four times longer
_FIRST_CHUNK = 16


def left_contract(lcs: np.ndarray, s: SuffixInterval, t: int) -> SuffixInterval:
    """Interval of the suffix truncated to its last k'-t+1 symbols.

    The LCS array entry at 0-based position j is the shared-suffix length
    of ranks j and j+1, so the target interval is the maximal run around
    the input whose internal entries are all >= the target length m.
    """
    kprime = s.suffix_len
    if not 1 <= t <= kprime:
        raise ValueError(f"contraction point {t} out of range 1..{kprime}")
    m = kprime - t + 1
    n = len(lcs)
    lo, hi = s.interval
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"invalid interval [{lo}, {hi}] for n={n}")
    # hi becomes the first position >= hi holding an entry < m, else n; the
    # one-entry test ahead of each chunk ends most calls without numpy
    size = _FIRST_CHUNK
    while hi < n and lcs[hi] >= m:
        hits = np.flatnonzero(lcs[hi : hi + size] < m)
        if len(hits):
            hi += int(hits[0])
            break
        hi = min(hi + size, n)
        size *= 4
    # lo - 1 becomes the last position in 1..lo-1 holding an entry < m, else 0
    size = _FIRST_CHUNK
    while lo > 1 and lcs[lo - 1] >= m:
        start = max(lo - size, 1)
        hits = np.flatnonzero(lcs[start : lo] < m)
        if len(hits):
            lo = start + int(hits[-1]) + 1
            break
        lo = start
        size *= 4
    return SuffixInterval(ColexInterval(int(lo), int(hi)), m)
