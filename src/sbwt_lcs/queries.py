"""Consumer queries: k-mer membership lookup and left contraction.

Lookup folds right extensions over the query's symbols; membership costs
at most k extension steps. Left contraction widens a suffix interval to a
shorter suffix by scanning the LCS array outward from both ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import check_bases
from .index import ColexInterval, FormatError, SbwtIndex, extend_right


@dataclass(frozen=True)
class SuffixInterval:
    """Colex interval of all k-mers sharing a suffix of the given length."""

    interval: ColexInterval
    suffix_len: int


def lookup(index: SbwtIndex, kmer: str) -> int | None:
    """Colex rank of the k-mer in the spectrum, or None if absent.

    Raises FormatError if the k-mer's interval is not a single rank, which
    only an inconsistent index can give.
    """
    if len(kmer) != index.k:
        raise ValueError(f"query length {len(kmer)} != k={index.k}")
    check_bases(kmer, "query k-mer")
    lo, hi = 1, index.n
    for ch in kmer:
        found = extend_right(index, lo, hi, ch)
        if found is None:
            return None
        lo, hi = found
    if lo != hi:
        raise FormatError(f"inconsistent index: k-mer {kmer} spans ranks {lo}..{hi}")
    return lo


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
    while hi < n and lcs[hi] >= m:
        hi += 1
    while lo > 1 and lcs[lo - 1] >= m:
        lo -= 1
    return SuffixInterval(ColexInterval(int(lo), int(hi)), m)
