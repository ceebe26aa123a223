"""Brute-force reference implementations of the k-mer spectrum machinery.

Everything here is written for clarity, not speed: plain sets, string
slicing and comparison sorts. These functions define the ground truth that
the succinct index and all LCS construction algorithms are tested against.
Intended scale is up to a few hundred thousand k-mers. This is the
reference side: build, lcs and query never load it; dump loads it to decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .alphabet import BASES, DOLLAR, check_bases, colex_key, decode
from .index import FormatError, SbwtIndex
from .lcs_basic import initial_labels


def colex_less(x: str, y: str) -> bool:
    """True iff x precedes y in colexicographic order (reversed-lex)."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return x[::-1] < y[::-1]


@dataclass(frozen=True)
class SortedSpectrum:
    """An extended k-spectrum in strictly increasing colexicographic order.

    kmers[0] is always the all-$ k-mer. Construction via extended_spectrum
    guarantees all invariants; use validate() to deep-check instances built
    by hand.
    """

    k: int
    kmers: tuple[str, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.kmers or self.kmers[0] != DOLLAR * self.k:
            raise ValueError("spectrum must start with the all-$ k-mer")

    def __len__(self) -> int:
        return len(self.kmers)

    def validate(self) -> None:
        """Check lengths, $-padding shape and strict colex order."""
        k = self.k
        prev = None
        for x in self.kmers:
            if len(x) != k:
                raise ValueError(f"k-mer {x!r} has length {len(x)}, expected {k}")
            body = x.lstrip(DOLLAR)
            if DOLLAR in body:
                raise ValueError(f"$ must be a contiguous left pad: {x!r}")
            check_bases(body, f"k-mer {x!r}")
            if prev is not None and not colex_less(prev, x):
                raise ValueError(f"not strictly colex-sorted at {prev!r} >= {x!r}")
            prev = x


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


def k_spectrum(strings: Iterable[str], k: int) -> set[str]:
    """All distinct length-k substrings of the inputs (Def: k-spectrum)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out: set[str] = set()
    for s in strings:
        check_bases(s, "input string")
        for i in range(len(s) - k + 1):
            out.add(s[i : i + k])
    return out


def source_set(kmers: set[str], k: int) -> set[str]:
    """k-mers with no predecessor under the (k-1)-overlap relation.

    A k-mer disqualifies itself: y = x counts as a witness, so for k = 1
    the source set is empty whenever the input is nonempty.
    """
    suffixes = {y[1:] for y in kmers}
    return {x for x in kmers if x[:-1] not in suffixes}


def k_prefix_set(kmers: set[str], k: int) -> set[str]:
    """$-padded proper prefixes (including the empty one) of each k-mer."""
    out: set[str] = set()
    for x in kmers:
        for i in range(k):
            out.add(DOLLAR * (k - i) + x[:i])
    return out


def extended_spectrum(strings: Iterable[str], k: int) -> SortedSpectrum:
    """Spectrum + padded prefixes of its source set + the all-$ k-mer.

    The prefix padding gives every k-mer a predecessor chain back to the
    all-$ root, which is what makes the subset sequence invertible.
    """
    spectrum = k_spectrum(strings, k)
    padded = k_prefix_set(source_set(spectrum, k), k)
    all_kmers = spectrum | padded | {DOLLAR * k}
    return SortedSpectrum(k, tuple(sorted(all_kmers, key=colex_key)))


def naive_subset_sequence(s: SortedSpectrum) -> list[str]:
    """Outgoing edge labels per k-mer, empty for pruned ranks.

    Rank i is pruned when it shares its (k-1)-suffix with rank i-1; the
    shared out-edges are recorded once, at the first rank of the run.
    Subsets are returned as alphabet-ordered strings ('' for the empty set).
    """
    members = set(s.kmers)
    out: list[str] = []
    prev_suffix = None
    for x in s.kmers:
        suffix = x[1:]
        if suffix == prev_suffix:
            out.append("")
        else:
            out.append("".join(c for c in BASES if suffix + c in members))
        prev_suffix = suffix
    return out


def suffix_match_len(x: str, y: str) -> int:
    """Length of the longest common suffix of two equal-length strings."""
    n = 0
    for a, b in zip(reversed(x), reversed(y)):
        if a != b:
            break
        n += 1
    return n


def naive_lcs(s: SortedSpectrum) -> np.ndarray:
    """Longest-common-suffix lengths of colex-adjacent k-mers; entry 0 is 0."""
    values = np.zeros(len(s.kmers), dtype=np.int32)
    for i in range(1, len(s.kmers)):
        values[i] = suffix_match_len(s.kmers[i - 1], s.kmers[i])
    return values
