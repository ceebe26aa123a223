"""Succinct subset-matrix index over a sorted k-mer spectrum.

The matrix has one row per base and one column per k-mer in colex order;
row c, column i is set iff c extends the (k-1)-suffix of the i-th k-mer
(recorded only at the first column of a run of equal suffixes). Together
with the cumulative last-symbol counts C this supports LF-style right
extension of colex intervals in constant time per rank query.

All ranks in the public API are 1-based; internal arrays are 0-based.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, BinaryIO, NamedTuple

import numpy as np

from .alphabet import BASES, BASE_CODES

if TYPE_CHECKING:
    from .oracle import SortedSpectrum

MAGIC = b"SBWTLCS1"
_HEADER = struct.Struct("<8sQQ")
# the largest k that sbwt-lcs build writes and load_index accepts
MAX_K = 4096


class FormatError(ValueError):
    """Raised when a serialized index or LCS file is malformed."""


class ColexInterval(NamedTuple):
    """1-based inclusive interval of colex ranks sharing a suffix."""

    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo + 1


class Bitvector:
    """Immutable bitvector with O(1) rank via one table of word counts.

    _cum[q] is the number of set bits in words 0..q-1, for q = 0..nwords,
    so rank(i) is _cum[i >> 6] plus the popcount of word i >> 6 below bit
    i & 63. At i = n with n a multiple of 64 that word is the zero pad word.
    The scalar reads of rank and test go through zero-copy memoryviews,
    which yield Python ints; rank_many reads the arrays.
    """

    __slots__ = ("n", "popcount", "_words", "_cum", "_wordv", "_cumv")

    def __init__(self, packed: np.ndarray, n: int):
        """packed: n bits in ceil(n/8) LSB-first bytes, padding bits clear."""
        self.n = n
        nwords = (n + 63) >> 6
        buf = np.zeros((nwords + 1) * 8, dtype=np.uint8)  # one zero pad word
        buf[: len(packed)] = packed
        self._words = buf.view(np.uint64)
        self._cum = np.zeros(nwords + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(self._words[:nwords]), out=self._cum[1:])
        self.popcount = int(self._cum[-1])
        self._wordv = memoryview(self._words)
        self._cumv = memoryview(self._cum)

    def test(self, i: int) -> bool:
        """Value of bit i (0-based)."""
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return bool((self._wordv[i >> 6] >> (i & 63)) & 1)

    def rank(self, i: int) -> int:
        """Number of set bits among bits 0..i-1; 0 <= i <= n."""
        if not 0 <= i <= self.n:
            raise IndexError(f"rank position {i} out of range for length {self.n}")
        q = i >> 6
        r = self._cumv[q]
        rem = i & 63
        if rem:
            r += (self._wordv[q] & ((1 << rem) - 1)).bit_count()
        return r

    def rank_many(self, i: np.ndarray) -> np.ndarray:
        """Vectorized rank over an array of positions in [0, n]."""
        i = np.asarray(i, dtype=np.int64)
        q = i >> 6
        rem = i.view(np.uint64) & np.uint64(63)
        masked = self._words[q] & ((np.uint64(1) << rem) - np.uint64(1))
        return self._cum[q] + np.bitwise_count(masked)

    def to_bool(self) -> np.ndarray:
        raw = self._words.view(np.uint8)
        return np.unpackbits(raw, count=self.n, bitorder="little").view(bool)

    def packed_bytes(self) -> bytes:
        """LSB-first packed bits, exactly ceil(n/8) bytes."""
        return self._words.view(np.uint8)[: (self.n + 7) >> 3].tobytes()


@dataclass(frozen=True)
class SubsetMatrix:
    """One bitvector per base, all of length n; total set bits is n-1."""

    rows: tuple[Bitvector, ...]  # indexed by base code - 1 (A, C, G, T)

    def row(self, base: str) -> Bitvector:
        return self.rows[BASE_CODES[base] - 1]


class SbwtIndex:
    """Queryable subset-matrix index: matrix + cumulative counts + order k."""

    def __init__(self, k: int, n: int, rows: np.ndarray):
        """rows: uint8 array of shape (4, ceil(n/8)), the A,C,G,T rows as
        LSB-first packed bits (the layout of the index file)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        rows = np.asarray(rows, dtype=np.uint8)
        if n < 1 or rows.shape != (4, (n + 7) >> 3):
            raise ValueError("expected 4 rows of ceil(n/8) packed bytes with n >= 1")
        if n & 7 and (rows[:, -1] >> (n & 7)).any():
            raise FormatError("nonzero padding bits in row data")
        self.k = k
        self.n = n
        self.matrix = SubsetMatrix(tuple(Bitvector(r, n) for r in rows))
        pops = [bv.popcount for bv in self.matrix.rows]
        if sum(pops) != n - 1:
            raise FormatError(
                f"inconsistent subset matrix: {sum(pops)} set bits for n={n}"
            )
        # counts[c]: k-mers whose last symbol sorts below row c's base. The $
        # sentinel is counted, so counts[0] == 1: this folds the +1 rank
        # offset of the all-$ row into the extension formula.
        self.counts = tuple(1 + sum(pops[:c]) for c in range(4))
        # per row: the word and cumulative-count memoryviews and counts[c],
        # so that a query can inline a right-extension step
        self.steps = tuple(
            (bv._wordv, bv._cumv, before)
            for bv, before in zip(self.matrix.rows, self.counts)
        )

    @cached_property
    def pred(self) -> np.ndarray:
        """pred[i] is the 0-based column whose edge leads into column i: the
        first k-mer whose (k-1)-suffix is column i's (k-1)-prefix, so one
        label round is the gather labels[pred]. pred[0] = 0 keeps the root
        on itself. Base c's set columns fill its LF block in column order,
        unpacked one row at a time on first use."""
        pred = np.zeros(self.n, dtype=np.intp)
        for start, bv in zip(self.counts, self.matrix.rows):
            pred[start : start + bv.popcount] = np.flatnonzero(bv.to_bool())
        return pred

    def __eq__(self, other) -> bool:
        if not isinstance(other, SbwtIndex):
            return NotImplemented
        return (
            self.k == other.k
            and self.n == other.n
            and all(
                a.packed_bytes() == b.packed_bytes()
                for a, b in zip(self.matrix.rows, other.matrix.rows)
            )
        )


def build_index(s: SortedSpectrum) -> SbwtIndex:
    """Reference build: the subset matrix as oracle.naive_subset_sequence
    defines it, one bit per (base, rank).

    Raises ValueError if the spectrum fails SortedSpectrum.validate, or is
    not prefix-closed (some k-mer would have no predecessor, so fewer than
    n-1 bits are set), since the LF mapping is then not a bijection.
    """
    from .oracle import naive_subset_sequence

    s.validate()
    subsets = naive_subset_sequence(s)
    bits = np.array([[base in x for x in subsets] for base in BASES], dtype=bool)
    if np.count_nonzero(bits) != len(s) - 1:
        raise ValueError("spectrum is not prefix-closed")
    return SbwtIndex(s.k, len(s), np.packbits(bits, axis=1, bitorder="little"))


def extend_right(
    index: SbwtIndex, lo: int, hi: int, base: str
) -> ColexInterval | None:
    """Interval of suffix (alpha + base) given the interval of alpha.

    Returns None when no k-mer has the extended suffix.
    """
    if not 1 <= lo <= hi <= index.n:
        raise ValueError(f"invalid interval [{lo}, {hi}] for n={index.n}")
    if base not in BASE_CODES:
        raise ValueError(f"invalid base {base!r}")
    row = index.matrix.row(base)
    c = index.counts[BASE_CODES[base] - 1]
    low_rank = row.rank(lo - 1)
    high_rank = row.rank(hi)
    if low_rank == high_rank:
        return None
    return ColexInterval(c + low_rank + 1, c + high_rank)


def save_index(index: SbwtIndex, sink) -> None:
    """Write the binary index format: magic, k, n, then the four rows."""
    own = not hasattr(sink, "write")
    fh: BinaryIO = open(sink, "wb") if own else sink
    try:
        fh.write(_HEADER.pack(MAGIC, index.k, index.n))
        for bv in index.matrix.rows:
            fh.write(bv.packed_bytes())
    finally:
        if own:
            fh.close()


def load_index(source) -> SbwtIndex:
    """Read an index written by save_index, recomputing and checking counts."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError("truncated index file: missing header")
    magic, k, n = _HEADER.unpack_from(data)
    if magic[:7] != MAGIC[:7]:
        raise FormatError(f"bad magic {magic!r}")
    if magic != MAGIC:
        raise FormatError(f"unsupported index version {magic!r}")
    if not 1 <= k <= MAX_K or n < 1:
        raise FormatError(
            f"invalid header values k={k} n={n}: expected 1 <= k <= {MAX_K} and n >= 1"
        )
    row_bytes = (n + 7) >> 3
    expected = _HEADER.size + 4 * row_bytes
    if len(data) < expected:
        raise FormatError("truncated index file")
    if len(data) > expected:
        raise FormatError("trailing data after index payload")
    rows = np.frombuffer(data, dtype=np.uint8, count=4 * row_bytes, offset=_HEADER.size)
    return SbwtIndex(int(k), int(n), rows.reshape(4, row_bytes))
