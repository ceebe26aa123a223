"""Extended k-spectrum and subset matrix built from packed 2-bit keys.

A row is a k-mer, or a $-padded prefix of one: its symbols as 2-bit codes
(A=0 .. T=3) packed into 64-bit words with the last symbol most
significant, plus the length of its unpadded body. Word 0 holds the last
32 symbols, word 1 the 32 before them, and so on; arrays are word-major,
so words[w] is one word of every row and k <= 32 needs a single word.
A sort key is a sequence of equal-length 1-D arrays, compared first to
last: the words, word 0 first, then the body length wherever rows can tie
on words. Key order is colexicographic order over $ACGT, because a $ packs
like A but belongs to a shorter body, which sorts first on ties.

pack_pieces builds the spectrum from cleaned input pieces without going
through strings per k-mer, and subset_rows fills its 4 x n subset matrix
by sorted search. Together they are the only production build (`sbwt-lcs
build`); index.build_index is the string reference they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alphabet import BASES, ROW_OF

_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_TOP = np.uint64(62)

# entries per step of subset_rows: bounds its working buffers
_CHUNK = 1 << 16


@dataclass(frozen=True)
class PackedSpectrum:
    """An extended k-spectrum as packed rows in strictly increasing colex order."""

    k: int
    words: np.ndarray  # (nwords, n) uint64
    lens: np.ndarray  # (n,) int32 body lengths; only the all-$ root, first, has 0

    @property
    def n(self) -> int:
        return len(self.lens)


def _nwords(k: int) -> int:
    return (k + 31) // 32


def _top_mask(symbols):
    """Word mask keeping the top `symbols` (0..32) codes; scalar or array."""
    symbols = np.asarray(symbols, dtype=np.int64)
    shift = np.minimum(64 - 2 * symbols, 63).astype(np.uint64)
    return np.where(symbols > 0, _ALL << shift, np.uint64(0))


def _windows(codes: np.ndarray, span: int) -> np.ndarray:
    """win[q]: at least `span` (<= 32) symbols ending at q, symbol q on top.

    Built by doubling; symbols before position 0 read as A, and symbols of
    a neighbouring piece may follow the wanted ones, so callers mask.
    """
    win = codes.astype(np.uint64) << _TOP
    have = 1
    while have < span:
        win[have:] |= win[:-have] >> np.uint64(2 * have)
        have *= 2
    return win


def _rows(win: np.ndarray, ends: np.ndarray, lens, nw: int) -> np.ndarray:
    """Packed rows of the bodies of the given lengths ending at `ends`."""
    out = np.empty((nw, len(ends)), dtype=np.uint64)
    for w in range(nw):
        out[w] = win[np.maximum(ends - 32 * w, 0)] & _top_mask(np.clip(lens - 32 * w, 0, 32))
    return out


def _run_starts(keys) -> np.ndarray:
    """Mask of the rows of sorted keys that differ from their predecessor."""
    keep = np.zeros(len(keys[0]), dtype=bool)
    for key in keys:
        keep[1:] |= key[1:] != key[:-1]
    keep[:1] = True
    return keep


def _order(keys) -> np.ndarray:
    """Indices of one row of each distinct key, in key order.

    An unstable sort on the first key orders most rows at once; only the
    runs of rows sharing it go through np.lexsort of the other keys, keyed
    first by run.
    """
    order = np.argsort(keys[0])
    first = keys[0][order]
    tie = first[1:] == first[:-1]
    if len(keys) > 1 and tie.any():
        in_run = np.zeros(len(order), dtype=bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        at = np.flatnonzero(in_run)
        run = np.cumsum(np.concatenate(([True], ~tie))[at])
        sub = order[at]
        order[at] = sub[np.lexsort([key[sub] for key in keys[:0:-1]] + [run])]
    return order[_run_starts([key[order] for key in keys])]


def _search(keys, queries) -> np.ndarray:
    """Leftmost insertion point of each query row among sorted key rows.

    Two np.searchsorted calls on the first key narrow each query to the
    run of rows sharing it; bisection settles the other keys inside those
    runs, which are short.
    """
    lo = np.searchsorted(keys[0], queries[0], side="left")
    if len(keys) == 1:
        return lo
    hi = np.searchsorted(keys[0], queries[0], side="right")
    todo = np.flatnonzero(lo < hi)
    while len(todo):
        mid = (lo[todo] + hi[todo]) >> 1
        less = np.zeros(len(todo), dtype=bool)
        for key, query in zip(keys[:0:-1], queries[:0:-1]):
            a, b = key[mid], query[todo]
            less = np.where(a == b, less, a < b)
        lo[todo] = np.where(less, mid + 1, lo[todo])
        hi[todo] = np.where(less, hi[todo], mid)
        todo = todo[lo[todo] < hi[todo]]
    return lo


def _drop_first(words: np.ndarray, k: int) -> list[np.ndarray]:
    """(k-1)-suffixes of k-symbol rows: the first symbol is the lowest code.

    Only the last word changes, so the others are shared, not copied.
    """
    return [*words[:-1], words[-1] & _top_mask(k - 1 - 32 * (len(words) - 1))]


def _equal_at(keys, at: np.ndarray, queries) -> np.ndarray:
    """Whether key row at[j] equals query row j, for every j."""
    return np.logical_and.reduce([key[at] == q for key, q in zip(keys, queries)])


def _drop_last(words: np.ndarray) -> np.ndarray:
    """Rows without their last symbol: every code moves one place up."""
    out = words << np.uint64(2)
    out[:-1] |= words[1:] >> _TOP
    return out


def pack_pieces(pieces: Sequence[str], k: int) -> PackedSpectrum:
    """Extended k-spectrum of ACGT pieces, as oracle.extended_spectrum defines it.

    Only the first k-mer of a piece can be a source: every later one has
    its predecessor in the same piece.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nw = _nwords(k)
    text = "".join(pieces)
    sym = np.frombuffer(text.encode("ascii", "replace").translate(ROW_OF), dtype=np.uint8)
    bad = np.flatnonzero(sym > 3)
    if len(bad):
        raise ValueError(
            f"invalid symbol {text[bad[0]]!r} in input string: expected one of ACGT"
        )
    del text
    lengths = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))
    starts = np.cumsum(lengths) - lengths
    win = _windows(sym, min(k, 32))
    del sym
    offset = np.arange(len(win), dtype=np.int64) - np.repeat(starts, lengths)
    ends = np.flatnonzero(offset >= k - 1)  # the last position of every k-mer
    del offset
    if nw == 1:  # np.sort is much faster than np.unique or a stable sort
        kmers = np.sort(win[ends] & _top_mask(k))[np.newaxis]
        kmers = kmers[:, _run_starts(kmers)]
    else:
        kmers = _rows(win, ends, k, nw)
        kmers = kmers[:, _order(kmers)]
    del ends

    heads = starts[lengths >= k] + k - 1  # end of the first k-mer of each piece
    suffixes = _drop_first(kmers, k)
    prefixes = _rows(win, heads - 1, k - 1, nw)
    at = np.minimum(_search(suffixes, prefixes), kmers.shape[1] - 1)
    has_pred = _equal_at(suffixes, at, prefixes)
    del suffixes, prefixes
    sources = heads[~has_pred]

    # the root, and $^(k-i) x[:i] for i = 1..k-1 of each source x; _order drops repeats
    body = np.tile(np.arange(1, k, dtype=np.int32), len(sources))
    pad_ends = np.repeat(sources - (k - 1), k - 1) + body - 1
    padded = np.concatenate((np.zeros((nw, 1), np.uint64), _rows(win, pad_ends, body, nw)), axis=1)
    body = np.concatenate((np.zeros(1, np.int32), body))
    keep = _order([*padded, body])
    padded, body = padded[:, keep], body[keep]
    # a padded row goes before the k-mer it ties with: its body is shorter
    at = _search(kmers, padded)
    words = np.insert(kmers, at, padded, axis=1)
    lens = np.insert(np.full(kmers.shape[1], k, dtype=np.int32), at, body)
    return PackedSpectrum(k, words, lens)


def subset_rows(ps: PackedSpectrum) -> np.ndarray:
    """The 4 x n subset matrix of a packed spectrum, rows in A,C,G,T order,
    each packed LSB-first into ceil(n/8) bytes as SbwtIndex takes them.

    Entry j sets the bit of its last symbol at the first column whose
    (k-1)-suffix equals its (k-1)-prefix. The suffixes of colex-sorted rows
    are themselves sorted, so that column is found by search, one chunk of
    entries at a time; entry 0 is the root, which pack_pieces puts first
    and alone. Raises ValueError unless every later row has such a column
    (the spectrum is prefix-closed).
    """
    k, words, lens, n = ps.k, ps.words, ps.lens, ps.n
    suffixes = [*_drop_first(words, k), np.minimum(lens, k - 1)]
    rows = np.zeros((4, n), dtype=bool)
    for start in range(1, n, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        part = words[:, chunk]
        prefixes = [*_drop_last(part), lens[chunk] - 1]
        at = np.minimum(_search(suffixes, prefixes), n - 1)
        found = _equal_at(suffixes, at, prefixes)
        last = (part[0] >> _TOP).astype(np.intp)
        if not found.all():
            c = int(last[np.argmin(found)])
            raise ValueError(f"spectrum is not prefix-closed at base {BASES[c]}")
        rows[last, at] = True
    return np.packbits(rows, axis=1, bitorder="little")
