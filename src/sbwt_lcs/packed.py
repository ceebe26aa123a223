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
through strings per k-mer, and subset_rows fills its 4 x n subset matrix.
Rows are sorted and deduplicated by _distinct (the text's k-mers past
k = 32, and the padded rows) and placed among sorted rows by _find (the
source test, the padded insertion and the matrix entries): one search on
word 0, and _bisect of the other keys only for the queries that miss
there. Past k = 32 the column _distinct gives each text k-mer also names
a predecessor column for every k-mer that follows another in a piece, as
in Kasai et al.'s LCP construction, and subset_rows takes those as given.
Together they are the only production build (`sbwt-lcs build`);
index.build_index is the string reference they are tested against.
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
    """An extended k-spectrum as packed rows in strictly increasing colex order.

    pred, when set, gives for each row a column whose (k-1)-suffix equals
    the row's (k-1)-prefix, or -1 where the build learned none: the root,
    the padded rows, and k-mers seen only as the first k-mer of a piece.
    """

    k: int
    words: np.ndarray  # (nwords, n) uint64
    lens: np.ndarray  # (n,) int32 body lengths; only the all-$ root, first, has 0
    pred: np.ndarray | None = None  # (n,) int32, or None: search every row

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


def _distinct(keys) -> tuple[int, np.ndarray]:
    """Sort the rows of the keys in place and keep one of each.

    Afterwards the first m entries of every key are the distinct rows in
    key order, and col[i] is the column of input row i among them. An
    unstable argsort of the first key orders most rows at once; only the
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
        del in_run, at, run, sub
    del first, tie
    for key in keys:
        key[:] = key[order]
    keep = _run_starts(keys)
    col = np.empty(len(order), dtype=np.int32)
    col[order] = np.cumsum(keep, dtype=np.int32) - 1
    del order
    m = np.count_nonzero(keep)
    for key in keys:  # in place: a second copy of the keys would raise the peak
        key[:m] = np.compress(keep, key)
    return m, col


def _drop_first(words: np.ndarray, k: int) -> list[np.ndarray]:
    """(k-1)-suffixes of k-symbol rows: the first symbol is the lowest code.

    Only the last word changes, so the others are shared, not copied.
    """
    return [*words[:-1], words[-1] & _top_mask(k - 1 - 32 * (len(words) - 1))]


def _equal_at(keys, at: np.ndarray, queries) -> np.ndarray:
    """Whether key row at[j] equals query row j, for every j."""
    return np.logical_and.reduce([key[at] == q for key, q in zip(keys, queries)])


def _bisect(keys, queries, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Move each lo[j] to the leftmost insertion point of query row j among
    key rows lo[j]..hi[j]-1, which all share the query's first key."""
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


def _find(keys, queries) -> tuple[np.ndarray, np.ndarray]:
    """Leftmost insertion point of each query row among sorted key rows.

    at[j] is the first key row not below query j (len(keys[0]) if none
    is), and found[j] tells whether that row equals query j. One left
    np.searchsorted on the first key lands on the first row sharing it,
    which is the answer for most queries. Only the queries that miss there
    while other rows share their first key go through _bisect.
    """
    at = np.searchsorted(keys[0], queries[0], side="left")
    last = len(keys[0]) - 1
    if last < 0:
        return at, np.zeros(len(at), dtype=bool)
    found = _equal_at(keys, np.minimum(at, last), queries)
    miss = np.flatnonzero(~found)
    if len(keys) > 1 and len(miss):
        rest = [query[miss] for query in queries]
        hi = np.searchsorted(keys[0], rest[0], side="right")
        at[miss] = _bisect(keys, rest, at[miss], hi)
        found[miss] = _equal_at(keys, np.minimum(at[miss], last), rest)
    return at, found


def _drop_last(words: np.ndarray) -> np.ndarray:
    """Rows without their last symbol: every code moves one place up."""
    out = words << np.uint64(2)
    out[:-1] |= words[1:] >> _TOP
    return out


def pack_pieces(pieces: Sequence[str], k: int) -> PackedSpectrum:
    """Extended k-spectrum of ACGT pieces, as oracle.extended_spectrum defines it.

    Only the first k-mer of a piece can be a source: every later one has
    its predecessor in the same piece. Past k = 32 that predecessor becomes
    pred: the sort permutation maps every text position to its column, and
    a column learns its pred from any occurrence that follows another
    k-mer. At k <= 32, where np.sort beats an argsort, pred stays None.
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
    pred = None
    if nw == 1:  # np.sort is much faster than np.unique or a stable sort
        kmers = np.sort(win[ends] & _top_mask(k))[np.newaxis]
        kmers = np.compress(_run_starts(kmers), kmers, axis=1)
    else:
        kmers = _rows(win, ends, k, nw)
        m, col = _distinct(kmers)  # col: column of the k-mer ending at ends[e]
        kmers = kmers[:, :m]
        # the k-mer ending one position earlier in the same piece is a predecessor
        link = np.flatnonzero(ends[1:] - ends[:-1] == 1)
        pred = np.full(kmers.shape[1], -1, dtype=np.int32)
        pred[col[link + 1]] = col[link]
        del col, link
    del ends

    heads = starts[lengths >= k] + k - 1  # end of the first k-mer of each piece
    suffixes = _drop_first(kmers, k)
    prefixes = _rows(win, heads - 1, k - 1, nw)
    has_pred = _find(suffixes, prefixes)[1]
    del suffixes, prefixes
    sources = heads[~has_pred]

    # the root, and $^(k-i) x[:i] for i = 1..k-1 of each source x; _distinct drops repeats
    body = np.tile(np.arange(1, k, dtype=np.int32), len(sources))
    pad_ends = np.repeat(sources - (k - 1), k - 1) + body - 1
    padded = np.concatenate((np.zeros((nw, 1), np.uint64), _rows(win, pad_ends, body, nw)), axis=1)
    body = np.concatenate((np.zeros(1, np.int32), body))
    m = _distinct([*padded, body])[0]
    padded, body = padded[:, :m], body[:m]
    # a padded row goes before the k-mer it ties with: its body is shorter
    at = _find(kmers, padded)[0]
    if pred is not None:  # k-mer column c moves past the padded rows inserted at or before it
        pred += np.searchsorted(at, pred, side="right")
        pred = np.insert(pred, at, -1)
    words = np.insert(kmers, at, padded, axis=1)
    lens = np.insert(np.full(kmers.shape[1], k, dtype=np.int32), at, body)
    return PackedSpectrum(k, words, lens, pred)


def subset_rows(ps: PackedSpectrum) -> np.ndarray:
    """The 4 x n subset matrix of a packed spectrum, rows in A,C,G,T order,
    each packed LSB-first into ceil(n/8) bytes as SbwtIndex takes them.

    Entry j sets the bit of its last symbol at the first column whose
    (k-1)-suffix equals its (k-1)-prefix. Where ps.pred names such a
    column, that is the first column of its run of equal suffixes, set for
    all those entries in one scatter. The other entries (all of them when
    pred is None) are searched for: the suffixes of colex-sorted rows are
    themselves sorted, so the leftmost insertion point from _find is the
    column, one chunk of entries at a time. Almost every prefix matches the
    first suffix that carries its word 0; only padded rows that tie on
    words and, past k = 32, rows that tie on word 0 go through _bisect.
    Entry 0 is the root, which pack_pieces puts first and alone. Raises
    ValueError unless every searched row has such a column (the spectrum
    is prefix-closed).
    """
    k, words, lens, n = ps.k, ps.words, ps.lens, ps.n
    suffixes = [*_drop_first(words, k), np.minimum(lens, k - 1)]
    rows = np.zeros((4, n), dtype=bool)
    if ps.pred is not None:
        # head[c]: the first column of c's (k-1)-suffix run
        head = np.where(_run_starts(suffixes), np.arange(n, dtype=np.int32), 0)
        np.maximum.accumulate(head, out=head)
        known = np.flatnonzero(ps.pred >= 0)
        rows[(words[0, known] >> _TOP).astype(np.uint8), head[ps.pred[known]]] = True
        del head, known
    for start in range(1, n, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        part, body = words[:, chunk], lens[chunk]
        if ps.pred is not None:
            search = ps.pred[chunk] < 0
            part, body = np.compress(search, part, axis=1), body[search]
        prefixes = [*_drop_last(part), body - 1]
        at, found = _find(suffixes, prefixes)
        last = (part[0] >> _TOP).astype(np.intp)
        if not found.all():
            c = int(last[np.argmin(found)])
            raise ValueError(f"spectrum is not prefix-closed at base {BASES[c]}")
        rows[last, at] = True
    return np.packbits(rows, axis=1, bitorder="little")
