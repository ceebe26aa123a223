"""Extended k-spectrum and subset matrix built from packed 2-bit keys.

A row is a k-mer, or a $-padded prefix of one: its symbols as 2-bit codes
(A=0 .. T=3) packed into 64-bit words with the last symbol most
significant, plus the length of its unpadded body. Word 0 holds the last
32 symbols, word 1 the 32 before them, and so on, so k <= 32 needs a
single word. A row's keys, compared first to last, are its words, word 0
first, then its body length wherever rows can tie on words. Key order is
colexicographic order over $ACGT, because a $ packs like A but belongs to
a shorter body, which sorts first on ties.

Every body is a substring of the input text, so a row need not keep its
words: it is the end position of its body in the text and the body
length, and word w is win[end - 32w] masked to the body, where win[q]
holds the 32 symbols ending at position q (Rows). Past k = 32 no step
holds every word of every row: word 0 is gathered for all rows, and each
later key only for the rows that still tie on the keys before it. At
k <= 32 the text's k-mers keep their one word, which np.sort orders.

pack_pieces builds the spectrum from cleaned input pieces without going
through strings per k-mer, and subset_rows fills its 4 x n subset matrix.
Rows are sorted and deduplicated by _distinct (the text's k-mers past
k = 32, and the padded rows) and placed among sorted rows by _find (the
source test, the padded insertion and the matrix entries): one search on
word 0 and one _compare of the later keys with the first row found, then
_bisect over the rest of the word-0 run only for the queries that row
sorts below. Past k = 32 the column _distinct gives each text k-mer also
names a predecessor column for every k-mer that follows another in a
piece, as in Kasai et al.'s LCP construction, and subset_rows takes those
as given. Together they are the only production build (`sbwt-lcs
build`); oracle.build_index is the string reference they are tested
against.
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


def _top_mask(symbols):
    """Word mask keeping the top `symbols` (<= 32; none if <= 0) codes; scalar or array."""
    symbols = np.asarray(symbols, dtype=np.int64)
    shift = np.minimum(64 - 2 * symbols, 63).astype(np.uint64)
    return np.where(symbols > 0, _ALL << shift, np.uint64(0))


def _same(length: int, n: int) -> np.ndarray:
    """n equal body lengths as a read-only view of one value."""
    return np.broadcast_to(np.int32(length), (n,))


@dataclass(frozen=True)
class Rows:
    """Packed rows whose keys are gathered when a step needs them.

    With ends set, row i is the body of lens[i] symbols ending at text
    position ends[i], and win[q] holds the min(k, 32) or more symbols
    ending at q, symbol q on top. With ends None, row i is the single word
    win[i], masked to its body already.
    """

    win: np.ndarray  # uint64
    ends: np.ndarray | None  # (n,) int64, or None
    lens: np.ndarray  # (n,) int32 body lengths
    nw: int  # words per row

    def word(self, w: int, sel=slice(None)) -> np.ndarray:
        """Word w of the selected rows (a slice or an index array)."""
        if self.ends is None:
            return self.win[sel]
        at = self.ends[sel]
        if w:  # only a body too short to reach word w can start after position 32w
            at = np.maximum(at - 32 * w, 0)
        out = self.win[at]  # an empty prefix ends at -1 and reads the last window: masked
        del at
        lens = self.lens[sel]
        part = np.flatnonzero(lens < 32 * (w + 1))
        if len(part):
            out[part] &= _top_mask(lens[part] - 32 * w)
        return out

    def key(self, j: int, sel=slice(None)) -> np.ndarray:
        """Key j of the selected rows: word j, or the body length at j = nw."""
        return self.word(j, sel) if j < self.nw else self.lens[sel]

    def take(self, sel) -> Rows:
        if self.ends is None:
            return Rows(self.win[sel], None, self.lens[sel], self.nw)
        return Rows(self.win, self.ends[sel], self.lens[sel], self.nw)

    def suffixes(self, k: int) -> Rows:
        """(k-1)-suffixes of the rows: a body of k symbols loses its first."""
        lens = np.minimum(self.lens, k - 1)
        if self.ends is None:
            return Rows(self.win & _top_mask(k - 1), None, lens, self.nw)
        return Rows(self.win, self.ends, lens, self.nw)

    def prefixes(self, sel) -> Rows:
        """The selected rows without their last symbol."""
        if self.ends is None:  # every code moves one place up
            return Rows(self.win[sel] << np.uint64(2), None, self.lens[sel] - 1, self.nw)
        return Rows(self.win, self.ends[sel] - 1, self.lens[sel] - 1, self.nw)


@dataclass(frozen=True)
class PackedSpectrum:
    """An extended k-spectrum as packed rows in strictly increasing colex order.

    pred, when set, gives for each row a column whose (k-1)-suffix equals
    the row's (k-1)-prefix, or -1 where the build learned none: the root,
    the padded rows, and k-mers seen only as the first k-mer of a piece.
    """

    k: int
    rows: Rows  # text positions past k = 32, words at k <= 32; the all-$ root first
    pred: np.ndarray | None = None  # (n,) int32, or None: search every row

    @property
    def n(self) -> int:
        return len(self.rows.lens)


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


def _compare(keys: Rows, at: np.ndarray, queries: Rows, sel: np.ndarray, nkeys: int):
    """(less, equal): whether key row at[j] sorts below query row sel[j],
    and whether it equals it, on the first nkeys keys of pairs that tie on
    word 0. Each later key is gathered only for the pairs still tied."""
    less = np.zeros(len(at), dtype=bool)
    equal = np.ones(len(at), dtype=bool)
    tied = slice(None)  # every pair ties on word 0
    for j in range(1, nkeys):
        a, b = keys.key(j, at[tied]), queries.key(j, sel[tied])
        less[tied], equal[tied] = a < b, a == b
        tied = np.flatnonzero(equal)
    return less, equal


def _run_starts(key0: np.ndarray, rows: Rows | None = None, nkeys: int = 1) -> np.ndarray:
    """Mask of the sorted rows that differ from their predecessor.

    key0 is word 0 of every row; only the rows that tie with their
    predecessor on it go through _compare on the later keys.
    """
    new = np.empty(len(key0), dtype=bool)
    new[:1] = True
    new[1:] = key0[1:] != key0[:-1]
    if nkeys > 1:
        tie = np.flatnonzero(~new)
        new[tie[~_compare(rows, tie - 1, rows, tie, nkeys)[1]]] = True
    return new


def _distinct(rows: Rows, nkeys: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows on their first nkeys keys and keep one of each.

    Returns first, one row of each distinct key in key order, and col,
    where col[i] is the position of row i's key in first. An unstable
    argsort of word 0 orders most rows at once. Each later key is gathered
    only for the runs of rows that still tie, which np.lexsort orders
    within their run; the runs that remain after the last key are the
    duplicates.
    """
    key = rows.word(0)
    order = np.argsort(key)
    key = key[order]
    new = _run_starts(key)
    del key
    at = np.arange(len(order))
    for j in range(1, nkeys):
        # narrow at to the sorted positions in a run of rows tied on keys 0..j-1
        tie = ~new[at[1:]]
        in_run = np.zeros(len(at), dtype=bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        at = at[in_run]
        if not len(at):
            break
        sub = order[at]
        key = rows.key(j, sub)
        if not (~new[at[1:]] & (key[1:] != key[:-1])).any():
            continue  # key j splits no run: the order stands
        perm = np.lexsort((key, np.cumsum(new[at])))
        order[at], key = sub[perm], key[perm]
        new[at[1:]] |= key[1:] != key[:-1]
    del at
    col = np.empty(len(order), dtype=np.int32)
    col[order] = np.cumsum(new, dtype=np.int32) - 1
    return order[new], col


def _bisect(keys: Rows, queries: Rows, lo: np.ndarray, hi: np.ndarray, nkeys: int):
    """(lo, found): each lo[j] moved to the leftmost insertion point of
    query row j among key rows lo[j]..hi[j]-1, which all share the query's
    word 0, and whether the row there equals the query. The insertion
    point is the last probe not below the query, so found is its equality."""
    found = np.zeros(len(lo), dtype=bool)
    todo = np.flatnonzero(lo < hi)
    while len(todo):
        mid = (lo[todo] + hi[todo]) >> 1
        less, equal = _compare(keys, mid, queries, todo, nkeys)
        lo[todo] = np.where(less, mid + 1, lo[todo])
        hi[todo] = np.where(less, hi[todo], mid)
        found[todo] = np.where(less, found[todo], equal)
        todo = todo[lo[todo] < hi[todo]]
    return lo, found


def _find(keys: Rows, key0: np.ndarray, queries: Rows, nkeys: int) -> tuple[np.ndarray, np.ndarray]:
    """Leftmost insertion point of each query row among sorted key rows,
    comparing their first nkeys keys; key0 is word 0 of every key row.

    at[j] is the first key row not below query j (len(key0) if none is),
    and found[j] tells whether that row equals query j. One left
    np.searchsorted on word 0 lands on the first row sharing it, and one
    _compare of that row with the query is the answer for most queries.
    Only the queries that this row sorts below go through _bisect, over
    the rest of their word-0 run.
    """
    q0 = queries.word(0)
    at = np.searchsorted(key0, q0, side="left")
    last = len(key0) - 1
    if last < 0:
        return at, np.zeros(len(at), dtype=bool)
    found = np.zeros(len(at), dtype=bool)
    hit = np.flatnonzero(key0[np.minimum(at, last)] == q0)  # queries whose word 0 is a key row's
    less, found[hit] = _compare(keys, at[hit], queries, hit, nkeys)
    below = hit[less]
    if len(below):
        hi = np.searchsorted(key0, q0[below], side="right")
        at[below], found[below] = _bisect(keys, queries.take(below), at[below] + 1, hi, nkeys)
    return at, found


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
    nw = (k + 31) // 32
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
    offset = np.arange(len(sym), dtype=np.int64) - np.repeat(starts, lengths)
    ends = np.flatnonzero(offset >= k - 1)  # the last position of every k-mer
    if nw > 1:  # whether the k-mer ending one position earlier is in the same piece
        follows = offset[ends[1:]] >= k
    del offset
    # the root's body ends at position 0, even in an empty text
    win = _windows(sym, min(k, 32)) if len(sym) else np.zeros(1, dtype=np.uint64)
    del sym
    pred = None
    if nw == 1:  # np.sort is much faster than np.unique or a stable sort
        words = np.sort(win[ends] & _top_mask(k))
        words = np.compress(_run_starts(words), words)
        kmers = Rows(words, None, _same(k, len(words)), 1)
    else:
        first, col = _distinct(Rows(win, ends, _same(k, len(ends)), nw), nw)
        pred = np.full(len(first), -1, dtype=np.int32)
        pred[col[1:][follows]] = col[:-1][follows]  # that k-mer is a predecessor
        del col, follows
        kmers = Rows(win, ends[first], _same(k, len(first)), nw)
        del first
    del ends
    m = len(kmers.lens)

    heads = starts[lengths >= k] + k - 1  # end of the first k-mer of each piece
    prefixes = Rows(win, heads - 1, _same(k - 1, len(heads)), nw)
    suffixes = kmers.suffixes(k)
    has_pred = _find(suffixes, suffixes.word(0), prefixes, nw)[1]
    del suffixes, prefixes
    sources = heads[~has_pred]

    # the root, and $^(k-i) x[:i] for i = 1..k-1 of each source x; _distinct drops repeats
    body = np.tile(np.arange(1, k, dtype=np.int32), len(sources))
    pad_ends = np.repeat(sources - (k - 1), k - 1) + body - 1
    root = np.zeros(1, dtype=np.int32)
    padded = Rows(win, np.concatenate((root, pad_ends)), np.concatenate((root, body)), nw)
    del root, body, pad_ends
    padded = padded.take(_distinct(padded, nw + 1)[0])
    # a padded row goes before the k-mer it ties with: its body is shorter
    at = _find(kmers, kmers.word(0), padded, nw)[0]
    lens = np.insert(np.full(m, k, dtype=np.int32), at, padded.lens)
    if pred is None:
        rows = Rows(np.insert(kmers.win, at, padded.word(0)), None, lens, 1)
    else:  # k-mer column c moves past the padded rows inserted at or before it
        pred += np.searchsorted(at, pred, side="right")
        pred = np.insert(pred, at, -1)
        rows = Rows(win, np.insert(kmers.ends, at, padded.ends), lens, nw)
    return PackedSpectrum(k, rows, pred)


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
    first suffix that carries its word 0; only a prefix which that suffix
    sorts below on a later key (a longer body that ties with it on words
    or, past k = 32, one that ties on word 0 only) goes through _bisect.
    Entry 0 is the root, which pack_pieces puts first and alone. Raises
    ValueError unless every searched row has such a column (the spectrum
    is prefix-closed).
    """
    k, rows, n = ps.k, ps.rows, ps.n
    nkeys = rows.nw + 1
    suffixes = rows.suffixes(k)
    key0 = suffixes.word(0)
    bits = np.zeros((4, n), dtype=bool)
    if ps.pred is not None:
        # head[c]: the first column of c's (k-1)-suffix run
        head = np.arange(n, dtype=np.int32)
        head[~_run_starts(key0, suffixes, nkeys)] = 0
        np.maximum.accumulate(head, out=head)
    for start in range(1, n, _CHUNK):
        search = slice(start, start + _CHUNK)
        last = (rows.word(0, search) >> _TOP).astype(np.intp)  # a row's last symbol tops word 0
        if ps.pred is not None:
            pred = ps.pred[search]
            known = pred >= 0
            bits[last[known], head[pred[known]]] = True
            search = np.flatnonzero(~known) + start
            last = last[~known]
        at, found = _find(suffixes, key0, rows.prefixes(search), nkeys)
        if not found.all():
            c = int(last[np.argmin(found)])
            raise ValueError(f"spectrum is not prefix-closed at base {BASES[c]}")
        bits[last, at] = True
    return np.packbits(bits, axis=1, bitorder="little")
