"""Reference results computed apart from the program under test.

Nothing here imports sbwt_lcs. A k-mer, or a $-padded prefix of one, is
a row of 2-bit codes (A=0 .. T=3) packed into 64-bit words, the last
symbol most significant, plus the length of its unpadded body. Word 0
holds the last 32 symbols, word 1 the 32 before them, and so on. Integer
order of (words, body length) is then colexicographic order over $ACGT,
because a `$` packs like `A` but belongs to a shorter body, which sorts
first on ties. Arrays are kept word-major: `words[w]` is one word of
every row.

The index and LCS files are parsed here from their documented byte
layout, so a fault in the program's own loaders cannot hide a fault in
its writers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

_CODE = np.full(256, 255, dtype=np.uint8)
_CODE[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4, dtype=np.uint8)
_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

INDEX_HEADER = struct.Struct("<8sQQ")
LCS_HEADER = struct.Struct("<8sQB")


class CheckError(Exception):
    """An output of the program differs from the reference."""


def encode(seq: str) -> np.ndarray:
    codes = _CODE[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]
    if (codes == 255).any():
        raise ValueError("reference inputs must be plain ACGT")
    return codes


def revcomp(seq: str) -> str:
    return seq.translate(str.maketrans("ACGT", "TGCA"))[::-1]


def _windows(codes: np.ndarray) -> np.ndarray:
    """win[q]: the 32 symbols ending at q, symbol q in the top two bits."""
    win = np.zeros(len(codes), dtype=np.uint64)
    c64 = codes.astype(np.uint64)
    for t in range(min(32, len(codes))):
        win[t:] |= c64[: len(codes) - t] << np.uint64(2 * (31 - t))
    return win


def _rows(win: np.ndarray, ends: np.ndarray, lens: np.ndarray, nwords: int) -> np.ndarray:
    """Packed rows of the bodies ending at `ends` with the given lengths."""
    words = np.empty((nwords, len(ends)), dtype=np.uint64)
    for w in range(nwords):
        vals = win[np.maximum(ends - 32 * w, 0)]
        valid = np.clip(lens - 32 * w, 0, 32).astype(np.uint64)
        shift = np.minimum(np.uint64(64) - 2 * valid, np.uint64(63))
        words[w] = np.where(valid > 0, vals & (_ALL << shift), 0)
    return words


def _sort_order(words: np.ndarray, lens: np.ndarray, *extra) -> np.ndarray:
    """Stable colex order; `extra` keys break remaining ties, first key first."""
    return np.lexsort(tuple(reversed(extra)) + (lens,) + tuple(words[::-1]))


def _bit_length(x: np.ndarray) -> np.ndarray:
    hi = np.frexp((x >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((x & np.uint64(0xFFFF_FFFF)).astype(np.float64))[1]
    return np.where(hi > 0, hi + 32, lo)


@dataclass
class Spectrum:
    """Extended k-spectrum in colex order, with the counts the metrics use."""

    k: int
    words: np.ndarray  # (nwords, n) uint64
    lens: np.ndarray  # (n,) body lengths, 0 for the all-$ root
    distinct: int  # distinct k-mers of the input
    sources: int  # distinct k-mers whose (k-1)-prefix ends no k-mer

    @property
    def n(self) -> int:
        return len(self.lens)

    def lcs(self) -> np.ndarray:
        """Common-suffix length of each entry and its predecessor; entry 0 is 0."""
        n = self.n
        first = np.full(n - 1, self.k, dtype=np.int64)
        for w in reversed(range(len(self.words))):
            diff = self.words[w, 1:] ^ self.words[w, :-1]
            nz = np.flatnonzero(diff)
            first[nz] = 32 * w + (64 - _bit_length(diff[nz])) // 2
        shorter = np.minimum(self.lens[1:], self.lens[:-1])
        return np.concatenate(([0], np.minimum(first, shorter))).astype(np.int64)

    def ranks(self, kmers: list[str]) -> np.ndarray:
        """1-based colex rank of each k-mer, or 0 where it is absent."""
        k = self.k
        codes = encode("".join(kmers))
        ends = np.arange(1, len(kmers) + 1, dtype=np.int64) * k - 1
        lens = np.full(len(kmers), k, dtype=np.int64)
        q = _rows(_windows(codes), ends, lens, len(self.words))
        words = np.concatenate((self.words, q), axis=1)
        all_lens = np.concatenate((self.lens, lens))
        is_query = np.concatenate((np.zeros(self.n, bool), np.ones(len(kmers), bool)))
        order = _sort_order(words, all_lens, is_query)
        # the last spectrum entry at or before each query in the merged order
        last = np.maximum.accumulate(np.where(is_query[order], -1, order))
        at = np.empty(len(order), dtype=np.int64)
        at[order] = last
        cand = at[self.n :]
        found = cand >= 0
        safe = np.maximum(cand, 0)
        found &= self.lens[safe] == k
        found &= (self.words[:, safe] == q).all(axis=0)
        return np.where(found, safe + 1, 0)


def extended_spectrum(pieces: list[str], k: int) -> Spectrum:
    """k-mers of the pieces, $-padded prefixes of their sources, the root."""
    nwords = (k + 31) // 32
    long = [p for p in pieces if len(p) >= k]
    codes = encode("".join(long))
    starts = np.cumsum([0] + [len(p) for p in long[:-1]]).astype(np.int64)
    lengths = np.array([len(p) for p in long], dtype=np.int64)
    win = _windows(codes)
    # end position of every k-mer occurrence
    per_piece = lengths - k + 1
    piece_of = np.repeat(np.arange(len(long)), per_piece)
    offset = np.arange(per_piece.sum()) - np.repeat(np.cumsum(per_piece) - per_piece, per_piece)
    ends = starts[piece_of] + offset + k - 1
    full = np.full(len(ends), k, dtype=np.int64)
    kmers = _rows(win, ends, full, nwords)

    # Only the first k-mer of a piece can be a source: every later one has
    # its predecessor in the same piece. Test its (k-1)-prefix against the
    # (k-1)-suffixes of all occurrences, first on word 0, then exactly.
    first_ends = starts + k - 1
    heads = _rows(win, first_ends - 1, np.full(len(long), k - 1), nwords)
    tails = _rows(win, ends, np.full(len(ends), k - 1), nwords)
    maybe = np.flatnonzero(np.isin(heads[0], tails[0]))
    near = np.flatnonzero(np.isin(tails[0], heads[0, maybe]))
    seen = {tuple(tails[:, j]) for j in near}
    has_pred = np.zeros(len(long), dtype=bool)
    has_pred[maybe] = [tuple(heads[:, i]) in seen for i in maybe]
    src_ends = first_ends[~has_pred]

    # padded prefixes $^(k-i) x[:i], i = 0..k-1, of each source occurrence
    body = np.tile(np.arange(k, dtype=np.int64), len(src_ends))
    pad_ends = np.repeat(src_ends - k + 1, k) + body - 1
    padded = _rows(win, pad_ends, body, nwords)

    words = np.concatenate((kmers, padded, np.zeros((nwords, 1), np.uint64)), axis=1)
    lens = np.concatenate((full, body, [0]))
    order = _sort_order(words, lens)
    words, lens = words[:, order], lens[order]
    keep = np.ones(len(lens), dtype=bool)
    keep[1:] = (lens[1:] != lens[:-1]) | (words[:, 1:] != words[:, :-1]).any(axis=0)
    words, lens = words[:, keep], lens[keep]

    distinct = int((lens == k).sum())
    # distinct source k-mers: full-length rows equal to some source occurrence
    src_rows = _rows(win, src_ends, np.full(len(src_ends), k), nwords)
    sources = len({tuple(src_rows[:, j]) for j in range(len(src_ends))})
    return Spectrum(k, np.ascontiguousarray(words), lens, distinct, sources)


def read_index(path) -> tuple[int, np.ndarray, np.ndarray]:
    """Decode an index file: (k, words, lens) of every rank, in rank order.

    The column order of each base's set bits maps onto that base's block
    of ranks; following those edges backwards from a rank spells its k-mer
    from the last symbol to the first.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < INDEX_HEADER.size:
        raise CheckError(f"{path}: shorter than the index header")
    magic, k, n = INDEX_HEADER.unpack_from(data)
    row_bytes = (n + 7) // 8
    if magic != b"SBWTLCS1" or len(data) != INDEX_HEADER.size + 4 * row_bytes:
        raise CheckError(f"{path}: bad magic {magic!r} or size {len(data)} for n={n}")
    pred = np.zeros(n, dtype=np.int64)
    last = np.zeros(n, dtype=np.uint64)
    slot = 1
    for c in range(4):
        raw = np.frombuffer(data, np.uint8, row_bytes, INDEX_HEADER.size + c * row_bytes)
        cols = np.flatnonzero(np.unpackbits(raw, count=n, bitorder="little"))
        if slot + len(cols) > n:
            raise CheckError(f"{path}: more edges than ranks")
        pred[slot : slot + len(cols)] = cols
        last[slot : slot + len(cols)] = c
        slot += len(cols)
    if slot != n:
        raise CheckError(f"{path}: {slot - 1} edges for n={n}")
    nwords = (k + 31) // 32
    words = np.zeros((nwords, n), dtype=np.uint64)
    lens = np.zeros(n, dtype=np.int64)
    cur = np.arange(n, dtype=np.int64)
    for t in range(k):
        alive = cur != 0
        if not alive.any():
            break
        words[t // 32] |= np.where(alive, last[cur], 0) << np.uint64(2 * (31 - t % 32))
        lens += alive
        cur = pred[cur]
    return int(k), words, lens


def read_lcs(path) -> np.ndarray:
    """Values of an LCS file, parsed from its documented layout."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < LCS_HEADER.size:
        raise CheckError(f"{path}: shorter than the LCS header")
    magic, n, width = LCS_HEADER.unpack_from(data)
    if magic != b"LCSARR01" or width not in (1, 2, 4):
        raise CheckError(f"{path}: bad magic {magic!r} or width {width}")
    if len(data) != LCS_HEADER.size + n * width:
        raise CheckError(f"{path}: size {len(data)} for n={n} width={width}")
    return np.frombuffer(data, f"<u{width}", n, LCS_HEADER.size).astype(np.int64)


def check_index(path, spectrum: Spectrum) -> None:
    k, words, lens = read_index(path)
    if k != spectrum.k or len(lens) != spectrum.n:
        raise CheckError(f"index has k={k} n={len(lens)}, expected k={spectrum.k} n={spectrum.n}")
    bad = np.flatnonzero((lens != spectrum.lens) | (words != spectrum.words).any(axis=0))
    if len(bad):
        raise CheckError(f"index decodes to another spectrum from rank {bad[0] + 1} on")


def check_lcs(values: np.ndarray, expected: np.ndarray, what: str) -> None:
    values = np.asarray(values)
    if values.shape != expected.shape:
        raise CheckError(f"{what}: {values.shape[0]} values, expected {expected.shape[0]}")
    bad = np.flatnonzero(values != expected)
    if len(bad):
        i = bad[0]
        raise CheckError(f"{what}: rank {i + 1} holds {values[i]}, expected {expected[i]}")


def contractions(lcs: np.ndarray, ranks: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """(lo, hi) of the maximal run around each rank whose links are >= the order.

    lcs[j] links ranks j and j+1 (1-based), so a link below m at j ends a
    run at rank j and starts the next one at rank j+1.
    """
    n = len(lcs)
    out = np.empty((len(ranks), 2), dtype=np.int64)
    for m in np.unique(orders):
        sel = np.flatnonzero(orders == m)
        breaks = np.flatnonzero(lcs < m)  # holds 0, since lcs[0] == 0
        i = np.searchsorted(breaks, ranks[sel], side="left")
        out[sel, 0] = breaks[i - 1] + 1
        out[sel, 1] = np.where(i < len(breaks), breaks[np.minimum(i, len(breaks) - 1)], n)
    return out
