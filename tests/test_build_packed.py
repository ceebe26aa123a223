"""The packed-key build against the string reference build_index, directly
and through the CLI, and build_index's own input checks."""

import dataclasses
import io
import re
import tracemalloc
from bisect import bisect_left
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbwt_lcs import (
    SbwtIndex,
    SortedSpectrum,
    build_index,
    decode_spectrum,
    extended_spectrum,
    packed,
    save_index,
)
from sbwt_lcs.alphabet import BASES, ROW_OF
from sbwt_lcs.cli import main, packed_index
from sbwt_lcs.packed import (
    PackedSpectrum,
    Rows,
    _bisect,
    _distinct,
    _find,
    pack_pieces,
    subset_rows,
)

from conftest import random_instance

KS = (1, 2, 3, 31, 32, 33, 63, 64, 65, 127, 128)


def index_bytes(index):
    buf = io.BytesIO()
    save_index(index, buf)
    return buf.getvalue()


def check_against_oracle(pieces, k):
    spectrum = extended_spectrum(pieces, k)
    index = packed_index(pieces, k)
    assert decode_spectrum(index).kmers == spectrum.kmers
    assert index_bytes(index) == index_bytes(build_index(spectrum))


def random_pieces(rng, alphabet, max_len, count):
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("k", KS)
def test_seeded_random_pieces(k):
    rng = Random(k)
    for _ in range(4):
        pieces = random_pieces(rng, "ACGT", 2 * k + 40, rng.randint(1, 6))
        check_against_oracle(pieces, k)


@pytest.mark.parametrize("k", KS)
def test_poly_a_and_a_led_sources(k):
    # $ packs like A, so these rows tie on words and differ only in body length
    pieces = [
        "A" * (k + 5),
        "A" * k + "C",
        "A" * (k - 1) + "G" + "A" * 3,
        "C" + "A" * (k + 2),
        "AT" * k,
    ]
    check_against_oracle(pieces, k)


@pytest.mark.parametrize("k", (3, 32, 33, 64))
def test_short_and_duplicate_pieces(k):
    rng = Random(100 + k)
    long = random_pieces(rng, "ACGT", 3 * k, 3)
    pieces = long + long[:2] + ["A" * (k - 1), "ACG"[: k - 1], "", "T"]
    check_against_oracle(pieces, k)


def test_differential_suite_shapes():
    # the acceptance corpus's draws (k in 1..12, 31, 33, 63), which reach
    # only build_index there
    rng = Random(2718)
    for _ in range(300):
        strings, k = random_instance(rng)
        spectrum = extended_spectrum(strings, k)
        assert index_bytes(packed_index(strings, k)) == index_bytes(build_index(spectrum))


def test_only_short_pieces_give_the_root():
    index = packed_index(["ACG", "T"], 5)
    assert index.n == 1
    assert index_bytes(index) == index_bytes(build_index(extended_spectrum([], 5)))


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from(KS),
    pieces=st.lists(
        st.one_of(st.text("ACGT", max_size=160), st.text("AC", max_size=160)),
        max_size=6,
    ),
)
def test_matches_oracle(k, pieces):
    check_against_oracle(pieces, k)


def test_rejects_non_acgt_piece():
    with pytest.raises(ValueError, match="invalid symbol 'N'"):
        pack_pieces(["ACGNT"], 2)


def test_rejects_low_control_byte():
    # bytes 0..3 must not pass as rows 0..3: only A, C, G and T map below 255
    with pytest.raises(ValueError, match=re.escape(r"invalid symbol '\x01'")):
        pack_pieces(["AC\x01G"], 2)


# 32-symbol blocks that tie often: A-runs read like $-padding, and C or T at either end
BLOCKS = ("A" * 32, "A" * 31 + "C", "C" + "A" * 31, "T" * 32)


def block_body(nw):
    """Bodies of up to 32 * nw symbols from BLOCKS, at lengths around the word boundaries."""
    size = 32 * nw
    lengths = sorted({0, 1, 31, 32, 33, size - 1, size} & set(range(size + 1)))
    blocks = st.lists(st.sampled_from(BLOCKS), min_size=nw, max_size=nw)
    return st.builds(lambda b, n: "".join(b)[size - n :], blocks, st.sampled_from(lengths))


def colex(body, nw):
    """Colex sort key over $ACGT of the body $-padded to 32 * nw symbols."""
    return ("$" * (32 * nw - len(body)) + body)[::-1].translate(str.maketrans("$ACGT", "01234"))


def as_rows(bodies, nw):
    """Packed rows of the bodies, each at the end of a 32 * nw symbol block led by Gs."""
    size = 32 * nw
    text = "".join("G" * (size - len(b)) + b for b in bodies)
    codes = np.frombuffer(text.encode("ascii").translate(ROW_OF), dtype=np.uint8)
    ends = np.arange(1, len(bodies) + 1, dtype=np.int64) * size - 1
    lens = np.array([len(b) for b in bodies], dtype=np.int32)
    return Rows(packed._windows(codes, 32), ends, lens, nw)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nw=st.integers(1, 3))
def test_order_and_search_match_tuple_order(data, nw):
    bodies = data.draw(st.lists(block_body(nw), max_size=40))
    table = sorted(set(bodies), key=lambda b: colex(b, nw))
    first, col = _distinct(as_rows(bodies, nw), nw + 1)
    assert [bodies[i] for i in first.tolist()] == table
    assert col.tolist() == [table.index(b) for b in bodies]
    # rows absent from the table, and present ones
    query = block_body(nw)
    if table:
        query |= st.sampled_from(table)
    queries = data.draw(st.lists(query, max_size=20))
    for sorted_bodies in (table, []):
        keys = as_rows(sorted_bodies, nw)
        at, found = _find(keys, keys.word(0), as_rows(queries, nw), nw + 1)
        order = [colex(b, nw) for b in sorted_bodies]
        want = [bisect_left(order, colex(q, nw)) for q in queries]
        assert at.tolist() == want
        assert found.tolist() == [sorted_bodies[i : i + 1] == [q] for i, q in zip(want, queries)]
        # _bisect alone over each query's whole word-0 run gives the same answer
        key0, q0 = keys.word(0), as_rows(queries, nw).word(0)
        lo = np.searchsorted(key0, q0, side="left")
        hi = np.searchsorted(key0, q0, side="right")
        at, found = _bisect(keys, as_rows(queries, nw), lo, hi, nw + 1)
        assert at.tolist() == want
        assert found.tolist() == [sorted_bodies[i : i + 1] == [q] for i, q in zip(want, queries)]


def spy_on_bisect(monkeypatch):
    """Count the query rows that reach packed._bisect from now on."""
    seen = []

    def spy(keys, queries, lo, hi, nkeys):
        seen.append(len(lo))
        return _bisect(keys, queries, lo, hi, nkeys)

    monkeypatch.setattr(packed, "_bisect", spy)
    return seen


def tied_pieces(k, rng):
    """Pieces whose rows tie on word 0 (k > 32) and with padded rows on words.

    Copies of one core under different heads share their last 32 symbols
    but not the ones before; A-runs and A-led sources give k-mers whose
    words equal those of $-padded rows.
    """
    core = "".join(rng.choice("ACGT") for _ in range(k + 8))
    heads = ["".join(rng.choice("ACGT") for _ in range(k - 20)) for _ in range(4)]
    unit = "".join(rng.choice("ACGT") for _ in range(7))
    return [h + core + rng.choice("ACGT") for h in heads] + [
        unit * (k // 3),
        "A" * (k + 9),
        "A" * (k - 1) + "C" + core[:10],
        "T" + "A" * (2 * k) + "G",
        "A" * (k // 2) + "C" * k,
    ]


@pytest.mark.parametrize("k", (31, 32, 33, 64))
def test_word_ties_take_the_full_key_search(monkeypatch, k):
    # a word-0 hit whose other keys differ falls back to _bisect, which must
    # still place the edge bit on the first column of the matching run
    pieces = tied_pieces(k, Random(500 + k))
    # without pred every row searches, as at k <= 32
    ps = dataclasses.replace(pack_pieces(pieces, k), pred=None)
    seen = spy_on_bisect(monkeypatch)
    index = SbwtIndex(k, ps.n, subset_rows(ps))
    assert sum(seen) > 0
    assert index_bytes(index) == index_bytes(build_index(extended_spectrum(pieces, k)))


def bodies(rows, text):
    """Each row's body, read from the text at its end position or from its one word."""
    if rows.ends is None:
        return [
            "".join(BASES[w >> 62 - 2 * i & 3] for i in range(n))[::-1]
            for w, n in zip(rows.win.tolist(), rows.lens.tolist())
        ]
    return [text[e - n + 1 : e + 1] for e, n in zip(rows.ends.tolist(), rows.lens.tolist())]


@pytest.mark.parametrize("k", (31, 33, 64))
def test_only_rows_above_their_first_word_0_row_are_bisected(monkeypatch, k):
    # _find compares the first key row sharing a query's word 0 once; only a
    # query that row sorts below, on a later key, is bisected over the rest
    pieces = tied_pieces(k, Random(500 + k))
    text = "".join(pieces)
    calls = []

    def spy(keys, queries, lo, hi, nkeys):
        calls.append((bodies(keys, text), bodies(queries, text), lo.tolist(), keys.nw))
        return _bisect(keys, queries, lo, hi, nkeys)

    monkeypatch.setattr(packed, "_bisect", spy)
    ps = pack_pieces(pieces, k)
    index = SbwtIndex(k, ps.n, subset_rows(dataclasses.replace(ps, pred=None)))
    assert index_bytes(index) == index_bytes(build_index(extended_spectrum(pieces, k)))
    assert sum(len(lo) for _, _, lo, _ in calls) > 0
    for keys, queries, lo, nw in calls:
        order = [colex(b, nw) for b in keys]
        word0 = [c[:32].replace("0", "1") for c in order]  # $ packs like A
        for query, first in zip(queries, (i - 1 for i in lo)):
            q = colex(query, nw)
            assert word0[first] == q[:32].replace("0", "1")  # it shares the query's word 0
            assert first == 0 or word0[first - 1] < word0[first]  # and is the first to
            assert order[first] < q


def row_strings(ps, pieces):
    """Each row of a packed spectrum as a $-padded string."""
    return ["$" * (ps.k - len(b)) + b for b in bodies(ps.rows, "".join(pieces))]


@pytest.mark.parametrize("k", (40, 64))
@pytest.mark.parametrize("drop", (0, 1))
def test_missing_row_found_only_after_the_fallback(monkeypatch, k, drop):
    # two k-mers share their last 32 symbols; without one of them, its
    # successor's (k-1)-prefix still hits the other on word 0, and only the
    # full-key search shows that no column matches it
    rng = Random(k)
    tail = "".join(rng.choice("ACGT") for _ in range(33))
    heads = ("C" + "A" * (k - 34), "C" + "T" * (k - 34))
    pieces = [heads[0] + tail + "G", heads[1] + tail + "T"]
    ps = pack_pieces(pieces, k)
    gone = row_strings(ps, pieces).index(heads[drop] + tail)
    gapped = PackedSpectrum(k, ps.rows.take(np.delete(np.arange(ps.n), gone)))
    seen = spy_on_bisect(monkeypatch)
    with pytest.raises(ValueError, match="not prefix-closed at base " + "GT"[drop]):
        subset_rows(gapped)
    assert sum(seen) > 0


REPEAT_KS = (33, 64, 65, 100, 127)


def motif_pieces(k, rng):
    """Repeat-rich pieces from a few shared motifs.

    Tandem runs and motif copies across pieces, a duplicate piece, a piece
    wholly inside another, and pieces shorter than k.
    """
    motifs = ["".join(rng.choice("ACGT") for _ in range(m)) for m in (5, 13, k // 2, k + 3)]

    def mix(count):
        return "".join(rng.choice(motifs) for _ in range(count))

    tandem = motifs[1] * (2 * k // 13 + 3)
    long = mix(4) + tandem + mix(4)
    pieces = [mix(rng.randint(3, 8)) for _ in range(5)] + [
        tandem,
        long,
        long,
        long[k // 3 : k // 3 + 2 * k],
        "A" * (k + 4),
        motifs[2],
        motifs[0] * 2,
        "ACG",
    ]
    rng.shuffle(pieces)
    return pieces


def check_pred(ps, pieces):
    """The rows read from the text are the extended spectrum; each known
    pred column's (k-1)-suffix is its row's (k-1)-prefix; the root and the
    padded rows have none."""
    strings = row_strings(ps, pieces)
    assert strings == list(extended_spectrum(pieces, ps.k).kmers)
    for row, pred in enumerate(ps.pred.tolist()):
        if pred >= 0:
            assert strings[pred][1:] == strings[row][:-1]
    assert (ps.pred[ps.rows.lens < ps.k] == -1).all()


@pytest.mark.parametrize("k", REPEAT_KS)
def test_repeat_rich_pieces(k):
    rng = Random(900 + k)
    for _ in range(3):
        pieces = motif_pieces(k, rng)
        check_pred(pack_pieces(pieces, k), pieces)
        check_against_oracle(pieces, k)


def occurrence_pieces(k, where):
    """Eight copies of a piece x, and x's first k-mer after TC at `where`."""
    rng = Random(k)
    x = "".join(rng.choice("ACGT") for _ in range(k + 10))
    pieces = [x] * 8
    pieces.insert(where, "TC" + x[:k])
    return pieces, x[:k]


@pytest.mark.parametrize("k", REPEAT_KS)
@pytest.mark.parametrize("where", (0, 4, 8))
def test_pred_from_any_occurrence(k, where):
    # the k-mer starts eight pieces, where it has no predecessor, and
    # follows a C once; whichever occurrence the sort lists first, its
    # column learns the predecessor, so it is no source and gets no padding
    pieces, kmer = occurrence_pieces(k, where)
    ps = pack_pieces(pieces, k)
    check_pred(ps, pieces)
    assert ps.pred[row_strings(ps, pieces).index(kmer)] >= 0
    check_against_oracle(pieces, k)


# five to eight words per key: the last one holds 1, 32, 1 and 31 symbols
WIDE_KS = (129, 160, 161, 255)


@pytest.mark.parametrize("k", WIDE_KS)
def test_wide_keys_repeat_rich(k):
    rng = Random(1300 + k)
    for _ in range(2):
        pieces = motif_pieces(k, rng)
        assert min(map(len, pieces)) < 32
        ps = pack_pieces(pieces, k)
        check_pred(ps, pieces)
        assert (subset_rows(ps) == subset_rows(dataclasses.replace(ps, pred=None))).all()
        check_against_oracle(pieces, k)


def build_peak(text, k):
    """Peak bytes that tracemalloc sees while packing one piece and filling its matrix."""
    tracemalloc.start()
    try:
        subset_rows(pack_pieces([text], k))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_memory_does_not_grow_with_k():
    # rows are text positions past k = 32: no step holds 16 words per row at k = 511
    rng = np.random.default_rng(5)
    text = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, 200_000)].tobytes().decode()
    assert build_peak(text, 511) <= 1.2 * build_peak(text, 127)


def multi_word_cases():
    for k in REPEAT_KS:
        rng = Random(900 + k)  # test_repeat_rich_pieces' draws
        for _ in range(3):
            yield k, motif_pieces(k, rng)
        yield k, occurrence_pieces(k, 4)[0]
    for k in (k for k in KS if k > 32):  # test_seeded_random_pieces' draws
        rng = Random(k)
        for _ in range(4):
            yield k, random_pieces(rng, "ACGT", 2 * k + 40, rng.randint(1, 6))


@pytest.mark.parametrize("k, pieces", multi_word_cases())
def test_pred_and_search_give_one_matrix(k, pieces):
    ps = pack_pieces(pieces, k)
    assert ps.pred is not None and ps.pred.dtype == np.int32
    assert (ps.pred >= 0).any()
    assert (subset_rows(ps) == subset_rows(dataclasses.replace(ps, pred=None))).all()


class TestPackKmersChecks:
    """build_index raises ValueError on malformed and non-prefix-closed spectra."""

    def test_non_prefix_closed(self):
        with pytest.raises(ValueError, match="prefix-closed"):
            build_index(SortedSpectrum(2, ("$$", "AC")))

    def test_missing_padded_prefix(self):
        full = extended_spectrum(["ACGTTGCA"], 4)
        gapped = SortedSpectrum(4, tuple(x for x in full.kmers if x != "$$AC"))
        with pytest.raises(ValueError, match="prefix-closed"):
            build_index(gapped)

    @pytest.mark.parametrize(
        "kmers, message",
        [
            (("$$", "AN"), "invalid symbol 'N' in k-mer 'AN'"),
            (("$$", "NA"), "invalid symbol 'N' in k-mer 'NA'"),
            (("$$", "A$"), "contiguous left pad"),
            (("$$$", "A$A"), "contiguous left pad"),
            (("$$", "AAA"), "has length 3"),
            (("$$", "CA", "AA"), "not strictly colex-sorted"),
            (("$$", "$A", "$A"), "not strictly colex-sorted"),
        ],
    )
    def test_malformed_spectrum(self, kmers, message):
        with pytest.raises(ValueError, match=message):
            build_index(SortedSpectrum(len(kmers[0]), kmers))


def fasta_pieces(records, add_rc):
    """Pieces as the build command defines them, derived here independently."""
    rc = str.maketrans("ACGT", "TGCA")
    pieces = [p for seq in records for p in re.split("[^ACGT]+", seq.upper()) if p]
    return pieces + [p.translate(rc)[::-1] for p in pieces] if add_rc else pieces


@pytest.mark.parametrize("k", (1, 3, 31, 33))
@pytest.mark.parametrize("add_rc", (False, True))
def test_cli_index_is_byte_identical(tmp_path, capsys, k, add_rc):
    rng = Random(k)
    body = "".join(rng.choice("ACGTacgtN") for _ in range(4 * k + 30))
    records = [body, "aaaa" + "A" * k + "nnAC", body, "ACG", "ACGT" * (k // 2 + 2)]
    lines = []
    for i, seq in enumerate(records):
        lines.append(f">r{i} description")
        lines.extend(seq[j : j + 37] for j in range(0, len(seq), 37))
    fasta = tmp_path / "in.fa"
    fasta.write_bytes("\r\n".join(lines).encode("ascii") + b"\r\n")
    out = tmp_path / "out.sbwt"
    argv = ["build", str(fasta), "-k", str(k), "-o", str(out)]
    assert main(argv + (["--add-rc"] if add_rc else [])) == 0
    capsys.readouterr()
    spectrum = extended_spectrum(fasta_pieces(records, add_rc), k)
    assert out.read_bytes() == index_bytes(build_index(spectrum))
