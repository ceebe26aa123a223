"""The packed-key build against the string reference build_index, directly
and through the CLI, and build_index's own input checks."""

import io
import re
from bisect import bisect_left
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbwt_lcs import (
    SortedSpectrum,
    build_index,
    decode_spectrum,
    extended_spectrum,
    naive_subset_sequence,
    save_index,
)
from sbwt_lcs.cli import main, packed_index
from sbwt_lcs.packed import _order, _search, pack_pieces

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
    subsets = naive_subset_sequence(spectrum)
    assert [index.subset_at(r) for r in range(1, index.n + 1)] == subsets
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


# few values, so that rows often tie on word 0; two have the top bit set
WORDS = st.sampled_from([0, 1, 2, 1 << 63, (1 << 64) - 1])


def as_keys(rows, nw):
    """Tuples (word 0, .., word nw-1, length) as nw uint64 keys and an int32 key."""
    cols = list(zip(*rows)) or [()] * (nw + 1)
    return [np.array(c, dtype=np.uint64) for c in cols[:nw]] + [np.array(cols[nw], np.int32)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nw=st.integers(1, 3))
def test_order_and_search_match_tuple_order(data, nw):
    row = st.tuples(*[WORDS] * nw, st.integers(0, 3))
    rows = data.draw(st.lists(row, max_size=40))
    table = sorted(set(rows))
    assert [rows[i] for i in _order(as_keys(rows, nw))] == table
    # absent rows (length 4 never occurs among the keys) and present ones
    query = st.tuples(*[WORDS] * nw, st.integers(0, 4))
    if table:
        query |= st.sampled_from(table)
    queries = data.draw(st.lists(query, max_size=20))
    at = _search(as_keys(table, nw), as_keys(queries, nw))
    assert at.tolist() == [bisect_left(table, q) for q in queries]


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
