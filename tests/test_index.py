"""Matrix assembly, rank machinery, interval extension and persistence."""

import io
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbwt_lcs
from sbwt_lcs import (
    FormatError,
    SortedSpectrum,
    build_index,
    extended_spectrum,
    lcs_linear,
    load_index,
    save_index,
)
from sbwt_lcs.alphabet import BASES
from sbwt_lcs.index import MAGIC, MAX_K, Bitvector, ColexInterval, SbwtIndex
from sbwt_lcs.lcs_basic import lcs_basic
from sbwt_lcs.oracle import extend_right

from conftest import WORKED_MATRIX_ROWS, random_instance, suffix_intervals


def test_package_surface():
    # the CLI and query surface, and the names the acceptance checks import
    assert sorted(sbwt_lcs.__all__) == [
        "BuildStats",
        "ColexInterval",
        "FormatError",
        "SbwtIndex",
        "SortedSpectrum",
        "SuffixInterval",
        "build_index",
        "decode_spectrum",
        "extended_spectrum",
        "lcs_adaptive",
        "lcs_basic",
        "lcs_linear",
        "lcs_linear_endpoints",
        "lcs_super",
        "left_contract",
        "load_index",
        "lookup",
        "naive_lcs",
        "naive_subset_sequence",
        "save_index",
    ]
    for name in sbwt_lcs.__all__:
        assert callable(getattr(sbwt_lcs, name)), name


def test_reference_names_keep_their_index_path():
    # the reference build and extension live in oracle; index resolves them
    import sbwt_lcs.index
    import sbwt_lcs.oracle

    assert sbwt_lcs.index.build_index is sbwt_lcs.oracle.build_index
    assert sbwt_lcs.index.extend_right is sbwt_lcs.oracle.extend_right
    with pytest.raises(AttributeError):
        getattr(sbwt_lcs.index, "no_such_name")


def bitvector(bits):
    bits = np.asarray(bits, dtype=bool)
    return Bitvector(np.packbits(bits, bitorder="little"), len(bits))


def row_string(index, base):
    row = index.matrix.row(base)
    return "".join("1" if row.test(i) else "0" for i in range(index.n))


class TestBitvector:
    @given(st.lists(st.booleans(), min_size=0, max_size=700))
    @settings(max_examples=60)
    def test_rank_matches_prefix_sums(self, bits):
        bv = bitvector(bits)
        prefix = np.concatenate(([0], np.cumsum(bits)))
        got = bv.rank_many(np.arange(len(bits) + 1))
        assert got.dtype == np.int64 and (got == prefix).all()

    def test_long_vector_block_boundaries(self):
        rng = Random(5)
        bits = np.array([rng.random() < 0.3 for _ in range(5000)])
        bv = bitvector(bits)
        prefix = np.concatenate(([0], np.cumsum(bits)))
        probes = [0, 1, 63, 64, 65, 511, 512, 513, 1024, 4999, 5000]
        assert (bv.rank_many(np.array(probes)) == prefix[probes]).all()
        assert bv.to_bool().tolist() == bits.tolist()

    @pytest.mark.parametrize("words", [1, 2, 9])
    def test_whole_words_read_the_pad_entry(self, words):
        # at n = 64m, the rank of n reads the table entry of the zero pad word
        rng = Random(words)
        bits = np.array([rng.random() < 0.5 for _ in range(64 * words)])
        bv = bitvector(bits)
        prefix = np.concatenate(([0], np.cumsum(bits)))
        assert (bv.rank_many(np.arange(len(bits) + 1)) == prefix).all()
        assert bv.rank_many([len(bits)])[0] == bv.popcount == int(bits.sum())

    def test_all_ones_counts_past_16_bits(self):
        n = 70_000
        bv = bitvector(np.ones(n, dtype=bool))
        probes = np.array([0, 1, 65_535, 65_536, 65_537, 69_999, n])
        assert bv.rank_many(probes).tolist() == probes.tolist()
        assert bv.popcount == n


class TestBuildIndex:
    def test_worked_matrix(self, worked_index):
        for base, expected in WORKED_MATRIX_ROWS.items():
            assert row_string(worked_index, base) == expected

    def test_worked_counts(self, worked_index):
        assert worked_index.counts == (1, 9, 10, 16)

    def test_one_column(self, one_column_index):
        idx = one_column_index
        assert idx.n == 1
        assert all(bv.popcount == 0 for bv in idx.matrix.rows)
        assert idx.counts == (1, 1, 1, 1)

    def test_total_bits(self, worked_index):
        assert sum(bv.popcount for bv in worked_index.matrix.rows) == worked_index.n - 1

    def test_rejects_non_closed_spectrum(self):
        # AC has no predecessor and no $-padding was provided
        with pytest.raises(ValueError):
            build_index(SortedSpectrum(2, ("$$", "AC")))


class TestConstructor:
    @pytest.mark.parametrize(
        "k, n, shape",
        [(0, 18, (4, 3)), (4, 0, (4, 0)), (4, 18, (4, 2)), (4, 18, (3, 3))],
        ids=["k=0", "n=0", "short rows", "three rows"],
    )
    def test_rejects_bad_arguments(self, k, n, shape):
        with pytest.raises(ValueError):
            SbwtIndex(k, n, np.zeros(shape, dtype=np.uint8))

    def test_pred_built_on_first_use(self, worked_spectrum, worked_index):
        buf = io.BytesIO()
        save_index(worked_index, buf)
        buf.seek(0)
        index = load_index(buf)
        assert "pred" not in vars(index)
        # linear's one width-1 round reads only the last symbols
        lcs_linear(index)
        assert "pred" not in vars(index)
        lcs_basic(index)
        assert "pred" in vars(index)
        assert index.pred.tolist() == oracle_pred(worked_spectrum)


def oracle_pred(spectrum):
    """0-based pred from the strings: for each non-root k-mer, the first rank
    whose (k-1)-suffix equals the k-mer's (k-1)-prefix; the root maps to 0."""
    first_with_suffix = {}
    for i, x in enumerate(spectrum.kmers):
        first_with_suffix.setdefault(x[1:], i)
    return [0] + [first_with_suffix[x[:-1]] for x in spectrum.kmers[1:]]


class TestPred:
    def test_worked_example(self, worked_spectrum, worked_index):
        assert worked_index.pred.tolist() == oracle_pred(worked_spectrum)

    def test_one_column(self, one_column_index):
        assert one_column_index.pred.tolist() == [0]

    def test_padded_fixture(self, tiny_spectrum):
        assert build_index(tiny_spectrum).pred.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_with_padded_rows(self, seed):
        rng = Random(300 + seed)
        k = rng.randint(5, 12)
        strings = [
            "".join(rng.choice("ACGT") for _ in range(rng.randint(k, 60)))
            for _ in range(rng.randint(2, 6))
        ]
        spectrum = extended_spectrum(strings, k)
        assert any(x[0] == "$" for x in spectrum.kmers[1:])
        assert build_index(spectrum).pred.tolist() == oracle_pred(spectrum)


class TestCharRank:
    """Rank over one base's row: set bits among columns 1..i."""

    def test_examples(self, worked_index):
        assert worked_index.matrix.row("G").rank_many([9]).tolist() == [3]
        assert worked_index.matrix.row("A").rank_many([18]).tolist() == [8]
        for base in BASES:
            assert worked_index.matrix.row(base).rank_many([0]).tolist() == [0]

    def test_full_rank_is_popcount(self, worked_index):
        for base in BASES:
            row = worked_index.matrix.row(base)
            assert row.rank_many([18]).tolist() == [row.popcount]


class TestExtendRight:
    def test_examples(self, worked_index):
        assert extend_right(worked_index, 1, 18, "A") == ColexInterval(2, 9)
        assert extend_right(worked_index, 2, 9, "G") == ColexInterval(11, 13)
        assert extend_right(worked_index, 1, 1, "T") is None

    def test_bad_interval(self, worked_index):
        with pytest.raises(ValueError):
            extend_right(worked_index, 0, 5, "A")
        with pytest.raises(ValueError):
            extend_right(worked_index, 5, 19, "A")
        with pytest.raises(ValueError):
            extend_right(worked_index, 6, 5, "A")

    def test_bad_base(self, worked_index):
        with pytest.raises(ValueError):
            extend_right(worked_index, 1, 18, "$")


class TestIntervalSemantics:
    """Navigation agrees with brute force over every suffix of the spectrum."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_extension_chains_match_brute_force(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(2, 7))
        spectrum = extended_spectrum(strings, k)
        index = build_index(spectrum)
        for suffix, (lo, hi) in suffix_intervals(spectrum).items():
            if "$" in suffix or not suffix:
                continue
            interval = ColexInterval(1, index.n)
            for ch in suffix:
                interval = extend_right(index, interval.lo, interval.hi, ch)
                assert interval is not None
            assert interval == ColexInterval(lo, hi)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_left_prepend_partition(self, seed):
        # an interval of suffix alpha splits exactly into the intervals of
        # c+alpha over the four bases plus the $-preceded k-mers
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(2, 7))
        spectrum = extended_spectrum(strings, k)
        intervals = suffix_intervals(spectrum)

        def size(s):
            if s not in intervals:
                return 0
            lo, hi = intervals[s]
            return hi - lo + 1

        for suffix, (lo, hi) in intervals.items():
            if len(suffix) >= k:
                continue
            covered = sum(size(base + suffix) for base in BASES)
            assert covered <= hi - lo + 1
            assert covered + size("$" + suffix) == hi - lo + 1


class TestPersistence:
    def test_round_trip(self, worked_index, tmp_path):
        path = tmp_path / "worked.sbwt"
        save_index(worked_index, path)
        assert load_index(path) == worked_index

    def test_round_trip_via_stream(self, worked_index):
        buf = io.BytesIO()
        save_index(worked_index, buf)
        buf.seek(0)
        assert load_index(buf) == worked_index

    def test_random_round_trips(self, tmp_path):
        rng = Random(17)
        for trial in range(10):
            strings, k = random_instance(rng)
            index = build_index(extended_spectrum(strings, k))
            path = tmp_path / f"t{trial}.sbwt"
            save_index(index, path)
            assert load_index(path) == index

    def test_truncated(self, worked_index, tmp_path):
        path = tmp_path / "x.sbwt"
        save_index(worked_index, path)
        data = path.read_bytes()
        for cut in (0, 5, len(data) - 1):
            with pytest.raises(FormatError):
                load_index(io.BytesIO(data[:cut]))

    def test_bad_magic(self, worked_index):
        buf = io.BytesIO()
        save_index(worked_index, buf)
        data = bytearray(buf.getvalue())
        data[:8] = b"NOTANIDX"
        with pytest.raises(FormatError):
            load_index(io.BytesIO(bytes(data)))

    def test_version_mismatch(self, worked_index):
        buf = io.BytesIO()
        save_index(worked_index, buf)
        data = bytearray(buf.getvalue())
        data[7] = ord("9")
        with pytest.raises(FormatError, match="version"):
            load_index(io.BytesIO(bytes(data)))

    def test_trailing_data(self, worked_index):
        buf = io.BytesIO()
        save_index(worked_index, buf)
        with pytest.raises(FormatError):
            load_index(io.BytesIO(buf.getvalue() + b"\x00"))

    def test_inconsistent_bit_total(self, worked_index):
        buf = io.BytesIO()
        save_index(worked_index, buf)
        data = bytearray(buf.getvalue())
        data[24] |= 0x02  # set an extra bit in row A
        with pytest.raises(FormatError):
            load_index(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("row", range(4))
    def test_set_padding_bit(self, worked_index, row):
        # n=18 leaves 6 padding bits in each row's last byte
        buf = io.BytesIO()
        save_index(worked_index, buf)
        data = bytearray(buf.getvalue())
        data[24 + 3 * row + 2] |= 0x80
        with pytest.raises(FormatError, match="padding"):
            load_index(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("k", [MAX_K + 1, 1 << 40])
    def test_k_above_max(self, worked_index, k):
        buf = io.BytesIO()
        save_index(worked_index, buf)
        data = bytearray(buf.getvalue())
        data[8:16] = k.to_bytes(8, "little")
        with pytest.raises(FormatError, match=f"k={k} n=18"):
            load_index(io.BytesIO(bytes(data)))

    def test_magic_constant(self):
        assert MAGIC == b"SBWTLCS1"

    def test_bit_exact_layout(self, worked_index):
        # header, then rows A,C,G,T as ceil(n/8) LSB-first bytes each;
        # row A's bytes derived by hand from its worked-example bit pattern
        buf = io.BytesIO()
        save_index(worked_index, buf)
        data = buf.getvalue()
        assert data[:8] == b"SBWTLCS1"
        assert int.from_bytes(data[8:16], "little") == 4
        assert int.from_bytes(data[16:24], "little") == 18
        assert len(data) == 24 + 4 * 3
        assert data[24:27] == b"\xb1\x23\x02"


class TestLfPartition:
    def test_destination_blocks_partition_non_root_ranks(self, worked_index):
        # every propagation round writes ranks 2..n exactly once
        spans = []
        for start, bv in zip(worked_index.counts, worked_index.matrix.rows):
            spans.extend(range(start, start + bv.popcount))
        assert spans == list(range(1, worked_index.n))
