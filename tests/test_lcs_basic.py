"""Label propagation rounds, LCS values and spectrum decoding."""

from random import Random

import numpy as np
import pytest

from sbwt_lcs import (
    FormatError,
    SbwtIndex,
    build_index,
    decode_spectrum,
    extended_spectrum,
    lcs_basic,
    lcs_super,
    naive_lcs,
)
from sbwt_lcs.lcs_basic import initial_labels
from sbwt_lcs.oracle import decode
from sbwt_lcs.stats import BuildStats

from conftest import WORKED_LCS, random_instance


def labels_str(codes):
    return decode(np.asarray(codes, dtype=np.uint8))


def lcs_or_error(construct, *args):
    """construct(*args) as a list, or the message of the FormatError it raises."""
    try:
        return construct(*args).tolist()
    except FormatError as exc:
        return str(exc)


class TestInitialLabels:
    def test_worked_example(self, worked_index):
        assert labels_str(initial_labels(worked_index)) == "$AAAAAAAACGGGGGGTT"

    def test_one_column(self, one_column_index):
        assert labels_str(initial_labels(one_column_index)) == "$"

    def test_padded_fixture(self, tiny_spectrum):
        index = build_index(tiny_spectrum)
        assert labels_str(initial_labels(index)) == "$AA"

    def test_matches_last_characters(self, worked_spectrum, worked_index):
        expected = "".join(x[-1] for x in worked_spectrum.kmers)
        assert labels_str(initial_labels(worked_index)) == expected


class TestPropagateRound:
    def test_one_round_gives_second_to_last(self, worked_spectrum, worked_index):
        labels = initial_labels(worked_index)[worked_index.pred]
        expected = "".join(x[-2] for x in worked_spectrum.kmers)
        assert labels_str(labels) == expected

    def test_one_column_fixed_point(self, one_column_index):
        labels = initial_labels(one_column_index)
        for _ in range(3):
            labels = labels[one_column_index.pred]
            assert labels_str(labels) == "$"

    def test_k_rounds_exhaust_padded_kmers(self, worked_spectrum, worked_index):
        # ranks whose back-walk reaches the root within k steps are the
        # $-padded k-mers; their labels are $ once exhausted and stay $
        labels = initial_labels(worked_index)
        for _ in range(worked_index.k):
            labels = labels[worked_index.pred]
        labels = labels_str(labels)
        for kmer, label in zip(worked_spectrum.kmers, labels):
            if "$" in kmer:
                assert label == "$"

    def test_each_round_matches_oracle_offsets(self):
        rng = Random(23)
        strings, k = random_instance(rng, k=6)
        spectrum = extended_spectrum(strings, k)
        index = build_index(spectrum)
        labels = initial_labels(index)
        for offset in range(1, k):
            labels = labels[index.pred]
            expected = "".join(x[k - 1 - offset] for x in spectrum.kmers)
            assert labels_str(labels) == expected


class TestLcsBasic:
    def test_worked_example(self, worked_index):
        assert list(lcs_basic(worked_index)) == WORKED_LCS

    def test_one_column(self, one_column_index):
        assert list(lcs_basic(one_column_index)) == [0]

    def test_padded_fixture(self, tiny_spectrum):
        assert list(lcs_basic(build_index(tiny_spectrum))) == [0, 0, 1]

    def test_round_count_is_k(self, worked_index):
        stats = BuildStats()
        lcs_basic(worked_index, stats)
        assert stats.rounds == worked_index.k

    @pytest.mark.parametrize("seed", range(40, 48))
    def test_matches_naive(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng)
        spectrum = extended_spectrum(strings, k)
        got = lcs_basic(build_index(spectrum))
        assert (got == naive_lcs(spectrum)).all()


class TestDecodeSpectrum:
    def test_worked_example(self, worked_spectrum, worked_index):
        assert decode_spectrum(worked_index).kmers == worked_spectrum.kmers

    def test_one_column(self, one_column_index):
        assert decode_spectrum(one_column_index).kmers == ("$$$$",)

    def test_200_random_6mers_round_trip(self):
        rng = Random(99)
        kmers = ["".join(rng.choice("ACGT") for _ in range(6)) for _ in range(200)]
        spectrum = extended_spectrum(kmers, 6)
        assert decode_spectrum(build_index(spectrum)).kmers == spectrum.kmers

    @pytest.mark.parametrize("seed", range(60, 66))
    def test_round_trip_identity(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng)
        spectrum = extended_spectrum(strings, k)
        assert decode_spectrum(build_index(spectrum)).kmers == spectrum.kmers

    def test_random_matrices_sorted_or_rejected(self):
        # any matrix with n-1 set bits decodes in non-decreasing colex order;
        # where two neighbours are equal, decoding and lcs_basic both reject it,
        # and lcs_super at widths 2 and 4 (whose last round may read past k)
        # rejects it with the same message or gives the same array
        rng = Random(7)
        outcomes = set()
        for _ in range(2000):
            n, k = rng.randint(2, 9), rng.randint(1, 5)
            bits = np.zeros((4, n), dtype=bool)
            for f in rng.sample(range(4 * n), n - 1):
                bits[f % 4, f // 4] = True
            index = SbwtIndex(k, n, np.packbits(bits, axis=1, bitorder="little"))
            basic = lcs_or_error(lcs_basic, index)
            for c in (2, 4):
                assert lcs_or_error(lcs_super, index, c) == basic
            try:
                kmers = decode_spectrum(index).kmers
            except FormatError:
                assert isinstance(basic, str)
                outcomes.add("rejected")
                continue
            keys = [x[::-1] for x in kmers]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert isinstance(basic, list)
            outcomes.add("decoded")
        assert outcomes == {"decoded", "rejected"}
