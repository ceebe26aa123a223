"""Worked examples and invariants for the brute-force reference layer."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbwt_lcs import (
    SortedSpectrum,
    extended_spectrum,
    naive_lcs,
    naive_subset_sequence,
)
from sbwt_lcs.oracle import colex_less, k_prefix_set, k_spectrum, source_set, suffix_match_len

from conftest import WORKED_KMERS, WORKED_LCS, WORKED_STRINGS, WORKED_SUBSETS

SPECTRUM_14 = {
    "GAAA", "TAAA", "GGAA", "GTAA", "AGGA", "GGTA", "AAAG",
    "ACAG", "GTAG", "AAGG", "CAGG", "TAGG", "AAGT", "AGGT",
}

dna = st.text(alphabet="ACGT", min_size=0, max_size=40)


class TestColexLess:
    def test_examples(self):
        assert colex_less("GAAA", "TAAA")
        assert not colex_less("AAAA", "AAAA")
        assert colex_less("$$$A", "GAAA")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            colex_less("AA", "AAA")

    @given(dna, dna)
    def test_matches_reversed_comparison(self, x, y):
        if len(x) != len(y):
            return
        assert colex_less(x, y) == (x[::-1] < y[::-1])
        assert not (colex_less(x, y) and colex_less(y, x))


class TestKSpectrum:
    def test_worked_example(self):
        assert k_spectrum(WORKED_STRINGS, 4) == SPECTRUM_14

    def test_single_repeated_symbol(self):
        assert k_spectrum(["AAA"], 2) == {"AA"}

    def test_short_string_contributes_nothing(self):
        assert k_spectrum(["AC"], 4) == set()

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            k_spectrum(["ACNGT"], 2)
        with pytest.raises(ValueError):
            k_spectrum(["acgt"], 2)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_spectrum(["ACGT"], 0)

    @given(st.lists(dna, max_size=4), st.integers(1, 6))
    def test_exactly_the_windows(self, strings, k):
        expected = {s[i : i + k] for s in strings for i in range(len(s) - k + 1)}
        assert k_spectrum(strings, k) == expected


class TestSourceSet:
    def test_worked_example(self):
        assert source_set(SPECTRUM_14, 4) == {"ACAG"}

    def test_self_witness(self):
        assert source_set({"AA"}, 2) == set()

    def test_empty(self):
        assert source_set(set(), 4) == set()

    def test_k1_nonempty_has_no_sources(self):
        assert source_set({"A", "C"}, 1) == set()


class TestKPrefixSet:
    def test_single_kmer(self):
        assert k_prefix_set({"ACAG"}, 4) == {"$$$$", "$$$A", "$$AC", "$ACA"}

    def test_worked_example_strings(self):
        got = k_prefix_set({WORKED_STRINGS[0][:4], WORKED_STRINGS[1][:4]}, 4)
        assert got == {"$$$$", "$$$A", "$$AG", "$AGG", "$$AC", "$ACA"}

    def test_empty(self):
        assert k_prefix_set(set(), 4) == set()


class TestExtendedSpectrum:
    def test_worked_order(self, worked_spectrum):
        assert list(worked_spectrum.kmers) == WORKED_KMERS

    def test_empty_input(self):
        assert extended_spectrum([], 4).kmers == ("$$$$",)

    def test_self_looping_kmer_needs_no_padding(self):
        # AA's predecessor is AA itself, so the source set is empty
        assert extended_spectrum(["AA"], 2).kmers == ("$$", "AA")

    def test_k1(self):
        assert extended_spectrum(["GATC"], 1).kmers == ("$", "A", "C", "G", "T")

    @given(st.lists(dna, min_size=0, max_size=5), st.integers(1, 8))
    @settings(max_examples=60)
    def test_invariants(self, strings, k):
        s = extended_spectrum(strings, k)
        s.validate()
        assert s.kmers[0] == "$" * k
        keys = [x[::-1] for x in s.kmers]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for string in strings:
            for i in range(len(string) - k + 1):
                assert string[i : i + k] in set(s.kmers)


class TestSubsetSequence:
    def test_worked_column(self, worked_spectrum):
        assert naive_subset_sequence(worked_spectrum) == WORKED_SUBSETS

    def test_lone_root(self):
        assert naive_subset_sequence(extended_spectrum([], 4)) == [""]

    def test_padded_middle_rank(self, tiny_spectrum):
        assert naive_subset_sequence(tiny_spectrum) == ["A", "A", ""]

    def test_total_cardinality(self):
        rng = Random(7)
        for _ in range(20):
            strings = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 60)))]
            s = extended_spectrum(strings, rng.randint(1, 8))
            assert sum(len(x) for x in naive_subset_sequence(s)) == len(s.kmers) - 1


class TestNaiveLcs:
    def test_worked_column(self, worked_spectrum):
        assert list(naive_lcs(worked_spectrum)) == WORKED_LCS

    def test_lone_root(self):
        assert list(naive_lcs(extended_spectrum([], 4))) == [0]

    def test_padded_middle_rank(self, tiny_spectrum):
        assert list(naive_lcs(tiny_spectrum)) == [0, 0, 1]

    def test_equals_lcp_of_reversed_kmers(self, worked_spectrum):
        # reversal maps common suffixes to common prefixes and colex
        # order to lex order, so the array doubles as an LCP array
        rev = sorted(x[::-1] for x in worked_spectrum.kmers)
        lcp = [0]
        for a, b in zip(rev, rev[1:]):
            n = 0
            while n < len(a) and a[n] == b[n]:
                n += 1
            lcp.append(n)
        assert lcp == list(naive_lcs(worked_spectrum))

    @given(st.lists(dna, min_size=1, max_size=4), st.integers(1, 8))
    @settings(max_examples=60)
    def test_bounds_and_agreement(self, strings, k):
        s = extended_spectrum(strings, k)
        values = naive_lcs(s)
        assert values[0] == 0
        for i in range(1, len(s.kmers)):
            v = int(values[i])
            assert 0 <= v <= k - 1
            a, b = s.kmers[i - 1], s.kmers[i]
            assert suffix_match_len(a, b) == v
            if v < k:
                assert a[k - v :] == b[k - v :]
                assert a[k - v - 1] != b[k - v - 1]


class TestSortedSpectrumValidation:
    def test_requires_root(self):
        with pytest.raises(ValueError):
            SortedSpectrum(2, ("AA",))

    def test_validate_rejects_bad_padding(self):
        s = SortedSpectrum(2, ("$$", "A$"))
        with pytest.raises(ValueError):
            s.validate()

    def test_validate_rejects_unsorted(self):
        s = SortedSpectrum(2, ("$$", "CA", "AA"))
        with pytest.raises(ValueError):
            s.validate()
