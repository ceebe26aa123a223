"""Membership lookup and left contraction against brute-force oracles."""

from itertools import product
from random import Random

import numpy as np
import pytest

from sbwt_lcs import (
    ColexInterval,
    FormatError,
    SbwtIndex,
    SuffixInterval,
    build_index,
    extended_spectrum,
    lcs_basic,
    left_contract,
    lookup,
    naive_lcs,
)

from conftest import random_instance, suffix_intervals


class TestLookup:
    def test_present(self, worked_index):
        assert lookup(worked_index, "GTAA") == 6

    def test_absent(self, worked_index):
        assert lookup(worked_index, "CCCC") is None

    def test_smallest_member(self, worked_spectrum, worked_index):
        first = next(x for x in worked_spectrum.kmers if "$" not in x)
        assert lookup(worked_index, first) == worked_spectrum.kmers.index(first) + 1

    def test_bad_length(self, worked_index):
        with pytest.raises(ValueError):
            lookup(worked_index, "GTA")

    def test_bad_symbol(self, worked_index):
        with pytest.raises(ValueError):
            lookup(worked_index, "GT$A")
        with pytest.raises(ValueError):
            lookup(worked_index, "GTNA")

    def test_non_singleton_interval_raises(self):
        # k=1, n=3, row A = 110: the bit total is right, but A spans ranks 2..3
        rows = np.zeros((4, 1), dtype=np.uint8)
        rows[0, 0] = 0b011
        with pytest.raises(FormatError, match="ranks 2..3"):
            lookup(SbwtIndex(1, 3, rows), "A")

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exhaustive_small(self, k):
        rng = Random(k * 7)
        strings, _ = random_instance(rng, k=k)
        spectrum = extended_spectrum(strings, k)
        index = build_index(spectrum)
        ranks = {x: i + 1 for i, x in enumerate(spectrum.kmers)}
        for combo in product("ACGT", repeat=k):
            q = "".join(combo)
            assert lookup(index, q) == ranks.get(q)


class TestLeftContract:
    def test_worked_t2(self, worked_index):
        lcs = lcs_basic(worked_index)
        got = left_contract(lcs, SuffixInterval(ColexInterval(13, 13), 3), 2)
        assert got == SuffixInterval(ColexInterval(11, 13), 2)

    def test_worked_t3(self, worked_index):
        lcs = lcs_basic(worked_index)
        got = left_contract(lcs, SuffixInterval(ColexInterval(13, 13), 3), 3)
        assert got == SuffixInterval(ColexInterval(11, 16), 1)

    def test_identity_when_already_maximal(self, worked_index):
        # the AG block [11,13] is the full interval of its own 2-suffix
        lcs = lcs_basic(worked_index)
        got = left_contract(lcs, SuffixInterval(ColexInterval(11, 13), 2), 1)
        assert got == SuffixInterval(ColexInterval(11, 13), 2)

    def test_point_out_of_range(self, worked_index):
        lcs = lcs_basic(worked_index)
        s = SuffixInterval(ColexInterval(13, 13), 3)
        for t in (0, 4, -1):
            with pytest.raises(ValueError):
                left_contract(lcs, s, t)

    @pytest.mark.parametrize("seed", [121, 122, 123])
    def test_matches_brute_force_everywhere(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(2, 7))
        spectrum = extended_spectrum(strings, k)
        lcs = naive_lcs(spectrum)
        intervals = suffix_intervals(spectrum)
        for suffix, (lo, hi) in intervals.items():
            kprime = len(suffix)
            for t in range(1, kprime + 1):
                target = suffix[t - 1 :]
                got = left_contract(
                    lcs, SuffixInterval(ColexInterval(lo, hi), kprime), t
                )
                assert got.suffix_len == len(target)
                assert (got.interval.lo, got.interval.hi) == intervals[target]

    @pytest.mark.parametrize("seed", [131, 132])
    def test_monotone_in_contraction(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(3, 7))
        spectrum = extended_spectrum(strings, k)
        lcs = naive_lcs(spectrum)
        for suffix, (lo, hi) in suffix_intervals(spectrum).items():
            kprime = len(suffix)
            prev = None
            for t in range(1, kprime + 1):
                got = left_contract(
                    lcs, SuffixInterval(ColexInterval(lo, hi), kprime), t
                )
                if prev is not None:
                    assert got.interval.lo <= prev.lo and got.interval.hi >= prev.hi
                prev = got.interval
