"""BFS construction over interval right endpoints, and the interval lemmas."""

import importlib
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbwt_lcs import (
    FormatError,
    SbwtIndex,
    build_index,
    extended_spectrum,
    lcs_basic,
    lcs_linear,
    lcs_linear_endpoints,
    lcs_super,
    naive_lcs,
)
from sbwt_lcs.lcs_linear import _claim
from sbwt_lcs.lcs_superalphabet import MAX_WIDTH
from sbwt_lcs.stats import BuildStats

from conftest import WORKED_LCS, brute_l_intervals, random_instance, suffix_intervals


class TestGolden:
    def test_worked_two_sided(self, worked_index):
        assert list(lcs_linear(worked_index)) == WORKED_LCS

    def test_worked_endpoints(self, worked_index):
        # the endpoint BFS is the one linear construction, under both names
        assert lcs_linear_endpoints is lcs_linear

    def test_one_column(self, one_column_index):
        assert list(lcs_linear(one_column_index)) == [0]

    def test_inconsistent_index_raises(self):
        # k=1, n=3, row A = 110: the bit total is right, but no extension
        # reaches slot 3, and ranks 2 and 3 decode to the same k-mer A
        rows = np.zeros((4, 1), dtype=np.uint8)
        rows[0, 0] = 0b011
        with pytest.raises(FormatError, match="1 LCS slots unfilled"):
            lcs_linear(SbwtIndex(1, 3, rows))
        with pytest.raises(FormatError, match="1 LCS slots still open"):
            lcs_basic(SbwtIndex(1, 3, rows))
        # the super-alphabet rounds read offsets past k here; none may close a slot
        for c in (2, MAX_WIDTH):
            with pytest.raises(FormatError, match="1 LCS slots still open"):
                lcs_super(SbwtIndex(1, 3, rows), c)

    def test_round1_zero_slots(self, worked_index):
        values = lcs_linear(worked_index)
        zero_ranks = [i + 1 for i, v in enumerate(values) if v == 0]
        assert zero_ranks == [1, 2, 10, 11, 17]


class TestEquivalence:
    def test_500_random_8mers(self):
        rng = Random(88)
        kmers = ["".join(rng.choice("ACGT") for _ in range(8)) for _ in range(500)]
        index = build_index(extended_spectrum(kmers, 8))
        assert (lcs_linear(index) == lcs_basic(index)).all()

    @pytest.mark.parametrize("seed", range(70, 80))
    def test_all_paths_agree(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng)
        spectrum = extended_spectrum(strings, k)
        index = build_index(spectrum)
        assert (lcs_linear(index) == naive_lcs(spectrum)).all()


class TestCounters:
    @pytest.mark.parametrize("seed", [91, 92, 93])
    def test_push_and_write_bounds(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng)
        index = build_index(extended_spectrum(strings, k))
        stats = BuildStats()
        lcs_linear(index, stats)
        assert stats.intervals_pushed <= index.n
        assert stats.lcs_writes == index.n
        assert stats.rounds <= index.k


def claim_by_sort(lcs, slots, value):
    """The sort-based claim: the first candidate of each distinct unset slot."""
    uniq, first = np.unique(slots, return_index=True)
    fresh = lcs[uniq] < 0
    lcs[uniq[fresh]] = value
    return first[fresh]


class TestClaim:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.booleans(), min_size=n, max_size=n),
                st.lists(st.integers(0, n - 1), max_size=3 * n),
            )
        ),
        st.integers(0, 100),
    )
    def test_matches_sort_reference(self, case, value):
        # non-decreasing slots with runs of duplicates, some already set
        already_set, slots = case
        slots = np.array(sorted(slots), dtype=np.int64)
        lcs = np.where(already_set, 7, -1).astype(np.int32)
        expected_lcs = lcs.copy()
        expected = claim_by_sort(expected_lcs, slots, value)
        won = _claim(lcs, slots, value)
        assert lcs.tobytes() == expected_lcs.tobytes()
        assert won.tolist() == expected.tolist()

    def test_bfs_rounds_claim_non_decreasing_slots(self, monkeypatch):
        rng = Random(7)
        strings, k = random_instance(rng, k=31)
        index = build_index(extended_spectrum(strings, k))
        rounds = []

        def spy(lcs, slots, value):
            rounds.append(slots.copy())
            return _claim(lcs, slots, value)

        # the package's lcs_linear attribute is the function; fetch the module
        monkeypatch.setattr(importlib.import_module("sbwt_lcs.lcs_linear"), "_claim", spy)
        assert (lcs_linear(index) == lcs_basic(index)).all()
        assert len(rounds) > 1
        assert all((np.diff(slots) >= 0).all() for slots in rounds)


class TestLemmas:
    """Brute-force L-interval enumeration on small instances."""

    @pytest.mark.parametrize("seed", [101, 102, 103, 104])
    def test_widest_interval_sets_the_following_slot(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(2, 8))
        spectrum = extended_spectrum(strings, k)
        values = lcs_linear(build_index(spectrum))
        best = brute_l_intervals(suffix_intervals(spectrum))
        n = len(spectrum.kmers)
        for endpoint, (lo, rep) in best.items():
            if endpoint == n:
                continue  # no slot past the last rank
            assert len(rep) >= 1
            assert values[endpoint] == len(rep) - 1  # 0-based slot endpoint+1

    @pytest.mark.parametrize("seed", [111, 112, 113, 114])
    def test_widest_intervals_closed_under_suffix(self, seed):
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(2, 8))
        spectrum = extended_spectrum(strings, k)
        intervals = suffix_intervals(spectrum)
        best = brute_l_intervals(intervals)
        for endpoint, (lo, rep) in best.items():
            if len(rep) < 2:
                continue
            parent = rep[:-1]
            assert parent in intervals
            plo, phi = intervals[parent]
            assert best[phi] == (plo, parent)
