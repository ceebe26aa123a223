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
    lcs_adaptive,
    lcs_basic,
    lcs_linear,
    lcs_linear_endpoints,
    lcs_super,
    naive_lcs,
)
from sbwt_lcs.cli import clean_pieces
from sbwt_lcs.lcs_basic import lcs_dtype, width1_rounds
from sbwt_lcs.lcs_linear import CLAIM_COST, _bfs, _claim
from sbwt_lcs.lcs_superalphabet import MAX_WIDTH
from sbwt_lcs.stats import BuildStats

from conftest import WORKED_LCS, brute_l_intervals, random_instance, suffix_intervals
from test_acceptance import SUITE_SEED, SUITE_SIZE


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


def claim_by_sort(lcs, still_open, slots, value):
    """The sort-based claim: the first candidate of each distinct open slot."""
    uniq, first = np.unique(slots, return_index=True)
    fresh = still_open[uniq]
    lcs[uniq[fresh]] = value
    still_open[uniq[fresh]] = False
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
        # non-decreasing slots with runs of duplicates, some already closed
        already_set, slots = case
        slots = np.array(sorted(slots), dtype=np.int64)
        still_open = ~np.array(already_set)
        lcs = np.where(still_open, 0, 7).astype(lcs_dtype(101))
        expected_lcs, expected_open = lcs.copy(), still_open.copy()
        expected = claim_by_sort(expected_lcs, expected_open, slots, value)
        won = _claim(lcs, still_open, slots, value)
        assert lcs.tobytes() == expected_lcs.tobytes()
        assert still_open.tolist() == expected_open.tolist()
        assert won.tolist() == expected.tolist()

    def test_bfs_rounds_claim_non_decreasing_slots(self, monkeypatch):
        rng = Random(7)
        strings, k = random_instance(rng, k=31)
        index = build_index(extended_spectrum(strings, k))
        rounds = []

        def spy(lcs, still_open, slots, value):
            rounds.append(slots.copy())
            return _claim(lcs, still_open, slots, value)

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


def handed_over(index, h, stats=None):
    """The width-1 rounds handing over to the BFS after round h."""
    return _bfs(index, *width1_rounds(index, lambda r, same: r == h), stats)


def every_handover(index, reference):
    """The hand-overs after each round 1..k-1, and lcs_adaptive's own run
    (None), that do not give the reference array."""
    runs = {None: lcs_adaptive(index)} | {h: handed_over(index, h) for h in range(1, index.k)}
    return [h for h, lcs in runs.items() if lcs.tobytes() != reference.tobytes()]


def rule_handover(values, k):
    """The round after which lcs_adaptive's rule hands over, read from the
    final values: after round r the slots of value >= r are open and those
    of value r-1 closed in round r. None if no slot is open first."""
    n = len(values)
    for r in range(1, k + 1):
        still_open = np.count_nonzero(values[1:] >= r)
        closed = np.count_nonzero(values[1:] == r - 1)
        if not still_open:
            return None
        if (
            2 * still_open <= n
            and CLAIM_COST * closed <= n
            and CLAIM_COST * (closed + still_open) <= n * (k - r - 2)
        ):
            return r


class TestAdaptive:
    """The width-1 rounds handing over to the BFS at every round."""

    def test_handover_is_the_rules(self):
        # random texts of a few thousand bases hand over; sets of
        # overlapping reads with their reverse complements sometimes do not
        rng = Random(1)
        cases = []
        for _ in range(6):
            genome = "".join(rng.choice("ACGT") for _ in range(600))
            reads = [genome[i : i + 150] for i in range(0, 450, rng.randint(5, 40))]
            cases.append((clean_pieces(reads, True), rng.randint(15, 31)))
        for _ in range(4):
            text = "".join(rng.choice("ACGT") for _ in range(rng.randint(2000, 4000)))
            cases.append(([text], rng.randint(31, 63)))
        seen = set()
        for strings, k in cases:
            spectrum = extended_spectrum(strings, k)
            stats = BuildStats()
            lcs_adaptive(build_index(spectrum), stats)
            assert stats.handover == rule_handover(naive_lcs(spectrum), k)
            seen.add(stats.handover is None)
        assert seen == {False, True}

    def test_worked(self, worked_index):
        assert every_handover(worked_index, np.array(WORKED_LCS, dtype=lcs_dtype(4))) == []

    def test_one_column(self, one_column_index):
        assert list(lcs_adaptive(one_column_index)) == [0]

    def test_c2_corpus(self):
        rng = Random(SUITE_SEED)
        for trial in range(SUITE_SIZE):
            strings, k = random_instance(rng)
            spectrum = extended_spectrum(strings, k)
            bad = every_handover(build_index(spectrum), naive_lcs(spectrum))
            assert bad == [], f"trial {trial} (k={k}): hand-over rounds {bad} differ"

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.text("ACGTN", min_size=1, max_size=60), min_size=1, max_size=5),
        st.integers(2, 20),
        st.booleans(),
    )
    def test_pieces(self, records, k, add_rc):
        # N splits a record into pieces; every piece start is $-padded
        spectrum = extended_spectrum(clean_pieces(records, add_rc), k)
        assert every_handover(build_index(spectrum), naive_lcs(spectrum)) == []

    def test_inconsistent_index_raises_in_both_phases(self):
        # k=2, n=3, row A = 011: ranks 2 and 3 both decode to AA. Round 1
        # closes slot 1 only; round 2 leaves slot 2 open, and the BFS from
        # slot 1 never reaches it
        rows = np.zeros((4, 1), dtype=np.uint8)
        rows[0, 0] = 0b110
        index = SbwtIndex(2, 3, rows)
        with pytest.raises(FormatError, match="1 LCS slots still open after all k=2"):
            lcs_adaptive(index)
        with pytest.raises(FormatError, match="the BFS left 1 LCS slots unfilled"):
            handed_over(index, 1)

    @pytest.mark.parametrize("seed", [121, 122, 123, 124])
    def test_counters(self, seed):
        # past the hand-over the BFS runs linear's rounds from the same
        # endpoints: the same last round, and the pushes and rank queries
        # of the rounds after round r. A slot is open after round r while
        # r <= its value
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(8, 40))
        index = build_index(extended_spectrum(strings, k))
        linear = BuildStats()
        values = lcs_linear(index, linear)
        for r in range(1, values.max() + 1):
            stats = BuildStats()
            handed_over(index, r, stats)
            assert stats.rounds == linear.rounds
            assert stats.intervals_pushed == np.count_nonzero(values >= r)
            his_before = np.count_nonzero(values[1:] <= r - 2)
            assert stats.rank_queries == linear.rank_queries - 4 * his_before
            assert stats.lcs_writes == index.n

    @pytest.mark.parametrize("seed", [131, 132])
    def test_counters_without_handover(self, seed, monkeypatch):
        # the rounds stop once no slot is open, after the largest value's;
        # at this claim cost the rule never hands over
        monkeypatch.setattr(importlib.import_module("sbwt_lcs.lcs_linear"), "CLAIM_COST", 10**9)
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(8, 40))
        index = build_index(extended_spectrum(strings, k))
        stats = BuildStats()
        values = lcs_adaptive(index, stats)
        assert stats.handover is None
        assert stats.rounds == values.max() + 1
        assert (stats.rank_queries, stats.intervals_pushed) == (0, 0)
        assert stats.lcs_writes == index.n
