"""Membership lookup and left contraction against brute-force oracles."""

from itertools import product
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sbwt_lcs.oracle import extend_right

from conftest import moved_bit_index, random_instance, suffix_intervals


def lookup_by_extension(index, kmer):
    """Reference lookup: fold extend_right over the k-mer."""
    lo, hi = 1, index.n
    for ch in kmer:
        found = extend_right(index, lo, hi, ch)
        if found is None:
            return None
        lo, hi = found
    if lo != hi:
        raise FormatError(f"k-mer {kmer} spans ranks {lo}..{hi}")
    return lo


def outcome(fn, *args):
    """A call's result, or the type of the FormatError it raised."""
    try:
        return fn(*args)
    except FormatError:
        return FormatError


def contract_one_by_one(lcs, s, t):
    """Reference contraction: widen the interval one LCS entry at a time."""
    m = s.suffix_len - t + 1
    lo, hi = s.interval
    while hi < len(lcs) and lcs[hi] >= m:
        hi += 1
    while lo > 1 and lcs[lo - 1] >= m:
        lo -= 1
    return SuffixInterval(ColexInterval(lo, hi), m)


# run lengths at powers of 4 and at the galloping scan's chunk ends (16, 80, 336, 1360)
RUN_LENGTHS = [0, 1, 15, 16, 17, 63, 64, 65, 79, 80, 81, 255, 256, 257, 335, 336, 337]
RUN_LENGTHS += [1023, 1024, 1025, 1359, 1360, 1361]


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

    def test_one_column_index(self, one_column_index):
        # n = 1: the interval is a single column before the first symbol
        for combo in product("ACGT", repeat=4):
            assert lookup(one_column_index, "".join(combo)) is None

    def test_single_column_only_at_last_symbol(self):
        # AAA ends CAAA, GAAA and AAAA; only the last A narrows it to AAAA
        spectrum = extended_spectrum(["CAAAA", "GAAAA"], 4)
        index = build_index(spectrum)
        lo, hi = suffix_intervals(spectrum)["AAA"]
        assert hi - lo == 2
        assert lookup(index, "AAAA") == spectrum.kmers.index("AAAA") + 1
        assert lookup(index, "AAAC") is None
        assert lookup(index, "AAAT") is None

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


class TestLookupAgainstExtension:
    """lookup against the extend_right fold, on sound and corrupt indexes."""

    @staticmethod
    def queries(spectrum, rng):
        """Every k-mer of the spectrum and 60 random ones."""
        present = [x for x in spectrum.kmers if "$" not in x]
        made = ["".join(rng.choice("ACGT") for _ in range(spectrum.k)) for _ in range(60)]
        return present + made

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        rng = Random(400 + seed)
        strings, k = random_instance(rng)
        spectrum = extended_spectrum(strings, k)
        index = build_index(spectrum)
        ranks = {x: i + 1 for i, x in enumerate(spectrum.kmers)}
        for q in self.queries(spectrum, rng):
            assert lookup(index, q) == lookup_by_extension(index, q) == ranks.get(q)

    @pytest.mark.parametrize("seed", range(40))
    def test_moved_bit(self, seed):
        rng = Random(500 + seed)
        strings, k = random_instance(rng, k=rng.randint(1, 7))
        spectrum = extended_spectrum(strings, k)
        index = moved_bit_index(build_index(spectrum), rng)
        for q in self.queries(spectrum, rng):
            assert outcome(lookup, index, q) == outcome(lookup_by_extension, index, q), q

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [20, 33, 40])
    def test_moved_bit_long_kmers(self, k, seed):
        # at these k most steps of a present k-mer run on a single column;
        # a one-base substitution of each leaves it at a random position.
        # The strings are copies of one unit with three substitutions each,
        # so that shared (k-1)-mers keep some intervals wide up to the last
        # symbol, where a moved bit can leave two ranks.
        rng = Random(600 + 10 * k + seed)
        unit = [rng.choice("ACGT") for _ in range(rng.randint(100, 400))]
        strings = []
        for _ in range(rng.randint(2, 5)):
            copy = list(unit)
            for _ in range(3):
                copy[rng.randrange(len(copy))] = rng.choice("ACGT")
            strings.append("".join(copy))
        spectrum = extended_spectrum(strings, k)
        index = moved_bit_index(build_index(spectrum), rng)
        queries = self.queries(spectrum, rng)
        for x in queries[: len(queries) - 60]:
            j = rng.randrange(k)
            queries.append(x[:j] + rng.choice("ACGT".replace(x[j], "")) + x[j + 1 :])
        for q in queries:
            assert outcome(lookup, index, q) == outcome(lookup_by_extension, index, q), q


@st.composite
def contraction_cases(draw):
    """An LCS array built around a chosen run, with the call that finds it.

    The input interval [lo, hi] sits inside a run of entries >= m that
    reaches `left` entries below lo and `right` entries above hi; an entry
    < m or an end of the array bounds it on each side.
    """
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, k))
    left, right = draw(st.sampled_from(RUN_LENGTHS)), draw(st.sampled_from(RUN_LENGTHS))
    pad_left, pad_right = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    width = draw(st.integers(0, 3))
    lo = 1 + pad_left + left
    hi = lo + width
    n = hi + right + pad_right
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lcs = rng.integers(0, k + 1, size=n).astype(np.int32)
    lcs[lo - left : lo] = rng.integers(m, k + 1, size=left)
    lcs[hi : hi + right] = rng.integers(m, k + 1, size=right)
    if pad_left:
        lcs[pad_left] = rng.integers(0, m)
    if pad_right:
        lcs[hi + right] = rng.integers(0, m)
    call = (SuffixInterval(ColexInterval(lo, hi), k), k - m + 1)
    return lcs, call, (lo - left, hi + right)


class TestGallopingContraction:
    """left_contract against the one-entry-per-iteration scan."""

    @settings(max_examples=300, deadline=None)
    @given(contraction_cases())
    def test_matches_one_by_one(self, case):
        lcs, (s, t), (lo, hi) = case
        got = left_contract(lcs, s, t)
        assert got == contract_one_by_one(lcs, s, t)
        assert (got.interval.lo, got.interval.hi) == (lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=1500),
        st.data(),
    )
    def test_random_arrays(self, values, data):
        lcs = np.array(values, dtype=np.int32)
        n = len(lcs)
        lo = data.draw(st.integers(1, n))
        hi = data.draw(st.integers(lo, n))
        kprime = data.draw(st.integers(1, 5))
        t = data.draw(st.integers(1, kprime))
        s = SuffixInterval(ColexInterval(lo, hi), kprime)
        assert left_contract(lcs, s, t) == contract_one_by_one(lcs, s, t)

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 1024, 1025, 5000])
    def test_run_is_whole_array(self, n):
        lcs = np.full(n, 2, dtype=np.int32)
        lcs[0] = 0
        for lo, hi in ((1, 1), (n, n), (1, n), ((n + 1) // 2, (n + 1) // 2)):
            got = left_contract(lcs, SuffixInterval(ColexInterval(lo, hi), 3), 3)
            assert got == SuffixInterval(ColexInterval(1, n), 1)

    @pytest.mark.parametrize("n", [1, 17, 1025])
    def test_m_above_every_entry(self, n):
        lcs = np.arange(n, dtype=np.int32) % 4
        for lo, hi in ((1, 1), (n, n), (1, n)):
            s = SuffixInterval(ColexInterval(lo, hi), 5)
            assert left_contract(lcs, s, 1) == SuffixInterval(ColexInterval(lo, hi), 5)

    def test_invalid_interval(self):
        lcs = np.zeros(4, dtype=np.int32)
        for lo, hi in ((0, 1), (3, 2), (1, 5)):
            with pytest.raises(ValueError, match="invalid interval"):
                left_contract(lcs, SuffixInterval(ColexInterval(lo, hi), 2), 1)
