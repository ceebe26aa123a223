"""Super-character LCS construction through the c-step map."""

import math
from random import Random

import numpy as np
import pytest

from sbwt_lcs import (
    build_index,
    extended_spectrum,
    lcs_basic,
    lcs_super,
    naive_lcs,
)
from sbwt_lcs.lcs_basic import initial_labels
from sbwt_lcs.lcs_superalphabet import MAX_WIDTH, step_map
from sbwt_lcs.stats import BuildStats

from conftest import WORKED_LCS, random_instance


class TestSuperStepEquivalence:
    """One gather through the c-step map must equal c consecutive basic rounds."""

    @pytest.mark.parametrize("seed,c", [(31, 2), (32, 2), (33, 4)])
    def test_induced_labels_match(self, seed, c):
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(c + 1, 9))
        index = build_index(extended_spectrum(strings, k))
        step = step_map(index, c)

        # pack the first c offsets via basic rounds
        labels = initial_labels(index)
        packed = labels.astype(np.int64)
        for _ in range(c - 1):
            labels = labels[index.pred]
            packed = (packed << 3) | labels
        # c more basic rounds pack offsets c .. 2c-1
        expected = np.zeros_like(packed)
        for _ in range(c):
            labels = labels[index.pred]
            expected = (expected << 3) | labels
        assert (packed[step] == expected).all()

    def test_one_column(self, one_column_index):
        assert step_map(one_column_index, 4).tolist() == [0]


class TestLcsSuper:
    def test_worked_example(self, worked_index):
        assert list(lcs_super(worked_index, 2)) == WORKED_LCS

    def test_one_column(self, one_column_index):
        assert list(lcs_super(one_column_index, 2)) == [0]

    def test_rejects_bad_width(self, worked_index):
        with pytest.raises(ValueError):
            lcs_super(worked_index, 1)
        with pytest.raises(ValueError):
            lcs_super(worked_index, 3)
        with pytest.raises(ValueError):
            lcs_super(worked_index, 2 * MAX_WIDTH)

    def test_odd_k_partial_round(self):
        rng = Random(77)
        kmers = ["".join(rng.choice("ACGT") for _ in range(7)) for _ in range(500)]
        index = build_index(extended_spectrum(kmers, 7))
        assert (lcs_super(index, 2) == lcs_basic(index)).all()

    @pytest.mark.parametrize("c", [2, 4, 8])
    @pytest.mark.parametrize("k", [3, 5, 9, 12, 31])
    def test_matches_basic_all_widths(self, k, c):
        # spans k < c (a single round), k a multiple of c, and partial windows
        rng = Random(50 + k)
        strings, _ = random_instance(rng, k=k)
        index = build_index(extended_spectrum(strings, k))
        assert (lcs_super(index, c) == lcs_basic(index)).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 9, 12])
    def test_phase2_round_count(self, k):
        rng = Random(k)
        strings, _ = random_instance(rng, k=k)
        index = build_index(extended_spectrum(strings, k))
        stats = BuildStats()
        lcs_super(index, 2, stats)
        assert stats.rounds == math.ceil(max(0, k - 2) / 2)

    def test_widest_width_on_repeats(self):
        # six 1-base mutants of one 120-base string: LCS values reach k-1,
        # so rounds compare every field of the super-characters
        rng = Random(5)
        base = "".join(rng.choice("ACGT") for _ in range(120))
        strings = []
        for _ in range(6):
            i = rng.randrange(120)
            strings.append(base[:i] + rng.choice("ACGT".replace(base[i], "")) + base[i + 1 :])
        for k in (40, 70, 100):
            spectrum = extended_spectrum(strings, k)
            expected = naive_lcs(spectrum)
            assert expected.max() >= 2 * MAX_WIDTH
            assert (lcs_super(build_index(spectrum), MAX_WIDTH) == expected).all()
