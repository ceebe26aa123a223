"""Alphabet doubling and super-character LCS construction."""

import math
from collections import defaultdict
from random import Random

import numpy as np
import pytest

from sbwt_lcs import (
    build_index,
    expand_alphabet,
    extended_spectrum,
    lcs_basic,
    lcs_super,
    to_concat,
)
from sbwt_lcs.lcs_basic import propagate_round, start_state
from sbwt_lcs.lcs_superalphabet import packed_dtype
from sbwt_lcs.stats import BuildStats

from conftest import WORKED_LCS, random_instance


def unpack_path(value: int, width: int) -> str:
    """Packed super-label -> edge label string, first edge first."""
    return "".join("$ACGT"[(value // 5**j) % 5] for j in range(width))


def brute_paths(spectrum, steps):
    """All label paths of the given length in the pruned overlap graph,
    as {source rank: set of (labels, destination rank)}."""
    kmers = spectrum.kmers
    members = set(kmers)
    rank_of = {x: i + 1 for i, x in enumerate(kmers)}
    edges = defaultdict(list)
    prev = None
    for i, x in enumerate(kmers):
        suffix = x[1:]
        if suffix != prev:
            for c in "ACGT":
                if suffix + c in members:
                    edges[i + 1].append((c, rank_of[suffix + c]))
        prev = suffix
    paths = {rank: {("", rank)} for rank in range(1, len(kmers) + 1)}
    for _ in range(steps):
        nxt = {}
        for rank, partial in paths.items():
            grown = set()
            for labels, at in partial:
                for c, dest in edges.get(at, ()):
                    grown.add((labels + c, dest))
            nxt[rank] = grown
        paths = nxt
    return {rank: p for rank, p in paths.items() if p}


class TestExpandAlphabet:
    def test_worked_width2_matches_2step_paths(self, worked_spectrum, worked_index):
        rep = expand_alphabet(to_concat(worked_index), worked_index)
        assert rep.width == 2
        assert int(rep.boundaries.sum()) == 17  # one group per width-1 edge
        got = defaultdict(set)
        for src, label, dest in zip(rep.src, rep.labels, rep.dest):
            got[int(src)].add((unpack_path(int(label), 2), int(dest)))
        assert dict(got) == brute_paths(worked_spectrum, 2)

    def test_one_column(self, one_column_index):
        rep = expand_alphabet(to_concat(one_column_index), one_column_index)
        assert len(rep.labels) == 0
        assert rep.boundary_string() == "1"

    def test_padded_fixture(self, tiny_spectrum):
        index = build_index(tiny_spectrum)
        rep = expand_alphabet(to_concat(index), index)
        groups = {int(s): unpack_path(int(v), 2) for s, v in zip(rep.src, rep.labels)}
        assert groups == {1: "AA"}  # the single 2-step path $$ -> $A -> AA

    def test_width4_matches_4step_paths(self, worked_spectrum, worked_index):
        rep = expand_alphabet(
            expand_alphabet(to_concat(worked_index), worked_index), worked_index
        )
        assert rep.width == 4
        got = defaultdict(set)
        for src, label, dest in zip(rep.src, rep.labels, rep.dest):
            got[int(src)].add((unpack_path(int(label), 4), int(dest)))
        assert dict(got) == brute_paths(worked_spectrum, 4)

    def test_width_mismatch(self, worked_index, one_column_index):
        rep = to_concat(one_column_index)
        with pytest.raises(ValueError):
            expand_alphabet(rep, worked_index)


class TestSuperStepEquivalence:
    """One super round must equal c consecutive basic rounds."""

    @pytest.mark.parametrize("seed,c", [(31, 2), (32, 2), (33, 4)])
    def test_induced_labels_match(self, seed, c):
        rng = Random(seed)
        strings, k = random_instance(rng, k=rng.randint(c + 1, 9))
        index = build_index(extended_spectrum(strings, k))
        rep = to_concat(index)
        while rep.width < c:
            rep = expand_alphabet(rep, index)

        # pack the first c offsets via basic rounds
        state = start_state(index)
        packed = state.labels.astype(np.int64)
        for _ in range(c - 1):
            propagate_round(state, index)
            packed = packed * 5 + state.labels
        # one super step
        stepped = np.zeros_like(packed)
        stepped[rep.dest - 1] = packed[rep.src - 1]
        # c more basic rounds pack offsets c .. 2c-1
        expected = None
        for _ in range(c):
            propagate_round(state, index)
            val = state.labels.astype(np.int64)
            expected = val if expected is None else expected * 5 + val
        # components past the k-mer length are masked junk; compare only
        # digit positions whose offset is below k
        for d in range(c):
            offset = c + d
            if offset >= k:
                break
            power = 5 ** (c - 1 - d)
            assert ((stepped // power) % 5 == (expected // power) % 5).all()


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

    def test_odd_k_partial_round(self):
        rng = Random(77)
        kmers = ["".join(rng.choice("ACGT") for _ in range(7)) for _ in range(500)]
        index = build_index(extended_spectrum(kmers, 7))
        assert (lcs_super(index, 2) == lcs_basic(index)).all()

    @pytest.mark.parametrize("c", [2, 4, 8])
    @pytest.mark.parametrize("k", [3, 5, 9, 12, 31])
    def test_matches_basic_all_widths(self, k, c):
        # spans k < c (no phase 2), k a multiple of c, and partial windows
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
        assert stats.phase1_rounds == 2
        assert stats.rounds == math.ceil(max(0, k - 2) / 2)

    def test_packed_dtype_widths(self):
        assert packed_dtype(2) is np.uint8
        assert packed_dtype(4) is np.uint16
        assert packed_dtype(8) is np.uint32
