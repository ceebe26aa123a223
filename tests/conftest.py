"""Shared fixtures: the worked two-string example and random instances."""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

from sbwt_lcs import SbwtIndex, SortedSpectrum, build_index, extended_spectrum

WORKED_STRINGS = ["AGGTAAA", "ACAGGTAGGAAAGGAAAGT"]

WORKED_KMERS = (
    "$$$$ $$$A GAAA TAAA GGAA GTAA $ACA AGGA GGTA "
    "$$AC AAAG ACAG GTAG AAGG CAGG TAGG AAGT AGGT"
).split()

WORKED_LCS = [0, 0, 1, 3, 2, 2, 1, 1, 1, 0, 0, 2, 2, 1, 3, 3, 0, 2]

WORKED_SUBSETS = ["A", "C", "G", "", "A", "A", "G", "A", "AG", "A", "GT", "G", "G", "AT", "", "", "", "A"]

WORKED_MATRIX_ROWS = {
    "A": "100011011100010001",
    "C": "010000000000000000",
    "G": "001000101011100000",
    "T": "000000000010010000",
}


@pytest.fixture(scope="session")
def worked_spectrum():
    return extended_spectrum(WORKED_STRINGS, 4)


@pytest.fixture(scope="session")
def worked_index(worked_spectrum):
    return build_index(worked_spectrum)


@pytest.fixture(scope="session")
def tiny_spectrum():
    """Hand-built 3-row spectrum exercising a $-padded middle rank."""
    return SortedSpectrum(2, ("$$", "$A", "AA"))


@pytest.fixture(scope="session")
def one_column_index():
    return build_index(extended_spectrum([], 4))


def random_instance(rng: Random, k: int | None = None):
    """One differential-suite instance: a few random strings plus its k."""
    if k is None:
        k = rng.choice(list(range(1, 13)) + [31, 33, 63])
    strings = [
        "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 200)))
        for _ in range(rng.randint(1, 10))
    ]
    return strings, k


def moved_bit_index(index: SbwtIndex, rng: Random) -> SbwtIndex:
    """The index with one set bit of its matrix moved to a clear position.

    The matrix keeps n-1 set bits, so SbwtIndex accepts it, but its LF
    mapping is in general no longer that of any spectrum."""
    bits = np.array([bv.to_bool() for bv in index.matrix.rows])
    ones, zeros = np.argwhere(bits), np.argwhere(~bits)
    if len(ones) and len(zeros):
        bits[tuple(ones[rng.randrange(len(ones))])] = False
        bits[tuple(zeros[rng.randrange(len(zeros))])] = True
    return SbwtIndex(index.k, index.n, np.packbits(bits, axis=1, bitorder="little"))


def suffix_intervals(spectrum: SortedSpectrum) -> dict[str, tuple[int, int]]:
    """Brute-force colex interval of every suffix occurring in the spectrum,
    including the empty suffix; 1-based inclusive."""
    out: dict[str, tuple[int, int]] = {}
    k = spectrum.k
    for i, x in enumerate(spectrum.kmers):
        rank = i + 1
        for length in range(k + 1):
            s = x[k - length :]
            lo, hi = out.get(s, (rank, rank))
            out[s] = (min(lo, rank), max(hi, rank))
    return out


def brute_l_intervals(intervals: dict[str, tuple[int, int]]) -> dict[int, tuple[int, str]]:
    """Per right endpoint: the widest interval's start and its shortest string."""
    best: dict[int, tuple[int, str]] = {}
    for s, (lo, hi) in intervals.items():
        cur = best.get(hi)
        if cur is None or lo < cur[0] or (lo == cur[0] and len(s) < len(cur[1])):
            best[hi] = (lo, s)
    return best


@pytest.fixture
def report(capsys):
    """Print an always-visible acceptance verdict line."""

    def _report(criterion: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            suffix = f" ({detail})" if detail else ""
            print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")

    return _report
