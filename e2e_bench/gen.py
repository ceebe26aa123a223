"""Seeded inputs for the end-to-end benchmark.

Each workload turns a seed into DNA records, a lookup batch and a
contraction plan. The same (workload, seed) pair always gives the same
inputs. The program under test receives only the files written by
`write_inputs`; the benchmark's reference side reads the in-memory
records, so it never depends on the program's FASTA parser.

    python3 e2e_bench/gen.py --workload genome-k31 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BASES = np.frombuffer(b"ACGT", dtype=np.uint8)

# lookup batch: half exact k-mers, half with one substitution (single records)
QUERY_PAIRS = 1000
# contractions per batch, rounded down to whole cycles over the orders 1..k-1
CONTRACTIONS = 240
MIN_CYCLES = 4

READ_LEN = 150
READ_ERROR = 0.01
READ_GENOME = 40_000
READ_COVERAGE = 10
HELD_OUT_READS = 16


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload feeds the program, plus its layout."""

    workload: str
    k: int
    add_rc: bool
    records: list[str]
    queries: list[str]
    slice_len: int  # lookups per timed slice; every slice has the same make-up
    contract_orders: np.ndarray  # (cycles, k-1): each row a permutation of 1..k-1


def _dna(codes: np.ndarray) -> str:
    return BASES[codes].tobytes().decode("ascii")


def _mutate(rng: np.random.Generator, codes: np.ndarray, rate: float) -> np.ndarray:
    """Copy of codes with each base substituted (never by itself) at the rate."""
    out = codes.copy()
    hit = np.flatnonzero(rng.random(len(codes)) < rate)
    out[hit] = (out[hit] + rng.integers(1, 4, len(hit))) % 4
    return out


def _revcomp(codes: np.ndarray) -> np.ndarray:
    return (3 - codes)[::-1]


def _exact_and_substituted(
    rng: np.random.Generator, text: np.ndarray, k: int
) -> list[str]:
    """QUERY_PAIRS pairs (exact k-mer, k-mer with one substitution)."""
    starts = rng.integers(0, len(text) - k + 1, size=(QUERY_PAIRS, 2))
    where = rng.integers(0, k, QUERY_PAIRS)
    shift = rng.integers(1, 4, QUERY_PAIRS)
    out = []
    for (a, b), j, s in zip(starts, where, shift):
        out.append(_dna(text[a : a + k]))
        sub = text[b : b + k].copy()
        sub[j] = (sub[j] + s) % 4
        out.append(_dna(sub))
    return out


def _genome(rng: np.random.Generator, k: int):
    text = rng.integers(0, 4, 1_000_000, dtype=np.uint8)
    return [_dna(text)], _exact_and_substituted(rng, text, k), 250


REPEAT_LENGTH = 1_000_000
REPEAT_FAMILIES = (300, 700, 1500, 3000, 6000)
REPEAT_SHARE = 80_000  # bases of copies per family
REPEAT_DIVERGENCE = (0.002, 0.005, 0.01, 0.02, 0.04, 0.08)  # cycled over copies
TANDEM_RUNS = 400


def _repeats(rng: np.random.Generator, k: int):
    """Diverged copies of a few repeat units, short tandem runs, unique sequence."""
    segments = []
    for unit_len in REPEAT_FAMILIES:
        unit = rng.integers(0, 4, unit_len, dtype=np.uint8)
        for j in range(round(REPEAT_SHARE / unit_len)):
            copy = _mutate(rng, unit, REPEAT_DIVERGENCE[j % len(REPEAT_DIVERGENCE)])
            segments.append(_revcomp(copy) if rng.random() < 0.5 else copy)
    for _ in range(TANDEM_RUNS):
        motif = rng.integers(0, 4, int(rng.integers(1, 7)), dtype=np.uint8)
        run_len = int(rng.integers(20, 201))
        segments.append(_mutate(rng, np.resize(motif, run_len), 0.01))
    order = rng.permutation(len(segments))
    unique_len = REPEAT_LENGTH - sum(len(s) for s in segments)
    cuts = np.sort(rng.integers(0, unique_len + 1, len(segments)))
    gaps = np.diff(np.concatenate(([0], cuts, [unique_len])))
    parts = [rng.integers(0, 4, gaps[0], dtype=np.uint8)]
    for i, gap in zip(order, gaps[1:]):
        parts.append(segments[i])
        parts.append(rng.integers(0, 4, gap, dtype=np.uint8))
    text = np.concatenate(parts)
    return [_dna(text)], _exact_and_substituted(rng, text, k), 250


def _sample_reads(rng: np.random.Generator, genome: np.ndarray, count: int) -> list[np.ndarray]:
    starts = rng.integers(0, len(genome) - READ_LEN + 1, count)
    reads = []
    for s in starts:
        read = _mutate(rng, genome[s : s + READ_LEN], READ_ERROR)
        reads.append(_revcomp(read) if rng.random() < 0.5 else read)
    return reads


def _reads(rng: np.random.Generator, k: int):
    """Error-bearing reads from both strands; queries from held-out reads."""
    genome = rng.integers(0, 4, READ_GENOME, dtype=np.uint8)
    reads = _sample_reads(rng, genome, READ_GENOME * READ_COVERAGE // READ_LEN)
    held_out = _sample_reads(rng, genome, HELD_OUT_READS)
    queries = [_dna(r[i : i + k]) for r in held_out for i in range(READ_LEN - k + 1)]
    return [_dna(r) for r in reads], queries, 2 * (READ_LEN - k + 1)


@dataclass(frozen=True)
class Workload:
    k: int
    add_rc: bool
    make: Callable  # rng, k -> (records, queries, lookups per timed slice)


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    "genome-k31": Workload(31, False, _genome),
    "repeats-k127": Workload(127, False, _repeats),
    "reads-k31": Workload(31, True, _reads),
}


def generate(workload: str, seed: int) -> Inputs:
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    records, queries, slice_len = spec.make(rng, spec.k)
    cycles = max(MIN_CYCLES, CONTRACTIONS // (spec.k - 1))
    orders = np.stack([rng.permutation(spec.k - 1) + 1 for _ in range(cycles)])
    return Inputs(workload, spec.k, spec.add_rc, records, queries, slice_len, orders)


def write_inputs(inputs: Inputs, out: Path) -> dict[str, Path]:
    """Write the FASTA file and the two batches; returns their paths."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "fasta": out / "input.fa",
        "queries": out / "queries.txt",
        "orders": out / "contract_orders.txt",
    }
    with open(paths["fasta"], "w") as fh:
        for i, seq in enumerate(inputs.records):
            fh.write(f">{inputs.workload}_{i}\n")
            for j in range(0, len(seq), 80):
                fh.write(seq[j : j + 80])
                fh.write("\n")
    paths["queries"].write_text("\n".join(inputs.queries) + "\n")
    np.savetxt(paths["orders"], inputs.contract_orders, fmt="%d")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed)
    for name, path in write_inputs(inputs, args.out).items():
        print(f"{name}\t{path}")


if __name__ == "__main__":
    main()
