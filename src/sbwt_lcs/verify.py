"""The `verify` command's cross-checks: every construction path against
the reference side.

The brute-force spectrum (oracle) is the ground truth. The packed build
must give the index build_index gives; lookup must give each k-mer's
rank; and lcs_basic, lcs_super, lcs_linear and lcs_adaptive (the
width-1 rounds, then the BFS resumed from the slots still open) must all
give naive_lcs. Only `sbwt-lcs verify` imports this module.
"""

from __future__ import annotations

import sys
from random import Random

import numpy as np

from .alphabet import BASES
from .cli import EXIT_OK, EXIT_VERIFY, packed_index, read_pieces
from .index import FormatError, SbwtIndex
from .lcs_basic import lcs_basic
from .lcs_linear import lcs_adaptive, lcs_linear
from .lcs_superalphabet import lcs_super
from .oracle import build_index, extended_spectrum, naive_lcs
from .queries import lookup

# `verify` looks up at most this many k-mers of the spectrum, and as many
# substituted ones
VERIFY_LOOKUPS = 2000


def verify_lookups(index: SbwtIndex, kmers: tuple[str, ...], label: str) -> int:
    """Compare lookup with the 1-based ranks of the sorted k-mers.

    The queries are at most VERIFY_LOOKUPS evenly spaced $-free k-mers and
    one single-base substitution of each, which must be absent or have its
    own rank; the i-th substitution changes position i mod k.
    """
    ranks = {x: i + 1 for i, x in enumerate(kmers)}
    present = [x for x in kmers if "$" not in x]
    present = present[:: max(1, -(-len(present) // VERIFY_LOOKUPS))]
    queries = list(present)
    for i, x in enumerate(present):
        j = i % index.k
        base = BASES[(BASES.index(x[j]) + 1 + i % 3) % 4]
        queries.append(x[:j] + base + x[j + 1 :])
    for q in queries:
        try:
            got = lookup(index, q)
        except FormatError as exc:
            got = f"FormatError ({exc})"
        if got != ranks.get(q):
            print(
                f"mismatch in {label}: lookup of {q} gave {got}, expected {ranks.get(q)}",
                file=sys.stderr,
            )
            return EXIT_VERIFY
    return EXIT_OK


def verify_one(pieces: list[str], k: int, label: str) -> int:
    spectrum = extended_spectrum(pieces, k)
    index = build_index(spectrum)
    if packed_index(pieces, k) != index:
        print(f"mismatch in {label}: build differs from naive_subset_sequence", file=sys.stderr)
        return EXIT_VERIFY
    if verify_lookups(index, spectrum.kmers, label) != EXIT_OK:
        return EXIT_VERIFY
    arrays = [
        ("naive", naive_lcs(spectrum)),
        ("basic", lcs_basic(index)),
        ("super", lcs_super(index, 2)),
        ("linear", lcs_linear(index)),
        ("adaptive", lcs_adaptive(index)),
    ]
    reference = arrays[0][1]
    for name, values in arrays[1:]:
        if (values != reference).any():
            bad = int(np.argmax(values != reference))
            row = " ".join(f"{n}={int(v[bad])}" for n, v in arrays)
            before = spectrum.kmers[bad - 1] if bad else "-"
            print(
                f"mismatch in {label} at rank {bad + 1}: {row} "
                f"(k-mers {before} | {spectrum.kmers[bad]})",
                file=sys.stderr,
            )
            return EXIT_VERIFY
    return EXIT_OK


def run(args) -> int:
    """The verify command: random trials, or the pieces of one FASTA file."""
    if args.random:
        rng = Random(args.seed)
        for trial in range(args.trials):
            k = args.k if args.k else rng.randint(1, 12)
            strings = [
                "".join(rng.choice("ACGT") for _ in range(rng.randint(1, args.length)))
                for _ in range(args.count)
            ]
            code = verify_one(strings, k, f"trial {trial} (k={k})")
            if code != EXIT_OK:
                return code
        print(f"verified {args.trials} random trials")
        return EXIT_OK
    if not args.input or not args.k:
        raise ValueError("verify needs an input file and -k, or --random")
    code = verify_one(read_pieces(args.input, args.k, False), args.k, args.input)
    if code == EXIT_OK:
        print("verified")
    return code
