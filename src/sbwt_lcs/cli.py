"""Command-line front end: build, lcs, verify, dump, query.

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error,
3 cross-validation failure.
"""

from __future__ import annotations

import argparse
import re
import resource
import struct
import sys
import time

import numpy as np

from .alphabet import BASES
from .index import (
    MAX_K,
    ColexInterval,
    FormatError,
    SbwtIndex,
    load_index,
    save_index,
)
from .lcs_basic import lcs_basic
from .lcs_linear import lcs_linear
from .packed import pack_pieces, subset_rows
from .queries import SuffixInterval, left_contract, lookup

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3

LCS_MAGIC = b"LCSARR01"
_LCS_HEADER = struct.Struct("<8sQB")

# `lcs` runs basic up to this k and linear above it; the crossover comes
# from the sweep in README.md ("Choosing the algorithm")
AUTO_BASIC_MAX_K = 39

_RC = str.maketrans("ACGT", "TGCA")
_SPLIT_NON_ACGT = re.compile(r"[^ACGT]+")
_LINE_SPACE = " \t\n\r\v\f"  # ASCII only: str.strip() also drops 0x85 and 0xA0
# dump's subset column for each 4-bit matrix column, bit c set for base c
_SUBSETS = ["".join(b for c, b in enumerate(BASES) if code >> c & 1) or "-" for code in range(16)]


# ---------------------------------------------------------------------------
# file formats


def read_fasta(path: str) -> list[tuple[str, str]]:
    """FASTA records as (header, uppercased sequence), in file order.

    Read as latin-1, so every byte is one symbol. Only ASCII whitespace is
    stripped from line ends: any other non-ACGT byte, UTF-8 or not, splits.
    """
    records: list[tuple[str, str]] = []
    header = None
    chunks: list[str] = []
    with open(path, encoding="latin-1") as fh:
        for line in fh:
            line = line.strip(_LINE_SPACE)
            if not line:
                continue
            if line.startswith(">"):
                if header is not None:
                    records.append((header, "".join(chunks)))
                header = line[1:].strip()
                chunks = []
            elif header is None:
                raise FormatError(f"{path}: sequence data before first FASTA header")
            else:
                chunks.append(line.upper())
    if header is not None:
        records.append((header, "".join(chunks)))
    return records


def clean_pieces(sequences: list[str], add_rc: bool) -> list[str]:
    """Split each sequence at non-ACGT symbols; optionally add reverse strands."""
    pieces = [p for seq in sequences for p in _SPLIT_NON_ACGT.split(seq) if p]
    if add_rc:
        pieces += [p.translate(_RC)[::-1] for p in pieces]
    return pieces


def read_pieces(path: str, k: int, add_rc: bool) -> list[str]:
    """The cleaned pieces of a FASTA file; raises FormatError if none holds
    a k-mer."""
    pieces = clean_pieces([seq for _, seq in read_fasta(path)], add_rc)
    if not any(len(p) >= k for p in pieces):
        raise FormatError(f"no {k}-mers extracted from {path}")
    return pieces


def lcs_value_width(k: int) -> int:
    """Smallest of 1, 2, 4 bytes that holds k-1."""
    if k - 1 <= 0xFF:
        return 1
    if k - 1 <= 0xFFFF:
        return 2
    return 4


def save_lcs(values: np.ndarray, k: int, path: str) -> None:
    width = lcs_value_width(k)
    with open(path, "wb") as fh:
        fh.write(_LCS_HEADER.pack(LCS_MAGIC, len(values), width))
        fh.write(values.astype(f"<u{width}").tobytes())


def load_lcs(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _LCS_HEADER.size:
        raise FormatError(f"{path}: truncated LCS file")
    magic, n, width = _LCS_HEADER.unpack_from(data)
    if magic != LCS_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if width not in (1, 2, 4):
        raise FormatError(f"{path}: invalid value width {width}")
    expected = _LCS_HEADER.size + n * width
    if len(data) < expected:
        raise FormatError(f"{path}: truncated LCS file")
    if len(data) > expected:
        raise FormatError(f"{path}: trailing data after LCS payload")
    raw = np.frombuffer(data, dtype=f"<u{width}", count=n, offset=_LCS_HEADER.size)
    if width == 4 and raw.max(initial=0) > np.iinfo(np.int32).max:
        raise FormatError(f"{path}: LCS value {int(raw.max())} does not fit in int32")
    return raw.astype(np.int32)


# ---------------------------------------------------------------------------
# commands


def packed_index(pieces: list[str], k: int) -> SbwtIndex:
    """The index of the pieces, built from packed k-mer keys."""
    ps = pack_pieces(pieces, k)
    return SbwtIndex(k, ps.n, subset_rows(ps))


def cmd_build(args) -> int:
    index = packed_index(read_pieces(args.input, args.k, args.add_rc), args.k)
    save_index(index, args.output)
    print(f"n={index.n} k={index.k}")
    return EXIT_OK


def cmd_lcs(args) -> int:
    index = load_index(args.index)
    if index.k <= AUTO_BASIC_MAX_K:
        algorithm, construct = "basic", lcs_basic
    else:
        algorithm, construct = "linear", lcs_linear
    start = time.perf_counter()
    values = construct(index)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    save_lcs(values, index.k, args.output)
    print(f"algo={algorithm} ms={elapsed_ms:.3f} bytes={peak_bytes}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run

    return run(args)


def load_lcs_for(index: SbwtIndex, index_path: str, lcs_path: str) -> np.ndarray:
    """An LCS file's values; raises FormatError if they cannot belong to the index.

    Catches a file built for another index of different n, or of equal n
    and larger k; one built for an equal-n, equal-k index still passes.
    """
    values = load_lcs(lcs_path)
    if len(values) != index.n:
        problem = f"LCS file has {len(values)} entries, index has n={index.n}"
    elif values[0] != 0:
        problem = f"the first LCS value is {int(values[0])}, not 0"
    elif values.max() > index.k - 1:
        problem = f"LCS value {int(values.max())} exceeds k-1={index.k - 1}"
    else:
        return values
    raise FormatError(f"{lcs_path} does not match {index_path}: {problem}")


def cmd_dump(args) -> int:
    from .oracle import decode_spectrum

    index = load_index(args.index)
    values = load_lcs_for(index, args.index, args.lcs) if args.lcs else None
    spectrum = decode_spectrum(index)
    codes = np.zeros(index.n, dtype=np.uint8)
    for c, row in enumerate(index.matrix.rows):
        codes |= row.to_bool().view(np.uint8) << c
    columns = [range(1, index.n + 1), spectrum.kmers, [_SUBSETS[c] for c in codes.tolist()]]
    if values is not None:
        columns.append(values.tolist())
    line = "\t".join(["{}"] * len(columns)) + "\n"
    sys.stdout.writelines(map(line.format, *columns))
    return EXIT_OK


def parse_interval(text: str) -> ColexInterval:
    """The interval "lo,hi"; raises ValueError naming the text if malformed."""
    try:
        lo, hi = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"malformed interval {text!r}") from None
    return ColexInterval(lo, hi)


def cmd_query(args) -> int:
    index = load_index(args.index)
    values = load_lcs_for(index, args.index, args.lcs)
    if args.action == "lookup":
        for kmer in args.kmers:
            rank = lookup(index, kmer)
            print(f"{kmer}\t{rank if rank is not None else 'absent'}")
    else:
        interval = parse_interval(args.interval)
        if not 1 <= args.suffix_len <= index.k:
            raise ValueError(f"--suffix-len must be in 1..k={index.k}")
        result = left_contract(values, SuffixInterval(interval, args.suffix_len), args.point)
        print(f"{result.interval.lo}\t{result.interval.hi}\t{result.suffix_len}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def kmer_size(text: str) -> int:
    """argparse type: a k-mer size in 1..MAX_K."""
    value = positive_int(text)
    if value > MAX_K:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_K}, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this artifact reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sbwt-lcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index from FASTA")
    p.add_argument("input", help="FASTA file")
    p.add_argument("-k", type=kmer_size, required=True, help=f"k-mer size (1..{MAX_K})")
    p.add_argument("-o", "--output", required=True, help="index output path")
    p.add_argument(
        "--add-rc", action="store_true", help="also index reverse complements"
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("lcs", help="construct the LCS array of an index")
    p.add_argument("index")
    p.add_argument("-o", "--output", required=True, help="LCS output path")
    p.set_defaults(func=cmd_lcs)

    p = sub.add_parser("verify", help="cross-check all construction paths")
    p.add_argument("input", nargs="?", help="FASTA file (omit with --random)")
    p.add_argument("-k", type=kmer_size, help="k-mer size; random per trial if omitted")
    p.add_argument("--random", action="store_true", help="synthetic random mode")
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--count", type=positive_int, default=3, help="strings per random trial")
    p.add_argument("--length", type=positive_int, default=80, help="max random string length")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump", help="print rank/k-mer/subset/LCS table")
    p.add_argument("index")
    p.add_argument("lcs", nargs="?", help="optional LCS file")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("query", help="lookup k-mers or contract an interval")
    p.add_argument("index")
    p.add_argument("lcs")
    actions = p.add_subparsers(dest="action", required=True)
    pl = actions.add_parser("lookup")
    pl.add_argument("kmers", nargs="+")
    pc = actions.add_parser("contract")
    pc.add_argument("--interval", required=True, help="lo,hi (1-based, inclusive)")
    pc.add_argument("--suffix-len", type=int, required=True)
    pc.add_argument("--point", type=int, required=True)
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    """Run one command. An error from any of them prints its message: an
    OSError or FormatError exits with EXIT_IO, any other ValueError with
    EXIT_USAGE."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, (OSError, FormatError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
