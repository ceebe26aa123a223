"""DNA alphabet with a $ sentinel that sorts below every base.

Codes are fixed: $=0, A=1, C=2, G=3, T=4. Because the ASCII order of
'$ACGT' matches the code order, plain string comparison of k-mers (and of
reversed k-mers, for colexicographic order) agrees with the code order.
"""

from __future__ import annotations

import re

import numpy as np

DOLLAR = "$"
BASES = "ACGT"
SYMBOLS = DOLLAR + BASES  # index in this string == numeric code

BASE_CODES = {c: i + 1 for i, c in enumerate(BASES)}

# byte -> subset-matrix row of its base (A, C, G, T = 0..3); 255 for any other byte
ROW_OF = bytes(BASES.index(chr(b)) if chr(b) in BASES else 255 for b in range(256))

_CODE_TO_ASCII = np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8).copy()
_NOT_A_BASE = re.compile("[^ACGT]")


def check_bases(s: str, what: str = "string") -> None:
    """Raise ValueError unless every symbol of s is one of ACGT."""
    bad = _NOT_A_BASE.search(s)
    if bad:
        raise ValueError(f"invalid symbol {bad.group()!r} in {what}: expected one of ACGT")


def decode(codes: np.ndarray) -> str:
    """uint8 code array -> symbol string."""
    return _CODE_TO_ASCII[codes].tobytes().decode("ascii")


def colex_key(kmer: str) -> str:
    """Sort key realizing colexicographic order over $ACGT strings."""
    return kmer[::-1]
