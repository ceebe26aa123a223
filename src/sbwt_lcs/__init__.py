"""SBWT index over DNA k-mer spectra with LCS array construction."""

from .index import (
    ColexInterval,
    FormatError,
    SbwtIndex,
    build_index,
    load_index,
    save_index,
)
from .lcs_basic import decode_spectrum, lcs_basic
from .lcs_linear import lcs_linear, lcs_linear_endpoints
from .lcs_superalphabet import lcs_super
from .oracle import (
    SortedSpectrum,
    extended_spectrum,
    naive_lcs,
    naive_subset_sequence,
)
from .queries import SuffixInterval, left_contract, lookup
from .stats import BuildStats

__version__ = "0.1.0"

__all__ = [
    "BuildStats",
    "ColexInterval",
    "FormatError",
    "SbwtIndex",
    "SortedSpectrum",
    "SuffixInterval",
    "build_index",
    "decode_spectrum",
    "extended_spectrum",
    "lcs_basic",
    "lcs_linear",
    "lcs_linear_endpoints",
    "lcs_super",
    "left_contract",
    "load_index",
    "lookup",
    "naive_lcs",
    "naive_subset_sequence",
    "save_index",
]
