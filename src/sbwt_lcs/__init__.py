"""SBWT index over DNA k-mer spectra with LCS array construction."""

from .index import (
    ColexInterval,
    FormatError,
    SbwtIndex,
    SubsetMatrix,
    build_index,
    extend_right,
    load_index,
    save_index,
)
from .lcs_basic import decode_spectrum, initial_labels, lcs_basic
from .lcs_linear import lcs_linear, lcs_linear_endpoints
from .lcs_superalphabet import lcs_super
from .oracle import (
    SortedSpectrum,
    colex_less,
    extended_spectrum,
    k_prefix_set,
    k_spectrum,
    naive_lcs,
    naive_subset_sequence,
    source_set,
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
    "SubsetMatrix",
    "SuffixInterval",
    "build_index",
    "colex_less",
    "decode_spectrum",
    "extend_right",
    "extended_spectrum",
    "initial_labels",
    "k_prefix_set",
    "k_spectrum",
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
    "source_set",
]
