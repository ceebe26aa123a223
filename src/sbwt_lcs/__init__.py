"""SBWT index over DNA k-mer spectra with LCS array construction."""

from importlib import import_module

from .index import (
    ColexInterval,
    FormatError,
    SbwtIndex,
    load_index,
    save_index,
)
from .lcs_basic import lcs_basic
from .lcs_linear import lcs_adaptive, lcs_linear, lcs_linear_endpoints
from .queries import SuffixInterval, left_contract, lookup
from .stats import BuildStats

__version__ = "0.1.0"

# The reference side loads on first use (PEP 562), so that importing the
# package, or running build, lcs or query, never loads it. lcs_basic and
# lcs_linear stay eager: each is also a submodule name, which importing
# the submodule would bind here in place of the function.
_LAZY = dict.fromkeys(["SortedSpectrum", "build_index", "decode_spectrum", "extended_spectrum",
                       "naive_lcs", "naive_subset_sequence"], ".oracle")
_LAZY["lcs_super"] = ".lcs_superalphabet"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name], __name__), name)


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
    "lcs_adaptive",
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
