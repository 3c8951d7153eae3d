"""Optimal ternary constant-composition codes of weight 4 and distance 6.

Library and CLI for constructing, developing, combining and verifying these
codes: cyclic base-codeword developments, group divisible codes, recursive
constructions over combinatorial designs, closed-form upper bounds, an exact
branch-and-bound search oracle, and a catalog of maximum sizes.
"""

from .core import (Code, Codeword, Composition, Gdc, GdcType, GroupPartition,
                   gdc_type, hamming_distance, verify_gdc)

__version__ = "0.1.0"

__all__ = [
    "Code",
    "Codeword",
    "Composition",
    "Gdc",
    "GdcType",
    "GroupPartition",
    "gdc_type",
    "hamming_distance",
    "verify_gdc",
    "__version__",
]
