"""The hot kernels: the subset scans behind the solvers and the canonical
search behind isomorphism classes.

They are implemented once, in pure Python, in `romandom._kernels_py`; this
module is the name the rest of the package imports them by.
"""

from ._kernels_py import (
    canonical_permutation,
    canonical_signature,
    connected_canonical_signatures,
    efficient_dominating_masks,
    max_differential,
    max_differential_masks,
    min_cover_masks,
    min_dominating_masks,
    min_dominating_size,
    min_weight_cover,
)

BACKEND = "pure"
