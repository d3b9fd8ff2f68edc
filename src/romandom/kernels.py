"""Backend selection for the hot kernels.

The compiled Cython extension is preferred; the pure-Python module is the
fallback and the reference semantics.  Set ``ROMANDOM_PURE=1`` to force the
fallback.
"""

import os

from . import _kernels_py

if os.environ.get("ROMANDOM_PURE"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.BACKEND_NAME

min_weight_cover = _impl.min_weight_cover
min_cover_masks = _impl.min_cover_masks
min_dominating_size = _impl.min_dominating_size
min_dominating_masks = _impl.min_dominating_masks
max_differential = _impl.max_differential
max_differential_masks = _impl.max_differential_masks
efficient_dominating_masks = _impl.efficient_dominating_masks
canonical_permutation = _impl.canonical_permutation
canonical_signature = _impl.canonical_signature
connected_canonical_signatures = _impl.connected_canonical_signatures
