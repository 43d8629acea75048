"""The kernels: composition sums and enumeration counts on graphs in kernel form.

A graph in kernel form is (nv, tails, heads): edge e runs tails[e] ->
heads[e] between vertex indices 0..nv-1.  The composition sums come from
the one dynamic program in _engine, whatever the backend.  The remaining
enumeration kernels come from the compiled extension when it imports
cleanly, else from the pure-Python twin; HOPFDG_PURE=1 forces the twin,
which is useful for debugging the compiled module.
"""

from __future__ import annotations

import os

from . import _engine, _kernels_py

if os.environ.get("HOPFDG_PURE"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

BACKEND: str = "compiled" if _impl is not _kernels_py else "pure"

chain_stats = _engine.chain_stats
takeuchi_terms = _engine.takeuchi_terms
character_sum = _engine.character_sum
surjection_stats = _engine.surjection_stats
lower_half_masks = _impl.lower_half_masks
count_strict_colorings = _impl.count_strict_colorings
count_weak_colorings = _impl.count_weak_colorings
count_dilation_points = _impl.count_dilation_points
