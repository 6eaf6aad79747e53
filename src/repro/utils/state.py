"""Detaching nested training state from the live buffers it describes.

Every stateful component describes its cross-iteration state as a plain tree —
dicts and lists whose leaves are scalars or *live* NumPy arrays (``state_dict``
/ ``live_state``).  A checkpoint writes that tree straight to disk; everything
that must outlive the next mutation (a rollback point, a rewind point) goes
through :func:`capture_tree`, the single place such a tree is copied.
"""

from __future__ import annotations

import numpy as np


def capture_tree(tree, out=None):
    """Copy ``tree``'s arrays, reusing ``out``'s arrays wherever they still fit.

    ``out`` is a previous capture of the same (or a similarly shaped) tree: an
    array leaf whose shape and dtype are unchanged is refilled with
    ``np.copyto`` instead of being reallocated, so a capture repeated every
    iteration settles on one set of buffers.  Leaves that appeared since, or
    changed shape, are freshly copied; containers are rebuilt (they are tiny).
    The returned tree shares no memory with ``tree``.
    """
    if isinstance(tree, np.ndarray):
        if (
            isinstance(out, np.ndarray)
            and out.shape == tree.shape
            and out.dtype == tree.dtype
        ):
            np.copyto(out, tree)
            return out
        return tree.copy()
    if isinstance(tree, dict):
        previous = out if isinstance(out, dict) else {}
        return {key: capture_tree(value, previous.get(key)) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        previous = out if isinstance(out, (list, tuple)) else ()
        return [
            capture_tree(value, previous[index] if index < len(previous) else None)
            for index, value in enumerate(tree)
        ]
    return tree


def tree_arrays(tree) -> list[np.ndarray]:
    """Every array leaf of ``tree``, depth first."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [leaf for value in tree for leaf in tree_arrays(value)]
    return []
