"""Reducing one bucket over every replica the way the bucketed DP sync does.

A DP hook reduces a bucket one :class:`~repro.parallel.arena.ReplicaFold` at
a time; tests that hold a hook to an oracle fold every replica's buffer in a
row, as the process executor's sync does after its walk.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.parallel.arena import ReplicaFold, distinct_buffers


def fold_replicas(reduce: Callable, bucket, buffers: Sequence[np.ndarray], group) -> None:
    """``reduce(bucket, fold, group)`` for every replica of ``buffers``, in replica order.

    ``buffers[r]`` is replica ``r``'s flat gradient buffer; the mean ends up
    in every one of them.
    """
    copies = tuple(distinct_buffers(buffers)[1:])
    for replica, gradient in enumerate(buffers):
        last = replica == len(buffers) - 1
        reduce(bucket, ReplicaFold(replica, len(buffers), buffers[0], gradient, copies if last else ()), group)
