"""How many CPU cores this process may run on, and how many one BLAS call takes."""

from __future__ import annotations

import os
import re

#: The variables OpenBLAS (the BLAS NumPy's wheels ship) sizes its thread pool
#: from, in the order it reads them.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: What ``atoi`` reads: optional leading whitespace, a sign, then digits.
_LEADING_INTEGER = re.compile(r"[ \t\n\v\f\r]*[+-]?[0-9]+")


def usable_cores() -> int:
    """The cores this process may be scheduled on.

    The CPU affinity mask's size, so ``taskset`` or a cpuset cgroup is
    honoured; ``os.cpu_count()`` where the platform has no
    ``sched_getaffinity``.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def _atoi(text: str) -> int:
    """C's ``atoi``: the leading integer after any whitespace, 0 where there is none."""
    match = _LEADING_INTEGER.match(text)
    return int(match.group()) if match else 0


def blas_threads() -> int:
    """The threads one BLAS call may run on.

    The first of :data:`BLAS_THREAD_VARIABLES` whose value reads as a positive
    integer the way OpenBLAS reads it — with ``atoi``, so the leading integer
    counts and ``OMP_NUM_THREADS=1,1`` (OpenMP's nested syntax) is 1; with
    none set, BLAS spreads a large call over the machine, counted here as
    :func:`usable_cores`.  BLAS reads the variables once, when NumPy loads
    it, so a process that sets them later is counted by what it set, not by
    what BLAS uses.
    """
    for name in BLAS_THREAD_VARIABLES:
        pinned = _atoi(os.environ.get(name, ""))
        if pinned > 0:
            return pinned
    return usable_cores()
