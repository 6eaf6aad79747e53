"""Process-parallel execution core: shared-memory worker processes for the 3D engine.

The sequential engine is the bit-for-bit oracle; this package makes the
data-parallel axis physically concurrent.  :class:`ProcessExecutor` forks one
worker per DP replica over :class:`SharedArenaSegment`-backed parameter arenas
(one segment with the group's shared weights, one per replica's gradients);
the engine's ``executor`` knob (``ParallelPlan.executor`` / ``repro train
--executor {serial,process}``) selects it.  See :mod:`repro.exec.executor` for
the parity argument, :mod:`repro.exec.workers` for the one worker substrate
it and the search pool (:mod:`repro.search.pool`) fork, wait and reap
through, and :mod:`repro.exec.supervisor` for the self-healing layer (hang
watchdog, automatic respawn over the same shared segments, policy-driven
degrade/checkpoint-abort escalation).
"""

from repro.exec.executor import ProcessExecutor
from repro.exec.shm import SharedArenaSegment
from repro.exec.supervisor import WorkerSupervisor

__all__ = ["ProcessExecutor", "SharedArenaSegment", "WorkerSupervisor"]
