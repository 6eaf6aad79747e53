"""Resilience layer: fault injection, guardrails, supervision, rollback accounting.

See ``faults`` for the fault model (including the worker-side crash/hang
kinds the process executor routes into its forked workers) and ``guardrails``
for the policy/report types — :class:`SupervisionPolicy` configures the
worker-supervision mechanism in :mod:`repro.exec.supervisor`.  ``recovery``
holds the :class:`RecoveryPoint` — the one preallocated pre-iteration capture
that the guard's rollback restores from — and the inventory of mutable
training state.  Checkpointing lives in
:mod:`repro.training.checkpoint` (the writer walks that same inventory, read
through its live buffers).
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    WORKER_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    ResilienceExhausted,
    RespawnExhausted,
    WorkerCrash,
    WorkerTimeout,
    parse_fault_spec,
)
from repro.resilience.guardrails import (
    DEFAULT_WORKER_TIMEOUT,
    ON_EXHAUSTED_KINDS,
    GuardrailPolicy,
    ResilienceReport,
    SupervisionPolicy,
)
from repro.resilience.recovery import RecoveryPoint

__all__ = [
    "DEFAULT_WORKER_TIMEOUT",
    "FAULT_KINDS",
    "ON_EXHAUSTED_KINDS",
    "WORKER_FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "GuardrailPolicy",
    "RecoveryPoint",
    "ResilienceExhausted",
    "ResilienceReport",
    "RespawnExhausted",
    "SupervisionPolicy",
    "WorkerCrash",
    "WorkerTimeout",
    "parse_fault_spec",
]
