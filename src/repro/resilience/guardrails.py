"""Guardrail policy and resilience accounting.

:class:`GuardrailPolicy` bounds how much misbehaviour a guarded run tolerates
(retry budget for transient collectives, consecutive-skip budget for poisoned
updates, optional global grad-norm cap).  :class:`SupervisionPolicy` does the
same for the process executor's workers: the hang-watchdog deadline, the
respawn budgets, and the escalation when they run out.
:class:`ResilienceReport` is the mutable ledger every outcome lands in —
faults injected, retries, simulated backoff, skipped steps, rollbacks, worker
respawns (with per-worker attribution), and topology degradations — surfaced
through the engine result and ``repro train`` output, and carried through
checkpoints so ``--resume`` preserves the full incident history.

Backoff is *simulated*: the retry loop records ``base * 2**attempt`` seconds
in the report instead of sleeping, so tests stay fast and the accounting stays
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GuardrailPolicy:
    """Budget knobs for the guarded training loop.

    ``skip_nonfinite``
        Discard (rollback + skip) any update whose flat gradient arenas
        contain NaN/Inf.
    ``max_grad_norm``
        Optional global grad-norm cap; an update whose replica-0 trainable
        gradient norm exceeds it is skipped like a non-finite one.
    ``max_collective_retries``
        How many times the engine retries a transiently failing DP collective
        before raising ``ResilienceExhausted``.
    ``max_consecutive_skips``
        How many poisoned updates in a row the trainer discards before
        raising ``ResilienceExhausted``.
    ``backoff_base_seconds``
        First retry's simulated backoff; attempt ``i`` records
        ``base * 2**i`` seconds.
    """

    skip_nonfinite: bool = True
    max_grad_norm: float | None = None
    max_collective_retries: int = 3
    max_consecutive_skips: int = 8
    backoff_base_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.max_collective_retries < 0:
            raise ValueError("max_collective_retries must be non-negative")
        if self.max_consecutive_skips < 0:
            raise ValueError("max_consecutive_skips must be non-negative")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be non-negative")


#: Escalations a :class:`SupervisionPolicy` may prescribe once the respawn
#: budget is spent.
ON_EXHAUSTED_KINDS = ("degrade", "checkpoint_abort")

#: Default per-iteration reply deadline of the hang watchdog, in seconds.
#: Generous against slow machines, finite against wedged workers.
DEFAULT_WORKER_TIMEOUT = 60.0


@dataclass(frozen=True)
class SupervisionPolicy:
    """Budget knobs for the worker supervision layer (``executor="process"``).

    ``worker_timeout``
        Per-iteration deadline (seconds) on every worker reply; a live worker
        that misses it is treated as hung (``WorkerTimeout``) and respawned.
    ``max_respawns_per_worker`` / ``max_total_respawns``
        How many automatic kill+re-fork+replay recoveries one worker (and the
        whole run) gets before escalation.
    ``on_exhausted``
        What happens when the budget runs out: ``"degrade"`` drops the failing
        replica (elastic DP shrink) and replays the iteration on the
        survivors; ``"checkpoint_abort"`` writes a final checkpoint and raises
        ``ResilienceExhausted``.
    """

    worker_timeout: float = DEFAULT_WORKER_TIMEOUT
    max_respawns_per_worker: int = 2
    max_total_respawns: int = 8
    on_exhausted: str = "degrade"

    def __post_init__(self) -> None:
        if self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if self.max_respawns_per_worker < 0:
            raise ValueError("max_respawns_per_worker must be non-negative")
        if self.max_total_respawns < 0:
            raise ValueError("max_total_respawns must be non-negative")
        if self.on_exhausted not in ON_EXHAUSTED_KINDS:
            raise ValueError(
                f"on_exhausted must be one of {ON_EXHAUSTED_KINDS}, got {self.on_exhausted!r}"
            )


@dataclass
class ResilienceReport:
    """Cumulative ledger of resilience events (mutated in place)."""

    faults_injected: dict[str, int] = field(default_factory=dict)
    collective_retries: int = 0
    backoff_seconds: float = 0.0
    skipped_steps: int = 0
    rollbacks: int = 0
    degraded: list[dict] = field(default_factory=list)
    #: Total automatic worker respawns (kill + re-fork + replay).
    respawns: int = 0
    #: Per-worker incident attribution, in event order.  Every entry carries
    #: the original DP shard id (``replica``), the in-flight ``iteration``,
    #: the failure ``kind`` (``"crash"``/``"hang"``), that worker's cumulative
    #: ``respawn_count`` at the time, and the ``action`` taken (``"respawn"``,
    #: ``"degrade"``, or ``"checkpoint_abort"``).
    worker_events: list[dict] = field(default_factory=list)

    def record_fault(self, kind: str) -> None:
        self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1

    def record_worker_event(
        self, kind: str, replica: int, iteration: int, respawn_count: int, action: str
    ) -> None:
        """Ledger one worker failure with full attribution."""
        self.worker_events.append(
            {
                "kind": kind,
                "replica": int(replica),
                "iteration": int(iteration),
                "respawn_count": int(respawn_count),
                "action": action,
            }
        )

    @property
    def any_events(self) -> bool:
        return bool(
            self.faults_injected
            or self.collective_retries
            or self.skipped_steps
            or self.rollbacks
            or self.degraded
            or self.respawns
            or self.worker_events
        )

    def copy(self) -> "ResilienceReport":
        return ResilienceReport(
            faults_injected=dict(self.faults_injected),
            collective_retries=self.collective_retries,
            backoff_seconds=self.backoff_seconds,
            skipped_steps=self.skipped_steps,
            rollbacks=self.rollbacks,
            degraded=[dict(entry) for entry in self.degraded],
            respawns=self.respawns,
            worker_events=[dict(entry) for entry in self.worker_events],
        )

    def delta_since(self, before: "ResilienceReport") -> "ResilienceReport":
        """The events recorded since ``before`` (a prior :meth:`copy`)."""
        faults = {
            kind: count - before.faults_injected.get(kind, 0)
            for kind, count in self.faults_injected.items()
            if count - before.faults_injected.get(kind, 0)
        }
        return ResilienceReport(
            faults_injected=faults,
            collective_retries=self.collective_retries - before.collective_retries,
            backoff_seconds=self.backoff_seconds - before.backoff_seconds,
            skipped_steps=self.skipped_steps - before.skipped_steps,
            rollbacks=self.rollbacks - before.rollbacks,
            degraded=[dict(entry) for entry in self.degraded[len(before.degraded) :]],
            respawns=self.respawns - before.respawns,
            worker_events=[
                dict(entry) for entry in self.worker_events[len(before.worker_events) :]
            ],
        )

    def to_dict(self) -> dict:
        return {
            "faults_injected": dict(self.faults_injected),
            "collective_retries": self.collective_retries,
            "backoff_seconds": self.backoff_seconds,
            "skipped_steps": self.skipped_steps,
            "rollbacks": self.rollbacks,
            "degraded": [dict(entry) for entry in self.degraded],
            "respawns": self.respawns,
            "worker_events": [dict(entry) for entry in self.worker_events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ResilienceReport":
        return cls(
            faults_injected={str(k): int(v) for k, v in payload.get("faults_injected", {}).items()},
            collective_retries=int(payload.get("collective_retries", 0)),
            backoff_seconds=float(payload.get("backoff_seconds", 0.0)),
            skipped_steps=int(payload.get("skipped_steps", 0)),
            rollbacks=int(payload.get("rollbacks", 0)),
            degraded=[dict(entry) for entry in payload.get("degraded", [])],
            respawns=int(payload.get("respawns", 0)),
            worker_events=[dict(entry) for entry in payload.get("worker_events", [])],
        )

    def describe(self) -> str:
        if not self.any_events:
            return "no resilience events"
        fault_text = (
            ", ".join(f"{kind}×{count}" for kind, count in sorted(self.faults_injected.items()))
            or "none"
        )
        parts = [
            f"faults: {fault_text}",
            f"retries: {self.collective_retries} ({self.backoff_seconds:.2f}s backoff)",
            f"skipped steps: {self.skipped_steps}",
            f"rollbacks: {self.rollbacks}",
        ]
        if self.respawns or self.worker_events:
            hangs = sum(1 for entry in self.worker_events if entry["kind"] == "hang")
            parts.append(f"worker respawns: {self.respawns} ({hangs} hangs)")
        if self.degraded:
            degree = self.degraded[-1]["data_parallel_degree"]
            parts.append(f"degraded to dp={degree} ({len(self.degraded)} replica losses)")
        return "; ".join(parts)
