"""Deterministic fault injection for resilience testing.

A fault schedule is a list of :class:`FaultSpec` entries — usually written as
compact strings (``"nan@3:replica=1,stage=0"``) in a plan's ``resilience``
section or on the ``repro train --inject-fault`` flag.  The
:class:`FaultInjector` replays that schedule deterministically: *which*
elements of a gradient get poisoned is drawn from a seed derived from
``(seed, kind, iteration, replica, stage)``, so two runs with the same spec
corrupt the same bits — a reproducible chaos monkey.

Fault kinds
-----------
``nan`` / ``inf``
    Overwrite ``elements`` entries of the chosen replica/stage's flat arena
    gradient with NaN/Inf after the backward pass, before the DP all-reduce —
    the poison propagates through the collectives exactly like a real
    numerical blow-up would.  ``micro_batch`` may be recorded in the spec for
    documentation (NaN algebra makes "poisoned in micro-batch *m*" and
    "poisoned after the last micro-batch" indistinguishable once gradients
    accumulate: ``NaN + x == NaN``).
``collective``
    The DP gradient all-reduce fails transiently: the first ``count`` attempts
    at the given iteration fail, then the collective succeeds.  The engine
    retries with exponential backoff under a bounded budget
    (:class:`~repro.resilience.guardrails.GuardrailPolicy`).
``crash``
    Process death at the *start* of the given iteration.  Under the serial
    executor the trainer raises :class:`WorkerCrash` (the simulated death the
    checkpoint/``--resume`` path recovers from).  Under ``executor="process"``
    the fault is routed into the forked worker, which SIGKILLs itself — the
    *real* worker-death path — and the supervision layer
    (:mod:`repro.exec.supervisor`) respawns it.
``hang``
    The forked worker wedges (sleeps forever, never replies) at the start of
    the given iteration; the parent's hang watchdog detects it via the
    ``worker_timeout`` deadline and raises :class:`WorkerTimeout`.  Requires
    ``executor="process"`` — a serial run has no worker to wedge, so plans
    reject the combination.
``replica_loss``
    Permanent loss of one DP replica at the start of the given iteration; the
    engine shrinks the DP group and rescales the gradient mean over the
    survivors (graceful degradation).  Under ``executor="process"`` the worker
    really dies (SIGKILL) and the supervisor degrades instead of respawning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.utils.random import labelled_rng

#: The fault vocabulary of :func:`parse_fault_spec`.
FAULT_KINDS = ("nan", "inf", "collective", "crash", "replica_loss", "hang")

#: Kinds that fire *inside* a forked replica worker under ``executor="process"``
#: (real SIGKILL/wedge paths) rather than in the parent.
WORKER_FAULT_KINDS = ("crash", "hang", "replica_loss")


class WorkerCrash(RuntimeError):
    """A worker process death — simulated (fault injection) or real.

    Carries the iteration so callers can point the user at the right
    checkpoint to ``--resume`` from.  The process-parallel executor
    (:mod:`repro.exec`) raises it with an explicit ``message`` and the dead
    worker's ``replica`` index when a forked replica worker actually dies or
    fails mid-iteration.
    """

    def __init__(
        self, iteration: int, message: str | None = None, replica: int | None = None
    ) -> None:
        super().__init__(
            message
            if message is not None
            else f"simulated worker crash at iteration {iteration}"
        )
        self.iteration = int(iteration)
        self.replica = replica


class WorkerTimeout(WorkerCrash):
    """A live-but-hung worker missed its reply deadline (``worker_timeout``).

    Raised by ``ProcessExecutor._receive`` when a worker process is still
    alive but has not answered within the per-iteration deadline — the wedge
    the hang watchdog exists to catch.  A :class:`WorkerCrash` subclass, so
    every crash-handling path (supervision, ``--resume`` hints) covers hangs
    too.
    """


class RespawnExhausted(WorkerCrash):
    """A worker is unrecoverable: the respawn budget is spent or the loss is permanent.

    Raised by :class:`repro.exec.supervisor.WorkerSupervisor` after it has
    restored the pre-iteration state, so the engine is clean.  ``action`` is
    the escalation the policy prescribes (``"degrade"`` shrinks the DP group
    through ``drop_replica`` and replays the iteration; ``"checkpoint_abort"``
    writes a final checkpoint and raises :class:`ResilienceExhausted`);
    ``permanent`` marks an injected ``replica_loss`` (never respawned,
    always degraded).  ``replica`` is the *current* index (valid for
    ``drop_replica``); ``worker`` is the original DP shard id for ledgers.
    """

    def __init__(
        self,
        iteration: int,
        message: str | None = None,
        replica: int | None = None,
        worker: int | None = None,
        action: str = "degrade",
        permanent: bool = False,
    ) -> None:
        super().__init__(iteration, message=message, replica=replica)
        self.worker = worker
        self.action = action
        self.permanent = permanent


class ResilienceExhausted(RuntimeError):
    """The guardrail budget ran out: retries or consecutive skips exceeded.

    This is the *documented* hard-failure mode of the guarded trainer — a
    guarded run either completes with finite weights or raises this; it never
    silently corrupts.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault (see the module docstring for the kinds).

    ``replica``/``stage`` locate gradient corruption; ``count`` is the number
    of consecutive transient collective failures; ``elements`` is how many
    gradient entries get poisoned.
    """

    kind: str
    iteration: int
    replica: int = 0
    stage: int = 0
    micro_batch: int | None = None
    count: int = 1
    elements: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.iteration < 0:
            raise ValueError("fault iteration must be non-negative")
        if self.replica < 0 or self.stage < 0:
            raise ValueError("replica/stage must be non-negative")
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.elements <= 0:
            raise ValueError("elements must be positive")

    def describe(self) -> str:
        """The compact string form ``parse_fault_spec`` accepts."""
        knobs = []
        if self.kind in ("nan", "inf", "replica_loss"):
            knobs.append(f"replica={self.replica}")
        if self.kind in ("crash", "hang") and self.replica != 0:
            knobs.append(f"replica={self.replica}")
        if self.kind in ("nan", "inf"):
            knobs.append(f"stage={self.stage}")
            if self.micro_batch is not None:
                knobs.append(f"micro_batch={self.micro_batch}")
            if self.elements != 1:
                knobs.append(f"elements={self.elements}")
        if self.kind == "collective" and self.count != 1:
            knobs.append(f"count={self.count}")
        suffix = ":" + ",".join(knobs) if knobs else ""
        return f"{self.kind}@{self.iteration}{suffix}"


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse ``"kind@iteration[:key=value,...]"`` into a :class:`FaultSpec`.

    Examples: ``"nan@3:replica=1,stage=0"``, ``"collective@2:count=2"``,
    ``"crash@5"``, ``"replica_loss@4:replica=1"``.
    """
    if not isinstance(text, str) or "@" not in text:
        raise ValueError(
            f"fault spec must look like 'kind@iteration[:key=value,...]', got {text!r}"
        )
    head, _, knob_text = text.partition(":")
    kind, _, iteration_text = head.partition("@")
    try:
        iteration = int(iteration_text)
    except ValueError:
        raise ValueError(f"fault iteration must be an integer, got {iteration_text!r}") from None
    knobs: dict[str, int] = {}
    allowed = {"replica", "stage", "micro_batch", "count", "elements"}
    if knob_text:
        for item in knob_text.split(","):
            name, separator, value = item.partition("=")
            name = name.strip()
            if not separator or name not in allowed:
                raise ValueError(
                    f"bad fault knob {item!r} in {text!r}; allowed: {sorted(allowed)}"
                )
            try:
                knobs[name] = int(value)
            except ValueError:
                raise ValueError(f"fault knob {name} must be an integer, got {value!r}") from None
    return FaultSpec(kind=kind.strip(), iteration=iteration, **knobs)


class FaultInjector:
    """Deterministic replay of a fault schedule against the training stack.

    The injector is *stateless beyond its configuration*: every query is a
    pure function of ``(schedule, seed, iteration, attempt)``, so the retry
    loop and the rollback path stay deterministic, and a rolled-back iteration
    never re-fires a fault it already delivered (corruption happens inside
    ``run_iteration``, which a skipped step does not re-enter).
    """

    def __init__(self, faults=(), seed: int = 0) -> None:
        specs = []
        for fault in faults:
            specs.append(fault if isinstance(fault, FaultSpec) else parse_fault_spec(fault))
        self.faults: tuple[FaultSpec, ...] = tuple(
            sorted(specs, key=lambda spec: (spec.iteration, spec.kind))
        )
        self.seed = int(seed)

    def specs_at(self, iteration: int, kind: str | None = None) -> list[FaultSpec]:
        """The scheduled faults of ``iteration`` (optionally one kind only)."""
        return [
            spec
            for spec in self.faults
            if spec.iteration == iteration and (kind is None or spec.kind == kind)
        ]

    # -- trainer-loop faults ---------------------------------------------------------

    def crash_due(self, iteration: int) -> FaultSpec | None:
        """The crash scheduled at the start of ``iteration`` (or ``None``)."""
        specs = self.specs_at(iteration, "crash")
        return specs[0] if specs else None

    def replica_loss_due(self, iteration: int) -> FaultSpec | None:
        """The permanent replica loss scheduled at ``iteration`` (or ``None``)."""
        specs = self.specs_at(iteration, "replica_loss")
        return specs[0] if specs else None

    # -- worker-side faults ------------------------------------------------------------

    def worker_faults(self, replica: int, after_iteration: int | None = None) -> tuple[FaultSpec, ...]:
        """The faults replica ``replica``'s forked worker fires on itself.

        Under ``executor="process"`` the :data:`WORKER_FAULT_KINDS` are
        delivered to the worker at fork time so crash/hang/replica-loss
        exercise the real death paths.  ``after_iteration`` filters out faults
        at or before that iteration — a respawned worker must not re-fire the
        fault that killed it while replaying the in-flight iteration.
        """
        return tuple(
            spec
            for spec in self.faults
            if spec.kind in WORKER_FAULT_KINDS
            and spec.replica == replica
            and (after_iteration is None or spec.iteration > after_iteration)
        )

    # -- collective faults -----------------------------------------------------------

    def collective_fault_pending(self, iteration: int, attempt: int) -> bool:
        """Whether attempt ``attempt`` of this iteration's DP sync still fails.

        A ``collective@k:count=c`` spec fails attempts ``0 .. c-1`` of
        iteration ``k``; attempt ``c`` succeeds.
        """
        budget = sum(spec.count for spec in self.specs_at(iteration, "collective"))
        return attempt < budget

    # -- gradient corruption -----------------------------------------------------------

    def corrupt_gradients(self, iteration: int, arenas, stage_spans) -> list[FaultSpec]:
        """Poison the scheduled NaN/Inf faults into the flat gradient arenas.

        ``arenas[r]`` is replica ``r``'s :class:`~repro.parallel.arena.ParameterArena`;
        ``stage_spans[r][s]`` lists the ``(start, stop)`` arena spans of stage
        ``s``'s trainable parameters.  Returns the specs actually applied
        (out-of-range replicas — e.g. after graceful degradation — are skipped).
        """
        applied: list[FaultSpec] = []
        for spec in self.specs_at(iteration):
            if spec.kind not in ("nan", "inf"):
                continue
            if spec.replica >= len(arenas) or spec.stage >= len(stage_spans[spec.replica]):
                continue
            spans = stage_spans[spec.replica][spec.stage]
            total = sum(stop - start for start, stop in spans)
            if total == 0:
                continue
            rng = labelled_rng(
                self.seed, "fault", spec.kind, spec.iteration, spec.replica, spec.stage
            )
            offsets = rng.choice(total, size=min(spec.elements, total), replace=False)
            grad = arenas[spec.replica].grad
            value = np.nan if spec.kind == "nan" else np.inf
            for offset in np.sort(offsets):
                position = int(offset)
                for start, stop in spans:
                    size = stop - start
                    if position < size:
                        grad[start + position] = value
                        break
                    position -= size
            applied.append(spec)
        return applied

    def shifted(self, offset: int) -> "FaultInjector":
        """A copy whose schedule is shifted by ``offset`` iterations (testing)."""
        return FaultInjector(
            [replace(spec, iteration=spec.iteration + offset) for spec in self.faults],
            seed=self.seed,
        )
