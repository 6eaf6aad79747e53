"""One declarative description of a 3D-parallel run: the :class:`ParallelPlan`.

The paper's central idea is *3D-parallelism-aware* communication compression:
each communication boundary — the data-parallel gradient all-reduce, the
pipeline-parallel inter-stage backward channel, and the embedding
synchronisation — gets its own codec and policy.  A :class:`ParallelPlan` is
the single, frozen, validated object that says so, and the only configuration
type any layer accepts or stores:

* ``Topology(dp, pp, tp, micro_batches)`` — what runs where;
* ``Schedule(kind, num_model_chunks)`` — how the pipeline iterates and whether
  the DP all-reduce overlaps the cool-down (``"1f1b"``) or runs after the
  pipeline drains, nothing overlapped (``"serial"``);
* a boundary-keyed compression map ``{Boundary.DP | Boundary.PP |
  Boundary.EMBEDDING: CompressionSpec(...)}`` — what gets compressed on which
  link, with which codec, at what aggressiveness.

Plans round-trip through dicts/JSON (:meth:`ParallelPlan.to_dict` /
:meth:`ParallelPlan.from_dict` / :meth:`ParallelPlan.to_json`), ship as named
presets mirroring the paper's nomenclature (:meth:`ParallelPlan.preset`), and
print one canonical label everywhere a report names a configuration
(:meth:`ParallelPlan.describe`).  The consumers —
:class:`~repro.parallel.engine.ThreeDParallelEngine`, the trainer, the timing
simulator, the CLI, and the experiment drivers — take the plan itself and read
``plan.spec(Boundary.*)`` / ``plan.topology`` / ``plan.schedule`` where they
use the value, so engine-measured and simulated traffic describe the same
object by construction.

This module is deliberately import-light (stdlib only at module level; the
simulator job, the parallel layout and the resilience types import lazily), so
``repro.plan`` sits below every consumer in the import graph.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:  # the runtime import is lazy
    from repro.parallel.process_groups import ParallelLayout


class Boundary(str, Enum):
    """The three communication boundaries of 3D-parallel training.

    * ``DP`` — the data-parallel gradient all-reduce across pipeline replicas;
    * ``PP`` — the pipeline-parallel inter-stage backward channel (compressed
      backpropagation lives here);
    * ``EMBEDDING`` — the tied word-embedding synchronisation between the first
      and last pipeline stages (and across DP replicas).
    """

    DP = "dp"
    PP = "pp"
    EMBEDDING = "embedding"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Gradient codecs of the data-parallel all-reduce (the engine's vocabulary).
DP_CODECS = ("none", "powersgd", "qsgd", "topk")

#: Activation-gradient codecs of the inter-stage backward channel.
PP_CODECS = ("none", "powersgd", "topk")

#: Embedding-synchronisation modes: the baseline two-step sync, or the paper's
#: single fused ``2D``-way all-reduce (FE).  Fusion is not lossy compression,
#: but it is this boundary's traffic policy, so it lives in the same map.
EMBEDDING_CODECS = ("none", "fused")

#: Codecs each boundary accepts.
BOUNDARY_CODECS: dict[Boundary, tuple[str, ...]] = {
    Boundary.DP: DP_CODECS,
    Boundary.PP: PP_CODECS,
    Boundary.EMBEDDING: EMBEDDING_CODECS,
}

#: Pipeline schedule kinds — the one vocabulary the engine, the simulator and
#: the plan validate against: ``"1f1b"`` fires the bucketed DP all-reduce in
#: backward-completion order so it overlaps the pipeline cool-down; ``"serial"``
#: fires the same buckets after the pipeline drains, nothing overlapped (the
#: overlap-off ablation: bit-for-bit identical weights, every DP byte exposed);
#: ``"zb1"`` is the zero-bubble ZB-H1 schedule — every backward splits into an
#: activation-gradient pass (B) and a deferred weight-gradient pass (W), so W
#: passes fill the 1F1B cool-down bubble at the same peak activation memory
#: (weights stay bit-for-bit identical to ``"1f1b"``); ``"auto"`` synthesizes
#: a split-backward schedule per layout (:mod:`repro.parallel.scheduler`),
#: admitting extra in-flight forwards while under ``memory_cap_factor`` times
#: the 1F1B activation peak — never worse than zb1, and strictly better once
#: the cap rises.
SCHEDULE_KINDS = ("1f1b", "serial", "zb1", "auto")

#: The kinds whose backward is split into B and W passes.  They share all the
#: zb1 plumbing: micro-batch-granular DP firing (a parameter's gradient is
#: final after its W pass), num_model_chunks == 1, and the split B/W op
#: times and W-stash memory in the simulator.
SPLIT_BACKWARD_KINDS = ("zb1", "auto")


def validate_schedule_kind(
    kind: str, allowed: tuple[str, ...] = SCHEDULE_KINDS, *, context: str = "schedule"
) -> str:
    """The one schedule-kind validator every consumer shares.

    Raises ``ValueError`` naming the offending context and the allowed
    vocabulary — no consumer may silently fall back to 1f1b behaviour on an
    unknown kind.  Returns ``kind`` so call sites can validate inline.
    """
    if kind not in allowed:
        raise ValueError(
            f"{context}: unknown schedule kind {kind!r}; expected one of {allowed}"
        )
    return kind


def validate_memory_cap_factor(factor: float) -> None:
    """The one ``memory_cap_factor`` check every layer shares.

    The cap is a multiple of the 1F1B activation peak, so it must be ``>= 1.0``;
    NaN is refused too (it compares false either way, and ``nan != nan`` would
    break plan equality).  ``inf`` means "no cap" and is accepted.
    """
    if not factor >= 1.0:
        raise ValueError(
            "memory_cap_factor is relative to the 1F1B activation peak and "
            f"must be >= 1.0, got {factor}"
        )

#: Execution substrates: ``"serial"`` runs every replica's pipeline in the one
#: parent process (the bit-for-bit oracle); ``"process"`` runs one forked
#: worker per DP replica over shared-memory arenas (:mod:`repro.exec`), with
#: the order-sensitive DP/embedding collectives and the optimiser kept in the
#: parent — weights are bit-identical to serial, only wall-clock changes.
EXECUTOR_KINDS = ("serial", "process")


def validate_executor_kind(kind: str, *, context: str = "executor") -> str:
    """The one executor-kind validator every consumer shares (returns ``kind``)."""
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"{context}: unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}"
        )
    return kind


#: DP bucket firing granularities on the overlapped (``"1f1b"``) path:
#: ``"stage"`` fires a stage's buckets when its whole backward has drained;
#: ``"micro_batch"`` fires each bucket inside the final micro-batch's backward
#: pass as its gradients become final, hiding everything but the last bucket.
#: Purely a timing/overlap-accounting knob — weights are bit-identical.
DP_FIRE_KINDS = ("stage", "micro_batch")


def select_compressed_stages(num_stages: int, fraction: float) -> set[int]:
    """Stages whose DP traffic is compressed: the earliest ``fraction`` of stages.

    The one statement of the selective-stage-compression rule — the engine's
    DP reduce, the PowerSGD hook, the timing simulator and the memory model all
    select through here.  ``fraction=0.75`` with 4 stages compresses stages
    {0, 1, 2}, matching the paper's default (Fig. 8 walks through 25 % → 100 %
    one stage at a time, starting from stage 1, i.e. the earliest stage);
    ``fraction=0`` selects nothing.  The count is ``round(fraction *
    num_stages)``, half to even: 0.5 of 3 stages is 2, 0.5 of 5 is 2.
    """
    if num_stages <= 0:
        raise ValueError("num_stages must be positive")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    count = int(round(fraction * num_stages))
    return set(range(min(count, num_stages)))


@dataclass(frozen=True)
class CompressionSpec:
    """Codec and policy of one communication boundary.

    The knobs are a union across boundaries; each boundary reads the subset
    that applies to it (the mapping is documented per field).  Unused knobs are
    inert but kept in the spec so sweeps can toggle the codec without losing
    their settings.  The PP knobs shape a replica's one inter-stage hook, on
    the backward channel: the paper compresses backpropagation, never forward
    activations.

    Attributes
    ----------
    codec:
        ``"none"`` everywhere; plus ``"powersgd"``/``"qsgd"``/``"topk"`` at the
        DP boundary, ``"powersgd"``/``"topk"`` at the PP boundary, and
        ``"fused"`` at the embedding boundary (fused embedding synchronisation).
    rank:
        PowerSGD rank (paper defaults: 128 at DP, 16 at PP).
    bits:
        Quantisation bits when ``codec == "qsgd"`` (DP only).
    fraction:
        Kept fraction when ``codec == "topk"``.
    error_feedback:
        DP: classic per-replica error feedback across iterations.
        PP: lazy error propagation — the residual rides to the next micro-batch
        within the iteration (Section 5.1).
    stage_fraction:
        DP: fraction of pipeline stages (earliest first) whose gradients the
        codec touches — selective stage compression (paper default 0.75).
        Ignored elsewhere.
    min_elements:
        DP: parameters smaller than this stay uncompressed even on selected
        stages.
    bucket_bytes:
        DP: target wire-payload size of one flat gradient bucket on the
        overlapped (``"1f1b"``) path.
    epilogue_only:
        PP: compress only the epilogue (critical-path) transfers (Section 5.2);
        ``False`` is the naive-CB ablation.
    """

    codec: str = "none"
    rank: int = 128
    bits: int = 4
    fraction: float = 0.01
    error_feedback: bool = True
    stage_fraction: float = 1.0
    min_elements: int = 1024
    bucket_bytes: int = 1 << 16
    epilogue_only: bool = True

    def __post_init__(self) -> None:
        all_codecs = {codec for codecs in BOUNDARY_CODECS.values() for codec in codecs}
        if self.codec not in all_codecs:
            raise ValueError(f"codec must be one of {sorted(all_codecs)}, got {self.codec!r}")
        if self.rank <= 0:
            raise ValueError("rank must be positive")
        if not 1 <= self.bits <= 8:
            raise ValueError("bits must be in [1, 8]")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if not 0.0 <= self.stage_fraction <= 1.0:
            raise ValueError("stage_fraction must be in [0, 1]")
        if self.min_elements < 0:
            raise ValueError("min_elements must be non-negative")
        if self.bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be positive")

    @property
    def compresses(self) -> bool:
        """Whether this boundary's traffic is touched at all (``"fused"`` counts)."""
        return self.codec != "none"

    def compressed_stages(self, num_stages: int) -> set[int]:
        """DP: the pipeline stages (of ``num_stages``) this spec's codec touches.

        Empty when the codec is ``"none"`` — ``stage_fraction`` and the other
        codec knobs are dormant then — and when ``stage_fraction`` rounds to no
        stage at all; otherwise :func:`select_compressed_stages`.
        """
        if not self.compresses:
            return set()
        return select_compressed_stages(num_stages, self.stage_fraction)

    def with_(self, **kwargs: Any) -> "CompressionSpec":
        """Return a modified copy (convenience for sweeps)."""
        return replace(self, **kwargs)

    def knob_label(self) -> str:
        """The codec's one active knob, e.g. ``"r=128"`` / ``"b=4"`` / ``"k=0.01"``."""
        if self.codec == "powersgd":
            return f"r={self.rank}"
        if self.codec == "qsgd":
            return f"b={self.bits}"
        if self.codec == "topk":
            return f"k={self.fraction:g}"
        return ""


#: Per-boundary default specs (they differ only in the paper-default rank).
BOUNDARY_DEFAULTS: dict[Boundary, CompressionSpec] = {
    Boundary.DP: CompressionSpec(rank=128),
    Boundary.PP: CompressionSpec(rank=16),
    Boundary.EMBEDDING: CompressionSpec(rank=16),
}


def default_spec(boundary: Boundary) -> CompressionSpec:
    """The uncompressed default spec of ``boundary``."""
    return BOUNDARY_DEFAULTS[Boundary(boundary)]


@dataclass(frozen=True)
class Topology:
    """Degrees of the three parallelism axes plus the micro-batch count.

    ``micro_batches`` is per data-parallel replica per iteration — together with
    ``pp`` it determines the pipeline schedule's shape (and therefore how much
    cool-down there is for the DP all-reduce to hide in).
    """

    dp: int = 2
    pp: int = 4
    tp: int = 1
    micro_batches: int = 4

    def __post_init__(self) -> None:
        for name in ("dp", "pp", "tp", "micro_batches"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def world_size(self) -> int:
        """Total GPU count: ``dp * pp * tp``."""
        return self.dp * self.pp * self.tp

    def with_(self, **kwargs: Any) -> "Topology":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def layout(self) -> "ParallelLayout":
        """The simulator-side :class:`~repro.parallel.process_groups.ParallelLayout`."""
        from repro.parallel.process_groups import ParallelLayout

        return ParallelLayout(
            tensor_parallel=self.tp, pipeline_parallel=self.pp, data_parallel=self.dp
        )

    def describe(self) -> str:
        """The canonical one-token layout label (``PP4xDP2xTP1/mb4``)."""
        return f"PP{self.pp}xDP{self.dp}xTP{self.tp}/mb{self.micro_batches}"


@dataclass(frozen=True)
class Schedule:
    """How one iteration is scheduled.

    Attributes
    ----------
    kind:
        ``"1f1b"`` — one-forward-one-backward pipelining with the bucketed DP
        all-reduce fired in backward-completion order (last stage first), i.e.
        DP traffic overlapped with the pipeline cool-down.
        ``"serial"`` — the same 1F1B pipeline, but the DP all-reduce starts
        after the whole pipeline has drained, nothing overlapped (the
        overlap-off ablation; bit-for-bit identical weights, every DP byte
        exposed in the engine and the simulator alike).
        ``"zb1"`` — the zero-bubble ZB-H1 schedule: each backward splits into
        an activation-gradient pass (B) and a deferred weight-gradient pass
        (W); stage ``k`` defers ``k`` W passes so they fill the cool-down
        bubble, and the late W passes extend the window the bucketed DP
        all-reduce hides in.  Weights stay bit-for-bit identical to
        ``"1f1b"``; peak activation memory matches 1F1B.
    num_model_chunks:
        Megatron interleaved-1F1B model chunks per stage for the timing
        simulator; 1 selects the plain schedule.  Delivered through
        :meth:`ParallelPlan.training_job` — the simulator reads only codec
        policy off the plan, and the job owns the schedule shape.  (The
        functional engine refuses ``num_model_chunks > 1`` at ``pp > 1``
        with a ``ValueError``; at ``pp == 1`` chunks change nothing.)
    dp_fire:
        Firing granularity of the overlapped DP buckets: ``"stage"`` issues a
        stage's buckets when its whole backward pass has drained (the cool-down
        overlap of PR 2); ``"micro_batch"`` issues each bucket inside the final
        micro-batch's backward pass as soon as its gradients are final, so only
        the very last bucket (stage 0's input side) stays exposed.  Timing and
        overlap accounting only — never numerics.  Ignored by the serial
        schedule — and by the split-backward kinds (``"zb1"``/``"auto"``),
        whose backward finalises gradients per W pass and therefore always
        fires at micro-batch granularity (in the engine and the simulator
        alike).
    memory_cap_factor:
        ``"auto"`` only: the per-stage activation-memory budget of the schedule
        search, as a multiple of the 1F1B in-flight peak (the ZB-H1 W-stash
        allowance rides on top).  1.0 degenerates to the handcrafted ZB-H1;
        2.0 is the ZB-2p budget.  Must be ``>= 1.0``; inert on other kinds
        (kept so sweeps can toggle the kind without losing the cap).
    """

    kind: str = "1f1b"
    num_model_chunks: int = 1
    dp_fire: str = "stage"
    memory_cap_factor: float = 1.0

    def __post_init__(self) -> None:
        validate_schedule_kind(self.kind, context="Schedule.kind")
        if self.num_model_chunks <= 0:
            raise ValueError("num_model_chunks must be positive")
        if self.kind in SPLIT_BACKWARD_KINDS and self.num_model_chunks > 1:
            raise ValueError(
                f"{self.kind} is a plain (non-interleaved) schedule; "
                "num_model_chunks must be 1"
            )
        if self.dp_fire not in DP_FIRE_KINDS:
            raise ValueError(
                f"dp_fire must be one of {DP_FIRE_KINDS}, got {self.dp_fire!r}"
            )
        validate_memory_cap_factor(self.memory_cap_factor)

    @property
    def dp_overlap(self) -> bool:
        """Whether the DP all-reduce overlaps the pipeline cool-down."""
        return self.kind == "1f1b" or self.kind in SPLIT_BACKWARD_KINDS

    def with_(self, **kwargs: Any) -> "Schedule":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """The schedule's label: kind, chunks, cap, overlap, and firing mode."""
        kind = self.kind
        if kind == "auto":
            kind += f"@{self.memory_cap_factor:g}x"
        chunks = f"x{self.num_model_chunks}" if self.num_model_chunks > 1 else ""
        fire = "/mb-fire" if self.dp_overlap and self.dp_fire == "micro_batch" else ""
        return f"{kind}{chunks}{fire}"


def _spec_from_dict(boundary: Boundary, payload: Mapping[str, Any]) -> CompressionSpec:
    """Build one boundary's spec from a (possibly partial) dict."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"compression[{boundary.value!r}] must be a mapping, got {payload!r}")
    known = _SECTION_FIELDS[CompressionSpec]
    unknown = set(payload).difference(known)
    if unknown:
        raise ValueError(
            f"unknown CompressionSpec field(s) {sorted(unknown)} for boundary {boundary.value!r}; "
            f"known fields: {sorted(known)}"
        )
    return replace(default_spec(boundary), **dict(payload))


@dataclass(frozen=True)
class ResilienceSpec:
    """The plan's resilience section: fault schedule + guardrail budgets.

    ``faults`` holds compact fault strings (``"nan@3:replica=1,stage=0"``,
    ``"collective@2:count=2"``, ``"crash@5"``, ``"replica_loss@4:replica=1"``,
    ``"hang@2:replica=1"`` — process executor only); they are parsed (and
    validated) by :func:`repro.resilience.parse_fault_spec`.  An empty
    schedule with guardrails still means "guard the run": non-finite gradient
    detection with snapshot/rollback skip-step is always on when a resilience
    section is present.  The supervision knobs (``worker_timeout``,
    ``max_respawns_per_worker``, ``max_total_respawns``, ``on_exhausted``)
    only take effect under ``executor="process"``, where they configure the
    hang watchdog and the respawn/degrade escalation ladder.
    """

    faults: tuple[str, ...] = ()
    max_grad_norm: float | None = None
    max_collective_retries: int = 3
    max_consecutive_skips: int = 8
    backoff_base_seconds: float = 0.5
    seed: int = 0
    #: Hang-watchdog reply deadline in seconds; ``None`` uses the executor
    #: default (:data:`repro.resilience.DEFAULT_WORKER_TIMEOUT`).
    worker_timeout: float | None = None
    max_respawns_per_worker: int = 2
    max_total_respawns: int = 8
    on_exhausted: str = "degrade"

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(str(fault) for fault in self.faults))
        # Validate the schedule eagerly so a plan that exists can run; the
        # parser lives in repro.resilience (lazy: plan.py stays stdlib-only
        # at module level and repro.parallel imports this module).
        from repro.resilience import ON_EXHAUSTED_KINDS, parse_fault_spec

        for fault in self.faults:
            parse_fault_spec(fault)
        if self.max_collective_retries < 0:
            raise ValueError("max_collective_retries must be non-negative")
        if self.max_consecutive_skips < 0:
            raise ValueError("max_consecutive_skips must be non-negative")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be non-negative")
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if self.max_respawns_per_worker < 0:
            raise ValueError("max_respawns_per_worker must be non-negative")
        if self.max_total_respawns < 0:
            raise ValueError("max_total_respawns must be non-negative")
        if self.on_exhausted not in ON_EXHAUSTED_KINDS:
            raise ValueError(
                f"on_exhausted must be one of {ON_EXHAUSTED_KINDS}, got {self.on_exhausted!r}"
            )

    def with_(self, **kwargs: Any) -> "ResilienceSpec":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def requires_process_executor(self) -> bool:
        """Whether this schedule needs forked workers (``hang`` faults do)."""
        from repro.resilience import parse_fault_spec

        return any(parse_fault_spec(fault).kind == "hang" for fault in self.faults)

    def policy(self):
        """The :class:`repro.resilience.GuardrailPolicy` this spec configures."""
        from repro.resilience import GuardrailPolicy

        return GuardrailPolicy(
            max_grad_norm=self.max_grad_norm,
            max_collective_retries=self.max_collective_retries,
            max_consecutive_skips=self.max_consecutive_skips,
            backoff_base_seconds=self.backoff_base_seconds,
        )

    def injector(self):
        """A :class:`repro.resilience.FaultInjector` replaying ``faults``."""
        from repro.resilience import FaultInjector

        return FaultInjector(self.faults, seed=self.seed)

    def supervision_policy(self):
        """The :class:`repro.resilience.SupervisionPolicy` this spec configures."""
        from repro.resilience import SupervisionPolicy

        kwargs = {
            "max_respawns_per_worker": self.max_respawns_per_worker,
            "max_total_respawns": self.max_total_respawns,
            "on_exhausted": self.on_exhausted,
        }
        if self.worker_timeout is not None:
            kwargs["worker_timeout"] = self.worker_timeout
        return SupervisionPolicy(**kwargs)

    def describe(self) -> str:
        """One line naming the fault schedule and the guardrail/respawn budgets."""
        faults = ", ".join(self.faults) if self.faults else "none"
        base = f"faults: {faults}; retries<={self.max_collective_retries}, skips<={self.max_consecutive_skips}"
        return (
            f"{base}; respawns<={self.max_respawns_per_worker}/worker,"
            f"<={self.max_total_respawns} total ({self.on_exhausted})"
        )


#: Field names of the plan's flat sections, in declaration order — what
#: :meth:`ParallelPlan.to_dict` and :meth:`ParallelPlan.from_dict` walk.
_SECTION_FIELDS: dict[type, tuple[str, ...]] = {
    section: tuple(spec_field.name for spec_field in fields(section))
    for section in (Topology, Schedule, CompressionSpec, ResilienceSpec)
}


def _section_dict(section: Any) -> dict[str, Any]:
    """``{field: value}`` of one flat frozen section, in declaration order.

    The sections hold scalars only (``ResilienceSpec.faults``, a tuple of
    strings, is the one exception and :meth:`ParallelPlan.to_dict` lists it),
    so reading the fields gives exactly what ``dataclasses.asdict`` would
    without its recursive deep copy — the plan search serialises thousands of
    plans per query.  Values are handed out as stored, never through a memo
    keyed by section *value*: ``Schedule(memory_cap_factor=1)`` and ``(…=1.0)``
    are equal and hash equal but serialise to ``1`` and ``1.0``.
    """
    return {name: getattr(section, name) for name in _SECTION_FIELDS[type(section)]}


#: The boundaries in the order sorted-keys JSON spells a compression map.
_BOUNDARIES_BY_VALUE = tuple(sorted(Boundary, key=lambda boundary: boundary.value))


class SharedObject:
    """Memo key of a shared read-only object: equal only to itself, kept alive.

    A memo keyed by *value* would be wrong for anything serialised — ``16`` and
    ``16.0`` are equal and hash equal but serialise differently — and holding
    the object keeps its ``id`` from being reused while the entry lives.
    """

    __slots__ = ("target",)

    def __init__(self, target: Any) -> None:
        self.target = target

    def __hash__(self) -> int:
        return id(self.target)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SharedObject) and self.target is other.target


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"), ensure_ascii=True)``
#: without building an encoder per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode


@functools.lru_cache(maxsize=256)
def _section_json(section: SharedObject) -> str:
    """Canonical JSON of one flat section, serialised once per section *object*.

    A plan sweep builds each topology, schedule and codec spec once and shares
    the objects between thousands of plans; a plan whose sections are its own
    (``proxy_scaled``, ``with_boundary``) pays one serialisation per section,
    as it always did.  ``ResilienceSpec.faults`` is a tuple of strings, which
    JSON spells exactly like the list :meth:`ParallelPlan.to_dict` emits.
    """
    return _canonical(_section_dict(section.target))


@dataclass(frozen=True)
class ParallelPlan:
    """Topology × schedule × boundary-keyed compression: one run, declared once.

    The compression map accepts :class:`Boundary` keys or their string values;
    missing boundaries default to uncompressed.  Construction validates every
    knob (including per-boundary codec vocabularies), so a ``ParallelPlan``
    that exists is a ``ParallelPlan`` that can run.  The optional
    ``resilience`` section arms fault injection and guardrails
    (:mod:`repro.resilience`); plans without one are untouched.
    """

    topology: Topology = field(default_factory=Topology)
    schedule: Schedule = field(default_factory=Schedule)
    compression: Mapping[Boundary, CompressionSpec] = field(default_factory=dict)
    resilience: ResilienceSpec | None = None
    #: Execution substrate: ``"serial"`` (the oracle) or ``"process"`` (one
    #: forked worker per DP replica over shared-memory arenas; bit-identical
    #: weights, real multi-core wall clock).
    executor: str = "serial"

    def __post_init__(self) -> None:
        normalised: dict[Boundary, CompressionSpec] = {}
        for key, spec in dict(self.compression).items():
            try:
                boundary = Boundary(key)
            except ValueError:
                raise ValueError(
                    f"unknown boundary {key!r}; expected one of "
                    f"{[b.value for b in Boundary]}"
                ) from None
            if isinstance(spec, Mapping):
                spec = _spec_from_dict(boundary, spec)
            if not isinstance(spec, CompressionSpec):
                raise ValueError(
                    f"compression[{boundary.value!r}] must be a CompressionSpec, got {spec!r}"
                )
            if spec.codec not in BOUNDARY_CODECS[boundary]:
                raise ValueError(
                    f"codec {spec.codec!r} is not valid at the {boundary.value!r} boundary; "
                    f"allowed: {BOUNDARY_CODECS[boundary]}"
                )
            normalised[boundary] = spec
        for boundary in Boundary:
            normalised.setdefault(boundary, default_spec(boundary))
        # Stable key order so to_dict/describe/diff/__hash__ are deterministic.
        object.__setattr__(
            self, "compression", {b: normalised[b] for b in Boundary}
        )
        if isinstance(self.resilience, Mapping):
            object.__setattr__(self, "resilience", ResilienceSpec(**dict(self.resilience)))
        if self.resilience is not None and not isinstance(self.resilience, ResilienceSpec):
            raise ValueError(
                f"resilience must be a ResilienceSpec or mapping, got {self.resilience!r}"
            )
        validate_executor_kind(self.executor, context="ParallelPlan.executor")
        if (
            self.resilience is not None
            and self.executor != "process"
            and self.resilience.requires_process_executor()
        ):
            raise ValueError(
                "hang faults wedge a forked worker and need the hang watchdog; "
                'they require executor="process" (the serial executor has no '
                "worker to hang or to respawn)"
            )

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the dict field;
        # the normalised map has a stable key order, so its items are a sound
        # hashable identity (plans are value objects usable in sets/dict keys).
        return hash(
            (
                self.topology,
                self.schedule,
                tuple(self.compression.items()),
                self.resilience,
                self.executor,
            )
        )

    # -- accessors --------------------------------------------------------------------

    def spec(self, boundary: Boundary | str) -> CompressionSpec:
        """The compression spec of one boundary (always present)."""
        return self.compression[Boundary(boundary)]

    @property
    def compresses_anything(self) -> bool:
        """Whether any boundary carries an active codec."""
        return any(spec.compresses for spec in self.compression.values())

    # -- sweep helpers ----------------------------------------------------------------

    def with_boundary(self, boundary: Boundary | str, **changes: Any) -> "ParallelPlan":
        """A copy with some knobs of one boundary's spec replaced."""
        boundary = Boundary(boundary)
        compression = dict(self.compression)
        compression[boundary] = compression[boundary].with_(**changes)
        return replace(self, compression=compression)

    def with_topology(self, **changes: Any) -> "ParallelPlan":
        """A copy with some topology degrees replaced."""
        return replace(self, topology=self.topology.with_(**changes))

    def with_schedule(self, **changes: Any) -> "ParallelPlan":
        """A copy with some schedule knobs replaced."""
        return replace(self, schedule=self.schedule.with_(**changes))

    def with_resilience(self, resilience: "ResilienceSpec | None" = None, **changes: Any) -> "ParallelPlan":
        """A copy with the resilience section replaced (or its knobs updated)."""
        if resilience is None and changes:
            base = self.resilience if self.resilience is not None else ResilienceSpec()
            resilience = base.with_(**changes)
        return replace(self, resilience=resilience)

    def with_executor(self, executor: str) -> "ParallelPlan":
        """A copy running on a different execution substrate (validated)."""
        return replace(self, executor=executor)

    def proxy_scaled(self, max_rank: int = 2) -> "ParallelPlan":
        """Rescale the PowerSGD ranks for a tiny functional probe model.

        The paper's ranks (16 for PP, 128 for DP) are lossless on the probe
        models the functional experiments train, so the CLI and the drivers cap
        them (conventionally at 2) to keep the compression actually lossy.
        """
        plan = self
        for boundary in (Boundary.PP, Boundary.DP):
            spec = plan.spec(boundary)
            if spec.rank > max_rank:
                plan = plan.with_boundary(boundary, rank=max_rank)
        return plan

    # -- serialisation ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe; round-trips through :meth:`from_dict`)."""
        payload = {
            "topology": _section_dict(self.topology),
            "schedule": _section_dict(self.schedule),
            "compression": {
                boundary.value: _section_dict(spec)
                for boundary, spec in self.compression.items()
            },
        }
        # Emitted only when armed, so pre-existing plan JSON stays byte-stable.
        if self.resilience is not None:
            resilience = _section_dict(self.resilience)
            resilience["faults"] = list(self.resilience.faults)
            payload["resilience"] = resilience
        # Same discipline for the executor: emitted only when non-default.
        if self.executor != "serial":
            payload["executor"] = self.executor
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ParallelPlan":
        """Build a validated plan from a dict (inverse of :meth:`to_dict`).

        Partial dicts are fine: missing sections and missing spec fields take
        their defaults, unknown keys raise.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"plan payload must be a mapping, got {payload!r}")
        unknown = set(payload) - {
            "topology", "schedule", "compression", "resilience", "executor",
        }
        if unknown:
            raise ValueError(
                f"unknown plan section(s) {sorted(unknown)}; "
                "expected topology / schedule / compression / resilience / executor"
            )

        def build(section: str, target, known: tuple[str, ...]):
            data = payload.get(section, {})
            if not isinstance(data, Mapping):
                raise ValueError(f"{section} must be a mapping, got {data!r}")
            bad = set(data).difference(known)
            if bad:
                raise ValueError(f"unknown {section} field(s) {sorted(bad)}")
            return target(**data)

        topology = build("topology", Topology, _SECTION_FIELDS[Topology])
        schedule = build("schedule", Schedule, _SECTION_FIELDS[Schedule])
        compression = payload.get("compression", {})
        if not isinstance(compression, Mapping):
            raise ValueError(f"compression must be a mapping, got {compression!r}")
        resilience = None
        if payload.get("resilience") is not None:
            resilience_data = build("resilience", dict, _SECTION_FIELDS[ResilienceSpec])
            resilience = ResilienceSpec(
                **{
                    key: tuple(value) if key == "faults" else value
                    for key, value in resilience_data.items()
                }
            )
        executor = payload.get("executor", "serial")
        if not isinstance(executor, str):
            raise ValueError(f"executor must be a string, got {executor!r}")
        return cls(
            topology=topology,
            schedule=schedule,
            compression=dict(compression),
            resilience=resilience,
            executor=executor,
        )

    def to_json(self, indent: int = 2) -> str:
        """JSON form (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def canonical_json(self) -> str:
        """Compact, sorted-keys, whitespace-free JSON — the plan's content identity.

        Two plans produce the same canonical string iff :meth:`to_dict` agrees,
        so this is the string the plan-search result cache hashes
        (:func:`repro.search.cache.cache_key`).  Unlike :meth:`to_json` it never
        changes with pretty-printing defaults, and sorted keys make it
        independent of dict insertion order.

        The bytes are those of ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"), ensure_ascii=True)``, assembled from the
        canonical JSON of the sections, each serialised once per section
        object (:func:`_section_json`) — for a plan that shares its sections
        with the other plans of a sweep this is a join of five strings, not a
        walk over forty fields.  Like :meth:`to_dict` it emits ``resilience``
        and ``executor`` only when they are not the default.
        """
        compression = ",".join(
            f'"{boundary.value}":{_section_json(SharedObject(self.compression[boundary]))}'
            for boundary in _BOUNDARIES_BY_VALUE
        )
        sections = [f'"compression":{{{compression}}}']
        if self.executor != "serial":
            sections.append(f'"executor":{_canonical(self.executor)}')
        if self.resilience is not None:
            sections.append(f'"resilience":{_section_json(SharedObject(self.resilience))}')
        sections.append(f'"schedule":{_section_json(SharedObject(self.schedule))}')
        sections.append(f'"topology":{_section_json(SharedObject(self.topology))}')
        return "{" + ",".join(sections) + "}"

    @classmethod
    def from_json(cls, text: str) -> "ParallelPlan":
        """Parse a plan from its JSON text form (inverse of :meth:`to_json`)."""
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the plan to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "ParallelPlan":
        """Read and validate a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- diff -------------------------------------------------------------------------

    def diff(self, other: "ParallelPlan") -> dict[str, tuple[Any, Any]]:
        """Flat ``{dotted.field: (mine, theirs)}`` map of every differing knob."""

        def flatten(payload: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
            flat: dict[str, Any] = {}
            for key, value in payload.items():
                dotted = f"{prefix}{key}"
                if isinstance(value, Mapping):
                    flat.update(flatten(value, f"{dotted}."))
                else:
                    flat[dotted] = value
            return flat

        mine, theirs = flatten(self.to_dict()), flatten(other.to_dict())
        return {
            key: (mine.get(key), theirs.get(key))
            for key in sorted(set(mine) | set(theirs))
            if mine.get(key) != theirs.get(key)
        }

    # -- the one configuration label --------------------------------------------------

    def stack_label(self) -> str:
        """Paper-style technique-stack label: Baseline / CB / CB+FE / CB+FE+SC / ..."""
        pp, dp, emb = self.spec(Boundary.PP), self.spec(Boundary.DP), self.spec(Boundary.EMBEDDING)
        parts = []
        if pp.compresses:
            label = "CB"
            if not pp.error_feedback:
                label += "(Non-LEP)"
            if not pp.epilogue_only:
                label += "(naive)"
            if pp.codec == "topk":
                label += "(TopK)"
            parts.append(label)
        if emb.codec == "fused":
            parts.append("FE")
        if dp.compresses:
            parts.append("DP(all)" if dp.stage_fraction >= 1.0 else "SC")
        return "+".join(parts) if parts else "Baseline"

    def describe(self) -> str:
        """The single label reports print for this configuration.

        Folds in what the old per-surface labels dropped: the DP codec detail,
        whether the DP all-reduce is overlapped with the cool-down (and at what
        bucket size) or serial, and the topology.  Example::

            CB+FE+SC[powersgd(r=128)+ef@75%] 1f1b(overlap/64KiB) PP4xDP2xTP1/mb4
        """
        dp = self.spec(Boundary.DP)
        label = self.stack_label()
        if dp.compresses:
            feedback = "+ef" if dp.error_feedback else ""
            label += f"[{dp.codec}({dp.knob_label()}){feedback}@{dp.stage_fraction:.0%}]"
        if self.schedule.dp_overlap:
            schedule = f"{self.schedule.describe()}(overlap/{dp.bucket_bytes // 1024}KiB)"
        else:
            chunks = self.schedule.num_model_chunks
            schedule = "serial-dp" + (f"x{chunks}" if chunks > 1 else "")
        # Serial is the default substrate and stays unlabelled (label stability).
        executor = " proc-exec" if self.executor == "process" else ""
        return f"{label} {schedule} {self.topology.describe()}{executor}"

    # -- named presets ----------------------------------------------------------------

    @classmethod
    def baseline(cls, topology: Topology | None = None) -> "ParallelPlan":
        """Megatron-LM without any communication compression."""
        return cls(topology=topology or Topology())

    @classmethod
    def cb(cls, topology: Topology | None = None, rank: int = 16) -> "ParallelPlan":
        """Compressed backpropagation (epilogue-only, with LEP)."""
        return cls(
            topology=topology or Topology(),
            compression={Boundary.PP: CompressionSpec(codec="powersgd", rank=rank)},
        )

    @classmethod
    def cb_non_lep(cls, topology: Topology | None = None, rank: int = 16) -> "ParallelPlan":
        """CB without lazy error propagation (Table 4's 'CB (Non-LEP)')."""
        return cls.cb(topology, rank).with_boundary(Boundary.PP, error_feedback=False)

    @classmethod
    def naive_cb(cls, topology: Topology | None = None, rank: int = 16) -> "ParallelPlan":
        """CB on every backward transfer, no epilogue-only restriction."""
        return cls.cb(topology, rank).with_boundary(Boundary.PP, epilogue_only=False)

    @classmethod
    def cb_fe(cls, topology: Topology | None = None, rank: int = 16) -> "ParallelPlan":
        """CB + fused embedding synchronisation."""
        plan = cls.cb(topology, rank)
        return plan.with_boundary(Boundary.EMBEDDING, codec="fused")

    @classmethod
    def cb_fe_sc(
        cls,
        topology: Topology | None = None,
        cb_rank: int = 16,
        dp_rank: int = 128,
        stage_fraction: float = 0.75,
    ) -> "ParallelPlan":
        """Full Optimus-CC: CB + FE + selective stage compression."""
        plan = cls.cb_fe(topology, cb_rank)
        return plan.with_boundary(
            Boundary.DP, codec="powersgd", rank=dp_rank, stage_fraction=stage_fraction
        )

    @classmethod
    def naive_dp(cls, topology: Topology | None = None, dp_rank: int = 128) -> "ParallelPlan":
        """Naive data-parallel compression of every stage (Fig. 3 'naive DP')."""
        return cls(
            topology=topology or Topology(),
            compression={
                Boundary.DP: CompressionSpec(codec="powersgd", rank=dp_rank, stage_fraction=1.0)
            },
        )

    @classmethod
    def optimus_topk(cls, topology: Topology | None = None, fraction: float = 0.01) -> "ParallelPlan":
        """Optimus-CC with top-k instead of low-rank CB (Fig. 3 'Opt-CC (TopK)')."""
        plan = cls(
            topology=topology or Topology(),
            compression={
                Boundary.PP: CompressionSpec(codec="topk", rank=16, fraction=fraction),
                Boundary.EMBEDDING: CompressionSpec(codec="fused"),
                Boundary.DP: CompressionSpec(codec="powersgd", rank=128, stage_fraction=0.75),
            },
        )
        return plan

    @classmethod
    def zb1(cls, topology: Topology | None = None) -> "ParallelPlan":
        """The zero-bubble ZB-H1 schedule on an otherwise uncompressed run.

        Weights are bit-for-bit identical to :meth:`baseline`; the pipeline
        bubble shrinks and the deferred W passes widen the DP overlap window.
        """
        return cls(topology=topology or Topology(), schedule=Schedule(kind="zb1"))

    @classmethod
    def auto(
        cls, topology: Topology | None = None, memory_cap_factor: float = 1.5
    ) -> "ParallelPlan":
        """The synthesized memory-capped schedule on an otherwise uncompressed run.

        The schedule search (:mod:`repro.parallel.scheduler`) slots W passes
        into bubble gaps and admits extra in-flight forwards while under
        ``memory_cap_factor`` times the 1F1B activation peak.  Weights are
        bit-for-bit identical to :meth:`baseline`; the bubble is never worse
        than :meth:`zb1` and shrinks as the cap rises.
        """
        return cls(
            topology=topology or Topology(),
            schedule=Schedule(kind="auto", memory_cap_factor=memory_cap_factor),
        )

    @classmethod
    def preset(cls, name: str, topology: Topology | None = None) -> "ParallelPlan":
        """Build a named preset (the registry is :data:`PLAN_PRESETS`)."""
        if name not in PLAN_PRESETS:
            raise ValueError(
                f"unknown plan preset {name!r}; available: {', '.join(sorted(PLAN_PRESETS))}"
            )
        return PLAN_PRESETS[name](topology)

    # -- the simulator's job for this plan ---------------------------------------------

    def layout(self) -> "ParallelLayout":
        """The simulator-side parallel layout of this plan's topology."""
        return self.topology.layout()

    def training_job(self, model, cluster=None, micro_batch_size: int = 8):
        """A simulator :class:`~repro.simulator.cost_model.TrainingJob` for this plan.

        The layout comes from the topology, the interleaved chunk count from the
        schedule, and the global batch size is derived so each replica runs
        exactly ``topology.micro_batches`` micro-batches per iteration — the
        full delivery path for every schedule/topology knob a plan declares.
        """
        from repro.simulator.cost_model import TrainingJob

        kwargs = dict(
            model=model,
            layout=self.layout(),
            micro_batch_size=micro_batch_size,
            global_batch_size=(
                micro_batch_size * self.topology.micro_batches * self.topology.dp
            ),
            num_model_chunks=self.schedule.num_model_chunks,
            # The split-backward kinds finalise gradients per W pass, so
            # micro-batch firing is their native granularity — the engine fires
            # that way regardless of dp_fire, and the simulator must model the
            # same behaviour (cross-layer agreement, tested in test_plan.py).
            dp_fire=(
                "micro_batch"
                if self.schedule.kind in SPLIT_BACKWARD_KINDS
                else self.schedule.dp_fire if self.schedule.dp_overlap else "stage"
            ),
            # "serial" replays the 1F1B op lists and starts every stage's DP
            # all-reduce at the drain, as the engine fires it.
            schedule_kind=self.schedule.kind,
            memory_cap_factor=self.schedule.memory_cap_factor,
        )
        if cluster is not None:
            kwargs["cluster"] = cluster
        return TrainingJob(**kwargs)


#: Named presets (the paper's nomenclature) addressable from the CLI and tests.
PLAN_PRESETS: dict[str, Callable[[Topology | None], ParallelPlan]] = {
    "baseline": ParallelPlan.baseline,
    "cb": ParallelPlan.cb,
    "cb_non_lep": ParallelPlan.cb_non_lep,
    "naive_cb": ParallelPlan.naive_cb,
    "cb_fe": ParallelPlan.cb_fe,
    "cb_fe_sc": ParallelPlan.cb_fe_sc,
    "naive_dp": ParallelPlan.naive_dp,
    "optimus_topk": ParallelPlan.optimus_topk,
    "zb1": ParallelPlan.zb1,
    "auto": ParallelPlan.auto,
}
