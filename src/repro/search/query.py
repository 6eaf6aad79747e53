"""Search queries and their deterministic expansion into candidate plans.

A :class:`SearchQuery` declares *what the user has* (a model, a GPU count, one
or more hardware tiers) and *what they want* (budgets and objective weights);
:meth:`SearchQuery.expand` turns it into the concrete candidate list the
service evaluates.  Expansion is pure and deterministic — nested loops over
sorted option tuples, no RNG — so the same query always yields the same
candidates in the same order, and a candidate's position (its ``index``) is a
stable identity the pool and the frontier can key on regardless of which
worker finishes first.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from typing import Any, Iterator, Mapping

from repro.models.gpt_configs import (
    GPT_2_5B,
    GPT_8_3B,
    GPT_9_2B,
    GPT_18B,
    GPT_39B,
    GPT_76B,
    GPT_175B,
    PaperModelSpec,
)
from repro.parallel.topology import ClusterTopology, ethernet_cluster
from repro.plan import Boundary, CompressionSpec, ParallelPlan, Schedule, Topology, default_spec
from repro.simulator.hardware import ClusterSpec

__all__ = ["Candidate", "HARDWARE_TIERS", "SEARCH_MODELS", "SearchQuery", "resolve_cluster"]

#: Models a query can name (the same catalogue the CLI exposes; search sits
#: below the CLI in the import graph, so it keeps its own copy).
SEARCH_MODELS: dict[str, PaperModelSpec] = {
    spec.name: spec
    for spec in (GPT_2_5B, GPT_8_3B, GPT_9_2B, GPT_18B, GPT_39B, GPT_76B, GPT_175B)
}

#: Interconnect tiers a query can sweep: tier name -> per-node inter-node
#: bandwidth description.  ``infiniband`` is the paper's testbed (IB HDR,
#: 200 Gb/s/node); ``ethernet`` is the commodity 10 GbE sensitivity point.
HARDWARE_TIERS = ("infiniband", "ethernet")


@lru_cache(maxsize=16, typed=True)
def resolve_cluster(tier: str, gpus: int) -> ClusterSpec:
    """Build the :class:`~repro.simulator.hardware.ClusterSpec` of one tier.

    The node shape is fixed at 8 GPUs per node (the paper's testbed); the node
    count follows from ``gpus``.  GPU counts below one full node still get one
    node.  Unknown tiers raise ``ValueError`` with the vocabulary.

    The (frozen) spec of a ``(tier, gpus)`` pair is built once per process and
    handed out again: every candidate of a tier is evaluated on the same
    object, and the parent's per-tier key material (:mod:`repro.search.cache`)
    is computed once per instance.
    """
    if tier not in HARDWARE_TIERS:
        raise ValueError(f"unknown hardware tier {tier!r}; expected one of {HARDWARE_TIERS}")
    nodes = max(1, gpus // 8)
    if tier == "ethernet":
        return ClusterSpec(topology=ethernet_cluster(num_nodes=nodes))
    return ClusterSpec(topology=ClusterTopology(num_nodes=nodes))


@dataclass(frozen=True)
class Candidate:
    """One expanded search point: a plan on a hardware tier, with its index.

    ``index`` is the candidate's position in the query's deterministic
    expansion order — the identity every downstream stage (pool dispatch,
    cache bookkeeping, frontier tie-breaks) keys on.
    """

    index: int
    plan: ParallelPlan
    tier: str

    def task(self, query: "SearchQuery") -> dict[str, Any]:
        """The JSON-safe form of this candidate's pool work unit.

        Carries everything :func:`repro.search.pool.evaluate_task` needs to
        rebuild — and re-validate — the evaluation inputs anywhere: the plan
        dict, the model spec dict, the tier name, and the query's GPU count
        and micro-batch size.  The service itself hands the pool the
        validated objects (its forked workers inherit them); this form is
        what can be written down, sent to another program, or compared
        against.  The model dict is the query's one
        :attr:`SearchQuery.model_document`, shared by all its tasks.  The
        query's two budgets ride along so the evaluation can stop at a
        candidate they reject; they select how much is evaluated, never what
        a number is, and are no part of the cache key
        (:func:`repro.search.cache.task_key_material`).
        """
        return {
            "plan": self.plan.to_dict(),
            "model": query.model_document,
            "tier": self.tier,
            "gpus": query.gpus,
            "micro_batch_size": query.micro_batch_size,
            "max_memory_gb": query.max_memory_gb,
            "max_compression_loss": query.max_compression_loss,
        }


def _power_of_two_divisors(value: int, cap: int) -> list[int]:
    """Powers of two that divide ``value``, up to ``cap`` (ascending)."""
    divisors = []
    power = 1
    while power <= value and power <= cap:
        if value % power == 0:
            divisors.append(power)
        power *= 2
    return divisors


@dataclass(frozen=True)
class SearchQuery:
    """One capacity-planning question, with its sweep space and budgets.

    Attributes
    ----------
    model:
        Name of a catalogue model (:data:`SEARCH_MODELS`), e.g. ``"GPT-8.3B"``.
        Ignored when ``custom_model`` is given.
    custom_model:
        Optional explicit model spec as a dict of
        :class:`~repro.models.gpt_configs.PaperModelSpec` fields — the
        "model config" query form for models outside the catalogue.
    gpus:
        Total GPU count to place the model on (the paper's cluster is 128).
    hardware:
        Interconnect tiers to sweep (subset of :data:`HARDWARE_TIERS`); each
        candidate plan is evaluated once per tier.
    micro_batch_size:
        Sequences per micro-batch (the global batch follows from each
        candidate's topology).
    max_memory_gb:
        Per-GPU peak-memory budget; candidates above it are excluded from the
        frontier (``None`` disables the constraint).
    max_compression_loss:
        Accuracy budget as a cap on the heuristic
        :func:`~repro.simulator.evaluate.compression_loss` score.
    weight_throughput / weight_wire / weight_memory:
        Objective weights of the frontier ranking (throughput is maximised;
        wire bytes and peak memory are minimised).
    proxy_scale_max_rank:
        When set, each candidate is passed through
        :meth:`~repro.plan.ParallelPlan.proxy_scaled` with this rank cap —
        the tiny-probe-model query form.
    tp_degrees / micro_batches / schedules / memory_cap_factors:
        Topology and schedule sweep axes.  ``memory_cap_factors`` only applies
        to the ``"auto"`` schedule kind.
    dp_codecs / dp_ranks / dp_bits / dp_fractions / stage_fractions:
        DP-boundary codec sweep axes (``stage_fractions`` is the selective
        stage compression knob; it only applies to compressing codecs).
    pp_codecs / pp_ranks / embedding:
        PP-boundary and embedding-boundary sweep axes.
    max_candidates:
        Hard cap on the expansion size (truncates in expansion order);
        ``None`` means unbounded.
    """

    model: str = "GPT-8.3B"
    custom_model: Mapping[str, Any] | None = None
    gpus: int = 128
    hardware: tuple[str, ...] = ("infiniband",)
    micro_batch_size: int = 8
    max_memory_gb: float | None = None
    max_compression_loss: float | None = None
    weight_throughput: float = 1.0
    weight_wire: float = 0.25
    weight_memory: float = 0.1
    proxy_scale_max_rank: int | None = None
    tp_degrees: tuple[int, ...] = (1, 2, 4, 8)
    micro_batches: tuple[int, ...] = (8, 16)
    schedules: tuple[str, ...] = ("1f1b", "zb1")
    memory_cap_factors: tuple[float, ...] = (1.5,)
    dp_codecs: tuple[str, ...] = ("none", "powersgd", "qsgd", "topk")
    dp_ranks: tuple[int, ...] = (128,)
    dp_bits: tuple[int, ...] = (4,)
    dp_fractions: tuple[float, ...] = (0.01,)
    stage_fractions: tuple[float, ...] = (0.75, 1.0)
    pp_codecs: tuple[str, ...] = ("none", "powersgd")
    pp_ranks: tuple[int, ...] = (16,)
    embedding: tuple[str, ...] = ("none", "fused")
    max_candidates: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "hardware", "tp_degrees", "micro_batches", "schedules", "memory_cap_factors",
            "dp_codecs", "dp_ranks", "dp_bits", "dp_fractions", "stage_fractions",
            "pp_codecs", "pp_ranks", "embedding",
        ):
            value = tuple(getattr(self, name))
            if not value:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, value)
        if self.custom_model is not None:
            object.__setattr__(self, "custom_model", dict(self.custom_model))
        if self.gpus <= 0:
            raise ValueError("gpus must be positive")
        if self.micro_batch_size <= 0:
            raise ValueError("micro_batch_size must be positive")
        for tier in self.hardware:
            if tier not in HARDWARE_TIERS:
                raise ValueError(
                    f"unknown hardware tier {tier!r}; expected one of {HARDWARE_TIERS}"
                )
        if self.custom_model is None and self.model not in SEARCH_MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; available: {', '.join(sorted(SEARCH_MODELS))}"
            )
        self.model_spec()  # custom_model dicts must build a valid spec eagerly

    # -- inputs -----------------------------------------------------------------------

    def model_spec(self) -> PaperModelSpec:
        """The resolved :class:`~repro.models.gpt_configs.PaperModelSpec`."""
        if self.custom_model is not None:
            return PaperModelSpec(**dict(self.custom_model))
        return SEARCH_MODELS[self.model]

    @cached_property
    def model_document(self) -> dict[str, Any]:
        """The model spec as a plain dict, built once per query.

        Every task of the query (:meth:`Candidate.task`) and every cache-key
        document refers to this one object instead of a fresh
        ``dataclasses.asdict`` copy per candidate.

        Returns
        -------
        dict
            ``dataclasses.asdict(self.model_spec())``.  Shared: treat it as
            read-only.
        """
        return asdict(self.model_spec())

    # -- serialisation ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe; round-trips through :meth:`from_dict`)."""
        payload: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchQuery":
        """Build a validated query from a dict (unknown keys raise)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"query payload must be a mapping, got {payload!r}")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown query field(s) {sorted(unknown)}; known fields: {sorted(known)}"
            )
        data = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in payload.items()
        }
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "SearchQuery":
        """Parse a query from its JSON form."""
        return cls.from_dict(json.loads(text))

    # -- expansion --------------------------------------------------------------------

    def topologies(self) -> list[Topology]:
        """Feasible topologies of ``gpus`` GPUs for the query's model.

        TP degrees come from ``tp_degrees`` (restricted to divisors of the GPU
        count); the PP degree sweeps the power-of-two divisors of the
        remaining factor, capped at the model's layer count; DP takes the
        rest.  Each topology is repeated per ``micro_batches`` option.
        """
        model = self.model_spec()
        topologies: list[Topology] = []
        for tp in self.tp_degrees:
            if self.gpus % tp != 0:
                continue
            rest = self.gpus // tp
            for pp in _power_of_two_divisors(rest, cap=model.num_layers):
                dp = rest // pp
                for micro in self.micro_batches:
                    topologies.append(Topology(dp=dp, pp=pp, tp=tp, micro_batches=micro))
        return topologies

    def _dp_options(self) -> list[dict[str, Any]]:
        """DP-boundary spec overrides, ``codec="none"`` first."""
        options: list[dict[str, Any]] = []
        for codec in self.dp_codecs:
            if codec == "none":
                options.append({"codec": "none"})
                continue
            knobs: list[dict[str, Any]]
            if codec == "powersgd":
                knobs = [{"rank": rank} for rank in self.dp_ranks]
            elif codec == "qsgd":
                knobs = [{"bits": bits} for bits in self.dp_bits]
            elif codec == "topk":
                knobs = [{"fraction": fraction} for fraction in self.dp_fractions]
            else:
                raise ValueError(f"unknown DP codec {codec!r}")
            for knob in knobs:
                for stage_fraction in self.stage_fractions:
                    options.append({"codec": codec, "stage_fraction": stage_fraction, **knob})
        return options

    def _pp_options(self) -> list[dict[str, Any]]:
        """PP-boundary spec overrides, ``codec="none"`` first."""
        options: list[dict[str, Any]] = []
        for codec in self.pp_codecs:
            if codec == "none":
                options.append({"codec": "none"})
            elif codec == "powersgd":
                options.extend({"codec": codec, "rank": rank} for rank in self.pp_ranks)
            elif codec == "topk":
                options.extend(
                    {"codec": codec, "fraction": fraction} for fraction in self.dp_fractions
                )
            else:
                raise ValueError(f"unknown PP codec {codec!r}")
        return options

    def _schedules(self) -> list[Schedule]:
        """Schedule options (``memory_cap_factors`` expands the ``auto`` kind)."""
        schedules: list[Schedule] = []
        for kind in self.schedules:
            if kind == "auto":
                schedules.extend(
                    Schedule(kind=kind, memory_cap_factor=cap)
                    for cap in self.memory_cap_factors
                )
            else:
                schedules.append(Schedule(kind=kind))
        return schedules

    @staticmethod
    def _boundary_specs(
        boundary: Boundary, options: list[dict[str, Any]]
    ) -> list[CompressionSpec]:
        """One validated spec per option: the boundary's default with the overrides."""
        return [default_spec(boundary).with_(**option) for option in options]

    def candidates(self) -> Iterator[Candidate]:
        """Yield the expansion lazily, in the deterministic nested-loop order.

        Loop nesting (outermost first): hardware tier, topology, schedule,
        DP option, PP option, embedding mode.  The running position is each
        candidate's ``index``.
        """
        topologies = self.topologies()
        schedules = self._schedules()
        # Every candidate is one validating ParallelPlan construction over
        # sections built once per option and shared between the plans.
        dp_specs = self._boundary_specs(Boundary.DP, self._dp_options())
        pp_specs = self._boundary_specs(Boundary.PP, self._pp_options())
        embedding_specs = self._boundary_specs(
            Boundary.EMBEDDING, [{"codec": mode} for mode in self.embedding]
        )
        compressions = [
            {Boundary.DP: dp_spec, Boundary.PP: pp_spec, Boundary.EMBEDDING: embedding_spec}
            for dp_spec in dp_specs
            for pp_spec in pp_specs
            for embedding_spec in embedding_specs
        ]
        index = 0
        for tier in self.hardware:
            for topology in topologies:
                for schedule in schedules:
                    for compression in compressions:
                        if self.max_candidates is not None and index >= self.max_candidates:
                            return
                        plan = ParallelPlan(
                            topology=topology, schedule=schedule, compression=compression
                        )
                        if self.proxy_scale_max_rank is not None:
                            plan = plan.proxy_scaled(self.proxy_scale_max_rank)
                        yield Candidate(index=index, plan=plan, tier=tier)
                        index += 1

    def expand(self) -> list[Candidate]:
        """The full candidate list (the materialised :meth:`candidates` order)."""
        return list(self.candidates())
