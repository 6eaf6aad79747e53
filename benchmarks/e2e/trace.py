"""External span tracer for BENCH_e2e.

Nothing under ``src/`` is instrumented yet (in-program tracing is ROADMAP item
2), so the benchmark records spans from the outside: :meth:`Tracer.install`
replaces the public callable at each layer boundary — a class attribute, or the
module attribute the caller resolves — with a wrapper that opens a span, calls
through, and closes it.  :meth:`Tracer.uninstall` puts every original back.

A span is ``(name, start_ns, end_ns, parent, phase, op_index, value)`` on
``time.perf_counter_ns``, written into preallocated columns; nothing is
formatted or written out until the run ends.  A span entered while a span of
the same name is open is not recorded (``compress`` calling ``compress_into``
is one compression, not two), and nothing is recorded inside a *leaf* span
(an optimizer step or a checkpoint write is one phase whatever it calls).
A layer's self time is its span minus the interval its child spans cover; the
program is single-threaded where it is traced, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# A patch is (module, dotted attribute, span name, leaf, value); ``value`` maps
# the wrapped call's positional arguments to a number summed per span name
# (bytes handed to a codec), ``None`` records nothing.


def _nbytes(args) -> int:
    """Size in bytes of the tensor a codec call was handed (``self, tensor, ...``)."""
    return int(getattr(args[1], "nbytes", 0))


#: Layer boundaries executed in the process that drives the iteration.
TRAIN_PATCHES: list[tuple] = [
    ("repro.data.dataloader", "LanguageModelingDataLoader.iteration_batches", "data.batches", True, None),
    ("repro.parallel.scheduler", "synthesize_schedule", "scheduler.synthesize", True, None),
    ("repro.parallel.engine", "ThreeDParallelEngine.run_iteration", "engine.iteration", False, None),
    ("repro.parallel.engine", "ThreeDParallelEngine.mutable_state", "resilience.snapshot", True, None),
    ("repro.parallel.engine", "CompressedGradientAllReduce.reduce_bucket", "dp.reduce", False, None),
    ("repro.parallel.engine", "CompressedGradientAllReduce.reduce_codec_bucket", "dp.reduce", False, None),
    ("repro.parallel.data_parallel", "BucketedDataParallelSync.synchronize", "dp.sync", False, None),
    ("repro.parallel.arena", "ParameterArena.snapshot", "resilience.snapshot", True, None),
    ("repro.core.selective_stage", "SelectiveStageCompression.reduce_bucket", "core.sc_reduce", False, None),
    ("repro.core.fused_embedding", "EmbeddingSynchronizer.synchronize", "core.embedding_sync", True, None),
    ("repro.optim.fused_adam", "FusedAdam.step", "optim.step", True, None),
    ("repro.optim.fused_adam", "FusedAdam.zero_grad", "optim.zero_grad", True, None),
    ("repro.optim.fused_adam", "FusedAdam.state_dict", "resilience.snapshot", True, None),
    ("repro.exec.executor", "ProcessExecutor.start", "exec.start", True, None),
    ("repro.exec.executor", "ProcessExecutor.run_collect", "exec.run", False, None),
    ("repro.exec.executor", "ProcessExecutor.fetch_cb_state", "exec.fetch_cb", True, None),
    ("repro.exec.supervisor", "WorkerSupervisor.run", "exec.run", False, None),
]

#: Layer boundaries that execute inside a forked worker under the process
#: executor.  Spans recorded in a worker are not shipped back, so these are
#: installed only where the pipelines run in the traced process itself.
PIPELINE_PATCHES: list[tuple] = [
    ("repro.parallel.pipeline_engine", "PipelineParallelEngine.run_iteration", "pipeline.run", False, None),
    ("repro.nn.gpt_stage", "GPTStage.forward", "nn.forward", True, None),
    ("repro.nn.gpt_stage", "GPTStage.backward_input", "nn.backward_input", True, None),
    ("repro.nn.gpt_stage", "GPTStage.backward_weight", "nn.backward_weight", True, None),
    ("repro.core.compressed_backprop", "CompressedBackpropagation.__call__", "core.cb", False, None),
]


def _codec_patches() -> list[tuple]:
    patches: list[tuple] = []
    for module, cls in (
        ("repro.compression.powersgd", "PowerSGDCompressor"),
        ("repro.compression.qsgd", "QSGDCompressor"),
        ("repro.compression.topk", "TopKCompressor"),
    ):
        for method in ("compress", "compress_into"):
            patches.append((module, f"{cls}.{method}", "compression.compress", True, _nbytes))
        for method in ("decompress", "decompress_into"):
            patches.append((module, f"{cls}.{method}", "compression.decompress", True, None))
    return patches


#: Codecs run in the parent (DP reduce) and in the workers (compressed backprop).
CODEC_PATCHES = _codec_patches()

SEARCH_PATCHES: list[tuple] = [
    ("repro.search.query", "SearchQuery.expand", "search.expand", True, None),
    ("repro.search.query", "Candidate.task", "search.key", True, None),
    ("repro.search.service", "task_key_material", "search.key", True, None),
    ("repro.search.service", "cache_key", "search.key", True, None),
    ("repro.search.cache", "SearchCache.get", "search.cache_get", True, None),
    ("repro.search.cache", "SearchCache.put", "search.cache_put", True, None),
    ("repro.search.pool", "EvaluationPool.__init__", "search.pool_start", True, None),
    ("repro.search.pool", "EvaluationPool.run", "search.pool_run", False, None),
    ("repro.search.pool", "EvaluationPool.close", "search.pool_stop", True, None),
    ("repro.search.pool", "evaluate_task", "simulator.evaluate", True, None),
    ("repro.search.service", "within_budget", "search.frontier", True, None),
    ("repro.search.service", "pareto_frontier", "search.frontier", True, None),
    ("repro.search.service", "rank_frontier", "search.frontier", True, None),
    ("repro.search.service", "_ranked_entries", "search.frontier", True, None),
]


@dataclass
class SpanStats:
    """Totals of one span name within one phase."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    value: float = 0.0


class Tracer:
    """Records spans into preallocated columns; wraps callables to record them.

    The columns (one slot per span) are allocated once, so recording a span
    allocates nothing the cyclic garbage collector tracks.
    """

    def __init__(self, workload: str, enabled: bool = True, capacity: int = 1 << 20) -> None:
        """``enabled=False`` is the untraced run's tracer: it records nothing."""
        self.workload = workload
        capacity = capacity if enabled else 0
        self.capacity = capacity
        self.names: list = [None] * capacity
        self.phases: list = [None] * capacity
        self.starts = array("q", bytes(8 * capacity))
        self.ends = array("q", bytes(8 * capacity))
        self.parents = array("i", bytes(4 * capacity))
        self.ops = array("i", bytes(4 * capacity))
        self.values = array("d", bytes(8 * capacity))
        self.count = 0
        self.dropped = 0
        self.enabled = enabled
        self.phase = "setup"
        self.op_index = -1
        self._stack: list[int] = []
        self._open_names: set[str] = set()
        self._muted = False
        self._originals: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------------

    def begin(self, name: str, leaf: bool) -> int:
        """Open a span; returns its slot, or -1 when the columns are full."""
        index = self.count
        if index >= self.capacity:
            self.dropped += 1
            index = -1
        else:
            self.count = index + 1
            self.names[index] = name
            self.phases[index] = self.phase
            self.parents[index] = self._stack[-1] if self._stack else -1
            self.ops[index] = self.op_index
        if leaf:
            self._muted = True
        else:
            self._stack.append(index)
            self._open_names.add(name)
        if index >= 0:
            self.starts[index] = time.perf_counter_ns()
        return index

    def end(self, index: int, name: str, leaf: bool, value: float = 0.0) -> None:
        now = time.perf_counter_ns()
        if leaf:
            self._muted = False
        else:
            self._stack.pop()
            self._open_names.discard(name)
        if index >= 0:
            self.ends[index] = now
            self.values[index] = value

    def wrap(self, function, name: str, leaf: bool = False, value=None):
        """A call-through wrapper of ``function`` that records one span per call."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer._muted or not tracer.enabled or name in tracer._open_names:
                return function(*args, **kwargs)
            index = tracer.begin(name, leaf)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(index, name, leaf, value(args) if value is not None else 0.0)

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def span(self, name: str, leaf: bool = False):
        """Record one span around a block of harness code."""
        if self._muted or not self.enabled or name in self._open_names:
            yield
            return
        index = self.begin(name, leaf)
        try:
            yield
        finally:
            self.end(index, name, leaf)

    # -- patching ---------------------------------------------------------------------

    def install(self, patches: list[tuple]) -> None:
        for module_name, dotted, name, leaf, value in patches:
            owner = importlib.import_module(module_name)
            *path, attribute = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, leaf, value))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- reading ----------------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, SpanStats]]:
        """Per-phase, per-name totals and self times of the closed spans."""
        child_ns = [0] * self.count
        for index in range(self.count):
            parent = self.parents[index]
            if parent >= 0 and self.ends[index]:
                child_ns[parent] += self.ends[index] - self.starts[index]
        stats: dict[str, dict[str, SpanStats]] = defaultdict(lambda: defaultdict(SpanStats))
        for index in range(self.count):
            if not self.ends[index]:
                continue
            entry = stats[self.phases[index]][self.names[index]]
            duration = self.ends[index] - self.starts[index]
            entry.calls += 1
            entry.total_ns += duration
            entry.self_ns += duration - child_ns[index]
            entry.value += self.values[index]
        return stats

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace JSON (open in chrome://tracing or Perfetto)."""
        events = [
            {
                "name": self.names[index],
                "cat": self.phases[index],
                "ph": "X",
                "ts": self.starts[index] / 1e3,
                "dur": (self.ends[index] - self.starts[index]) / 1e3,
                "pid": 0,
                "tid": 0,
                "args": {
                    "workload": self.workload,
                    "op": self.ops[index],
                    "parent": self.parents[index],
                },
            }
            for index in range(self.count)
            if self.ends[index]
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
