"""Command-line interface for the Optimus-CC reproduction.

Subcommands
-----------
``simulate``
    Simulate one training iteration of a paper-scale model under a named
    plan preset and print iteration time, projected days, and speedup.
``train``
    Run a short functional training probe through the unified 3D-parallel engine
    (pipeline x data x tensor) and print the loss plus measured per-axis traffic.
    The probe is configured by a declarative :class:`repro.plan.ParallelPlan` —
    from ``--plan file.json`` or ``--preset name`` — with the ``--dp-*`` flags
    layered on top as overrides.
``plan``
    Inspect declarative parallel plans: ``show`` a preset or file, ``validate``
    plan files, ``diff`` two plans knob by knob.
``breakdown``
    Print the CPI-stack execution-time breakdown for a model/preset pair.
``autotune``
    Search the selective-stage-compression operating point for a model within an
    aggressiveness budget (Section 9.4's future-work knob).
``reproduce``
    Run one of the paper's tables/figures (fast functional settings) and print it.
``search``
    Capacity planning: expand a search query into thousands of candidate plans,
    evaluate them through the simulator (pooled workers + on-disk cache), and
    print the ranked Pareto frontier (throughput vs. wire bytes vs. peak memory).
``docs``
    Documentation helpers: ``docs cli`` renders the generated CLI reference
    (``docs/CLI.md``) from the live argparse tree.
``list``
    List the available models, plan presets, and artefacts.

Example
-------
``python -m repro simulate --model GPT-8.3B --config cb_fe_sc --iterations 230000``
``python -m repro train --preset cb_fe_sc``
``python -m repro plan diff cb_fe examples/plans/cb_fe_sc.json``
``python -m repro search --model GPT-8.3B --gpus 128 --max-memory-gb 40``
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Callable, Sequence

from repro.core.autotune import SelectiveCompressionAutoTuner
from repro.plan import (
    DP_CODECS,
    DP_FIRE_KINDS,
    EXECUTOR_KINDS,
    PLAN_PRESETS,
    SCHEDULE_KINDS,
    Boundary,
    CompressionSpec,
    ParallelPlan,
    ResilienceSpec,
)
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
from repro.simulator.breakdown import compute_breakdown
from repro.simulator.cost_model import TrainingJob
from repro.simulator.executor import PipelineTimingSimulator
from repro.utils.cores import blas_threads, usable_cores
from repro.utils.tables import Table, format_float

#: Models addressable from the command line.
MODEL_CATALOGUE: dict[str, PaperModelSpec] = {
    spec.name: spec
    for spec in (GPT_2_5B, GPT_8_3B, GPT_9_2B, GPT_18B, GPT_39B, GPT_76B, GPT_175B)
}

#: The compression stacks ``simulate`` / ``breakdown`` tabulate, in the paper's
#: order: names into :data:`repro.plan.PLAN_PRESETS`.
CONFIG_CATALOGUE: tuple[str, ...] = (
    "baseline",
    "cb",
    "cb_fe",
    "cb_fe_sc",
    "naive_dp",
    "naive_cb",
    "optimus_topk",
)


def _resolve_model(name: str) -> PaperModelSpec:
    if name not in MODEL_CATALOGUE:
        raise SystemExit(
            f"unknown model {name!r}; available: {', '.join(sorted(MODEL_CATALOGUE))}"
        )
    return MODEL_CATALOGUE[name]


def _resolve_config(name: str) -> ParallelPlan:
    if name not in CONFIG_CATALOGUE:
        raise SystemExit(
            f"unknown configuration {name!r}; available: {', '.join(sorted(CONFIG_CATALOGUE))}"
        )
    return ParallelPlan.preset(name)


def _load_plan_file(path: str) -> ParallelPlan:
    """Load and validate one plan JSON file, mapping failures to SystemExit."""
    try:
        return ParallelPlan.load(path)
    except OSError as error:
        raise SystemExit(f"cannot read plan file {path!r}: {error}") from error
    except (ValueError, TypeError, json.JSONDecodeError) as error:
        raise SystemExit(f"invalid plan file {path!r}: {error}") from error


def _resolve_plan(token: str) -> ParallelPlan:
    """Resolve a preset name or a JSON file path into a validated plan."""
    if token in PLAN_PRESETS:
        return ParallelPlan.preset(token)
    if pathlib.Path(token).exists():
        return _load_plan_file(token)
    raise SystemExit(
        f"{token!r} is neither a plan preset ({', '.join(sorted(PLAN_PRESETS))}) "
        "nor an existing plan file"
    )


def _artefact_catalogue() -> dict[str, Callable[[], object]]:
    """Lazy artefact table so that ``list`` stays fast."""
    from repro.experiments.discussion_accelerators import run_accelerator_comparison
    from repro.experiments.fidelity_ledger import write_ledger
    from repro.experiments.fig03_motivation import run_fig03
    from repro.experiments.schedule_compare import run_schedule_comparison
    from repro.experiments.fig09_ppl_curves import run_fig09
    from repro.experiments.fig10_breakdown import run_fig10
    from repro.experiments.fig11_error_independence import run_fig11
    from repro.experiments.fig12_memory import run_fig12
    from repro.experiments.fig13_selective_vs_rank import run_fig13
    from repro.experiments.fig14_config_sensitivity import run_fig14
    from repro.experiments.fig15_throughput import run_fig15
    from repro.experiments.fig16_scalability import run_fig16
    from repro.experiments.table2_pretraining import run_table2
    from repro.experiments.table3_zeroshot import run_table3
    from repro.experiments.table4_lazy_error import run_table4

    return {
        "fig3": run_fig03,
        "table2": run_table2,
        "fig9": run_fig09,
        "table3": run_table3,
        "table4": run_table4,
        "fig10": run_fig10,
        "fig11": run_fig11,
        "fig12": run_fig12,
        "fig13": run_fig13,
        "fig14": run_fig14,
        "fig15": run_fig15,
        "fig16": run_fig16,
        "accelerators": run_accelerator_comparison,
        "schedules": run_schedule_comparison,
        "ledger": write_ledger,
    }


# ----------------------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------------------


def command_simulate(arguments: argparse.Namespace) -> int:
    model = _resolve_model(arguments.model)
    job = TrainingJob(model=model)
    table = Table(
        title=f"{model.name}: simulated training on the paper's 128-GPU cluster",
        columns=["Configuration", "Iteration (s)", f"Days/{arguments.iterations // 1000}K", "Speedup"],
    )
    baseline = PipelineTimingSimulator(job).run()
    names = [arguments.config] if arguments.config != "all" else list(CONFIG_CATALOGUE)
    for name in names:
        timing = PipelineTimingSimulator(job, _resolve_config(name)).run()
        table.add_row(
            [
                name,
                format_float(timing.iteration_time, 2),
                format_float(timing.days_for(arguments.iterations), 1),
                f"{timing.speedup_over(baseline):+.2%}",
            ]
        )
    print(table.render())
    return 0


def build_train_plan(arguments: argparse.Namespace) -> ParallelPlan:
    """Resolve the ``train`` arguments into one declarative plan.

    Resolution order: ``--plan file.json`` (taken verbatim) or ``--preset name``
    (default ``cb_fe_sc``; proxy-scaled: the paper ranks are lossless on the
    tiny probe, so they are capped at 2).  Topology flags and the ``--dp-*``
    flags are then layered onto the plan as overrides, so every flag works with
    any base plan.
    """
    if arguments.plan is not None and arguments.preset is not None:
        raise SystemExit("--plan and --preset are mutually exclusive")
    if arguments.plan is not None:
        plan = _load_plan_file(arguments.plan)
    else:
        preset = arguments.preset or "cb_fe_sc"
        if preset not in PLAN_PRESETS:
            raise SystemExit(
                f"unknown plan preset {preset!r}; "
                f"available: {', '.join(sorted(PLAN_PRESETS))}"
            )
        plan = ParallelPlan.preset(preset).proxy_scaled()

    topology_overrides = {
        key: value
        for key, value in (
            ("pp", arguments.stages),
            ("dp", arguments.data_parallel),
            ("tp", arguments.tensor_parallel),
        )
        if value is not None
    }
    if topology_overrides:
        try:
            plan = plan.with_topology(**topology_overrides)
        except ValueError as error:
            raise SystemExit(str(error)) from error

    dp_overrides: dict = {}
    if arguments.dp_codec is not None:
        dp_overrides["codec"] = arguments.dp_codec
        if (
            arguments.dp_rank is None
            and arguments.dp_codec == "powersgd"
            and arguments.plan is None
        ):
            # Proxy-scale convention: rescale the paper rank so compression is
            # lossy.  A --plan file is taken verbatim — its rank stands unless
            # --dp-rank overrides it explicitly.
            dp_overrides["rank"] = min(plan.spec(Boundary.DP).rank, 2)
    if arguments.dp_rank is not None:
        dp_overrides["rank"] = arguments.dp_rank
    if arguments.dp_qsgd_bits is not None:
        dp_overrides["bits"] = arguments.dp_qsgd_bits
    if arguments.dp_topk_fraction is not None:
        dp_overrides["fraction"] = arguments.dp_topk_fraction
    if arguments.dp_stage_fraction is not None:
        dp_overrides["stage_fraction"] = arguments.dp_stage_fraction
    if arguments.dp_min_elements is not None:
        dp_overrides["min_elements"] = arguments.dp_min_elements
    if arguments.dp_bucket_kb is not None:
        dp_overrides["bucket_bytes"] = arguments.dp_bucket_kb * 1024
    if dp_overrides:
        try:
            plan = plan.with_boundary(Boundary.DP, **dp_overrides)
        except ValueError as error:
            raise SystemExit(str(error)) from error
    if arguments.serial_dp and arguments.overlap_dp:
        raise SystemExit("--serial-dp and --overlap-dp are mutually exclusive")
    if arguments.schedule is not None and (arguments.serial_dp or arguments.overlap_dp):
        raise SystemExit("--schedule cannot be combined with --serial-dp/--overlap-dp")
    if arguments.schedule is not None:
        plan = plan.with_schedule(kind=arguments.schedule)
    elif arguments.serial_dp:
        plan = plan.with_schedule(kind="serial")
    elif arguments.overlap_dp:
        plan = plan.with_schedule(kind="1f1b")
    if arguments.dp_fire is not None:
        if arguments.serial_dp or arguments.schedule == "serial":
            raise SystemExit("--dp-fire only applies to the overlapped DP schedules")
        plan = plan.with_schedule(dp_fire=arguments.dp_fire)
    if getattr(arguments, "memory_cap", None) is not None:
        if plan.schedule.kind != "auto":
            raise SystemExit(
                "--memory-cap only applies to the synthesized schedule; pass "
                f"--schedule auto (resolved schedule is {plan.schedule.kind!r})"
            )
        try:
            plan = plan.with_schedule(memory_cap_factor=arguments.memory_cap)
        except ValueError as error:
            raise SystemExit(str(error)) from error

    # The executor lands before the resilience fold so hang faults (which
    # require the process executor) validate against the resolved backend.
    if getattr(arguments, "executor", None) is not None:
        try:
            plan = plan.with_executor(arguments.executor)
        except ValueError as error:
            raise SystemExit(str(error)) from error

    # Resilience flags fold into the plan's (possibly absent) resilience
    # section; --guard alone arms the guardrails with an empty fault schedule.
    resilience_changes: dict = {}
    if getattr(arguments, "inject_fault", None):
        resilience_changes["faults"] = tuple(arguments.inject_fault)
    if getattr(arguments, "max_grad_norm", None) is not None:
        resilience_changes["max_grad_norm"] = arguments.max_grad_norm
    if getattr(arguments, "max_collective_retries", None) is not None:
        resilience_changes["max_collective_retries"] = arguments.max_collective_retries
    if getattr(arguments, "fault_seed", None) is not None:
        resilience_changes["seed"] = arguments.fault_seed
    if getattr(arguments, "worker_timeout", None) is not None:
        resilience_changes["worker_timeout"] = arguments.worker_timeout
    if getattr(arguments, "max_respawns", None) is not None:
        resilience_changes["max_respawns_per_worker"] = arguments.max_respawns
    if getattr(arguments, "on_exhausted", None) is not None:
        resilience_changes["on_exhausted"] = arguments.on_exhausted
    if resilience_changes or getattr(arguments, "guard", False):
        base = plan.resilience if plan.resilience is not None else ResilienceSpec()
        try:
            plan = plan.with_resilience(base.with_(**resilience_changes))
        except ValueError as error:
            raise SystemExit(str(error)) from error
    return plan


def command_train(arguments: argparse.Namespace) -> int:
    """Train the functional probe through ``Pretrainer`` and report what it moved."""
    from repro.experiments.engine_traffic import (
        probe_trainer,
        render_traffic_samples,
        traffic_sample,
    )
    from repro.resilience import ResilienceExhausted, WorkerCrash
    from repro.training.checkpoint import latest_checkpoint, load_checkpoint

    if arguments.iterations <= 0:
        raise SystemExit("--iterations must be positive")
    plan = build_train_plan(arguments)
    if arguments.checkpoint_every is not None:
        if arguments.checkpoint_every <= 0:
            raise SystemExit("--checkpoint-every must be positive")
        if arguments.checkpoint_dir is None:
            raise SystemExit("--checkpoint-every requires --checkpoint-dir")
    if arguments.keep_last <= 0:
        raise SystemExit("--keep-last must be positive")
    topology = plan.topology
    try:
        trainer = probe_trainer(plan)
    except ValueError as error:
        raise SystemExit(str(error)) from error
    # Joins/cleans the process executor's workers on every exit path below;
    # a no-op for serial plans.
    with trainer:
        start_iteration = 0
        if arguments.resume is not None:
            if arguments.resume == "latest":
                if arguments.checkpoint_dir is None:
                    raise SystemExit("--resume without a path requires --checkpoint-dir")
                checkpoint = latest_checkpoint(arguments.checkpoint_dir)
                if checkpoint is None:
                    raise SystemExit(
                        f"no ckpt-*.npz checkpoints under {arguments.checkpoint_dir}"
                    )
            else:
                checkpoint = pathlib.Path(arguments.resume)
            try:
                start_iteration = load_checkpoint(trainer, checkpoint)
            except (OSError, KeyError, ValueError) as error:
                raise SystemExit(f"cannot resume from {checkpoint}: {error}") from error
            print(f"Resumed from {checkpoint} at iteration {start_iteration}.")
        remaining = arguments.iterations - start_iteration
        if remaining <= 0:
            print(
                f"Checkpoint is already at iteration {start_iteration} of "
                f"{arguments.iterations}; nothing left to train."
            )
            return 0

        try:
            trainer.train(
                remaining,
                checkpoint_every=arguments.checkpoint_every,
                checkpoint_dir=arguments.checkpoint_dir,
                keep_last=arguments.keep_last,
            )
        except WorkerCrash as crash:
            print(
                f"worker crash injected at iteration {crash.iteration}; "
                "restart with --resume to continue from the last checkpoint"
            )
            return 1
        except ResilienceExhausted as error:
            print(f"resilience budget exhausted: {error}")
            return 1
        sample = traffic_sample(plan.describe(), trainer, remaining)
        print(
            f"Trained {remaining} iterations through the unified 3D engine "
            f"(PP{topology.pp} x DP{topology.dp} x TP{topology.tp}); "
            f"final training loss {sample.final_loss:.4f}."
        )
        print(render_traffic_samples([sample], "Measured per-axis wire traffic"))
        boundary = ", ".join(
            f"{b}<->{b + 1}: {wire / 1024:.1f} KB"
            for b, wire in sorted(sample.pipeline_boundary_wire_bytes.items())
        )
        if boundary:
            print(f"Backward pipeline-boundary traffic: {boundary}")
        if sample.data_parallel_wire_bytes > 0:
            mode = (
                "bucketed, cool-down overlapped"
                if plan.schedule.dp_overlap
                else "after the pipeline drains"
            )
            print(
                f"DP all-reduce ({mode}): {sample.dp_overlapped_fraction:.0%} of "
                f"{sample.data_parallel_wire_bytes / 1024:.1f} KB issued inside the "
                f"pipeline cool-down (exposed: {sample.dp_exposed_wire_bytes / 1024:.1f} KB)"
            )
        print(f"Error-feedback residual memory: {sample.residual_memory_bytes} bytes")
        if plan.resilience is not None:
            print(f"Resilience: {trainer.resilience_report.describe()}")
        _print_memory_policy()
        survivors = len(trainer.engine.arenas)
        _print_walk_threads(plan, survivors)
        if survivors != topology.dp:
            print(
                f"Degraded topology: {survivors} of {topology.dp} DP replicas "
                "survived; gradient averaging was rescaled accordingly."
            )
        return 0


def _print_memory_policy() -> None:
    """The allocator policy the engine pinned when it was built (a cached read)."""
    from repro.parallel.arena import pin_allocator_policy

    print(f"Memory: {pin_allocator_policy()}")


def _print_walk_threads(plan: ParallelPlan, replicas: int) -> None:
    """How many threads each replica's pipeline walk runs on, and from what budget."""
    from repro.parallel.engine import replica_runs_at_once
    from repro.parallel.pipeline_engine import walk_threads

    runs = replica_runs_at_once(plan.executor, replicas)
    print(
        f"Threads: {walk_threads(plan.topology.pp, runs)} per replica run "
        f"(usable cores {usable_cores()}, replica runs at once {runs}, "
        f"BLAS threads per call {blas_threads()})"
    )


def command_plan_show(arguments: argparse.Namespace) -> int:
    plan = _resolve_plan(arguments.plan)
    print(plan.describe())
    print(plan.to_json(), end="")
    return 0


def command_plan_validate(arguments: argparse.Namespace) -> int:
    """Validate plan files: each must load *and* round-trip through its JSON form.

    The round-trip check (``load -> to_json -> from_json`` must reproduce the
    plan exactly) is what CI runs over every file under ``examples/plans/``, so
    a new plan file cannot silently drift from the schema.
    """
    failures = 0
    for token in arguments.plans:
        try:
            plan = ParallelPlan.load(token)
            reloaded = ParallelPlan.from_json(plan.to_json())
            if reloaded != plan:
                raise ValueError(
                    "plan does not round-trip through to_json/from_json"
                )
        except (OSError, ValueError, TypeError, json.JSONDecodeError) as error:
            failures += 1
            print(f"FAIL {token}: {error}")
        else:
            print(f"OK   {token}: {plan.describe()}")
    if failures:
        raise SystemExit(f"{failures} invalid plan file(s)")
    return 0


def command_plan_diff(arguments: argparse.Namespace) -> int:
    plan_a = _resolve_plan(arguments.a)
    plan_b = _resolve_plan(arguments.b)
    delta = plan_a.diff(plan_b)
    if not delta:
        print("plans are identical")
        return 0
    table = Table(
        title=f"plan diff: {arguments.a} vs {arguments.b}",
        columns=["Field", arguments.a, arguments.b],
    )
    for dotted, (mine, theirs) in delta.items():
        table.add_row([dotted, repr(mine), repr(theirs)])
    print(table.render())
    return 0


def command_breakdown(arguments: argparse.Namespace) -> int:
    model = _resolve_model(arguments.model)
    plan = _resolve_config(arguments.config)
    breakdown = compute_breakdown(TrainingJob(model=model), plan)
    table = Table(
        title=f"{model.name} / {plan.stack_label()}: execution-time breakdown",
        columns=["Component", "Seconds", "Share"],
    )
    for component, seconds in breakdown.as_dict().items():
        share = seconds / breakdown.total if breakdown.total else 0.0
        table.add_row([component, format_float(seconds, 3), f"{share:.1%}"])
    table.add_row(["Total", format_float(breakdown.total, 3), "100.0%"])
    print(table.render())
    return 0


def command_autotune(arguments: argparse.Namespace) -> int:
    model = _resolve_model(arguments.model)
    tuner = SelectiveCompressionAutoTuner(TrainingJob(model=model))
    result = tuner.tune(budget=arguments.budget)
    print(result.render())
    best = result.best
    print(
        f"Best operating point: compress {best.stage_fraction:.0%} of stages at rank "
        f"{best.dp_rank} for a {best.speedup:+.2%} speedup."
    )
    return 0


def command_reproduce(arguments: argparse.Namespace) -> int:
    catalogue = _artefact_catalogue()
    if arguments.artefact not in catalogue:
        raise SystemExit(
            f"unknown artefact {arguments.artefact!r}; available: {', '.join(sorted(catalogue))}"
        )
    result = catalogue[arguments.artefact]()
    print(result.render())
    return 0


def command_list(arguments: argparse.Namespace) -> int:
    del arguments
    print("Models:")
    for name, spec in MODEL_CATALOGUE.items():
        print(f"  {name:<10s} {spec.num_layers} layers, hidden {spec.hidden_size}, "
              f"{spec.parameters_billion():.1f}B parameters")
    print("Plan presets (train --preset / plan show):")
    for name in sorted(PLAN_PRESETS):
        print(f"  {name:<12s} {ParallelPlan.preset(name).describe()}")
    print("Artefacts (reproduce):")
    for name in _artefact_catalogue():
        print(f"  {name}")
    return 0


def _default_search_cache_dir() -> str:
    """The default plan-search cache directory (honours ``XDG_CACHE_HOME``)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "plan_search")


def _default_search_workers() -> int:
    """Default worker-process count for ``repro search`` (leaves cores for the OS)."""
    return max(1, min(8, usable_cores() - 2))


def _search_queries(arguments: argparse.Namespace):
    """Resolve the ``search`` arguments into the list of queries to answer."""
    from repro.search import SearchQuery

    if arguments.queries is not None and arguments.query is not None:
        raise SystemExit("--query and --queries are mutually exclusive")
    try:
        if arguments.queries is not None:
            with open(arguments.queries, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if isinstance(payload, dict) and "queries" in payload:
                payload = payload["queries"]
            if not isinstance(payload, list):
                raise ValueError(
                    "batch file must be a JSON array of query objects "
                    '(or {"queries": [...]})'
                )
            return [SearchQuery.from_dict(entry) for entry in payload]
        if arguments.query is not None:
            with open(arguments.query, "r", encoding="utf-8") as handle:
                return [SearchQuery.from_dict(json.load(handle))]
    except OSError as error:
        raise SystemExit(f"cannot read query file: {error}") from error
    except (ValueError, TypeError, json.JSONDecodeError) as error:
        raise SystemExit(f"invalid query file: {error}") from error
    try:
        return [
            SearchQuery(
                model=arguments.model,
                gpus=arguments.gpus,
                hardware=tuple(arguments.hardware or ("infiniband",)),
                micro_batch_size=arguments.micro_batch_size,
                max_memory_gb=arguments.max_memory_gb,
                max_compression_loss=arguments.max_compression_loss,
                weight_throughput=arguments.weight_throughput,
                weight_wire=arguments.weight_wire,
                weight_memory=arguments.weight_memory,
                max_candidates=arguments.max_candidates,
            )
        ]
    except ValueError as error:
        raise SystemExit(str(error)) from error


def command_search(arguments: argparse.Namespace) -> int:
    """Answer one or many capacity-planning queries and print ranked frontiers.

    The deterministic result (table or ``--json`` document) goes to stdout;
    the run-dependent stats line (candidates, evaluations, cache hits, wall
    clock) goes to stderr so JSON output stays byte-identical across runs.
    """
    from repro.search import SearchCache, run_queries

    queries = _search_queries(arguments)
    workers = (
        arguments.workers if arguments.workers is not None else _default_search_workers()
    )
    cache_dir = arguments.cache_dir or _default_search_cache_dir()
    cache = None if arguments.no_cache else SearchCache(cache_dir)
    outcomes = run_queries(queries, workers=workers, cache=cache)
    for position, outcome in enumerate(outcomes):
        if arguments.json:
            if position:
                print()
            print(outcome.to_json(top=arguments.top), end="")
        else:
            if position:
                print()
            print(outcome.render_table(top=arguments.top))
        print(
            f"[search] {outcome.candidates} candidates "
            f"({outcome.over_budget} over budget): {outcome.evaluated} evaluated, "
            f"{outcome.cache_hits} cached, {outcome.errors} errors in "
            f"{outcome.elapsed_s:.2f}s "
            f"(workers={workers}, cache={'off' if cache is None else 'on'})",
            file=sys.stderr,
        )
    return 0


def _walk_parsers(prog: str, parser: argparse.ArgumentParser, summary: str = ""):
    """Yield ``(prog, parser, depth, summary)`` for the parser and every subparser.

    ``summary`` is the one-line help the parent registered for the subcommand
    (``add_parser(..., help=...)``), falling back to the parser's own
    description for the root.
    """
    yield prog, parser, prog.count(" "), summary or (parser.description or "")
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {
                pseudo.dest: pseudo.help or "" for pseudo in action._choices_actions
            }
            for name, sub in action.choices.items():
                yield from _walk_parsers(f"{prog} {name}", sub, helps.get(name, ""))


def _argument_rows(parser: argparse.ArgumentParser) -> list[tuple[str, str, str]]:
    """The ``(argument, default, help)`` doc rows of one parser's arguments."""

    def clean(text: object) -> str:
        return " ".join(str(text).split()).replace("|", "\\|")

    rows: list[tuple[str, str, str]] = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        if action.option_strings:
            name = ", ".join(f"`{option}`" for option in action.option_strings)
            takes_value = action.nargs != 0 and not isinstance(
                action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
            )
            if takes_value and action.choices is not None:
                name += " `{" + ",".join(str(choice) for choice in action.choices) + "}`"
            elif takes_value:
                name += f" `{(action.metavar or action.dest).upper()}`"
        else:
            name = f"`{action.metavar or action.dest}`"
            if action.choices is not None:
                name += " `{" + ",".join(str(choice) for choice in action.choices) + "}`"
        default = ""
        if action.default is not None and action.default != argparse.SUPPRESS:
            default = f"`{action.default}`"
        rows.append((name, default, clean(action.help or "")))
    return rows


def render_cli_reference() -> str:
    """Render ``docs/CLI.md`` from the live argparse tree (deterministic).

    Walks :func:`build_parser` depth-first and emits one section per
    (sub)command with its description and an argument table.  The output is a
    pure function of the parser definition — no terminal-width dependent
    formatting — so CI can regenerate it and fail on drift.
    """
    lines = [
        "# `repro` CLI reference",
        "",
        "> Generated by `python -m repro docs cli --output docs/CLI.md`.",
        "> Do not edit by hand: CI regenerates this file from the argparse tree",
        "> and fails on drift.",
        "",
    ]
    for prog, parser, depth, summary in _walk_parsers("repro", build_parser()):
        lines.append(f"{'#' * (depth + 2)} `{prog}`")
        lines.append("")
        if summary:
            summary = " ".join(summary.split())
            lines.append(summary[0].upper() + summary[1:].rstrip(".") + ".")
            lines.append("")
        rows = _argument_rows(parser)
        if rows:
            lines.append("| Argument | Default | Description |")
            lines.append("| --- | --- | --- |")
            lines.extend(f"| {name} | {default} | {help_}" " |" for name, default, help_ in rows)
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def command_docs_cli(arguments: argparse.Namespace) -> int:
    """Print, write, or drift-check the generated CLI reference."""
    rendered = render_cli_reference()
    if arguments.check:
        target = pathlib.Path(arguments.output or "docs/CLI.md")
        try:
            current = target.read_text(encoding="utf-8")
        except OSError as error:
            raise SystemExit(f"cannot read {target}: {error}") from error
        if current != rendered:
            raise SystemExit(
                f"{target} is stale; regenerate with "
                f"'python -m repro docs cli --output {target}'"
            )
        print(f"{target} is up to date.")
        return 0
    if arguments.output is not None:
        pathlib.Path(arguments.output).write_text(rendered, encoding="utf-8")
        print(f"wrote {arguments.output}")
        return 0
    print(rendered, end="")
    return 0


# ----------------------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Optimus-CC reproduction command-line interface"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="simulate iteration time and speedup")
    simulate.add_argument("--model", default="GPT-8.3B")
    simulate.add_argument("--config", default="all", help="plan preset name or 'all'")
    simulate.add_argument("--iterations", type=int, default=230_000)
    simulate.set_defaults(handler=command_simulate)

    train = subparsers.add_parser(
        "train", help="run a functional training probe through the unified 3D engine"
    )
    train.add_argument("--plan", default=None, metavar="FILE",
                       help="declarative ParallelPlan JSON file (taken verbatim; "
                            "--dp-* flags still override)")
    train.add_argument("--preset", default=None,
                       help=f"named plan preset ({', '.join(sorted(PLAN_PRESETS))}; "
                            "default: cb_fe_sc); PowerSGD ranks are proxy-scaled for "
                            "the tiny probe model")
    train.add_argument("--stages", type=int, default=None,
                       help="pipeline depth (default: the plan's topology.pp)")
    train.add_argument("--data-parallel", type=int, default=None,
                       help="DP replicas (default: the plan's topology.dp)")
    train.add_argument("--tensor-parallel", type=int, default=None,
                       help="TP shards (default: the plan's topology.tp)")
    train.add_argument("--iterations", type=int, default=4)
    train.add_argument(
        "--dp-codec",
        choices=DP_CODECS,
        default=None,
        help="override the DP all-reduce codec (default: the plan's)",
    )
    train.add_argument("--dp-rank", type=int, default=None,
                       help="PowerSGD rank for --dp-codec powersgd (proxy-scaled default: 2)")
    train.add_argument("--dp-qsgd-bits", type=int, default=None,
                       help="quantisation bits for --dp-codec qsgd (default: 4)")
    train.add_argument("--dp-topk-fraction", type=float, default=None,
                       help="kept fraction for --dp-codec topk (default: 0.01)")
    train.add_argument("--dp-stage-fraction", type=float, default=None,
                       help="fraction of stages (earliest first) the codec applies to "
                            "(default: the plan's)")
    train.add_argument("--dp-min-elements", type=int, default=None,
                       help="parameters smaller than this stay uncompressed (default: 1024)")
    # The default is the dataclass's, by construction: an omitted flag keeps the
    # plan's bucket_bytes, which CompressionSpec seeds.
    train.add_argument("--dp-bucket-kb", type=int, default=None,
                       help="target gradient-bucket size (KiB of wire payload; "
                            f"default: {CompressionSpec.bucket_bytes // 1024} "
                            "via the plan's DP boundary spec)")
    train.add_argument("--dp-fire", choices=DP_FIRE_KINDS, default=None,
                       help="bucket firing granularity on the overlapped DP path: "
                            "'stage' (fire at the stage's backward drain) or "
                            "'micro_batch' (fire inside the final micro-batch's "
                            "backward; only the last bucket stays exposed)")
    train.add_argument("--schedule", choices=SCHEDULE_KINDS, default=None,
                       help="override the plan's pipeline schedule: '1f1b' "
                            "(overlapped DP), 'serial' (DP all-reduce after the "
                            "pipeline drains, nothing overlapped), 'zb1' "
                            "(zero-bubble split-backward; "
                            "bit-identical weights to 1f1b), or 'auto' "
                            "(synthesized split-backward under --memory-cap)")
    train.add_argument("--memory-cap", type=float, default=None, metavar="FACTOR",
                       help="activation-memory cap for --schedule auto, as a "
                            "multiple of ZB-H1's per-stage footprint (>= 1.0; "
                            "1.0 degenerates to zb1, ~2.0 approaches zero bubble)")
    train.add_argument("--executor", choices=EXECUTOR_KINDS, default=None,
                       help="execution backend: 'serial' (one process, the "
                            "bit-exact oracle) or 'process' (one forked worker "
                            "per DP replica over shared-memory arenas; "
                            "bit-identical weights, real multi-core concurrency)")
    train.add_argument("--serial-dp", action="store_true",
                       help="DP all-reduce after the pipeline drains, nothing "
                            "overlapped (instead of hiding it in the cool-down)")
    train.add_argument("--overlap-dp", action="store_true",
                       help="force the overlapped (1f1b) DP schedule, e.g. over a "
                            "plan file whose schedule is serial")
    train.add_argument("--inject-fault", action="append", default=None, metavar="SPEC",
                       help="deterministic fault to inject, as "
                            "'kind@iteration[:key=value,...]' with kind one of "
                            "nan/inf/collective/crash/replica_loss/hang "
                            "(e.g. 'nan@3:replica=1,stage=0', 'collective@2:count=2'; "
                            "hang requires --executor process); "
                            "repeatable; implies the guarded training loop")
    train.add_argument("--guard", action="store_true",
                       help="run the guarded training loop (non-finite gradient "
                            "detection + rollback skip-step) even with no faults "
                            "scheduled")
    train.add_argument("--max-grad-norm", type=float, default=None,
                       help="additionally skip+rollback steps whose global "
                            "gradient norm exceeds this cap (guarded loop only)")
    train.add_argument("--max-collective-retries", type=int, default=None,
                       help="retry budget per iteration for transient collective "
                            "faults before ResilienceExhausted (default: 3)")
    train.add_argument("--fault-seed", type=int, default=None,
                       help="seed for the fault injector's deterministic element "
                            "choices (default: 0)")
    train.add_argument("--worker-timeout", type=float, default=None, metavar="SECONDS",
                       help="hang-watchdog deadline per worker reply under "
                            "--executor process (default: 60s); a worker that "
                            "stays silent longer is treated as hung and respawned")
    train.add_argument("--max-respawns", type=int, default=None, metavar="N",
                       help="respawn budget per worker before the supervisor "
                            "escalates per --on-exhausted (default: 2)")
    train.add_argument("--on-exhausted", choices=("degrade", "checkpoint_abort"),
                       default=None,
                       help="escalation when a worker's respawn budget is spent: "
                            "'degrade' shrinks the DP group and replays on the "
                            "survivors; 'checkpoint_abort' writes a final "
                            "checkpoint into --checkpoint-dir and aborts loudly")
    train.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                       help="write a rotating atomic checkpoint (format v8: stored, "
                            "weights and moments once per DP group) into "
                            "--checkpoint-dir after every N completed iterations; "
                            "the write is synchronous")
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for rotating checkpoints and --resume latest")
    train.add_argument("--keep-last", type=int, default=3,
                       help="rotating checkpoints retained in --checkpoint-dir "
                            "(default: 3)")
    train.add_argument("--resume", nargs="?", const="latest", default=None,
                       metavar="CKPT",
                       help="resume bit-exactly from a checkpoint file, or from "
                            "the newest one in --checkpoint-dir when given "
                            "without a path; --iterations is the total target, "
                            "so only the remaining iterations run")
    train.set_defaults(handler=command_train)

    plan = subparsers.add_parser(
        "plan", help="inspect, validate, and diff declarative parallel plans"
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    plan_show = plan_sub.add_parser("show", help="print a plan's label and JSON")
    plan_show.add_argument("plan", help="preset name or plan JSON file")
    plan_show.set_defaults(handler=command_plan_show)
    plan_validate = plan_sub.add_parser("validate", help="validate plan JSON files")
    plan_validate.add_argument("plans", nargs="+", help="plan JSON files")
    plan_validate.set_defaults(handler=command_plan_validate)
    plan_diff = plan_sub.add_parser("diff", help="diff two plans knob by knob")
    plan_diff.add_argument("a", help="preset name or plan JSON file")
    plan_diff.add_argument("b", help="preset name or plan JSON file")
    plan_diff.set_defaults(handler=command_plan_diff)

    breakdown = subparsers.add_parser("breakdown", help="CPI-stack execution-time breakdown")
    breakdown.add_argument("--model", default="GPT-2.5B")
    breakdown.add_argument("--config", default="baseline")
    breakdown.set_defaults(handler=command_breakdown)

    autotune = subparsers.add_parser("autotune", help="tune selective stage compression")
    autotune.add_argument("--model", default="GPT-8.3B")
    autotune.add_argument("--budget", type=float, default=0.8,
                          help="max fraction of DP gradient bytes that may be removed")
    autotune.set_defaults(handler=command_autotune)

    reproduce = subparsers.add_parser("reproduce", help="run one paper table/figure")
    reproduce.add_argument(
        "artefact",
        help="e.g. table2, fig10, fig16; 'ledger' also writes "
        "benchmarks/results/FIDELITY.{txt,json}",
    )
    reproduce.set_defaults(handler=command_reproduce)

    from repro.search.query import HARDWARE_TIERS

    search = subparsers.add_parser(
        "search",
        help="capacity planning: rank candidate parallel plans for a model/GPU budget",
    )
    search.add_argument("--model", default="GPT-8.3B",
                        help="catalogue model to place (see 'repro list')")
    search.add_argument("--gpus", type=int, default=128,
                        help="total GPU count to place the model on")
    search.add_argument("--hardware", action="append", choices=HARDWARE_TIERS,
                        default=None, metavar="TIER",
                        help="interconnect tier to sweep (repeatable; "
                             f"one of {', '.join(HARDWARE_TIERS)}; "
                             "default: infiniband)")
    search.add_argument("--micro-batch-size", type=int, default=8,
                        help="sequences per micro-batch (the global batch follows "
                             "from each candidate's topology)")
    search.add_argument("--max-memory-gb", type=float, default=None,
                        help="per-GPU peak-memory budget (candidates above it are "
                             "excluded; default: unconstrained)")
    search.add_argument("--max-compression-loss", type=float, default=None,
                        help="accuracy budget as a cap on the heuristic "
                             "compression-loss score in [0, 1)")
    search.add_argument("--weight-throughput", type=float, default=1.0,
                        help="objective weight of tokens/s (maximised)")
    search.add_argument("--weight-wire", type=float, default=0.25,
                        help="objective weight of total wire bytes (minimised)")
    search.add_argument("--weight-memory", type=float, default=0.1,
                        help="objective weight of peak memory (minimised)")
    search.add_argument("--max-candidates", type=int, default=None,
                        help="hard cap on the sweep size (truncates the "
                             "deterministic expansion order)")
    search.add_argument("--query", default=None, metavar="FILE",
                        help="read one SearchQuery from a JSON file instead of the "
                             "flags above (full sweep-axis control)")
    search.add_argument("--queries", default=None, metavar="FILE",
                        help="batch mode: answer every query in a JSON array (or "
                             '{"queries": [...]}) over one shared pool and cache')
    search.add_argument("--workers", type=int, default=None,
                        help="evaluation worker processes (0 = inline; default: "
                             "up to 8, leaving two cores free)")
    search.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk evaluation cache (content-keyed; warm reruns "
                             "skip the simulator entirely; default: "
                             "$XDG_CACHE_HOME/repro/plan_search)")
    search.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk cache for this run")
    search.add_argument("--top", type=int, default=10,
                        help="frontier entries to print (tables and --json alike)")
    search.add_argument("--json", action="store_true",
                        help="print the deterministic result document as JSON "
                             "instead of a table (stats go to stderr)")
    search.set_defaults(handler=command_search)

    docs = subparsers.add_parser("docs", help="documentation helpers")
    docs_sub = docs.add_subparsers(dest="docs_command", required=True)
    docs_cli = docs_sub.add_parser(
        "cli", help="render the generated CLI reference from the argparse tree"
    )
    docs_cli.add_argument("--output", default=None, metavar="FILE",
                          help="write the reference here instead of stdout "
                               "(CI uses docs/CLI.md)")
    docs_cli.add_argument("--check", action="store_true",
                          help="exit non-zero if --output (default docs/CLI.md) "
                               "differs from the rendered reference")
    docs_cli.set_defaults(handler=command_docs_cli)

    lister = subparsers.add_parser("list", help="list models, plan presets, artefacts")
    lister.set_defaults(handler=command_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
