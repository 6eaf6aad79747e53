"""Bit-exact checkpointing for functional pretraining runs (format v8).

A checkpoint captures *every* mutable buffer a resumed run needs to continue
bit-for-bit identically to the continuous run — the repo's core invariant.
It writes the inventory of :mod:`repro.resilience.recovery` (arenas,
optimisers, ``engine.live_mutable_state()``) straight from the live buffers:
nothing is copied first, and nothing is deflated (float64 training state is
incompressible — zlib saved 8 % of a v2 file and took 97 % of the write).

Layout — one ``np.load``-able ``.npz`` whose members are all ``ZIP_STORED``
``<name>.npy`` files with ``.npy`` 1.0 headers, the bytes ``np.savez`` writes:

===================  =========================================================
member               contents
===================  =========================================================
``__header__``       UTF-8 JSON (below) as a ``uint8`` array
``weights``          the flat weight arena, **once per DP group** (as in memory)
``exp_avg``          flat Adam first moment of the trainable prefix, once
``exp_avg_sq``       flat Adam second moment, once
``state/<n>``        array leaves of the engine state tree, **per replica**
                     where the state is: QSGD/top-k error-feedback residual
                     slabs are ``(replicas, elements)``, compressed-backprop
                     hook state (``cb_hooks``) is one subtree per replica;
                     PowerSGD's DP residuals (``(1, elements)``
                     slabs), its warm starts and the codecs' RNG call counts
                     are group-wide
===================  =========================================================

===================  =========================================================
header key           meaning
===================  =========================================================
``format_version``   ``8``; any other value is rejected loudly
``iteration``        completed iterations
``compression``      the ``compression`` section of the writer's plan
                     (``plan.to_dict()["compression"]``: every knob of the DP,
                     PP and embedding boundaries); must equal the reader's —
                     codec state is shaped by these knobs.  The schedule
                     kind, ``executor`` and ``resilience`` are deliberately
                     *not* recorded: every schedule keeps its error-feedback
                     residuals in the same per-bucket slabs, so resuming under
                     another of those is bit-exact
``topology``         ``num_stages`` / ``data_parallel_degree`` (must match)
``layout``           ``parameters``: ``[name, arena offset, shape]`` per
                     parameter in arena order, plus ``trainable_elements`` —
                     the name → offset/shape table of ``weights`` and the
                     moments (must match the reader's arena exactly)
``optimizer``        ``step_count`` and ``lr`` shared by the group
``state``            the engine state tree as a skeleton whose array leaves
                     are ``{"__ndarray__": "state/<n>"}`` references
``train_losses``,    training history and the resilience ledger
``validation_points``,
``resilience``
===================  =========================================================

Data-parallel replicas share one weight buffer and one optimiser, so weights
and moments exist once in memory and are stored once (Megatron's "DP rank 0
saves").  What each replica still owns is its gradient arena, which the DP sync
leaves bit-identical on every replica — the one thing that can still diverge,
and the premise of stepping the shared weights from a single replica's
gradient.  So a save first compares every replica's synchronised gradients
against the first's; a diverged group refuses to save rather than have the
difference papered over.  Formats v1 (no error-feedback /
RNG state), v2 (deflated, per-parameter, per-replica), v3 (a configuration
label that could not tell PowerSGD rank 2 from rank 4, or QSGD from top-k), v4
(a PowerSGD DP residual per replica), v5 (per-parameter residuals from
serial-DP runs), v6 (no compressed-forward hook state) and v7 (a
forward-activation compression knob in the recorded ``compression``) are
rejected loudly: there is one writer and one reader.  A v8 file differs from
its v7 writer's only in the header: the version, and no such knob.

Writes are atomic (temporary sibling + ``os.replace``) and synchronous — the
arenas may be ``MAP_SHARED`` segments a forked writer would not snapshot, and
a stored write is tens of milliseconds.  :func:`save_rotating_checkpoint` /
:func:`latest_checkpoint` implement the last-k retention scheme behind
``repro train --checkpoint-every/--resume``.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import zipfile

import numpy as np
from numpy.lib import format as npy_format

from repro.parallel.arena import bitwise_equal, distinct_buffers
from repro.plan import ParallelPlan
from repro.resilience import ResilienceReport
from repro.training.metrics import TrainingHistory, ValidationPoint
from repro.training.trainer import Pretrainer

#: Format marker stored in every checkpoint so incompatible files fail loudly.
CHECKPOINT_FORMAT_VERSION = 8

_ARRAY_REF = "__ndarray__"

#: Why the formats this build no longer reads were retired.
_RETIRED_FORMATS = {
    1: "v1 checkpoints omit error-feedback and RNG state and cannot resume bit-exactly",
    2: "v2 checkpoints are deflated per-parameter archives this build has no reader for",
    3: (
        "v3 checkpoints record a configuration label that cannot see codec kinds, "
        "ranks or bits, so their codec state cannot be matched to this trainer's plan"
    ),
    4: (
        "v4 checkpoints hold per-replica PowerSGD DP residuals; this build keeps one "
        "residual for the whole data-parallel group"
    ),
    5: (
        "v5 checkpoints lay DP codec state out for two synchronisation paths "
        "(serial-DP files keep per-parameter residuals); this build keeps every "
        "error-feedback residual in per-bucket slabs"
    ),
    6: "v6 checkpoints hold no compressed-forward hook state",
    7: (
        "v7 checkpoints record compress_forward, a forward-activation compression "
        "knob this build no longer has"
    ),
}


def _pack_tree(tree, arrays: dict[str, np.ndarray]):
    """JSON-safe skeleton of ``tree``; ndarray leaves move into ``arrays``."""
    if isinstance(tree, np.ndarray):
        reference = f"state/{len(arrays)}"
        arrays[reference] = tree
        return {_ARRAY_REF: reference}
    if isinstance(tree, dict):
        return {str(key): _pack_tree(value, arrays) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_pack_tree(value, arrays) for value in tree]
    if tree is None or isinstance(tree, (bool, int, float, str)):
        return tree
    raise TypeError(f"cannot serialise {type(tree).__name__} in checkpoint state")


def _unpack_tree(skeleton, archive):
    """Rebuild the state tree, resolving array references into ``archive``."""
    if isinstance(skeleton, dict):
        if set(skeleton) == {_ARRAY_REF}:
            return archive[skeleton[_ARRAY_REF]]
        return {key: _unpack_tree(value, archive) for key, value in skeleton.items()}
    if isinstance(skeleton, list):
        return [_unpack_tree(value, archive) for value in skeleton]
    return skeleton


def _parameter_layout(trainer: Pretrainer) -> dict:
    """Name → arena offset/shape table of the flat ``weights`` member."""
    arena = trainer.engine.arenas[0]
    parameters = [
        [f"stage{stage_index}/{name}", arena.span(parameter)[0], list(parameter.shape)]
        for stage_index, stage in enumerate(trainer.engine.pipeline_engines[0].stages)
        for name, parameter in stage.named_parameters()
    ]
    parameters.sort(key=lambda entry: entry[1])
    return {"parameters": parameters, "trainable_elements": arena.num_trainable_elements}


def _group_shared(label: str, per_replica: list[np.ndarray]) -> None:
    """Raise unless every replica holds replica 0's buffer bit-for-bit.

    Replicas sharing a buffer are one read.
    """
    for other in distinct_buffers(per_replica)[1:]:
        if not bitwise_equal(per_replica[0], other):
            replica = next(index for index, buffer in enumerate(per_replica) if buffer is other)
            raise RuntimeError(
                f"data-parallel replicas diverged: replica {replica}'s {label} differ from "
                "replica 0's — refusing to write a checkpoint of weights that were stepped "
                "from one replica's gradient on behalf of all"
            )


def _normalised_path(path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _write_npz(handle, arrays: dict[str, np.ndarray]) -> None:
    """Write ``np.savez(handle, **arrays)``'s members, each from its live buffer.

    The same stored ``<name>.npy`` members with ``.npy`` 1.0 headers, byte
    for byte; ``np.savez`` cannot ``tofile`` into a zip member, so it copies
    every member through ``tobytes()`` in chunks of up to 16 MiB.
    """
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            header = npy_format.header_data_from_array_1_0(array)
            data = array.T if header["fortran_order"] else np.ascontiguousarray(array)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                npy_format.write_array_header_1_0(member, header)
                member.write(memoryview(data))


def save_checkpoint(trainer: Pretrainer, path: str | pathlib.Path) -> pathlib.Path:
    """Atomically write the trainer's full state to ``path``; returns the path.

    The archive is written to a sibling temporary file and moved into place
    with ``os.replace``, so a crash mid-write never leaves a truncated
    checkpoint under the final name (and the temporary name can never be
    mistaken for a checkpoint: it does not end in ``.npz``).
    """
    path = _normalised_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    optimizer = trainer.optimizer.live_state()
    # Before anything is packed: the group is only as replicated as its
    # gradients (weights and moments cannot differ — there is one of each).
    _group_shared("synchronised gradients", [arena.grad for arena in trainer.engine.arenas])
    arrays: dict[str, np.ndarray] = {}
    state_skeleton = _pack_tree(trainer.engine.live_mutable_state(), arrays)
    arrays["weights"] = trainer.engine.arenas[0].data
    arrays["exp_avg"] = optimizer["exp_avg"]
    arrays["exp_avg_sq"] = optimizer["exp_avg_sq"]
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "iteration": trainer._iteration,
        "compression": trainer.plan.to_dict()["compression"],
        "topology": {
            "num_stages": trainer.num_stages,
            "data_parallel_degree": len(trainer.engine.arenas),
        },
        "layout": _parameter_layout(trainer),
        "optimizer": {"step_count": optimizer["step_count"], "lr": optimizer["lr"]},
        "train_losses": trainer.history.train_losses,
        "validation_points": [
            {"iteration": point.iteration, "loss": point.loss}
            for point in trainer.history.validation_points
        ],
        "resilience": trainer.resilience_report.to_dict(),
        "state": state_skeleton,
    }

    tmp = _temporary_sibling(path)
    try:
        with open(tmp, "wb") as handle:
            _write_npz(
                handle,
                {
                    "__header__": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
                    **arrays,
                },
            )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(trainer: Pretrainer, path: str | pathlib.Path) -> int:
    """Restore a trainer's state from ``path``; returns the restored iteration.

    The trainer must match the writer exactly — every compression knob of its
    plan, pipeline depth, DP degree, parameter names/offsets/shapes — and all
    of that is compared before any state is touched: a mismatch raises instead
    of half-restoring.  The stored copy is written once, into the weight buffer
    and the optimiser every replica shares.  After loading, continuing the run
    reproduces the continuous run bit-for-bit.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        version = header.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            detail = f" ({_RETIRED_FORMATS[version]})" if version in _RETIRED_FORMATS else ""
            raise ValueError(
                f"unsupported checkpoint format {version!r}: this build reads and writes "
                f"format v{CHECKPOINT_FORMAT_VERSION} only{detail}"
            )
        writer = ParallelPlan.from_dict({"compression": header.get("compression", {})})
        for knob, (stored, live) in writer.diff(trainer.plan).items():
            if knob.startswith("compression."):
                raise ValueError(
                    "checkpoint was written under a different compression configuration: "
                    f"{knob.removeprefix('compression.')} is {stored!r} in the checkpoint, "
                    f"{live!r} in this trainer's plan"
                )
        topology = header.get("topology", {})
        live_topology = {
            "num_stages": trainer.num_stages,
            "data_parallel_degree": len(trainer.engine.arenas),
        }
        if topology != live_topology:
            raise ValueError(
                f"checkpoint topology {topology} does not match trainer {live_topology}"
            )
        live_layout = _parameter_layout(trainer)
        if header.get("layout") != live_layout:
            stored = header.get("layout", {}).get("parameters", [])
            difference = next(
                (
                    pair
                    for pair in zip(stored, live_layout["parameters"])
                    if pair[0] != pair[1]
                ),
                (len(stored), len(live_layout["parameters"])),
            )
            raise ValueError(
                "checkpoint parameter layout does not match the trainer "
                f"(first difference, stored vs live: {difference})"
            )

        weights = archive["weights"]
        if weights.shape != trainer.engine.arenas[0].data.shape:
            raise ValueError(
                f"shape mismatch for weights: {weights.shape} vs "
                f"{trainer.engine.arenas[0].data.shape}"
            )
        trainer.engine.arenas[0].data[...] = weights
        optimizer_state = {
            **header["optimizer"],
            "exp_avg": archive["exp_avg"],
            "exp_avg_sq": archive["exp_avg_sq"],
        }
        trainer.optimizer.load_state_dict(optimizer_state)
        trainer.engine.load_mutable_state(_unpack_tree(header["state"], archive))

    trainer._iteration = int(header["iteration"])
    trainer.engine._iteration_index = trainer._iteration
    history = TrainingHistory()
    history.train_losses = [float(value) for value in header["train_losses"]]
    history.validation_points = [
        ValidationPoint(iteration=int(point["iteration"]), loss=float(point["loss"]))
        for point in header["validation_points"]
    ]
    trainer.history = history
    restored_report = ResilienceReport.from_dict(header.get("resilience", {}))
    report = trainer.resilience_report
    report.faults_injected = restored_report.faults_injected
    report.collective_retries = restored_report.collective_retries
    report.backoff_seconds = restored_report.backoff_seconds
    report.skipped_steps = restored_report.skipped_steps
    report.rollbacks = restored_report.rollbacks
    report.degraded = restored_report.degraded
    report.respawns = restored_report.respawns
    report.worker_events = restored_report.worker_events
    return trainer._iteration


# -- rotation -------------------------------------------------------------------------

#: The only names rotation and ``--resume`` treat as checkpoints.
_CHECKPOINT_NAME = re.compile(r"ckpt-\d{8}\.npz")
#: A writer's temporary sibling of a rotating checkpoint (see ``_temporary_sibling``).
_TEMPORARY_NAME = re.compile(r"ckpt-\d{8}\.npz\.tmp-(\d+)")


def _temporary_sibling(path: pathlib.Path) -> pathlib.Path:
    """Where this process writes ``path`` before moving it into place.

    ``<name>.tmp-<pid>``: it does not end in ``.npz``, so no checkpoint glob
    can match it, and the pid lets the next save tell a dead writer's orphan
    from a live writer's file.
    """
    return path.with_name(f"{path.name}.tmp-{os.getpid()}")


def checkpoint_name(iteration: int) -> str:
    """Canonical rotating-checkpoint file name for ``iteration``."""
    return f"ckpt-{iteration:08d}.npz"


def _rotating_checkpoints(directory: pathlib.Path) -> list[pathlib.Path]:
    """The directory's finished rotating checkpoints, oldest first."""
    return sorted(
        path for path in directory.glob("ckpt-*.npz") if _CHECKPOINT_NAME.fullmatch(path.name)
    )


def _process_is_gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, just not ours to signal
        pass
    return False


def _sweep_orphaned_temporaries(directory: pathlib.Path) -> None:
    """Delete temporary files whose writer died mid-write (its ``finally`` never ran)."""
    for path in directory.iterdir():
        match = _TEMPORARY_NAME.fullmatch(path.name)
        if match and _process_is_gone(int(match.group(1))):
            path.unlink(missing_ok=True)


def save_rotating_checkpoint(
    trainer: Pretrainer, directory: str | pathlib.Path, keep_last: int = 3
) -> pathlib.Path:
    """Write ``ckpt-<iteration>.npz`` into ``directory``, keeping the last k."""
    if keep_last <= 0:
        raise ValueError("keep_last must be positive")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _sweep_orphaned_temporaries(directory)
    path = save_checkpoint(trainer, directory / checkpoint_name(trainer._iteration))
    for stale in _rotating_checkpoints(directory)[:-keep_last]:
        stale.unlink()
    return path


def latest_checkpoint(directory: str | pathlib.Path) -> pathlib.Path | None:
    """Newest rotating checkpoint in ``directory`` (``None`` when empty)."""
    candidates = _rotating_checkpoints(pathlib.Path(directory))
    return candidates[-1] if candidates else None
