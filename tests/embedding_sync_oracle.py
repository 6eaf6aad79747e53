"""Frozen copy of the stack, sum and copy embedding synchronisation.

:class:`repro.core.fused_embedding.EmbeddingSynchronizer` reduces the tied
embedding copies tile by tile in their own gradient buffers.  This is the
path it replaced: every copy is stacked through
``SimulatedProcessGroup.all_reduce`` (``np.stack`` + ``sum``/``mean``) and
``size`` fresh results are written back.  ``tests/test_embedding_sync.py``
holds the in-place path to it bit for bit, record for record.  Do not edit
it to follow the library.
"""

from __future__ import annotations

from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup


def embedding_copies(replicas) -> list[list]:
    """Per replica: its embedding copies, first stage's then last stage's."""
    copies = []
    for replica in replicas:
        replica_copies = list(replica[0].embedding_parameters())
        if replica[-1] is not replica[0]:
            replica_copies.extend(replica[-1].embedding_parameters())
        copies.append(replica_copies)
    return copies


def synchronize_baseline(replicas, log: CommunicationLog) -> None:
    copies = embedding_copies(replicas)
    num_copies = len(copies[0])
    num_replicas = len(copies)
    if num_replicas > 1:
        for copy_index in range(num_copies):
            group = SimulatedProcessGroup(
                list(range(num_replicas)), log, category="embedding_dp", spans_nodes=True
            )
            grads = [copies[d][copy_index].grad for d in range(num_replicas)]
            reduced = group.all_reduce(grads, op="mean", description="embedding DP all-reduce")
            for d in range(num_replicas):
                copies[d][copy_index].grad[...] = reduced[d]
    if num_copies == 2:
        for d in range(num_replicas):
            group = SimulatedProcessGroup([0, 1], log, category="embedding_sync", spans_nodes=True)
            reduced = group.all_reduce(
                [copies[d][0].grad, copies[d][1].grad],
                op="sum",
                description="embedding 2-way synchronisation",
            )
            copies[d][0].grad[...] = reduced[0]
            copies[d][1].grad[...] = reduced[1]


def synchronize_fused(replicas, log: CommunicationLog) -> None:
    copies = embedding_copies(replicas)
    num_copies = len(copies[0])
    num_replicas = len(copies)
    flat_copies = [copies[d][c] for d in range(num_replicas) for c in range(num_copies)]
    group = SimulatedProcessGroup(
        list(range(len(flat_copies))), log, category="embedding_sync", spans_nodes=True
    )
    reduced = group.all_reduce(
        [parameter.grad for parameter in flat_copies],
        op="sum",
        description="fused embedding synchronisation",
    )
    scale = 1.0 / num_replicas
    for parameter, value in zip(flat_copies, reduced):
        parameter.grad[...] = value * scale


def synchronize(replicas, log: CommunicationLog, fused: bool) -> None:
    """The frozen path: fused (one ``2 * dp``-way sum) or two-step (DP mean, then 2-way sum)."""
    (synchronize_fused if fused else synchronize_baseline)(replicas, log)
