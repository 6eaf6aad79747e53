"""The training process's allocator policy: glibc's mmap/trim thresholds pinned at engine build.

glibc's dynamic thresholds fall inside the engine's per-op temporaries, so an
unpinned process trims its heap top and page-faults it back in every
iteration.  The fault count is measured in a fresh interpreter, where no
earlier test can have moved the thresholds.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
import sys

import pytest

from repro.parallel import arena

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

GLIBC_POLICY = "glibc mallopt: mmap_threshold=32 MiB trim_threshold=64 MiB"
DEFAULTS = "allocator defaults (no glibc mallopt)"

#: A train_dense-shaped run (compute shape, PP2 x DP2, 4 micro-batches, 3
#: warm-ups); prints the minor faults per warm iteration.
FAULT_PROBE = """
import resource
from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models.gpt_configs import functional_config
from repro.plan import ParallelPlan
from repro.training.trainer import Pretrainer

shape = dict(vocab_size=512, sequence_length=64, num_layers=4, hidden_size=128, num_heads=4)
plan = ParallelPlan.preset("baseline").with_topology(pp=2, dp=2, micro_batches=4)
loader = LanguageModelingDataLoader(
    SyntheticCorpus(SyntheticCorpusConfig(vocab_size=512, seed=1)),
    sequence_length=64, micro_batch_size=2, num_micro_batches=4, data_parallel_degree=2,
)
trainer = Pretrainer(functional_config(**shape), loader, plan=plan, seed=0)
for _ in range(3):
    trainer.train_iteration()
iterations = 4
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(iterations):
    trainer.train_iteration()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / iterations)
"""


def _fresh_interpreter(script: str) -> list[str]:
    # No MALLOC_* tunables and one BLAS thread: the thresholds are the
    # program's own, and the probe stays small.
    environment = {key: value for key, value in os.environ.items() if not key.startswith("MALLOC_")}
    environment.update(PYTHONPATH=str(REPO_ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
        env=environment,
    )
    return completed.stdout.split("\n")


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the thresholds are glibc's",
)
def test_warm_dense_iteration_does_not_page_fault():
    (faults, _) = _fresh_interpreter(FAULT_PROBE)
    # An unpinned process takes ~19,000-29,000 here; a pinned one single digits.
    assert float(faults) < 1_000


def test_importing_the_engine_applies_nothing():
    """Only an engine build pins the policy: a search process never does."""
    (policy, _) = _fresh_interpreter(
        "import repro.parallel.engine, repro.search\n"
        "from repro.parallel import arena\n"
        "print(arena._allocator_policy)\n"
    )
    assert policy == "None"


class _FakeLibc:
    def __init__(self, answer: int = 1) -> None:
        self.answer = answer
        self.calls: list[tuple[int, int]] = []

    def mallopt(self, parameter: int, value: int) -> int:
        self.calls.append((parameter, value))
        return self.answer


def test_policy_is_applied_once(monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(arena, "_allocator_policy", None)
    monkeypatch.setattr(arena.ctypes, "CDLL", lambda name: libc)
    assert arena.pin_allocator_policy() == GLIBC_POLICY
    assert arena.pin_allocator_policy() == GLIBC_POLICY
    assert libc.calls == [
        (arena.M_MMAP_THRESHOLD, 32 << 20),
        (arena.M_TRIM_THRESHOLD, 64 << 20),
    ]


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "cdll",
    [_no_c_library, lambda name: object(), lambda name: _FakeLibc(answer=0)],
    ids=["no-c-library", "no-mallopt-symbol", "mallopt-refuses"],
)
def test_policy_is_a_no_op_without_glibc_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(arena, "_allocator_policy", None)
    monkeypatch.setattr(arena.ctypes, "CDLL", cdll)
    assert arena.pin_allocator_policy() == DEFAULTS
    assert arena.pin_allocator_policy() == DEFAULTS


def test_train_prints_the_policy_in_force(capsys):
    from repro.cli import main

    assert main(["train", "--preset", "baseline", "--stages", "2", "--iterations", "1"]) == 0
    assert f"Memory: {arena.pin_allocator_policy()}\n" in capsys.readouterr().out
