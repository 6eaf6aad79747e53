"""Content-keyed on-disk result cache for plan evaluations.

The cache key of one evaluation is the SHA-256 of a canonical-JSON document
spelling out *everything* that can change the simulator's answer: the plan
(via :meth:`~repro.plan.ParallelPlan.canonical_json` semantics), the model
spec, the resolved hardware description, the micro-batch size, and
:data:`~repro.simulator.cost_model.COST_MODEL_VERSION`.  Because
:func:`~repro.simulator.evaluate.evaluate_plan` is a pure function of exactly
those inputs, a hit is always safe to serve — and flipping any single field
(a codec knob, a cap factor, a hardware tier, the cost-model version) changes
the key, so stale numbers can never leak across configurations.

Entries are one small JSON file each, sharded by the first two key hex digits
to keep directories shallow, written atomically (temp file + ``os.replace``)
so a crashed or concurrent writer can never leave a torn entry.  The cache
keeps hit/miss/store counters so callers (and the warm-cache tests) can
assert exactly how many evaluations were skipped.

A query computes thousands of keys and touches thousands of entries, so what
its candidates share is done once: of the key document only the ``plan``
section (and two scalars) differs between the candidates of a tier — the
``model`` and ``hardware`` sections are the same two objects in every document
and are serialised once per object, not once per candidate; entry paths are
plain strings under one precomputed root; a shard directory is created when a
write first finds it missing, not probed for on every write; an entry is one
``write`` of one ``json.dumps``.  None of this changes a byte of any key,
entry or path.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
from dataclasses import asdict
from typing import Any, Mapping

from repro.simulator.cost_model import COST_MODEL_VERSION
from repro.simulator.hardware import ClusterSpec

__all__ = ["SearchCache", "cache_key", "task_key_material"]

#: Sections of the key document that every candidate of one tier shares — the
#: *same* dict objects (:attr:`repro.search.query.SearchQuery.model_document`,
#: one hardware document per resolved cluster), so :func:`cache_key`
#: serialises each once per tier and only the rest per candidate.
_SHARED_SECTIONS = frozenset({"hardware", "model"})

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"), ensure_ascii=True)``
#: without building an encoder per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode


class _Shared:
    """Memo key of a shared read-only object: equal only to itself, kept alive.

    A memo keyed by *value* would be wrong here — ``16`` and ``16.0`` are equal
    and hash equal but serialise differently — and holding the object keeps
    its ``id`` from being reused while the entry lives.
    """

    __slots__ = ("target",)

    def __init__(self, target: Any) -> None:
        self.target = target

    def __hash__(self) -> int:
        return id(self.target)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Shared) and self.target is other.target


@functools.lru_cache(maxsize=8)
def _hardware_document(cluster: _Shared) -> dict[str, Any]:
    """``asdict`` of one resolved (frozen) cluster, built once per instance."""
    return asdict(cluster.target)


@functools.lru_cache(maxsize=16)
def _shared_json(document: _Shared) -> str:
    """Canonical JSON of one shared section, serialised once per object."""
    return _canonical(document.target)


def task_key_material(task: Mapping[str, Any], cluster: ClusterSpec) -> dict[str, Any]:
    """The full key document of one evaluation task.

    ``task`` is the pool work unit (:meth:`repro.search.query.Candidate.task`);
    ``cluster`` is the tier resolved to concrete hardware numbers, folded in
    as a nested dict so a change to the tier's bandwidths or calibration
    constants — not just its name — misses the cache.  The ``model`` and
    ``hardware`` sections are shared between the documents of one tier (the
    task's own model dict, one hardware dict per ``cluster`` instance): read
    them, never write them.
    """
    return {
        "plan": task["plan"],
        "model": task["model"],
        "hardware": _hardware_document(_Shared(cluster)),
        "micro_batch_size": task["micro_batch_size"],
        "cost_model_version": COST_MODEL_VERSION,
    }


def cache_key(material: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON of ``material``.

    The bytes hashed are those of ``json.dumps(material, sort_keys=True,
    separators=(",", ":"), ensure_ascii=True)``, assembled section by section
    so the shared ``model`` / ``hardware`` sections are serialised once per
    object rather than once per candidate (section names must be strings).
    """
    sections = []
    for name in sorted(material):
        if not isinstance(name, str):
            raise TypeError(f"key document sections must be named by strings, got {name!r}")
        value = material[name]
        text = _shared_json(_Shared(value)) if name in _SHARED_SECTIONS else _canonical(value)
        sections.append(f"{_canonical(name)}:{text}")
    canonical = "{" + ",".join(sections) + "}"
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


class SearchCache:
    """One directory of memoised plan evaluations, keyed by content hash.

    Parameters
    ----------
    root:
        Cache directory (created on first store).  Entries live at
        ``root/<key[:2]>/<key>.json``.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = pathlib.Path(root)
        # The entry paths of one query are thousands of joins under one root:
        # spell them as strings once, not through pathlib per entry.
        self._prefix = os.path.join(os.fspath(self.root), "")
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> pathlib.Path:
        """Entry path of ``key`` (two-hex-digit shard directories)."""
        return pathlib.Path(self._entry(key))

    def _entry(self, key: str) -> str:
        """:meth:`_path` as a string."""
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def get(self, key: str) -> Any:
        """The cached payload of ``key``, or ``None`` on a miss.

        Unreadable or torn entries (which atomic writes should preclude, but
        a hostile filesystem can still produce) count as misses and are left
        for the next :meth:`put` to overwrite.  A hit is whatever JSON value
        the file holds: the cache is a byte store, and judging whether the
        value is a usable evaluation is the caller's job
        (:mod:`repro.search.service`).
        """
        try:
            with open(self._entry(key), "rb") as handle:
                payload = json.loads(handle.read())
        except (OSError, ValueError):  # ValueError: malformed JSON or not UTF-8
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store ``payload`` under ``key`` atomically (last writer wins)."""
        path = self._entry(key)
        directory, name = os.path.split(path)
        tmp = f"{directory}{os.sep}.{name}.{os.getpid()}.tmp"
        data = json.dumps(dict(payload), sort_keys=True).encode("ascii")
        try:
            handle = open(tmp, "wb")
        except FileNotFoundError:  # first entry of this shard: make it, once
            os.makedirs(directory, exist_ok=True)
            handle = open(tmp, "wb")
        with handle:
            handle.write(data)
        os.replace(tmp, path)
        self.stores += 1

    def stats(self) -> dict[str, int]:
        """Counters snapshot: ``{"hits": ..., "misses": ..., "stores": ...}``."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}
