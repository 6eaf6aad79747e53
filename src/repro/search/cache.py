"""Content-keyed on-disk result cache for plan evaluations.

The cache key of one evaluation is the SHA-256 of a canonical-JSON document
spelling out *everything* that can change the simulator's answer: the plan
(its :meth:`~repro.plan.ParallelPlan.canonical_json`), the model spec, the
resolved hardware description, the micro-batch size, and
:data:`~repro.simulator.cost_model.COST_MODEL_VERSION`.  Because
:func:`~repro.simulator.evaluate.evaluate_plan` is a pure function of exactly
those inputs, a hit is always safe to serve — and flipping any single field
(a codec knob, a cap factor, a hardware tier, the cost-model version) changes
the key, so stale numbers can never leak across configurations.

Entries live in append-only *segments*, not one file each: every
:class:`SearchCache` object that stores anything owns one file
``root/<pid>-<token>.seg`` whose first line is the JSON array of field names
its entries share and whose every other line is ``<key> <JSON array of
values>``, so a cold pass of thousands of candidates creates one file with one
``write`` (:meth:`SearchCache.flush`) and a warm pass reads one.  Two writers
never share a file; a reader keeps an offset per segment and reads only what
was appended since.  The directory is outside input: a line without its
newline, a line that does not parse, an array of another length than its
header, a segment without a header and every file that is not ``*.seg`` are
misses, never errors.  The first load is linear in the directory's bytes and
nothing is ever evicted.  The cache keeps hit/miss/store counters so callers
(and the warm-cache tests) can assert exactly how many evaluations were
skipped.

The search stores entries of two shapes under one key space — a full
evaluation, and the two budget metrics of a candidate a budget rejected before
its timing was simulated (:mod:`repro.search.service`) — and a segment holds
one shape, so a pass that wrote both leaves two segments.  The cache still
knows neither shape, only this precedence between lines of one key: the line
read later wins, **except** that a line whose field names are a strict subset
of the stored entry's never replaces it.  A narrower entry says nothing the
wider one does not, so whichever order two writers flushed in — a tight-budget
process its budget-only line, a loose-budget one the full line — every reader
ends up with the full entry.  The price: a wider entry its reader rejects
(a ``NaN`` in it, say) is repaired only by a pass that writes a wider one;
until then passes that write the narrower shape re-evaluate that key.

A query computes thousands of keys, so what its candidates share is done
once: the ``model`` and ``hardware`` sections are the same two objects in every
document of a tier, and a candidate's ``plan`` section is
:meth:`~repro.plan.ParallelPlan.canonical_json`, itself a join of the JSON of
the topology, schedule and codec-spec objects the expansion shares between its
plans.  Each of those is serialised once per *object* (never per value: ``1``
and ``1.0`` are equal and serialise differently), so a candidate's key costs a
few joins and one SHA-256 over the same bytes as ever.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import warnings
from dataclasses import asdict
from typing import Any, Mapping

from repro.plan import ParallelPlan, SharedObject
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


@functools.lru_cache(maxsize=8)
def _hardware_document(cluster: SharedObject) -> dict[str, Any]:
    """``asdict`` of one resolved (frozen) cluster, built once per instance."""
    return asdict(cluster.target)


@functools.lru_cache(maxsize=16)
def _shared_json(document: SharedObject) -> str:
    """Canonical JSON of one shared section, serialised once per object."""
    return _canonical(document.target)


def task_key_material(task: Mapping[str, Any], cluster: ClusterSpec) -> dict[str, Any]:
    """The full key document of one evaluation task.

    ``task`` names the ``plan``, the ``model`` document and the
    ``micro_batch_size`` — :meth:`repro.search.query.Candidate.task`, or the
    same with the :class:`~repro.plan.ParallelPlan` itself where its dict
    would be (what the service passes: :func:`cache_key` hashes the same bytes
    for either).  ``cluster`` is the tier resolved to concrete hardware
    numbers, folded in as a nested dict so a change to the tier's bandwidths
    or calibration constants — not just its name — misses the cache.  The
    ``model`` and ``hardware`` sections are shared between the documents of
    one tier (the task's own model dict, one hardware dict per ``cluster``
    instance): read them, never write them.
    """
    return {
        "plan": task["plan"],
        "model": task["model"],
        "hardware": _hardware_document(SharedObject(cluster)),
        "micro_batch_size": task["micro_batch_size"],
        "cost_model_version": COST_MODEL_VERSION,
    }


def cache_key(material: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON of ``material``.

    The bytes hashed are those of ``json.dumps(material, sort_keys=True,
    separators=(",", ":"), ensure_ascii=True)`` with a
    :class:`~repro.plan.ParallelPlan` standing for its ``to_dict()``,
    assembled section by section so the shared ``model`` / ``hardware``
    sections are serialised once per object rather than once per candidate and
    a plan contributes its :meth:`~repro.plan.ParallelPlan.canonical_json`
    (section names must be strings).
    """
    sections = []
    for name in sorted(material):
        if not isinstance(name, str):
            raise TypeError(f"key document sections must be named by strings, got {name!r}")
        value = material[name]
        if name in _SHARED_SECTIONS:
            text = _shared_json(SharedObject(value))
        elif isinstance(value, ParallelPlan):
            text = value.canonical_json()
        else:
            text = _canonical(value)
        sections.append(f"{_canonical(name)}:{text}")
    canonical = "{" + ",".join(sections) + "}"
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _field_names(line: bytes) -> tuple[str, ...] | None:
    """The header of a segment, or ``None`` if ``line`` is not one.

    A header is a JSON array of distinct strings; the entries below it are
    arrays of that length.
    """
    try:
        names = json.loads(line)
    except ValueError:  # malformed JSON or not UTF-8
        return None
    if (
        type(names) is list
        and all(type(name) is str for name in names)
        and len(set(names)) == len(names)
    ):
        return tuple(names)
    return None


class SearchCache:
    """One directory of memoised plan evaluations, keyed by content hash.

    Parameters
    ----------
    root:
        Cache directory (created by the first :meth:`flush` that has something
        to write).  It holds append-only segments ``<pid>-<token>.seg``; every
        other file in it is ignored.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # key -> (field names, values) of every whole entry line read so far.
        self._table: dict[str, tuple[tuple[str, ...], list[Any]]] = {}
        # Segment path -> (its header, bytes consumed); ``None`` for a file
        # whose first line is not a header, which is never read again.
        self._consumed: dict[str, tuple[tuple[str, ...], int] | None] = {}
        # Field names -> entry lines put since the last flush, and the segment
        # this object appends such lines to (none until it has flushed some).
        self._buffer: dict[tuple[str, ...], list[str]] = {}
        self._segments: dict[tuple[str, ...], str] = {}
        self._stale = True

    def refresh(self) -> None:
        """Read what has been appended under :attr:`root` since the last call.

        :meth:`get` does this by itself before its first answer and after this
        object's own :meth:`flush`; call it at the start of a query so a
        long-lived cache also serves what other writers flushed meanwhile.
        Segments are read least recently modified first, so where two hold the
        same key the later-written entry is the one served — unless its field
        names are a strict subset of the earlier one's, which then stays.
        """
        self._stale = False
        segments = []
        try:
            with os.scandir(self.root) as listing:
                for entry in listing:
                    if entry.name.endswith(".seg") and entry.is_file():
                        status = entry.stat()
                        segments.append((status.st_mtime_ns, entry.path, status.st_size))
        except OSError:  # no directory yet, or not a directory: an empty cache
            return
        for _, path, size in sorted(segments):
            self._read_segment(path, size)

    def _read_segment(self, path: str, size: int) -> None:
        """Enter the whole lines of ``path`` beyond what was consumed before."""
        consumed = self._consumed.get(path, ((), 0))
        if consumed is None or size <= consumed[1]:
            return
        header, offset = consumed
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:
            return
        # A tail without its newline is not an entry (yet, if its writer lives).
        end = data.rfind(b"\n")
        if end < 0:
            return
        lines = data[:end].split(b"\n")
        if offset == 0:
            header = _field_names(lines.pop(0))
            if header is None:
                self._consumed[path] = None
                return
        names = frozenset(header)
        for line in lines:
            key, _, text = line.partition(b" ")
            try:
                values = json.loads(text)
                name = key.decode("ascii")
            except ValueError:  # malformed JSON, or bytes that are not text
                continue
            if type(values) is not list or len(values) != len(header):
                continue
            stored = self._table.get(name)
            if stored is not None and names < frozenset(stored[0]):
                continue  # a narrower line never replaces a wider entry
            self._table[name] = (header, values)
        self._consumed[path] = (header, offset + end + 1)

    def get(self, key: str) -> Any:
        """The cached payload of ``key``, or ``None`` on a miss.

        A hit is ``dict(zip(header, values))`` of the last whole line read for
        ``key`` (a line with fewer of the same field names never supersedes
        one with more).  A line that does not parse, lacks its newline, or carries
        another number of values than its segment's header names is a miss,
        as is everything in a segment without a header.  The cache is a byte
        store: judging whether the mapping is a usable evaluation is the
        caller's job (:mod:`repro.search.service`).
        """
        if self._stale:
            self.refresh()
        entry = self._table.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(zip(*entry))

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Buffer ``payload`` under ``key``; :meth:`flush` makes it durable."""
        names = tuple(sorted(payload))
        values = _canonical([payload[name] for name in names])
        self._buffer.setdefault(names, []).append(f"{key} {values}\n")

    def flush(self) -> None:
        """Append everything :meth:`put` buffered, one ``write`` per segment.

        A cache that cannot be written must not cost the answer the entries
        were computed for: on ``OSError`` the buffer is dropped, ``stores``
        does not count it, and one :class:`RuntimeWarning` names the directory.
        """
        if not self._buffer:
            return
        buffered, self._buffer = self._buffer, {}
        try:
            for names, lines in buffered.items():
                self._append(names, lines)
                self.stores += len(lines)
        except OSError as error:
            # A failed write may have left a torn tail: append to none of them.
            self._segments.clear()
            warnings.warn(
                f"search cache directory {self.root} cannot be written ({error}); "
                "the evaluations of this pass are not cached",
                RuntimeWarning,
                stacklevel=2,
            )
        self._stale = True

    def _append(self, names: tuple[str, ...], lines: list[str]) -> None:
        """Write ``lines`` to this object's segment for ``names``, creating it."""
        path = self._segments.get(names)
        if path is None:
            os.makedirs(self.root, exist_ok=True)
            # The pid tells processes apart, the token objects of one process;
            # ``x`` refuses the file if both should ever coincide.
            path = os.path.join(self.root, f"{os.getpid()}-{os.urandom(4).hex()}.seg")
            data = "".join([_canonical(list(names)), "\n", *lines])
            mode = "xb"
        else:
            data = "".join(lines)
            mode = "ab"
        with open(path, mode) as handle:
            handle.write(data.encode("ascii"))
        self._segments[names] = path

    def stats(self) -> dict[str, int]:
        """Counters snapshot: ``{"hits": ..., "misses": ..., "stores": ...}``."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}
