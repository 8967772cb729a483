"""Per-layer host-time split, recorded from outside the program.

A :class:`LayerTracer` patches the public entry points of each layer's
classes with thin wrappers for the duration of one traced phase and
removes them afterwards, leaving every class exactly as it found it.
Each wrapper opens a span on a :class:`SpanRecorder`; a layer's self
time is the duration of its spans minus the part of them that child
spans (calls into other layers) cover.  A call into the layer that is
already on top of the span stack is a re-entry: it is counted, but it
extends the open span instead of opening a nested one.

Hot inner calls (``IndexNode.cums``) are counted only, never timed, so
the wrapper cost stays off the path that dominates the tree's time.

The layers are the repository's packages.  Scheme-manager operations
are charged to the scheme that runs them (``esm``/``eos``/``starburst``)
even where the method body is inherited from the shared tree-backed
base class; ``core`` is the store facade plus the manager base's batch
entry points.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import time
from typing import Any, Callable

#: Layer names, in the order they are reported.
LAYERS = (
    "core", "esm", "eos", "starburst", "tree", "segio",
    "buffer", "buddy", "disk", "exec", "shard", "atomic",
)

_STORE_OPS = (
    "create", "destroy", "size", "read", "append", "insert", "delete",
    "replace",
)


@dataclasses.dataclass(frozen=True)
class Target:
    """One patched method: the class, the method name, and its layer.

    ``timed=False`` counts calls without opening a span.
    """

    cls: type
    name: str
    layer: str
    timed: bool = True

    @property
    def key(self) -> str:
        return f"{self.cls.__name__}.{self.name}"


def default_targets() -> list[Target]:
    """The entry points of every layer, imported from the program."""
    from repro.atomic.journal import IntentJournal
    from repro.atomic.twophase import AtomicCoordinator
    from repro.buddy.allocator import BuddyAllocator
    from repro.buffer.pool import BufferPool
    from repro.core.api import LargeObjectStore
    from repro.core.manager import LargeObjectManager
    from repro.disk.disk import SimulatedDisk
    from repro.disk.iomodel import CostModel
    from repro.eos.manager import EOSManager
    from repro.esm.manager import ESMManager
    from repro.exec.engine import BatchEngine
    from repro.segio.segment_io import SegmentIO
    from repro.shard.router import ShardedStore
    from repro.starburst.manager import StarburstManager
    from repro.tree.node import IndexNode
    from repro.tree.tree import PositionalTree

    groups: list[tuple[type, str, tuple[str, ...]]] = [
        (LargeObjectStore, "core", _STORE_OPS + ("submit_ops", "submit_multi")),
        (LargeObjectManager, "core", ("submit_ops", "submit_multi")),
        (ESMManager, "esm", _STORE_OPS),
        (EOSManager, "eos", _STORE_OPS + ("trim",)),
        (StarburstManager, "starburst", _STORE_OPS + ("trim",)),
        (PositionalTree, "tree", (
            "create", "destroy", "begin_op", "end_op", "commit_root",
            "locate", "extents_covering", "neighbors", "last_extent",
            "update_extent", "append_extent", "replace_span",
        )),
        (SegmentIO, "segio", (
            "read_range", "read_pages", "read_boundary_unaligned",
            "write_pages",
        )),
        (BufferPool, "buffer", (
            "fix", "fix_new", "unfix", "read_run", "write_run",
            "update_if_resident", "invalidate", "invalidate_run",
            "flush_page", "flush_all",
        )),
        (BuddyAllocator, "buddy", ("allocate", "free")),
        (SimulatedDisk, "disk", (
            "read_pages", "read_page_views", "write_pages", "discard_pages",
        )),
        (CostModel, "disk", ("charge_read", "charge_write")),
        (BatchEngine, "exec", (
            "execute_read", "execute_write_leaves", "apply_held",
            "run_batch", "run_multi",
        )),
        (ShardedStore, "shard", _STORE_OPS + ("submit_ops", "submit_many")),
        (AtomicCoordinator, "atomic", ("submit_many",)),
        (IntentJournal, "atomic", (
            "write_prepare", "write_decision", "write_applied", "write_clean",
        )),
    ]
    targets = [
        Target(cls, name, layer)
        for cls, layer, names in groups
        for name in names
    ]
    targets.append(Target(IndexNode, "cums", "tree", timed=False))
    return targets


class SpanRecorder:
    """Span stack and per-layer totals; the clock is injectable for tests."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: Open spans, innermost last: [layer, start, time covered by children].
        self._stack: list[list[Any]] = []
        #: Every wrapped call, re-entries included, by layer and by method.
        self.layer_calls: collections.Counter[str] = collections.Counter()
        self.method_calls: collections.Counter[str] = collections.Counter()
        #: Closed spans and their self time (ns), by layer.
        self.spans: collections.Counter[str] = collections.Counter()
        self.self_ns: collections.Counter[str] = collections.Counter()
        #: Ops submitted through the batch engine's entry points.
        self.batch_ops = 0

    def enter(self, layer: str) -> bool:
        """Count a call; open a span unless ``layer`` is already on top."""
        self.layer_calls[layer] += 1
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return False
        stack.append([layer, self._clock(), 0])
        return True

    def leave(self) -> None:
        """Close the innermost span and charge its self time."""
        layer, start, covered = self._stack.pop()
        duration = self._clock() - start
        self.self_ns[layer] += duration - covered
        self.spans[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)


def _wrap(target: Target, fn: Callable[..., Any],
          recorder: SpanRecorder) -> Callable[..., Any]:
    key, layer = target.key, target.layer
    method_calls = recorder.method_calls
    if not target.timed:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            method_calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    enter, leave = recorder.enter, recorder.leave
    is_batch = target.layer == "exec" and target.name.startswith("run_")

    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        method_calls[key] += 1
        if is_batch:  # run_batch(manager, oid, ops) / run_multi(manager, mops)
            recorder.batch_ops += len(args[-1])
        if not enter(layer):
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    return timed


class LayerTracer:
    """Installs the layer wrappers; use as a context manager."""

    def __init__(self, recorder: SpanRecorder,
                 targets: list[Target] | None = None) -> None:
        self.recorder = recorder
        self.targets = default_targets() if targets is None else targets
        #: (class, name, whether the class defined it, its own attribute).
        self._saved: list[tuple[type, str, bool, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        try:
            for target in self.targets:
                fn = getattr(target.cls, target.name)
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    raise TypeError(f"{target.key} is not a plain method")
                own = vars(target.cls)
                self._saved.append(
                    (target.cls, target.name, target.name in own,
                     own.get(target.name))
                )
                setattr(target.cls, target.name,
                        _wrap(target, fn, self.recorder))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            cls, name, defined, original = self._saved.pop()
            if defined:
                setattr(cls, name, original)
            else:
                delattr(cls, name)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """``<layer>.calls``, ``.self_s`` and ``.self_share`` for every layer,
    plus the counts taken at layer boundaries."""
    total = sum(recorder.self_ns.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        self_ns = recorder.self_ns[layer]
        metrics[f"{layer}.calls"] = recorder.layer_calls[layer]
        metrics[f"{layer}.self_s"] = self_ns / 1e9
        metrics[f"{layer}.self_share"] = self_ns / total if total else 0.0
    calls = recorder.method_calls
    batches = calls["BatchEngine.run_batch"] + calls["BatchEngine.run_multi"]
    metrics["tree.cums_calls"] = calls["IndexNode.cums"]
    metrics["buddy.allocs"] = calls["BuddyAllocator.allocate"]
    metrics["buddy.frees"] = calls["BuddyAllocator.free"]
    metrics["exec.ops_per_batch"] = (
        recorder.batch_ops / batches if batches else 0.0
    )
    metrics["atomic.journal_writes"] = sum(
        count for key, count in calls.items()
        if key.startswith("IntentJournal.write_")
    )
    return metrics
