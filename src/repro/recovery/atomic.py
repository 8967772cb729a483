"""Recovery for atomic cross-shard batches: journal-driven resolution.

:mod:`repro.atomic.twophase` leaves the crash-time invariant; this
module turns it into a usable store again.  Recovery works *from the
disk image alone*: every shard's in-memory state — buffer pool frames,
positional trees, long-field descriptors — is considered lost, exactly
as a machine reboot loses RAM, and every object is mounted from the
disk image (the manager's own ``mount``) before the journal is
consulted.

The per-shard decision table (``state`` is the shard's parsed
:class:`~repro.atomic.journal.JournalState`; "decided" means the batch's
DECISION record is durable on its coordinator shard):

===========================  ========  ===================================
journal state                decided?  resolution
===========================  ========  ===================================
blank / CLEAN / stale        —         ``none`` — no in-flight batch
PREPARE + APPLIED            (yes)     ``already-applied`` — the image is
                                       the batch-end state; reclaim any
                                       free-time residue, write CLEAN
PREPARE, no APPLIED          yes       ``replayed`` — re-execute the
                                       journaled ops as phase 2 does:
                                       held, APPLIED, release, CLEAN.
                                       Safe to repeat: APPLIED is durable
                                       before any root is released, so
                                       without it the image *is* the
                                       batch-start state
PREPARE, no APPLIED          no        ``rolled-back`` — the image is
                                       already the batch-start state
                                       (roots were never poked); reclaim
                                       the orphaned shadow pages, write
                                       CLEAN
===========================  ========  ===================================

Reclamation is space reconciliation: after the objects are mounted
from the image, any allocated page that no object references — and that
is not part of the reserved journal region — is an orphan of the
crashed execution (shadow pages never committed, or old pages whose
deferred free never ran) and is returned to its buddy area.

Shards that needed replay or rollback are also recorded in a
:class:`~repro.experiments.parallel.DegradationLog`, giving sweeps and
operators a structured account of what recovery had to heal.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import TYPE_CHECKING, Container, ContextManager

from repro.atomic.journal import PREPARE, IntentJournal
from repro.buddy.allocator import BuddyAllocator
from repro.core.api import SCHEMES
from repro.core.errors import InvalidArgumentError
from repro.core.fsck import (
    FsckReport,
    allocated_unreferenced,
    check,
    referenced_pages,
)
from repro.experiments.parallel import DegradationLog

if TYPE_CHECKING:
    from repro.core.api import LargeObjectStore
    from repro.shard.router import ShardedStore

__all__ = [
    "RecoveryReport",
    "ShardRecovery",
    "fsck_sharded_store",
    "reboot_sharded_store",
    "reboot_store",
    "recover_sharded_store",
    "resolve_sharded_store",
]


@dataclasses.dataclass(frozen=True)
class ShardRecovery:
    """What recovery did on one shard.

    The last four fields are the shard's recovery telemetry: how much
    work resolution cost, in deterministic units (sweeps fold them into
    their classification tables).
    """

    shard: int
    #: "none", "already-applied", "replayed", or "rolled-back".
    action: str
    #: Batch id the resolution concerned (None for "none").
    batch_id: int | None
    #: Orphaned pages returned to the buddy areas by reconciliation.
    reclaimed_pages: int
    #: Contiguous orphan runs (buddy partial frees) the pages came in.
    reclaimed_runs: int = 0
    #: Allocated-block slots reconciliation examined across both areas.
    pages_scanned: int = 0
    #: Journaled ops re-executed (non-zero only for "replayed").
    replayed_ops: int = 0


@dataclasses.dataclass
class RecoveryReport:
    """Aggregated outcome of :func:`recover_sharded_store`."""

    shards: list[ShardRecovery] = dataclasses.field(default_factory=list)
    log: DegradationLog = dataclasses.field(default_factory=DegradationLog)

    @property
    def touched(self) -> bool:
        """True when any shard needed more than a no-op resolution."""
        return any(s.action != "none" for s in self.shards)

    def summary(self) -> str:
        """One-line human rendering."""
        parts = [
            f"shard{s.shard}={s.action}"
            + (f"(+{s.reclaimed_pages}p)" if s.reclaimed_pages else "")
            for s in self.shards
        ]
        return "recover: " + " ".join(parts)


# ----------------------------------------------------------------------
# Space reconciliation
# ----------------------------------------------------------------------
def _reclaim_orphans(
    allocator: BuddyAllocator, referenced: Container[int], keep: frozenset[int]
) -> tuple[int, int, int]:
    """Free every allocated page neither referenced nor in ``keep``.

    Contiguous orphans are freed as one run (buddy partial free), in
    ascending page order, so reclamation is deterministic.  Returns
    ``(pages reclaimed, runs freed, block slots scanned)`` — the last
    two are recovery telemetry, counted whether or not anything was
    orphaned.
    """
    orphans = allocated_unreferenced(allocator, referenced, keep)
    runs = _runs(orphans)
    for start, count in runs:
        allocator.free(start, count)
    scanned = sum(
        allocator._spaces[index].total_blocks
        for index in range(allocator.space_count)
    )
    return len(orphans), len(runs), scanned


def _runs(pages: list[int]) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    for page in pages:
        if runs and runs[-1][0] + runs[-1][1] == page:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page, 1))
    return runs


def _recover_span(
    shard_store: "LargeObjectStore", **attrs: object
) -> ContextManager[object]:
    tracer = shard_store.env.tracer
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span("atomic.recover", **attrs)


# ----------------------------------------------------------------------
# The recovery driver
# ----------------------------------------------------------------------
def recover_sharded_store(
    store: "ShardedStore", *, log: DegradationLog | None = None
) -> RecoveryReport:
    """Restore batch atomicity on a crashed atomic sharded store.

    Call after a crash fault interrupted :meth:`ShardedStore.submit_many`
    (the store's disks are halted mid-protocol).  This is
    :func:`reboot_sharded_store` followed by :func:`resolve_sharded_store`:
    every shard is rebooted, then, in ascending order, its in-memory
    object structures are rebuilt from raw page images and its journal
    is resolved per the module decision table.  The store is fully
    usable afterwards, and per-shard fsck (:func:`fsck_sharded_store`)
    comes back clean.

    Safe to run on a healthy store: shards with no batch history
    resolve to ``none`` and shards whose last batch completed resolve
    to ``already-applied`` — no object state changes either way.
    """
    _journals(store)  # reject a non-atomic store before rebooting it
    reboot_sharded_store(store)
    return resolve_sharded_store(store, log=log)


def reboot_store(store: "LargeObjectStore") -> None:
    """Reboot one store: clear its fault site and halt latch, and drop
    its buffer pool (dirty frames that never reached disk are lost)."""
    store.env.disk.clear_fault_site()
    store.env.pool.reset()


def reboot_sharded_store(store: "ShardedStore") -> None:
    """Reboot every shard (see :func:`reboot_store`)."""
    for shard_store in store.shards:
        reboot_store(shard_store)


def _journals(store: "ShardedStore") -> tuple[IntentJournal, ...]:
    if store.coordinator is None:
        raise InvalidArgumentError(
            "recover_sharded_store needs an atomic store "
            "(ShardedStore(atomic=True))"
        )
    if store.scheme not in SCHEMES:
        raise InvalidArgumentError(
            f"scheme {store.scheme!r} has no atomic recovery story "
            "(no shadowing means no rollback image)"
        )
    return store.coordinator.journals


def resolve_sharded_store(
    store: "ShardedStore", *, log: DegradationLog | None = None
) -> RecoveryReport:
    """Resolve every shard's journal on a rebooted atomic store.

    The second half of :func:`recover_sharded_store`, split out so a
    sweep can reboot the store, arm a fault, and crash recovery itself.
    """
    journals = _journals(store)
    report = RecoveryReport(log=log if log is not None else DegradationLog())
    states = [journal.read_state() for journal in journals]
    for shard, shard_store in enumerate(store.shards):
        state = states[shard]
        journal = journals[shard]
        prepare = state.prepare
        in_flight = prepare is not None and prepare.kind == PREPARE
        with _recover_span(
            shard_store,
            shard=shard,
            batch=prepare.batch_id if in_flight and prepare else 0,
        ):
            # Every object's in-memory structure is lost with the
            # reboot; rebuild it from the disk image.
            manager = shard_store.manager
            for oid in manager.oids():
                manager.mount(oid)
            if not in_flight:
                reclaimed, runs, scanned = _reconcile(shard_store, journal)
                report.shards.append(ShardRecovery(
                    shard, "none", None, reclaimed,
                    reclaimed_runs=runs, pages_scanned=scanned,
                ))
                continue
            assert prepare is not None
            if state.applied is not None:
                # Committed and released here; at worst the trailing
                # frees were interrupted.  The image is the batch-end
                # state — reconciliation reclaims any free-time residue.
                reclaimed, runs, scanned = _reconcile(shard_store, journal)
                journal.write_clean(prepare.batch_id, shard)
                report.shards.append(ShardRecovery(
                    shard, "already-applied", prepare.batch_id, reclaimed,
                    reclaimed_runs=runs, pages_scanned=scanned,
                ))
                continue
            decision = journals[prepare.coordinator].read_decision(
                prepare.batch_id
            )
            if decision is not None:
                # Decided but never applied here: this shard's image is
                # the batch-start state (its root pokes were held), so
                # re-executing the journaled ops lands exactly the
                # batch-end state.  Reconcile first: the crashed held
                # execution's shadow pages are orphans.  The replay
                # follows phase 2's order, so a crash inside it leaves
                # either no APPLIED and the batch-start image (replay
                # again) or APPLIED (already-applied) — never a
                # batch-end image under a journal that asks for replay.
                reclaimed, runs, scanned = _reconcile(shard_store, journal)
                engine = shard_store.env.exec
                with engine.holding():
                    shard_store.submit_multi(list(prepare.mops))
                held = engine.take_held()
                journal.write_applied(prepare.batch_id, shard)
                engine.apply_held(held)
                journal.write_clean(prepare.batch_id, shard)
                report.log.add(
                    shard, f"shard{shard}", 1, "crash-recovery",
                    f"batch {prepare.batch_id} decided but not applied; "
                    f"replayed {len(prepare.mops)} journaled op(s)",
                    "replayed",
                )
                report.shards.append(ShardRecovery(
                    shard, "replayed", prepare.batch_id, reclaimed,
                    reclaimed_runs=runs, pages_scanned=scanned,
                    replayed_ops=len(prepare.mops),
                ))
                continue
            # No durable decision: the batch globally never happened.
            # The image is already the batch-start state; drop the
            # orphaned shadow allocations and mark the area clean.
            reclaimed, runs, scanned = _reconcile(shard_store, journal)
            journal.write_clean(prepare.batch_id, shard)
            report.log.add(
                shard, f"shard{shard}", 1, "crash-recovery",
                f"batch {prepare.batch_id} prepared but undecided; "
                f"rolled back ({reclaimed} orphaned page(s) reclaimed)",
                "rolled-back",
            )
            report.shards.append(ShardRecovery(
                shard, "rolled-back", prepare.batch_id, reclaimed,
                reclaimed_runs=runs, pages_scanned=scanned,
            ))
    return report


def _reconcile(
    shard_store: "LargeObjectStore", journal: IntentJournal
) -> tuple[int, int, int]:
    """Free every allocated-but-unreferenced page outside the journal.

    Returns ``(pages reclaimed, runs freed, block slots scanned)``
    summed over the data and meta areas.
    """
    manager = shard_store.manager
    data_refs, meta_refs, _ = referenced_pages([(manager, manager.oids())])
    areas = shard_store.env.areas
    pages, runs, scanned = _reclaim_orphans(
        areas.data, data_refs, frozenset()
    )
    meta_pages, meta_runs, meta_scanned = _reclaim_orphans(
        areas.meta, meta_refs, journal.pages()
    )
    return pages + meta_pages, runs + meta_runs, scanned + meta_scanned


# ----------------------------------------------------------------------
# Journal-aware fsck over every shard
# ----------------------------------------------------------------------
def fsck_sharded_store(store: "ShardedStore") -> list[FsckReport]:
    """Per-shard consistency reports, journal-aware when atomic.

    Each shard is checked against its own environment; on an atomic
    store the shard's reserved journal region is excluded from the leak
    classes and any unresolved record pages come back in the report's
    ``journal_residue`` class instead.
    """
    reports: list[FsckReport] = []
    for shard, shard_store in enumerate(store.shards):
        manager = shard_store.manager
        journals = (
            [store.coordinator.journals[shard]]
            if store.coordinator is not None
            else None
        )
        reports.append(check([(manager, manager.oids())], journals=journals))
    return reports
