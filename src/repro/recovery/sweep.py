"""One crash-sweep harness: crash a scenario at every physical write.

Shadowing's testable guarantee (Section 3.3) is *atomicity at the
physical write granularity*: an operation becomes visible only at its
final root/descriptor write, so a crash before any physical write leaves
the object bit-identical to its pre-operation state, and a crash after
the last write leaves it bit-identical to the post-operation state.

This module turns that guarantee into a machine-checked sweep.  A
:class:`Scenario` supplies what differs from one sweep to the next:

* ``fresh`` — a fresh deterministic store plus its committed setup;
* ``mutate`` — the mutation to crash;
* ``disks`` — the environments a crash can target (one for a
  :class:`~repro.core.api.LargeObjectStore`, one per shard for a
  :class:`~repro.shard.router.ShardedStore`);
* ``recover`` — the recovery step run after a crash;
* ``classify`` — the verdict on the recovered store, given the exact
  pre/post content (``snapshot``).

:func:`sweep` owns everything else.  It dry-runs the mutation once to
learn each target's physical write count ``W`` and the pre/post
content, then replays the scenario crashing target ``t`` at write
``k`` for every ``t`` and every ``k`` in ``1..W`` via a
:class:`~repro.faults.FaultInjector`.  Each point is one of three kinds:

* ``crash`` — the ``k``-th write raises :class:`CrashError`; an armed
  crash that never fires is a failure;
* ``torn`` — only a prefix of the ``k``-th write persists before the
  crash (single-page writes are atomic and skipped);
* ``transient`` — retryable write faults on the target, which the
  disk's bounded retries must absorb: the mutation completes with the
  post content.

After a crash every disk's checksum envelope must be intact, then the
scenario recovers and classifies.  :class:`OpScenario` is the
single-store sweep behind ``repro-experiments chaos`` and
:class:`BatchScenario` the cross-shard sweep behind ``chaos --shards
N``; ``docs/robustness.md`` lists what each one checks.

``run_sweep(..., jobs=N)`` fans scenarios out to worker processes;
partial reports merge in scenario order, so the report is identical at
any job count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
from collections.abc import Sequence
from typing import Any, ClassVar

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import CrashError, InvalidArgumentError, ReproError
from repro.core.fsck import referenced_pages
from repro.exec.plan import BatchOp, MultiOp
from repro.experiments.parallel import DegradationLog
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at, every
from repro.recovery.atomic import (
    RecoveryReport,
    fsck_sharded_store,
    reboot_store,
    recover_sharded_store,
)
from repro.shard.router import ShardedStore

__all__ = [
    "MUTATING_OPS",
    "SWEEP_SCHEMES",
    "BatchScenario",
    "CrashOutcome",
    "OpScenario",
    "Scenario",
    "StoreCase",
    "StoreScenario",
    "SweepFailure",
    "SweepReport",
    "Wording",
    "cli_main",
    "read_image",
    "run_sweep",
    "sweep",
]

#: The paper's three managers; the block-based baseline has no recovery
#: story (in-place directory overwrites) and is deliberately excluded.
SWEEP_SCHEMES: tuple[str, ...] = ("esm", "starburst", "eos")

#: Every mutating operation of the object interface (Section 2).
MUTATING_OPS: tuple[str, ...] = (
    "create",
    "append",
    "insert",
    "delete",
    "overwrite",
)

_SCHEME_OPTIONS: dict[str, dict[str, int]] = {
    "esm": {"leaf_pages": 2},
    "starburst": {},
    "eos": {"threshold_pages": 2},
}

#: Safety valve: no target of any scenario at the sweep scales used here
#: comes anywhere near this many physical writes.
_MAX_WRITES = 2000


def _pattern(n: int, salt: int = 0) -> bytes:
    """Deterministic non-repeating payload (independent of tests)."""
    return bytes((i * 31 + salt * 97 + 7) % 251 for i in range(n))


def _scheme_options(scheme: str) -> dict[str, int]:
    if scheme not in _SCHEME_OPTIONS:
        raise InvalidArgumentError(f"unknown sweep scheme {scheme!r}")
    return _SCHEME_OPTIONS[scheme]


def read_image(store: LargeObjectStore, oid: int) -> bytes:
    """The object's content as the disk image alone holds it.

    Reboots the store, mounts the object from its page images and reads
    it through the normal read path.  The pool is reset again at the
    end, so the image read leaves no frames behind to perturb later
    write counts.  Raises :class:`ReproError` when the image holds no
    readable object at ``oid``.
    """
    reboot_store(store)
    store.manager.mount(oid)
    content = bytes(store.read(oid, 0, store.size(oid)))
    store.env.pool.reset()
    return content


# ----------------------------------------------------------------------
# Records and the report
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CrashOutcome:
    """One swept point that verified."""

    scenario: str
    #: Index of the targeted disk in the scenario's ``disks``.
    target: int
    #: 1-based write the fault hit (0 for transient points).
    crash_write: int
    #: "crash", "torn", or "transient".
    kind: str
    #: The classifier's verdict: "pre"/"post"/"absent" for one store,
    #: "batch-absent"/"batch-present" for a batch, "completed" for a
    #: transient point.
    outcome: str
    #: Recovery actions per shard, e.g. "rolled-back,none" ("-" when
    #: the scenario's recovery reads the image only).
    recovery: str = "-"
    #: Recovery telemetry, summed across shards: allocator block slots
    #: reconciliation scanned, orphaned pages reclaimed, contiguous free
    #: runs they formed, and journaled ops re-executed.
    pages_scanned: int = 0
    reclaimed_pages: int = 0
    reclaimed_runs: int = 0
    replayed_ops: int = 0


@dataclasses.dataclass(frozen=True)
class SweepFailure:
    """One swept point whose recovery failed verification."""

    scenario: str
    target: int
    crash_write: int
    kind: str
    detail: str


@dataclasses.dataclass(frozen=True)
class Wording:
    """How a report's summary names its points."""

    headline: str
    points: str
    verified: str
    #: Per-scenario tally: (outcome, shown as, shown when zero).
    tally: tuple[tuple[str, str, bool], ...]
    #: Name the target shard in failures and count logged recoveries.
    per_shard: bool


STORE_WORDING = Wording(
    "sweep", "crash points", "recovered",
    (("pre", "pre", True), ("post", "post", True), ("absent", "absent", False)),
    per_shard=False,
)
BATCH_WORDING = Wording(
    "cross-shard sweep", "points", "atomic",
    (
        ("batch-absent", "absent", True),
        ("batch-present", "present", True),
        ("completed", "transient-ok", True),
    ),
    per_shard=True,
)


@dataclasses.dataclass
class SweepReport:
    """Aggregated result of a crash sweep."""

    wording: Wording = STORE_WORDING
    outcomes: list[CrashOutcome] = dataclasses.field(default_factory=list)
    failures: list[SweepFailure] = dataclasses.field(default_factory=list)
    #: Torn-write points skipped because the write was single-page
    #: (single-page writes are atomic and cannot tear).
    atomic_skips: int = 0
    #: Shards recovery had to replay or roll back, over the whole sweep.
    log: DegradationLog = dataclasses.field(default_factory=DegradationLog)

    @property
    def clean(self) -> bool:
        return not self.failures

    def merge(self, other: "SweepReport") -> None:
        """Fold a partial report into this one, in call order."""
        self.outcomes.extend(other.outcomes)
        self.failures.extend(other.failures)
        self.atomic_skips += other.atomic_skips
        self.log.events.extend(other.log.events)

    def summary(self) -> str:
        words = self.wording
        lines = []
        names = {o.scenario for o in self.outcomes}
        names |= {f.scenario for f in self.failures}
        for name in sorted(names):
            mine = [o for o in self.outcomes if o.scenario == name]
            bad = sum(1 for f in self.failures if f.scenario == name)
            counts = []
            for outcome, shown, always in words.tally:
                n = sum(1 for o in mine if o.outcome == outcome)
                if n or always:
                    counts.append(f"{shown}={n}")
            line = (
                f"{name}: {len(mine) + bad} {words.points}, "
                f"{len(mine)} {words.verified} ({' '.join(counts)})"
            )
            if bad:
                line += f", {bad} FAILED"
            lines.append(line)
        verdict = "CLEAN" if self.clean else "FAILURES"
        last = (
            f"{words.headline} {verdict}: {len(self.outcomes)} "
            f"{words.points} verified, {len(self.failures)} failures, "
            f"{self.atomic_skips} atomic single-page writes skipped (torn)"
        )
        if words.per_shard:
            last += f", {len(self.log.events)} shard recoveries logged"
        lines.append(last)
        return "\n".join(lines)

    def failure_lines(self) -> list[str]:
        """One ``FAIL ...`` line per failed point."""
        lines = []
        for f in self.failures:
            where = f" shard{f.target}" if self.wording.per_shard else ""
            lines.append(
                f"FAIL {f.scenario}{where} {f.kind} at write "
                f"{f.crash_write}: {f.detail}"
            )
        return lines

    def classification_table(self) -> str:
        """TSV classification of every point (the CI artifact).

        The last four columns are the point's recovery telemetry:
        allocator block slots scanned, orphaned pages reclaimed, the
        contiguous free runs they formed, and journaled ops replayed.
        """
        lines = [
            "scheme\tshard\twrite\tkind\toutcome\trecovery\t"
            "scanned\treclaimed\truns\treplayed"
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.scenario}\t{o.target}\t{o.crash_write}\t{o.kind}\t"
                f"{o.outcome}\t{o.recovery}\t{o.pages_scanned}\t"
                f"{o.reclaimed_pages}\t{o.reclaimed_runs}\t{o.replayed_ops}"
            )
        for f in self.failures:
            lines.append(
                f"{f.scenario}\t{f.target}\t{f.crash_write}\t{f.kind}\t"
                f"FAILED\t{f.detail}\t-\t-\t-\t-"
            )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
Content = dict[int, bytes]


class Scenario:
    """What a sweep crashes and how it judges the result.

    A scenario is a picklable value; every call of :meth:`fresh` must
    build the identical store, so each replay crashes the same writes.
    The *case* it returns is whatever the other methods need.
    """

    wording: ClassVar[Wording] = STORE_WORDING

    @property
    def name(self) -> str:
        raise NotImplementedError

    def fresh(self) -> Any:
        """A new deterministic store with its committed setup."""
        raise NotImplementedError

    def mutate(self, case: Any) -> None:
        """The mutation the sweep crashes."""
        raise NotImplementedError

    def disks(self, case: Any) -> Sequence[StorageEnvironment]:
        """The environments a fault can target, in target order."""
        raise NotImplementedError

    def snapshot(self, case: Any) -> Content:
        """The committed content, object id to bytes."""
        raise NotImplementedError

    def recover(
        self, case: Any, log: DegradationLog
    ) -> RecoveryReport | None:
        """Recover after a crash; the default reads the image only."""
        return None

    def classify(
        self, case: Any, pre: Content, post: Content
    ) -> tuple[str, list[str]]:
        """(outcome, problems) for the recovered store."""
        raise NotImplementedError


@dataclasses.dataclass
class StoreCase:
    """One store and the object under test (None before a create)."""

    store: LargeObjectStore
    oid: int | None


class StoreScenario(Scenario):
    """A mutation of one object in one :class:`LargeObjectStore`.

    There is no recovery step: the object is read from its disk image
    (:func:`read_image`), must not reference any page twice, and must
    match the pre- or post-mutation content (for a crashed create, "no
    object yet" also counts as the pre-state).
    Subclasses supply ``name``, ``fresh`` and ``mutate``; a ``mutate``
    that creates the object records its id in ``case.oid``.
    """

    def disks(self, case: StoreCase) -> Sequence[StorageEnvironment]:
        return [case.store.env]

    def snapshot(self, case: StoreCase) -> Content:
        if case.oid is None:
            return {}
        store = case.store
        return {case.oid: bytes(store.read(case.oid, 0, store.size(case.oid)))}

    def classify(
        self, case: StoreCase, pre: Content, post: Content
    ) -> tuple[str, list[str]]:
        (target,) = post
        problems: list[str] = []
        try:
            recovered: bytes | None = read_image(case.store, target)
        except ReproError:
            # The root/descriptor page never made it to disk in a
            # readable form — only a never-committed create may do that.
            recovered = None
        else:
            _, _, double = referenced_pages([(case.store.manager, [target])])
            if double:
                problems.append(
                    f"pages {sorted(double)} referenced twice by the image"
                )
        before = pre.get(target)
        if recovered == post[target]:
            return "post", problems
        if before is not None and recovered == before:
            return "pre", problems
        if before is None and recovered in (None, b""):
            return "absent", problems
        problems.append(
            "rebuilt content matches neither pre- nor post-state "
            f"({len(recovered) if recovered is not None else 'no'} "
            "bytes recovered)"
        )
        return "neither", problems


@dataclasses.dataclass(frozen=True)
class OpScenario(StoreScenario):
    """One mutating operation of the object interface on one store.

    ``shadowing=False`` is the negative control: in-place updates are
    *not* crash-safe, and the sweep is expected to report failures —
    tests use this to prove the harness actually detects lost state.
    """

    scheme: str
    op: str
    shadowing: bool = True

    @property
    def name(self) -> str:
        return f"{self.scheme}/{self.op}"

    def fresh(self) -> StoreCase:
        store = LargeObjectStore(
            self.scheme, small_page_config(), shadowing=self.shadowing,
            **_scheme_options(self.scheme),
        )
        if self.op == "create":
            return StoreCase(store, None)  # create starts from nothing
        page = store.config.page_size
        oid = store.create(_pattern(8 * page + 37))
        store.insert(oid, 4 * page, _pattern(page + 11, salt=1))
        store.delete(oid, 100, 64)
        return StoreCase(store, oid)

    def mutate(self, case: StoreCase) -> None:
        store, oid, op = case.store, case.oid, self.op
        page = store.config.page_size
        if op == "create":
            case.oid = store.create(_pattern(6 * page + 17, salt=3))
            return
        assert oid is not None
        if op == "append":
            store.append(oid, _pattern(3 * page + 5, salt=4))
        elif op == "insert":
            store.insert(oid, 3 * page + 17, _pattern(2 * page + 9, salt=5))
        elif op == "delete":
            store.delete(oid, page + 3, 2 * page)
        elif op == "overwrite":
            store.replace(oid, page // 2, _pattern(2 * page + 1, salt=6))
        else:
            raise InvalidArgumentError(f"unknown sweep operation {op!r}")


@dataclasses.dataclass
class BatchCase:
    """An atomic sharded store, its objects, and their crash images."""

    store: ShardedStore
    oids: list[int]
    #: Each object read from its image before recovery (crash only).
    images: dict[int, bytes | None] | None = None


@dataclasses.dataclass(frozen=True)
class BatchScenario(Scenario):
    """One batch over every shard of an atomic :class:`ShardedStore`.

    Journal writes are crash points like any other.  Raw-image
    atomicity is *per shard*: shadowing plus held phase-2 application
    keep each shard's sub-batch entirely absent or entirely applied on
    disk.  Across shards a mid-phase-2 crash legitimately images some
    shards applied and some not — the durable DECISION then obliges
    recovery to replay the stragglers forward.  After
    :func:`~repro.recovery.atomic.recover_sharded_store` the store must
    read back the batch-start or the batch-end state, must not have
    undone a durably applied shard, and must pass the journal-aware
    fsck.
    """

    wording: ClassVar[Wording] = BATCH_WORDING

    scheme: str
    shards: int

    @property
    def name(self) -> str:
        return self.scheme

    def fresh(self) -> BatchCase:
        store = ShardedStore(
            self.scheme, small_page_config(), shards=self.shards,
            atomic=True, **_scheme_options(self.scheme),
        )
        page = store.config.page_size
        oids = [
            store.create(_pattern(3 * page + 21, salt=i))
            for i in range(2 * self.shards)
        ]
        return BatchCase(store, oids)

    def mutate(self, case: BatchCase) -> None:
        """Appends and inserts alternating over every object."""
        page = case.store.config.page_size
        mops = []
        for i, oid in enumerate(case.oids):
            if i % 2 == 0:
                op = BatchOp("append", 0, 0, _pattern(page + 17, salt=20 + i))
            else:
                op = BatchOp(
                    "insert", page // 2, 0, _pattern(page - 13, salt=40 + i)
                )
            mops.append(MultiOp(oid, op))
        case.store.submit_many(mops)

    def disks(self, case: BatchCase) -> Sequence[StorageEnvironment]:
        return [shard.env for shard in case.store.shards]

    def snapshot(self, case: BatchCase) -> Content:
        store = case.store
        return {o: bytes(store.read(o, 0, store.size(o))) for o in case.oids}

    def recover(
        self, case: BatchCase, log: DegradationLog
    ) -> RecoveryReport:
        case.images = {}
        for oid in case.oids:
            shard_store, local = case.store._route(oid)
            try:
                case.images[oid] = read_image(shard_store, local)
            except ReproError:
                case.images[oid] = None
        return recover_sharded_store(case.store, log=log)

    def classify(
        self, case: BatchCase, pre: Content, post: Content
    ) -> tuple[str, list[str]]:
        problems: list[str] = []
        applied: list[int] = []
        if case.images is not None:
            images = case.images
            problems += [
                f"oid {oid} unrebuildable from its image"
                for oid in case.oids
                if images[oid] is None
            ]
            for shard in range(self.shards):
                mine = [o for o in case.oids if o % self.shards == shard]
                local = [images[o] for o in mine]
                if local == [post[o] for o in mine]:
                    applied.append(shard)
                elif local != [pre[o] for o in mine]:
                    problems.append(
                        f"ATOMICITY VIOLATION: shard{shard}'s image is "
                        "neither all-pre nor all-post of its sub-batch"
                    )
        live = self.snapshot(case)
        if live == pre:
            outcome = "batch-absent"
        elif live == post:
            outcome = "batch-present"
        else:
            outcome = "mixed"
            problems.append(
                "ATOMICITY VIOLATION: recovered store reads back "
                "neither the batch-start nor the batch-end state"
            )
        if applied and outcome == "batch-absent":
            # Recovery may roll an all-pre image either way (replay on a
            # durable decision) but must never un-apply durable state.
            problems.append(
                f"recovery rolled back a batch shards {applied} "
                "had already durably applied"
            )
        for shard, fsck in enumerate(fsck_sharded_store(case.store)):
            if not fsck.clean:
                problems.append(f"shard{shard} {fsck.summary()}")
        return outcome, problems


# ----------------------------------------------------------------------
# The enumerator
# ----------------------------------------------------------------------
def sweep(
    scenario: Scenario, kinds: Sequence[str] = ("crash", "torn")
) -> SweepReport:
    """Fault every target of ``scenario`` at every physical write.

    ``kinds`` picks the point kinds per target, in order: ``crash``
    and ``torn`` at each write ``k``, ``transient`` once.
    """
    report = SweepReport(scenario.wording)
    case = scenario.fresh()
    pre = scenario.snapshot(case)
    stats = [env.cost.stats for env in scenario.disks(case)]
    before = [s.write_calls for s in stats]
    scenario.mutate(case)
    writes = [s.write_calls - b for s, b in zip(stats, before)]
    post = scenario.snapshot(case)
    if max(writes) > _MAX_WRITES:
        raise ReproError(
            f"{scenario.name}: implausible write counts {writes}"
        )
    for target, n_writes in enumerate(writes):
        for kind in kinds:
            points = [0] if kind == "transient" else range(1, n_writes + 1)
            for k in points:
                _point(scenario, report, target, kind, k, pre, post)
    return report


def _plan(kind: str, k: int) -> FaultPlan:
    if kind == "crash":
        return FaultPlan(crash_writes=at(k))
    if kind == "torn":
        return FaultPlan(torn_writes=at(k))
    if kind == "transient":
        return FaultPlan(write_faults=every(3), transient=True)
    raise InvalidArgumentError(f"unknown sweep point kind {kind!r}")


def _point(
    scenario: Scenario,
    report: SweepReport,
    target: int,
    kind: str,
    k: int,
    pre: Content,
    post: Content,
) -> None:
    """Fault one point of a fresh store and record what came of it."""
    case = scenario.fresh()
    disks = scenario.disks(case)
    # A transient fault must be absorbed; the others must crash.
    expected = ReproError if kind == "transient" else CrashError
    fault: ReproError | None = None
    try:
        with FaultInjector(disks[target], _plan(kind, k)):
            scenario.mutate(case)
    except expected as exc:
        fault = exc
    outcome = "completed"
    recovery: RecoveryReport | None = None
    if kind == "transient":
        if fault is not None:
            problems = [f"retryable faults broke the mutation: {fault}"]
        else:
            problems = []
            if scenario.snapshot(case) != post:
                problems.append("content diverged under retried writes")
            problems += scenario.classify(case, pre, post)[1]
    elif fault is None:
        if kind == "torn":
            # Write k was a single page: atomic, cannot tear.
            report.atomic_skips += 1
            return
        problems = [f"armed crash at write {k} never fired"]
    else:
        problems = [
            f"checksum damage on pages {corrupt}"
            for corrupt in (env.disk.verify_checksums() for env in disks)
            if corrupt
        ]
        recovery = scenario.recover(case, report.log)
        outcome, found = scenario.classify(case, pre, post)
        problems += found
    name = scenario.name
    if problems:
        report.failures.append(
            SweepFailure(name, target, k, kind, "; ".join(problems))
        )
    elif recovery is None:
        report.outcomes.append(CrashOutcome(name, target, k, kind, outcome))
    else:
        shards = recovery.shards
        report.outcomes.append(CrashOutcome(
            name, target, k, kind, outcome,
            ",".join(s.action for s in shards),
            pages_scanned=sum(s.pages_scanned for s in shards),
            reclaimed_pages=sum(s.reclaimed_pages for s in shards),
            reclaimed_runs=sum(s.reclaimed_runs for s in shards),
            replayed_ops=sum(s.replayed_ops for s in shards),
        ))


def run_sweep(
    scenarios: Sequence[Scenario],
    kinds: Sequence[str] = ("crash", "torn"),
    *,
    jobs: int = 1,
) -> SweepReport:
    """Sweep every scenario, optionally in worker processes."""
    report = SweepReport(
        scenarios[0].wording if scenarios else STORE_WORDING
    )
    if jobs <= 1 or len(scenarios) <= 1:
        for scenario in scenarios:
            report.merge(sweep(scenario, kinds))
        return report
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        # map() yields in scenario order, so the merged report is
        # identical to the serial one at any worker count.
        for partial in pool.map(
            sweep, scenarios, [kinds] * len(scenarios)
        ):
            report.merge(partial)
    return report


# ----------------------------------------------------------------------
# CLI: repro-experiments chaos
# ----------------------------------------------------------------------
def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description=(
            "Crash every mutating operation at every physical write "
            "point and verify the disk image recovers bit-identically."
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("tiny", "small"),
        default="tiny",
        help="workload scale (tiny: 128-byte pages; small: same config, "
        "both crash and torn sweeps)",
    )
    parser.add_argument(
        "--scheme",
        choices=("all",) + SWEEP_SCHEMES,
        default="all",
        help="restrict the sweep to one storage manager",
    )
    parser.add_argument(
        "--op",
        choices=("all",) + MUTATING_OPS,
        default="all",
        help="restrict the sweep to one mutating operation",
    )
    parser.add_argument(
        "--no-torn",
        action="store_true",
        help="skip the torn-write variant of each crash point",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the cross-shard atomic sweep over N shards instead of "
        "the single-store sweep (requires N >= 1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to spread the sweep's scenarios over",
    )
    parser.add_argument(
        "--table",
        default="",
        help="write the per-point classification table (TSV) to this "
        "path",
    )
    args = parser.parse_args(argv)

    schemes = SWEEP_SCHEMES if args.scheme == "all" else (args.scheme,)
    torn: tuple[str, ...] = () if args.no_torn else ("torn",)
    if args.shards > 0:
        report = run_sweep(
            [BatchScenario(scheme, args.shards) for scheme in schemes],
            ("crash", *torn, "transient"),
            jobs=args.jobs,
        )
    else:
        ops = MUTATING_OPS if args.op == "all" else (args.op,)
        scenarios = [OpScenario(s, op) for s in schemes for op in ops]
        if args.scale == "tiny" and torn:
            # Tiny keeps CI smoke fast: torn only on the multi-page-heavy
            # op.
            report = run_sweep(scenarios, ("crash",), jobs=args.jobs)
            report.merge(run_sweep(
                [s for s in scenarios if s.op == "append"], torn,
                jobs=args.jobs,
            ))
        else:
            report = run_sweep(scenarios, ("crash", *torn), jobs=args.jobs)
    print(report.summary())  # repro-lint: disable=OBS001
    if args.table:
        with open(args.table, "w", encoding="utf-8") as handle:
            handle.write(report.classification_table())
        print(f"classification table written to {args.table}")  # repro-lint: disable=OBS001
    if report.log.degraded:
        print(report.log.summary())  # repro-lint: disable=OBS001
    if not report.clean:
        for line in report.failure_lines():
            print(line)  # repro-lint: disable=OBS001
        return 2
    return 0
