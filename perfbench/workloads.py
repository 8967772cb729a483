"""The benchmark's workloads: seeded inputs, set-up, one timed pass, checks.

Every workload runs at the paper's Table 1 parameters (4 KB pages, a
12-page buffer pool, shadowing on, ESM leaves and EOS thresholds of 4
pages) through the public store API only: ``LargeObjectStore`` and
``ShardedStore``.  A pass builds fresh stores (the timed set-up), then
drives one closed loop -- a single client, each call issued as soon as
the previous one returns -- over inputs generated up front from the
seed, and finally checks the stores.  Every pass of one input set does
exactly the same work, so its simulated counters must repeat exactly.

Host latency is taken around each public call and nothing else; the
checks a call's result needs (its length, its bytes against a model)
run between calls, outside the timed region.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import time
from typing import Any, Callable

from calibration import Calibrator
from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG
from repro.core.fsck import check
from repro.core.payload import SizedPayload
from repro.exec.plan import MultiOp, read_op, replace_op
from repro.recovery.atomic import fsck_sharded_store
from repro.shard.router import ShardedStore

KB = 1 << 10
MB = 1 << 20

#: Fig 5/6 append sizes in KB (paper footnote 2).  The benchmark keeps its
#: own copy of every input parameter and generator, so a change to the
#: program's experiment code cannot change what the benchmark measures.
FIG5_APPEND_KB = (
    3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32,
    50, 64, 100, 128, 200, 256, 512,
)

#: Initial objects are built at set-up by appends of this size.
BUILD_CHUNK = 64 * KB

READ, INSERT, DELETE = "read", "insert", "delete"

#: Mean size of a Section 4.4 update (sizes are uniform within +/-50%).
UPDATE_MEAN_BYTES = 10 * KB


class Recorder:
    """Per-call latency, user bytes and failures of one pass."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        #: Host ns of each call in call order; None where the call failed.
        self.latency_ns: list[int | None] = []
        #: When each call returned (perf_counter_ns), for calibration.
        self.stamps: list[int] = []
        #: Whether each call mutates (a write) or only reads.
        self.writes: list[bool] = []
        #: User bytes each call reads or writes.
        self.nbytes: list[int] = []
        #: False where other work ran just before the call (a calibration
        #: sample, or set-up for the first call): it starts with cold
        #: caches, so it is made but not sampled.
        self.warm: list[bool] = []
        self.failures: list[str] = []
        self._cold = True

    def call(self, write: bool, nbytes: int,
             fn: Callable[..., Any], *args: Any) -> Any:
        """Issue one public API call, timing only the call itself.

        A call that raises is counted as failed and gives no latency
        sample; the pass goes on with the next call.
        """
        self.writes.append(write)
        self.nbytes.append(nbytes)
        self.warm.append(not self._cold)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed call is a result, not a crash
            end = time.perf_counter_ns()
            self.latency_ns.append(None)
            self.failures.append(f"{fn.__qualname__} raised {exc!r}")
            result = None
        else:
            end = time.perf_counter_ns()
            self.latency_ns.append(end - start)
        self.stamps.append(end)
        self._cold = self.calibrator.tick(end)
        return result

    def check(self, ok: bool, message: str) -> None:
        """Record a failed correctness check."""
        if not ok:
            self.failures.append(message)

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    def sampled_ns(self, scaled: bool = True) -> list[float | None]:
        """Host ns of each call in call order, scaled to the calibration
        reference unless ``scaled`` is false; None where the call failed
        or was not sampled."""
        factor = self.calibrator.factor
        return [
            None if ns is None or not warm
            else ns * factor(stamp) if scaled else ns
            for ns, stamp, warm in zip(self.latency_ns, self.stamps, self.warm)
        ]

    def samples(self, scaled: bool = True) -> list[tuple[float, bool, int]]:
        """(host ns, is a write, user bytes) of every sampled call."""
        return [
            (ns, write, nbytes)
            for ns, write, nbytes in zip(
                self.sampled_ns(scaled), self.writes, self.nbytes
            )
            if ns is not None
        ]


def update_mix(rng: random.Random, object_bytes: int, n_ops: int
               ) -> tuple[list[tuple[str, int, int]], int]:
    """The paper's Section 4.4 op stream and the object size it leaves.

    40% reads, 30% inserts, 30% deletes; sizes uniform within +/-50% of
    the mean; offsets uniform over the object; each delete takes the size
    of the previous insert, and an update that would leave a +/-10% band
    around the starting size is turned into the one that corrects it.
    """
    mean = UPDATE_MEAN_BYTES
    low, high = mean // 2, mean + mean // 2
    size, last_insert = object_bytes, mean
    ops: list[tuple[str, int, int]] = []
    while len(ops) < n_ops:
        roll = rng.random()
        kind = INSERT if roll < 0.3 else DELETE if roll < 0.6 else READ
        if kind != READ:
            if size < 0.9 * object_bytes:
                kind = INSERT
            elif size > 1.1 * object_bytes:
                kind = DELETE
        if kind == INSERT:
            nbytes = rng.randint(low, high)
            ops.append((INSERT, rng.randint(0, size), nbytes))
            size += nbytes
            last_insert = nbytes
        elif kind == DELETE:
            nbytes = min(last_insert, size)
            ops.append((DELETE, rng.randint(0, size - nbytes), nbytes))
            size -= nbytes
        else:
            nbytes = min(rng.randint(low, high), size)
            ops.append((READ, rng.randint(0, size - nbytes), nbytes))
    return ops, size


def store_counters(store: LargeObjectStore) -> dict[str, float]:
    """One store's simulated counters: I/O ledger, sim ms, pool stats."""
    io, pool = store.stats, store.env.pool.stats
    return {
        "read_calls": io.read_calls,
        "write_calls": io.write_calls,
        "pages_read": io.pages_read,
        "pages_written": io.pages_written,
        "sim_ms": io.elapsed_ms(store.config),
        "pool_hits": pool.hits,
        "pool_misses": pool.misses,
        "pool_evictions": pool.evictions,
        "pool_writebacks": pool.dirty_writebacks,
    }


def allocated_bytes(stores: list[LargeObjectStore]) -> int:
    """Bytes of every allocated page in the stores' meta and data areas."""
    return sum(
        store.env.areas.total_allocated_pages * store.config.page_size
        for store in stores
    )


def fsck_failures(label: str, run_check: Callable[[], list[Any]]) -> list[str]:
    """Failure messages of a consistency check; a check that raises on a
    damaged store is a failure too, not a crash."""
    try:
        reports = run_check()
    except Exception as exc:  # the store is damaged beyond what fsck reports
        return [f"{label}: fsck raised {exc!r}"]
    return [
        f"{label}: {report.summary()}" for report in reports
        if not report.clean
    ]


@dataclasses.dataclass
class PassResult:
    """What one pass measured and checked."""

    setup_ns: int
    #: When set-up ended (perf_counter_ns), for calibration.
    setup_stamp: int
    recorder: Recorder
    #: Per store: counters after set-up, and after the timed loop.
    counters: dict[str, dict[str, dict[str, float]]]
    #: Allocated bytes and live user bytes, for ``space_amp``.
    space: tuple[int, int]


class Workload:
    """One benchmark workload.  Subclasses fill in the five hooks."""

    name = ""

    def inputs(self, seed: int, part: int = 0) -> Any:
        """Every input of a pass, generated up front from ``seed``;
        ``part`` picks one of several input sets of the same seed."""
        raise NotImplementedError

    def shape(self, inputs: Any) -> dict[str, Any]:
        """What a seed must not change: sizes, counts, op mix."""
        raise NotImplementedError

    def setup(self, inputs: Any) -> Any:
        """Fresh stores holding the initial objects (timed as set-up)."""
        raise NotImplementedError

    def stores(self, state: Any) -> dict[str, LargeObjectStore]:
        """The single-shard stores whose counters the pass reports."""
        raise NotImplementedError

    def loop(self, state: Any, inputs: Any, rec: Recorder) -> None:
        """The timed closed loop."""
        raise NotImplementedError

    def verify(self, state: Any, inputs: Any, rec: Recorder) -> tuple[int, int]:
        """Post-loop checks; returns (allocated bytes, live user bytes)."""
        raise NotImplementedError


def run_pass(workload: Workload, inputs: Any, calibrator: Calibrator,
             traced: Any = None) -> PassResult:
    """Set up, run the timed loop (inside ``traced``, if given), check.

    The benchmark's own objects (inputs, earlier passes' samples) are
    frozen out of the cyclic garbage collector for the pass, so the
    collections that land inside timed calls scan the program's heap
    only, as they would in a process of its own.
    """
    gc.collect()
    gc.freeze()
    try:
        return _run_pass(workload, inputs, calibrator, traced)
    finally:
        gc.unfreeze()


def _run_pass(workload: Workload, inputs: Any, calibrator: Calibrator,
              traced: Any) -> PassResult:
    calibrator.sample()
    start = time.perf_counter_ns()
    state = workload.setup(inputs)
    end = time.perf_counter_ns()
    calibrator.sample()
    stores = workload.stores(state)
    after_setup = {label: store_counters(s) for label, s in stores.items()}
    rec = Recorder(calibrator)
    if traced is None:
        workload.loop(state, inputs, rec)
    else:
        with traced:
            workload.loop(state, inputs, rec)
    counters = {
        label: {"setup": after_setup[label], "end": store_counters(s)}
        for label, s in stores.items()
    }
    space = workload.verify(state, inputs, rec)
    return PassResult(end - start, end, rec, counters, space)


# ----------------------------------------------------------------------
# Random updates on phantom objects (paper Section 4.4)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class UpdateInputs:
    ops: list[tuple[str, int, int]]
    payloads: list[SizedPayload | None]
    final_size: int


class RandomUpdate(Workload):
    """The Section 4.4 mix on one 10 MB phantom object per scheme.

    The same op stream is applied to every scheme's object, the schemes'
    calls interleaved op by op.
    """

    def __init__(self, name: str, schemes: tuple[str, ...], *,
                 object_bytes: int = 10 * MB, n_ops: int = 2000) -> None:
        self.name = name
        self.schemes = schemes
        self.object_bytes = object_bytes
        self.n_ops = n_ops

    def inputs(self, seed: int, part: int = 0) -> UpdateInputs:
        rng = random.Random(f"{self.name}/{seed}/{part}")
        ops, final_size = update_mix(rng, self.object_bytes, self.n_ops)
        payloads = [
            SizedPayload(nbytes) if kind == INSERT else None
            for kind, _, nbytes in ops
        ]
        return UpdateInputs(ops, payloads, final_size)

    def shape(self, inputs: UpdateInputs) -> dict[str, Any]:
        return {
            "schemes": self.schemes,
            "object_bytes": self.object_bytes,
            "ops": len(inputs.ops),
            "kinds": sorted({kind for kind, _, _ in inputs.ops}),
        }

    def setup(self, inputs: UpdateInputs) -> list[tuple[str, LargeObjectStore, int]]:
        state = []
        chunk = SizedPayload(BUILD_CHUNK)
        for scheme in self.schemes:
            store = LargeObjectStore(scheme, PAPER_CONFIG, record_data=False)
            oid = store.create()
            for done in range(0, self.object_bytes, BUILD_CHUNK):
                store.append(oid, chunk[:min(BUILD_CHUNK, self.object_bytes - done)])
            # As the paper's build does, trim the rightmost segment's
            # slack (Starburst/EOS); the store facade has no trim call.
            trim = getattr(store.manager, "trim", None)
            if trim is not None:
                trim(oid)
            state.append((scheme, store, oid))
        return state

    def stores(self, state: list[tuple[str, LargeObjectStore, int]]
               ) -> dict[str, LargeObjectStore]:
        return {scheme: store for scheme, store, _ in state}

    def loop(self, state: list[tuple[str, LargeObjectStore, int]],
             inputs: UpdateInputs, rec: Recorder) -> None:
        targets = [(store, oid) for _, store, oid in state]
        call = rec.call
        for (kind, offset, nbytes), payload in zip(inputs.ops, inputs.payloads):
            for store, oid in targets:
                if kind == READ:
                    data = call(False, nbytes, store.read, oid, offset, nbytes)
                    if data is not None and len(data) != nbytes:
                        rec.failures.append(
                            f"{store.scheme} read({offset}, {nbytes}) "
                            f"returned {len(data)} bytes"
                        )
                elif kind == INSERT:
                    call(True, nbytes, store.insert, oid, offset, payload)
                else:
                    call(True, 0, store.delete, oid, offset, nbytes)

    def verify(self, state: list[tuple[str, LargeObjectStore, int]],
               inputs: UpdateInputs, rec: Recorder) -> tuple[int, int]:
        for scheme, store, oid in state:
            size = store.size(oid)
            rec.check(size == inputs.final_size,
                      f"{scheme} object is {size} bytes, "
                      f"the generator tracked {inputs.final_size}")
            rec.failures += fsck_failures(
                scheme, lambda: [check([(store.manager, [oid])])]
            )
        stores = [store for _, store, _ in state]
        return allocated_bytes(stores), sum(s.size(o) for _, s, o in state)


# ----------------------------------------------------------------------
# Whole-object lifecycle on recorded objects (paper Figs 5-6)
# ----------------------------------------------------------------------
SCAN_BYTES = 64 * KB
LIFECYCLE_SCHEMES = ("esm", "starburst", "eos")


@dataclasses.dataclass(frozen=True)
class LifecycleInputs:
    blob: bytes
    #: Offset in blob of the resident object's bytes.
    resident_shift: int
    #: Per cycle, per scheme: (append size, offset of the object's bytes
    #: in blob, object size).
    cycles: list[list[tuple[int, int, int]]]


class ObjectLifecycle(Workload):
    """Create, append, scan and destroy recorded objects of every scheme.

    Each scheme's store holds one resident object, built at set-up,
    beside which the cycled objects are allocated.  Each scheme goes
    once through every Fig 5 append size per pass, in a seeded order; a
    seed changes that order, the bytes, and each object's size within
    its last scan chunk, but not the amount of work.
    """

    name = "object-lifecycle"

    def __init__(self, *, object_bytes: int = 1 * MB,
                 append_kb: tuple[int, ...] = FIG5_APPEND_KB) -> None:
        self.object_bytes = object_bytes
        self.append_kb = append_kb

    def inputs(self, seed: int, part: int = 0) -> LifecycleInputs:
        rng = random.Random(f"{self.name}/{seed}/{part}")
        blob = rng.randbytes(2 * self.object_bytes)
        resident_shift = rng.randrange(self.object_bytes)
        orders = []
        for _ in LIFECYCLE_SCHEMES:
            sizes = [kb * KB for kb in self.append_kb]
            rng.shuffle(sizes)
            orders.append(sizes)
        cycles = [
            [
                (order[i], rng.randrange(self.object_bytes),
                 self.object_bytes - rng.randrange(self.object_bytes // 16))
                for order in orders
            ]
            for i in range(len(self.append_kb))
        ]
        return LifecycleInputs(blob, resident_shift, cycles)

    def shape(self, inputs: LifecycleInputs) -> dict[str, Any]:
        return {
            "schemes": LIFECYCLE_SCHEMES,
            "object_bytes": self.object_bytes,
            "cycles": len(inputs.cycles),
            "append_sizes": sorted(
                size for cycle in inputs.cycles for size, _, _ in cycle
            ),
        }

    def resident(self, inputs: LifecycleInputs) -> bytes:
        return inputs.blob[inputs.resident_shift:][:self.object_bytes]

    def setup(self, inputs: LifecycleInputs) -> dict[str, Any]:
        data = self.resident(inputs)
        stores = []
        for scheme in LIFECYCLE_SCHEMES:
            store = LargeObjectStore(scheme, PAPER_CONFIG)
            oid = store.create()
            for start in range(0, len(data), BUILD_CHUNK):
                store.append(oid, data[start:start + BUILD_CHUNK])
            stores.append((scheme, store, oid))
        return {"stores": stores, "space": [0, 0]}

    def stores(self, state: dict[str, Any]) -> dict[str, LargeObjectStore]:
        return {scheme: store for scheme, store, _ in state["stores"]}

    def loop(self, state: dict[str, Any], inputs: LifecycleInputs,
             rec: Recorder) -> None:
        call, space = rec.call, state["space"]
        for cycle in inputs.cycles:
            for (scheme, store, _), (append_bytes, shift, total) in zip(
                state["stores"], cycle
            ):
                data = inputs.blob[shift:shift + total]
                allocated = allocated_bytes([store])
                oid = call(True, 0, store.create)
                if oid is None:
                    continue
                for start in range(0, total, append_bytes):
                    chunk = data[start:start + append_bytes]
                    call(True, len(chunk), store.append, oid, chunk)
                size = store.size(oid)
                rec.check(size == total, f"{scheme} object is {size} bytes "
                          f"after appending {total}")
                space[0] += allocated_bytes([store]) - allocated
                space[1] += size
                for start in range(0, total, SCAN_BYTES):
                    n = min(SCAN_BYTES, total - start)
                    got = call(False, n, store.read, oid, start, n)
                    if got is not None and got != data[start:start + n]:
                        rec.failures.append(
                            f"{scheme} scan at {start} differs from the "
                            f"appended bytes"
                        )
                call(True, 0, store.destroy, oid)

    def verify(self, state: dict[str, Any], inputs: LifecycleInputs,
               rec: Recorder) -> tuple[int, int]:
        resident = self.resident(inputs)
        for scheme, store, oid in state["stores"]:
            rec.check(store.read(oid, 0, len(resident)) == resident,
                      f"{scheme} resident object differs from its bytes")
            rec.failures += fsck_failures(
                scheme, lambda: [check([(store.manager, [oid])])]
            )
        allocated, live = state["space"]
        return allocated, live


# ----------------------------------------------------------------------
# Cross-shard atomic batches
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AtomicInputs:
    blob: bytes
    #: Offset in blob of each object's initial bytes, and its size.
    object_shifts: list[int]
    object_sizes: list[int]
    #: Per batch: (is a replace batch, [(object offset, blob offset)] per object).
    batches: list[tuple[bool, list[tuple[int, int]]]]


#: The atomic store's shards, the objects on each, and the bytes each op
#: of a batch reads or replaces.
ATOMIC_SHARDS = 4
OBJECTS_PER_SHARD = 2
ATOMIC_OP_BYTES = 10 * KB
ATOMIC_OBJECTS = ATOMIC_SHARDS * OBJECTS_PER_SHARD


class CrossShardAtomic(Workload):
    """Alternating read and replace batches that touch every shard of an
    atomic four-shard ESM store holding two recorded objects per shard.

    A seed picks the offsets, the bytes and each object's size (up to a
    sixteenth below ``object_bytes``)."""

    name = "cross-shard-atomic"

    def __init__(self, *, object_bytes: int = 1 * MB,
                 n_batches: int = 600) -> None:
        self.object_bytes = object_bytes
        self.n_batches = n_batches

    def inputs(self, seed: int, part: int = 0) -> AtomicInputs:
        rng = random.Random(f"{self.name}/{seed}/{part}")
        blob = rng.randbytes(2 * self.object_bytes)
        shifts = [rng.randrange(self.object_bytes) for _ in range(ATOMIC_OBJECTS)]
        sizes = [
            self.object_bytes - rng.randrange(self.object_bytes // 16)
            for _ in range(ATOMIC_OBJECTS)
        ]
        batches = [
            (index % 2 == 1, [
                (rng.randint(0, size - ATOMIC_OP_BYTES),
                 rng.randint(0, len(blob) - ATOMIC_OP_BYTES))
                for size in sizes
            ])
            for index in range(self.n_batches)
        ]
        return AtomicInputs(blob, shifts, sizes, batches)

    def shape(self, inputs: AtomicInputs) -> dict[str, Any]:
        return {
            "shards": ATOMIC_SHARDS,
            "objects": len(inputs.object_shifts),
            "object_bytes": self.object_bytes,
            "batches": len(inputs.batches),
            "replace_batches": sum(replace for replace, _ in inputs.batches),
            "ops_per_batch": sorted({len(ops) for _, ops in inputs.batches}),
        }

    def setup(self, inputs: AtomicInputs) -> dict[str, Any]:
        store = ShardedStore(
            "esm", PAPER_CONFIG, shards=ATOMIC_SHARDS, atomic=True
        )
        models = [
            bytearray(inputs.blob[shift:shift + size])
            for shift, size in zip(inputs.object_shifts, inputs.object_sizes)
        ]
        oids = [store.create(bytes(model)) for model in models]
        return {"store": store, "oids": oids, "models": models}

    def stores(self, state: dict[str, Any]) -> dict[str, LargeObjectStore]:
        return {
            f"shard{index}": shard
            for index, shard in enumerate(state["store"].shards)
        }

    def loop(self, state: dict[str, Any], inputs: AtomicInputs,
             rec: Recorder) -> None:
        store, oids, models = state["store"], state["oids"], state["models"]
        blob, n = inputs.blob, ATOMIC_OP_BYTES
        batch_bytes = n * len(oids)
        for replace, ops in inputs.batches:
            if replace:
                datas = [blob[at:at + n] for _, at in ops]
                mops = [
                    MultiOp(oid, replace_op(offset, data))
                    for oid, (offset, _), data in zip(oids, ops, datas)
                ]
            else:
                mops = [
                    MultiOp(oid, read_op(offset, n))
                    for oid, (offset, _) in zip(oids, ops)
                ]
            outcome = rec.call(replace, batch_bytes, store.submit_many, mops)
            if outcome is None:
                continue
            for index, (model, (offset, _)) in enumerate(zip(models, ops)):
                if replace:
                    model[offset:offset + n] = datas[index]
                elif outcome.results[index] != model[offset:offset + n]:
                    rec.failures.append(
                        f"batch read of object {oids[index]} at {offset} "
                        f"differs from the model"
                    )

    def verify(self, state: dict[str, Any], inputs: AtomicInputs,
               rec: Recorder) -> tuple[int, int]:
        store = state["store"]
        for oid, model in zip(state["oids"], state["models"]):
            size = store.size(oid)
            rec.check(size == len(model),
                      f"object {oid} is {size} bytes, expected {len(model)}")
        rec.failures += fsck_failures(
            "atomic store", lambda: fsck_sharded_store(store)
        )
        live = sum(len(model) for model in state["models"])
        return allocated_bytes(list(store.shards)), live


#: Workload name -> factory at the benchmark's sizes.
WORKLOADS: dict[str, Callable[[], Workload]] = {
    "tree-update": lambda: RandomUpdate("tree-update", ("esm", "eos")),
    "starburst-update": lambda: RandomUpdate(
        "starburst-update", ("starburst",)
    ),
    "object-lifecycle": ObjectLifecycle,
    "cross-shard-atomic": CrossShardAtomic,
}
