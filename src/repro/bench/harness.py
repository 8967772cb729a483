"""Timed bench points and baseline comparison.

Every point builds a fresh store (its own disk, cost ledger, and buffer
pool), performs one representative workload, and records:

* ``wall_s`` — host wall-clock seconds (the only machine-dependent field);
* ``sim_s`` — simulated I/O seconds, which must be stable run-to-run (a
  changed ``sim_s`` means behaviour changed, not just speed);
* ``io_calls`` / ``pages`` — physical call and page-transfer counts from
  the :class:`~repro.disk.iomodel.IOStats` ledger;
* ``pool_hit_rate`` — the buffer pool's hit fraction over the workload.

:func:`compare_points` implements the CI gate: a point fails if its
wall-clock regresses more than :data:`REGRESSION_FACTOR` times over the
committed baseline.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import ContextManager

from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.errors import InvalidArgumentError
from repro.core.payload import zeros
from repro.disk.iomodel import IOStats
from repro.exec.plan import BatchOp, MultiOp, read_op
from repro.shard.router import ShardedStore
from repro.experiments.common import (
    KB,
    Scale,
    build_object_batched,
    make_store,
)
from repro.experiments.random_ops import WORKLOAD_SEED
from repro.obs.runtime import installed
from repro.obs.tracer import Tracer
from repro.shard.parallel import merge_outcomes, run_shard_programs
from repro.shard.program import (
    BuildStep,
    ScanStep,
    ShardProgram,
    Step,
    WorkloadStep,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner

#: CI failure threshold: a timed point regressing more than this factor
#: over the committed baseline fails the bench smoke job.
REGRESSION_FACTOR = 3.0

#: Points faster than this in the baseline are exempt from the gate:
#: sub-millisecond timings are dominated by scheduling noise and would
#: trip the factor spuriously.
MIN_GATE_WALL_S = 0.005

#: Append/scan chunk used by the build and scan points.
CHUNK_KB = 64

#: Mean operation size of the random-update points.
MEAN_OP_BYTES = 10 * KB

#: Leaf size / threshold shared by every point (the paper's default knob).
SETTING_PAGES = 4

#: The standard grid: (kind, scheme) pairs timed at every scale.
STANDARD_GRID = (
    ("build", "esm"),
    ("build", "starburst"),
    ("build", "eos"),
    ("scan", "esm"),
    ("scan", "starburst"),
    ("random", "esm"),
    ("random", "eos"),
    ("random", "starburst"),
)


@dataclasses.dataclass
class BenchPoint:
    """One timed measurement of the standard grid.

    ``spans`` is the optional per-phase tracing summary recorded by
    ``repro-bench --spans`` (bench JSON format 3); it is dropped from the
    JSON entirely when the point was measured untraced, so format-2
    readers see unchanged documents.

    Sharded points (``--shards N``) carry two extra fields, likewise
    dropped when absent: ``shards`` (the shard count) and
    ``fanout_wall_s``.  For those points ``wall_s`` is the *makespan* —
    the slowest single shard's measured wall, i.e. the wall a host with
    one core per shard achieves — while ``fanout_wall_s`` is the real
    elapsed time of the fan-out on *this* host, including process-pool
    overhead and any core contention.

    ``health`` (bench JSON format 4, ``--health``) is the
    :mod:`repro.obs.health` gauge report probed from the live store
    *after* the wall-clock window closes.  The probe is ``@pure_read``
    and fully uncharged, so every other field is bit-identical with the
    flag on or off.  Points whose stores live in worker processes
    (``--shards`` fan-outs) carry no health section.
    """

    name: str
    wall_s: float
    sim_s: float
    io_calls: int
    pages: int
    pool_hit_rate: float
    spans: dict[str, object] | None = None
    shards: int | None = None
    fanout_wall_s: float | None = None
    health: dict[str, object] | None = None

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        data = dataclasses.asdict(self)
        for optional in ("spans", "shards", "fanout_wall_s", "health"):
            if data[optional] is None:
                del data[optional]
        return data


def _ambient(tracer: Tracer | None) -> ContextManager[object]:
    """Install ``tracer`` ambiently, or do nothing when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return installed(tracer)


def _phase(tracer: Tracer | None, name: str) -> ContextManager[object]:
    """Open a bench phase span (``bench.setup`` / ``bench.measure``)."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


#: Top-level span kinds folded into the phase summary, by phase name.
#: Sharded points produce one ``shard.setup``/``shard.measure`` pair per
#: shard; they land in the same two phases as the single-store spans.
_PHASE_KINDS = {
    "bench.setup": "setup",
    "bench.measure": "measure",
    "shard.setup": "setup",
    "shard.measure": "measure",
}

#: Wrapper op spans excluded from the ops breakdown: each wraps the
#: per-op spans of a whole submitted batch, so folding them too would
#: double-count their children.
_WRAPPER_OPS = ("op.batch", "op.multi")


def span_summary(tracer: Tracer, config: SystemConfig) -> dict[str, object]:
    """Fold a bench point's trace into the compact per-phase summary.

    For each phase (top-level ``bench.*`` span, or the per-shard
    ``shard.*`` spans of a sharded point, accumulated additively across
    shards): total I/O calls, pages, and exact simulated cost; the
    measured phase additionally breaks its cost down by operation span
    kind.
    """
    seek = config.seek_ms
    transfer = config.transfer_ms_per_page

    def cost(calls: int, pages: int) -> float:
        return calls * seek + pages * transfer

    spans = [r for r in tracer.records if r["t"] == "span"]
    phases: dict[str, dict[str, object]] = {}
    measure_windows: list[tuple[int, int]] = []
    for record in spans:
        if record["parent"] is not None:
            continue
        name = _PHASE_KINDS.get(str(record["kind"]))
        if name is None:
            continue
        calls = int(record["read_calls"]) + int(record["write_calls"])  # type: ignore[call-overload]
        pages = int(record["pages_read"]) + int(record["pages_written"])  # type: ignore[call-overload]
        phase = phases.setdefault(
            name, {"io_calls": 0, "pages": 0, "cost_ms": 0.0}
        )
        phase["io_calls"] += calls  # type: ignore[operator]
        phase["pages"] += pages  # type: ignore[operator]
        phase["cost_ms"] = cost(
            phase["io_calls"], phase["pages"]  # type: ignore[arg-type]
        )
        if name == "measure":
            measure_windows.append(
                (int(record["seq0"]), int(record["seq1"]))  # type: ignore[call-overload]
            )
    if measure_windows:
        kinds: dict[str, dict[str, object]] = {}
        for child in spans:
            ckind = str(child["kind"])
            if not ckind.startswith("op.") or ckind in _WRAPPER_OPS:
                continue
            seq0 = int(child["seq0"])  # type: ignore[call-overload]
            if not any(lo <= seq0 <= hi for lo, hi in measure_windows):
                continue
            ccalls = int(child["read_calls"]) + int(child["write_calls"])  # type: ignore[call-overload]
            cpages = int(child["pages_read"]) + int(child["pages_written"])  # type: ignore[call-overload]
            entry = kinds.setdefault(
                ckind, {"count": 0, "io_calls": 0, "pages": 0}
            )
            entry["count"] += 1  # type: ignore[operator]
            entry["io_calls"] += ccalls  # type: ignore[operator]
            entry["pages"] += cpages  # type: ignore[operator]
        for entry in kinds.values():
            entry["cost_ms"] = cost(
                entry["io_calls"], entry["pages"]  # type: ignore[arg-type]
            )
        phases["measure"]["ops"] = dict(sorted(kinds.items()))
    return dict(phases)


def _probe_health(store: object) -> dict[str, object]:
    """The health gauge report of a finished point's live store.

    Imported lazily: the probe pulls :mod:`repro.obs.health`, which the
    untimed default path never needs.  Probing is ``@pure_read`` — the
    IOStats ledger is asserted unchanged by the probe's own contract.
    """
    from repro.obs.health import probe_any

    return probe_any(store).to_dict()


def _point(
    name: str,
    store: LargeObjectStore,
    wall_s: float,
    before: IOStats,
    tracer: Tracer | None = None,
    health: bool = False,
) -> BenchPoint:
    delta = store.stats.delta(before)
    return BenchPoint(
        name=name,
        wall_s=wall_s,
        sim_s=store.elapsed_ms(before) / 1000.0,
        io_calls=delta.io_calls,
        pages=delta.pages_transferred,
        pool_hit_rate=store.env.pool.stats.hit_rate,
        spans=(
            span_summary(tracer, store.env.config)
            if tracer is not None
            else None
        ),
        health=_probe_health(store) if health else None,
    )


def _bench_store(scheme: str) -> LargeObjectStore:
    return make_store(
        scheme, leaf_pages=SETTING_PAGES, threshold_pages=SETTING_PAGES
    )


def measure_build(
    scheme: str,
    scale: Scale,
    traced: bool = False,
    health: bool = False,
) -> BenchPoint:
    """Time building one object with fixed-size appends.

    The appends go to the batch engine as one op batch; simulated fields
    are bit-identical to per-op dispatch, only ``wall_s`` differs.
    """
    tracer = Tracer(meta={"point": f"build/{scheme}"}) if traced else None
    with _ambient(tracer):
        store = _bench_store(scheme)
        before = store.snapshot()
        with _phase(tracer, "bench.measure"):
            start = time.perf_counter()
            build_object_batched(store, scale.object_bytes, CHUNK_KB * KB)
            wall = time.perf_counter() - start
    return _point(f"build/{scheme}", store, wall, before, tracer, health)


def measure_scan(
    scheme: str,
    scale: Scale,
    traced: bool = False,
    health: bool = False,
) -> BenchPoint:
    """Time a full sequential scan of a prebuilt object (build untimed).

    The whole scan is submitted as one batch of reads.
    """
    tracer = Tracer(meta={"point": f"scan/{scheme}"}) if traced else None
    with _ambient(tracer):
        store = _bench_store(scheme)
        with _phase(tracer, "bench.setup"):
            oid = build_object_batched(
                store, scale.object_bytes, CHUNK_KB * KB
            )
        before = store.snapshot()
        with _phase(tracer, "bench.measure"):
            start = time.perf_counter()
            size = store.size(oid)
            chunk = CHUNK_KB * KB
            store.submit_ops(oid, [
                read_op(position, min(chunk, size - position))
                for position in range(0, size, chunk)
            ])
            wall = time.perf_counter() - start
    return _point(f"scan/{scheme}", store, wall, before, tracer, health)


def measure_random(
    scheme: str,
    scale: Scale,
    traced: bool = False,
    health: bool = False,
) -> BenchPoint:
    """Time the 40/30/30 random-update mix on a prebuilt object."""
    tracer = Tracer(meta={"point": f"random/{scheme}"}) if traced else None
    with _ambient(tracer):
        store = _bench_store(scheme)
        with _phase(tracer, "bench.setup"):
            oid = build_object_batched(
                store, scale.object_bytes, CHUNK_KB * KB
            )
        n_ops = scale.starburst_ops if scheme == "starburst" else scale.n_ops
        generator = WorkloadGenerator(
            object_size=store.size(oid),
            mean_op_size=MEAN_OP_BYTES,
            seed=WORKLOAD_SEED,
        )
        runner = WorkloadRunner(store.manager, oid, generator)
        before = store.snapshot()
        with _phase(tracer, "bench.measure"):
            start = time.perf_counter()
            runner.run_batched(n_ops, window=max(1, n_ops))
            wall = time.perf_counter() - start
    return _point(f"random/{scheme}", store, wall, before, tracer, health)


_MEASURES = {
    "build": measure_build,
    "scan": measure_scan,
    "random": measure_random,
}

#: Schemes timed by the atomic cross-shard points (the shadowing
#: schemes — blockbased has no recovery story, so no atomic mode).
ATOMIC_SCHEMES = ("esm", "starburst", "eos")


def measure_atomic(
    scheme: str,
    scale: Scale,
    shards: int = 4,
    journal: bool = True,
    traced: bool = False,
    health: bool = False,
) -> BenchPoint:
    """Time cross-shard multi-object batches, journal on or off.

    The point builds ``2 * shards`` objects hash-spread over the shards
    (setup, untimed), then submits a deterministic stream of
    replace-batches, each touching every object and therefore every
    shard.  ``journal=True`` routes the batches through the two-phase
    commit protocol (PREPARE / DECISION / APPLIED journal writes are
    charged I/O); ``journal=False`` runs the same workload on the plain
    non-atomic path.  The pair isolates exactly what all-or-nothing
    semantics cost: the ``+journal`` / ``+nojournal`` points differ
    only in the protocol's own writes.
    """
    mode = "journal" if journal else "nojournal"
    name = f"atomic/{scheme}@shards{shards}+{mode}"
    tracer = Tracer(meta={"point": name}) if traced else None
    with _ambient(tracer):
        store = ShardedStore(
            scheme,
            PAPER_CONFIG,
            shards=shards,
            leaf_pages=SETTING_PAGES,
            threshold_pages=SETTING_PAGES,
            record_data=False,
            atomic=journal,
        )
        n_objects = 2 * shards
        per_object = max(CHUNK_KB * KB, scale.object_bytes // n_objects)
        chunk = CHUNK_KB * KB
        with _phase(tracer, "bench.setup"):
            oids = [store.create() for _ in range(n_objects)]
            for oid in oids:
                position = 0
                while position < per_object:
                    store.append(
                        oid, zeros(min(chunk, per_object - position))
                    )
                    position += chunk
        total_ops = (
            scale.starburst_ops if scheme == "starburst" else scale.n_ops
        )
        n_batches = max(1, total_ops // n_objects)
        span = per_object - MEAN_OP_BYTES
        before = store.snapshot()
        with _phase(tracer, "bench.measure"):
            start = time.perf_counter()
            for batch in range(n_batches):
                store.submit_many([
                    MultiOp(oid, BatchOp(
                        "replace",
                        offset=(batch * 7919 + i * 104729) % span,
                        data=zeros(MEAN_OP_BYTES),
                    ))
                    for i, oid in enumerate(oids)
                ])
            wall = time.perf_counter() - start
    delta = store.stats.delta(before)
    return BenchPoint(
        name=name,
        wall_s=wall,
        sim_s=store.elapsed_ms(before) / 1000.0,
        io_calls=delta.io_calls,
        pages=delta.pages_transferred,
        pool_hit_rate=store.pool_stats.hit_rate,
        spans=(
            span_summary(tracer, PAPER_CONFIG) if tracer is not None else None
        ),
        shards=shards,
        health=_probe_health(store) if health else None,
    )


def split_even(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal pieces summing exactly.

    The remainder goes to the lowest-indexed parts, so the split — and
    every sharded workload derived from it — is deterministic.
    """
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def shard_programs(
    kind: str, scheme: str, scale: Scale, shards: int
) -> list[ShardProgram]:
    """The per-shard programs behind one sharded bench point.

    The scale's workload is hash-partitioned the way a sharded
    deployment would hold it: each shard owns a ``1/shards`` slice of
    the object bytes (and, for random points, of the op stream, with a
    per-shard workload seed), so the *total* work matches the unsharded
    point's scale while each shard runs its slice independently.
    """
    chunk = CHUNK_KB * KB
    if kind == "random":
        total_ops = scale.starburst_ops if scheme == "starburst" else scale.n_ops
        op_split = split_even(total_ops, shards)
    programs = []
    for index, nbytes in enumerate(split_even(scale.object_bytes, shards)):
        setup: tuple[Step, ...] = ()
        if kind == "build":
            measured: tuple[Step, ...] = (BuildStep(nbytes, chunk),)
        elif kind == "scan":
            setup = (BuildStep(nbytes, chunk),)
            measured = (ScanStep(0, chunk),)
        elif kind == "random":
            setup = (BuildStep(nbytes, chunk),)
            measured = (
                WorkloadStep(
                    obj=0,
                    n_ops=op_split[index],
                    mean_op_size=MEAN_OP_BYTES,
                    seed=WORKLOAD_SEED + index,
                    window=max(1, op_split[index]),
                ),
            )
        else:
            raise InvalidArgumentError(
                f"unknown bench point kind {kind!r}"
            )
        programs.append(
            ShardProgram(
                shard_index=index,
                shard_count=shards,
                scheme=scheme,
                setup=setup,
                measured=measured,
                leaf_pages=SETTING_PAGES,
                threshold_pages=SETTING_PAGES,
            )
        )
    return programs


def measure_sharded(
    kind: str,
    scheme: str,
    scale: Scale,
    shards: int,
    jobs: int | None = None,
    traced: bool = False,
) -> BenchPoint:
    """Time one grid point sharded ``shards`` ways (``--shards N``).

    ``wall_s`` is the makespan — the slowest shard's measured wall, the
    figure a host with one core per shard achieves — and
    ``fanout_wall_s`` the real elapsed time of the whole fan-out here
    (setup replay and pool overhead included).  Simulated fields are
    folded from the per-shard charge journals in shard order, so they
    are identical whatever ``jobs`` is.
    """
    programs = shard_programs(kind, scheme, scale, shards)
    tracer = (
        Tracer(meta={"point": f"{kind}/{scheme}@shards{shards}"})
        if traced
        else None
    )
    start = time.perf_counter()
    outcomes = run_shard_programs(programs, jobs=jobs, tracer=tracer)
    fanout_wall = time.perf_counter() - start
    merged = merge_outcomes(outcomes, PAPER_CONFIG)
    return BenchPoint(
        name=f"{kind}/{scheme}@shards{shards}",
        wall_s=merged.wall_s,
        sim_s=merged.sim_ms / 1000.0,
        io_calls=merged.stats.io_calls,
        pages=merged.stats.pages_transferred,
        pool_hit_rate=merged.pool.hit_rate,
        spans=(
            span_summary(tracer, PAPER_CONFIG) if tracer is not None else None
        ),
        shards=shards,
        fanout_wall_s=fanout_wall,
    )


def run_bench(
    scale: Scale,
    repeat: int = 1,
    only: "set[str] | None" = None,
    traced: bool = False,
    shard_counts: "tuple[int, ...]" = (),
    jobs: int | None = None,
    atomic_shards: "tuple[int, ...]" = (),
    health: bool = False,
) -> list[BenchPoint]:
    """Time the standard grid; with ``repeat > 1`` keep each point's
    fastest run (wall-clock noise shrinks, simulated fields are identical
    across repeats by construction).  ``only`` restricts the grid to the
    named ``kind/scheme`` points (for cheap CI smokes at big scales).
    ``traced`` attaches a per-phase span summary to each point (the
    ``--spans`` flag) from one *extra* traced pass per point; the timed
    passes stay untraced, so ``wall_s`` remains comparable against
    untraced baselines, and the traced pass replays the same
    deterministic workload, so the summary describes exactly the run
    that was timed.

    ``shard_counts`` additionally times the grid sharded N ways for each
    listed N (``--shards N``, names ``kind/scheme@shardsN``), fanned
    across up to ``jobs`` worker processes per point.

    ``atomic_shards`` additionally times cross-shard multi-object
    batches at each listed shard count, once through the two-phase
    commit journal and once on the plain path (``--atomic N``, names
    ``atomic/scheme@shardsN+journal`` / ``+nojournal``), so the
    trajectory records exactly what all-or-nothing semantics cost.

    ``health`` attaches the uncharged post-measure gauge report to every
    point whose store lives in this process (``--health``, bench JSON
    format 4); the probe runs after each point's wall window closes, so
    wall and simulated fields are unaffected."""
    points: list[BenchPoint] = []
    for kind, scheme in STANDARD_GRID:
        if only is not None and f"{kind}/{scheme}" not in only:
            continue
        measure = _MEASURES[kind]
        best: BenchPoint | None = None
        for _ in range(max(1, repeat)):
            candidate = measure(scheme, scale, health=health)
            if best is None or candidate.wall_s < best.wall_s:
                best = candidate
        assert best is not None
        if traced:
            best.spans = measure(scheme, scale, traced=True).spans
        points.append(best)
    for shards in shard_counts:
        for kind, scheme in STANDARD_GRID:
            if only is not None and f"{kind}/{scheme}" not in only:
                continue
            best = None
            for _ in range(max(1, repeat)):
                candidate = measure_sharded(
                    kind, scheme, scale, shards, jobs=jobs
                )
                if best is None or candidate.wall_s < best.wall_s:
                    best = candidate
            assert best is not None
            if traced:
                best.spans = measure_sharded(
                    kind, scheme, scale, shards, jobs=jobs, traced=True
                ).spans
            points.append(best)
    for shards in atomic_shards:
        for scheme in ATOMIC_SCHEMES:
            if only is not None and f"atomic/{scheme}" not in only:
                continue
            for journal in (True, False):
                best = None
                for _ in range(max(1, repeat)):
                    candidate = measure_atomic(
                        scheme, scale, shards, journal=journal, health=health
                    )
                    if best is None or candidate.wall_s < best.wall_s:
                        best = candidate
                assert best is not None
                if traced:
                    best.spans = measure_atomic(
                        scheme, scale, shards, journal=journal, traced=True
                    ).spans
                points.append(best)
    return points


def compare_points(
    current: list[dict[str, object]],
    baseline: list[dict[str, object]],
    factor: float = REGRESSION_FACTOR,
) -> list[str]:
    """Regression check: current vs baseline wall-clock, point by point.

    Returns human-readable failure lines (empty means the gate passes).
    Points present on only one side do not fail the gate (so adding or
    retiring bench points does not break CI), points either side records
    without a usable ``wall_s`` are skipped (an older or hand-edited
    baseline must degrade the comparison, not crash it), and points
    whose baseline is faster than :data:`MIN_GATE_WALL_S` are exempt —
    they are noise.
    """
    failures: list[str] = []
    base_by_name = {
        str(p["name"]): p for p in baseline if p.get("name") is not None
    }
    for point in current:
        name = str(point.get("name", "<unnamed>"))
        base = base_by_name.get(name)
        if base is None:
            continue
        try:
            wall = float(point["wall_s"])  # type: ignore[arg-type]
            base_wall = float(base["wall_s"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            continue
        if base_wall >= MIN_GATE_WALL_S and wall > factor * base_wall:
            failures.append(
                f"{name}: {wall:.3f}s is more than {factor:g}x the "
                f"baseline {base_wall:.3f}s"
            )
    return failures
