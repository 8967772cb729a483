"""The workloads: seeded inputs, exact counters, and the correctness gate."""

import pytest

from calibration import Calibrator
from workloads import (
    DELETE, INSERT, READ, CrossShardAtomic, ObjectLifecycle, RandomUpdate,
    run_pass,
)

KB = 1024


def small_workloads():
    return [
        RandomUpdate("tree-update", ("esm", "eos"),
                     object_bytes=256 * KB, n_ops=60),
        RandomUpdate("starburst-update", ("starburst",),
                     object_bytes=256 * KB, n_ops=30),
        ObjectLifecycle(object_bytes=128 * KB, append_kb=(3, 10, 64)),
        CrossShardAtomic(object_bytes=64 * KB, n_batches=8),
    ]


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_a_seed_changes_the_op_stream_but_not_the_shape(workload) -> None:
    one, again, other, part = (
        workload.inputs(seed, k) for seed, k in ((1, 0), (1, 0), (2, 0), (1, 1))
    )
    assert one == again
    assert one != other and one != part
    assert workload.shape(one) == workload.shape(other) == workload.shape(part)


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_passes_are_clean_and_their_counters_repeat(workload) -> None:
    inputs = workload.inputs(4)
    calibrator = Calibrator()
    first, second = (run_pass(workload, inputs, calibrator) for _ in range(2))
    assert first.recorder.failures == []
    assert second.recorder.failures == []
    assert first.counters == second.counters
    assert first.recorder.writes == second.recorder.writes
    assert all(ns is not None and ns > 0 for ns in first.recorder.latency_ns)
    allocated, live = first.space
    assert allocated >= live > 0


def test_update_mix_keeps_the_paper_shape() -> None:
    import random

    from workloads import update_mix

    ops, final = update_mix(random.Random(9), 1_000_000, 4000)
    kinds = [kind for kind, _, _ in ops]
    assert len(ops) == 4000
    assert 0.35 < kinds.count(READ) / len(ops) < 0.45
    assert abs(kinds.count(INSERT) - kinds.count(DELETE)) < 0.05 * len(ops)
    size = 1_000_000
    for kind, offset, nbytes in ops:
        assert 0 <= offset <= size and 5 * KB <= nbytes <= 15 * KB
        if kind != READ:
            assert offset + (nbytes if kind == DELETE else 0) <= size
        size += nbytes if kind == INSERT else -nbytes if kind == DELETE else 0
        assert 0.85 * 1_000_000 < size < 1.15 * 1_000_000
    assert size == final


def test_a_short_read_is_a_failure_not_a_crash(monkeypatch) -> None:
    from repro.core.api import LargeObjectStore

    real_read = LargeObjectStore.read
    monkeypatch.setattr(
        LargeObjectStore, "read",
        lambda self, oid, offset, nbytes: real_read(self, oid, offset, nbytes)[1:],
    )
    workload = small_workloads()[0]
    result = run_pass(workload, workload.inputs(1), Calibrator())
    reads = result.recorder.writes.count(False)
    assert reads > 0
    assert len(result.recorder.failures) == reads
    assert "returned" in result.recorder.failures[0]


def test_corrupted_scan_bytes_are_a_failure(monkeypatch) -> None:
    from repro.core.api import LargeObjectStore

    real_read = LargeObjectStore.read

    def flipped(self, oid, offset, nbytes):
        data = bytearray(real_read(self, oid, offset, nbytes))
        data[0] ^= 0xFF
        return bytes(data)

    monkeypatch.setattr(LargeObjectStore, "read", flipped)
    workload = small_workloads()[2]
    result = run_pass(workload, workload.inputs(1), Calibrator())
    assert any("differs from the appended bytes" in f
               for f in result.recorder.failures)
    assert any("resident object differs" in f for f in result.recorder.failures)


def test_a_failing_call_is_counted_and_the_pass_goes_on(monkeypatch) -> None:
    from repro.shard.router import ShardedStore

    real_submit = ShardedStore.submit_many
    calls = []

    def sometimes_fails(self, mops):
        calls.append(len(mops))
        if len(calls) == 3:
            raise OSError("injected")
        return real_submit(self, mops)

    monkeypatch.setattr(ShardedStore, "submit_many", sometimes_fails)
    workload = small_workloads()[3]
    result = run_pass(workload, workload.inputs(1), Calibrator())
    assert result.recorder.attempted == workload.n_batches
    assert result.recorder.latency_ns[2] is None
    assert any("injected" in f for f in result.recorder.failures)


def test_a_non_clean_fsck_is_a_failure() -> None:
    workload = small_workloads()[0]
    real_setup = workload.setup

    def leaky_setup(inputs):
        state = real_setup(inputs)
        _, store, _ = state[0]
        store.env.areas.data.allocate(3)  # pages no object references
        return state

    workload.setup = leaky_setup
    result = run_pass(workload, workload.inputs(1), Calibrator())
    assert any("leaked data pages" in f for f in result.recorder.failures)


def test_a_wrong_final_size_is_a_failure() -> None:
    workload = small_workloads()[1]
    inputs = workload.inputs(1)
    wrong = type(inputs)(inputs.ops, inputs.payloads, inputs.final_size + 1)
    result = run_pass(workload, wrong, Calibrator())
    assert any("the generator tracked" in f for f in result.recorder.failures)


def test_a_store_fsck_cannot_walk_is_a_failure(monkeypatch) -> None:
    import workloads as wl

    def broken(*args, **kwargs):
        raise KeyError("no such object")

    monkeypatch.setattr(wl, "check", broken)
    workload = small_workloads()[0]
    result = run_pass(workload, workload.inputs(1), Calibrator())
    assert any("fsck raised" in f for f in result.recorder.failures)
