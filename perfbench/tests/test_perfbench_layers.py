"""The per-layer tracer: self-time arithmetic and wrapper lifetime."""

import pytest

from calibration import Calibrator
from layers import LAYERS, LayerTracer, SpanRecorder, default_targets, layer_metrics
from workloads import CrossShardAtomic, RandomUpdate, run_pass


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_nested_children() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock)
    # core [0, 100] > esm [10, 90] > {tree [20, 30], buffer [40, 60] > disk [45, 55]}
    timeline = [
        (0, "enter", "core"), (10, "enter", "esm"),
        (20, "enter", "tree"), (30, "leave", None),
        (40, "enter", "buffer"), (45, "enter", "disk"), (55, "leave", None),
        (60, "leave", None), (90, "leave", None), (100, "leave", None),
    ]
    for now, action, layer in timeline:
        clock.now = now
        if action == "enter":
            assert rec.enter(layer)
        else:
            rec.leave()
    assert dict(rec.self_ns) == {
        "core": 20, "esm": 50, "tree": 10, "buffer": 10, "disk": 10,
    }
    assert sum(rec.self_ns.values()) == 100
    assert rec.open_spans == 0


def test_reentry_into_the_same_layer_is_one_span() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock)
    assert rec.enter("tree")
    clock.now = 5
    assert not rec.enter("tree")  # re-entry: counted, no new span
    clock.now = 8
    assert rec.enter("buffer")
    clock.now = 12
    rec.leave()
    clock.now = 20
    rec.leave()
    assert rec.layer_calls["tree"] == 2
    assert rec.spans["tree"] == 1
    assert rec.self_ns["tree"] == 16
    assert rec.self_ns["buffer"] == 4


def test_same_layer_below_another_layer_is_a_new_span() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.enter("esm")
    clock.now = 2
    rec.enter("tree")
    clock.now = 3
    assert rec.enter("esm")
    clock.now = 7
    rec.leave()
    clock.now = 9
    rec.leave()
    clock.now = 10
    rec.leave()
    assert rec.spans["esm"] == 2
    # outer esm 10 - 7 covered, tree 7 - 4 covered, inner esm 4.
    assert rec.self_ns == {"esm": 3 + 4, "tree": 3}


def _class_state(targets):
    return {
        (t.cls, t.name): (t.name in vars(t.cls), vars(t.cls).get(t.name))
        for t in targets
    }


def test_wrappers_are_removed_after_the_traced_run() -> None:
    targets = default_targets()
    before = _class_state(targets)
    workload = RandomUpdate("tree-update", ("esm", "eos"),
                            object_bytes=128 * 1024, n_ops=40)
    rec = SpanRecorder()
    result = run_pass(workload, workload.inputs(3), Calibrator(),
                      traced=LayerTracer(rec, targets))
    assert not result.recorder.failures
    assert rec.layer_calls["tree"] > 0
    assert _class_state(targets) == before


def test_wrappers_are_removed_when_the_traced_run_raises() -> None:
    from repro.core.api import LargeObjectStore

    targets = default_targets()
    before = _class_state(targets)
    with pytest.raises(RuntimeError):
        with LayerTracer(SpanRecorder(), targets):
            assert LargeObjectStore.read is not before[(LargeObjectStore, "read")][1]
            raise RuntimeError("boom")
    assert _class_state(targets) == before


def test_every_target_is_a_plain_method_of_a_known_layer() -> None:
    targets = default_targets()
    assert {t.layer for t in targets} == set(LAYERS)
    with LayerTracer(SpanRecorder(), targets):
        pass  # install raises on a generator, property or missing name


def test_traced_atomic_pass_reaches_every_layer_it_uses() -> None:
    workload = CrossShardAtomic(object_bytes=64 * 1024, n_batches=6)
    rec = SpanRecorder()
    calibrator = Calibrator()
    inputs = workload.inputs(5)
    plain = run_pass(workload, inputs, calibrator)
    traced = run_pass(workload, inputs, calibrator, traced=LayerTracer(rec))
    assert traced.counters == plain.counters
    metrics = layer_metrics(rec)
    for layer in ("core", "esm", "tree", "segio", "buffer", "buddy",
                  "disk", "exec", "shard", "atomic"):
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["eos.calls"] == metrics["starburst.calls"] == 0
    assert sum(metrics[f"{layer}.self_share"] for layer in LAYERS) == pytest.approx(1)
    assert metrics["exec.ops_per_batch"] == 2  # two objects per shard
    # PREPARE + APPLIED on each of four shards, one DECISION per batch.
    assert metrics["atomic.journal_writes"] == 6 * 9
