"""The command: result line, exit codes, tail gate, pins and calibration."""

import gc
import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
import workloads
from calibration import REFERENCE_NS, Calibrator, calibration_loop
from layers import LAYERS

KB = 1024


def small_update():
    # About 400 reads a pass: three passes leave 12 samples beyond p99.
    return workloads.RandomUpdate(
        "tree-update", ("esm",), object_bytes=64 * KB, n_ops=1000,
    )


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tree-update", small_update)


def result_line(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return out, json.loads(out[-1])


def declared(group):
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[group]}


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_the_result_line_carries_every_declared_metric(
        small, capsys, trace, group) -> None:
    code = run.main(["--workload", "tree-update", "--seed", "7",
                     "--seconds", "0", "--trace", str(trace)])
    lines, result = result_line(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 4000
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(group)
    assert any(line.strip().startswith("error_rate") for line in lines)
    if trace:
        assert result["metrics"]["esm.calls"]["value"] > 0
        assert result["metrics"]["trace_overhead"]["value"] > 1
    else:
        p99 = [line for line in lines if "read_p99_us" in line][0]
        assert "beyond)" in p99 and "n=" in p99


def test_a_corrupted_read_fails_the_run_but_still_reports(
        small, capsys, monkeypatch) -> None:
    from repro.core.api import LargeObjectStore

    real_read = LargeObjectStore.read
    monkeypatch.setattr(
        LargeObjectStore, "read",
        lambda self, oid, offset, nbytes: real_read(self, oid, offset, nbytes)[:-1],
    )
    code = run.main(["--workload", "tree-update", "--seed", "7",
                     "--seconds", "0"])
    _, result = result_line(capsys)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("broken", [("read",), ("read", "insert", "delete")])
def test_a_kind_of_call_that_always_fails_reports_its_metrics_as_missing(
        small, capsys, monkeypatch, broken) -> None:
    from repro.core.api import LargeObjectStore

    def fails(self, *args):
        raise OSError("injected")

    for name in broken:
        monkeypatch.setattr(LargeObjectStore, name, fails)
    code = run.main(["--workload", "tree-update", "--seed", "7",
                     "--seconds", "0"])
    lines, result = result_line(capsys)
    # Correctness failures are reported even though the empty read
    # samples leave no tail beyond read_p99_us.
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    metrics = result["metrics"]
    assert metrics["read_p50_us"]["value"] is None
    assert metrics["read_p99_us"]["value"] is None
    assert (metrics["ops_per_s"]["value"] is None) == (len(broken) == 3)
    assert any("read_p99_us" in line and "not measured" in line
               for line in lines)


def test_too_few_samples_beyond_p99_rejects_the_run(capsys, monkeypatch) -> None:
    monkeypatch.setitem(
        workloads.WORKLOADS, "tree-update",
        lambda: workloads.RandomUpdate("tree-update", ("esm",),
                                       object_bytes=64 * KB, n_ops=200),
    )
    code = run.main(["--workload", "tree-update", "--seed", "7",
                     "--seconds", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "beyond" in captured.err


def test_pinned_counters_are_checked(small) -> None:
    metrics = declared("end_to_end")
    result, _ = run.run("tree-update", 7, 0, False, metrics, pinned=None)
    assert result["correct"]
    result, lines = run.run("tree-update", 7, 0, False, metrics,
                            pinned=[{}, {}, {}])
    assert not result["correct"]
    assert any("pinned" in line for line in lines)


def test_percentile_is_nearest_rank_with_samples_beyond() -> None:
    samples = list(range(1, 1001))
    assert run.percentile(samples, 50) == (500, 500)
    assert run.percentile(samples, 99) == (990, 10)
    assert run.percentile([5.0], 99) == (5.0, 0)
    assert run.percentile([], 50) == (None, 0)


def test_trace_overhead_sums_only_calls_sampled_in_both_passes() -> None:
    def sampled(*ns):
        return SimpleNamespace(recorder=SimpleNamespace(sampled_ns=lambda: list(ns)))

    # The traced pass dropped call 1 and the first pass call 3 (each right
    # after a calibration sample); neither is summed on either side.
    traced = sampled(20.0, None, 40.0, 60.0, 80.0)
    first = sampled(10.0, 10.0, 20.0, None, None)
    assert run.paired_call_ns(traced, first) == (60.0, 30.0)
    assert run.paired_call_ns(sampled(None), sampled(1.0)) == (0, 0)


def test_unknown_workload_is_a_usage_error(capsys) -> None:
    assert run.main(["--workload", "nope", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_without_the_program_the_command_fails_without_a_result(tmp_path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-update",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_keeps_the_contract() -> None:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in benchmark["workloads"]} == set(workloads.WORKLOADS)
    setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in benchmark["end_to_end"])}]
    names = {m["name"] for m in benchmark["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s", f"{layer}.self_share"} <= names
    pins = json.loads((run.HERE / "pinned.json").read_text())
    assert set(pins) == set(workloads.WORKLOADS)
    assert all(len(passes) == run.PINNED_PASSES for passes in pins.values())


def test_spec_json_and_benchmark_json_agree() -> None:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((run.HERE / "spec.json").read_text())
    pins = json.loads((run.HERE / "pinned.json").read_text())
    assert set(spec["end_to_end"]) == {
        m["name"] for m in benchmark["end_to_end"]
    } | {"error_rate"}
    assert set(spec["workloads"]) == {w["name"] for w in benchmark["workloads"]}
    assert spec["layers"]["names"] == list(LAYERS)
    for workload in benchmark["workloads"]:
        # The hit rate a reason quotes is that of the pinned first pass.
        quoted = float(re.search(r"hit(?: rate)? ([0-9.]+)", workload["why"])[1])
        stores = pins[workload["name"]][0].values()
        hits, misses = (
            sum(c["end"][key] - c["setup"][key] for c in stores)
            for key in ("pool_hits", "pool_misses")
        )
        assert round(hits / (hits + misses), 2) == quoted, workload["name"]


def test_the_calibration_loop_runs_no_collection(monkeypatch) -> None:
    collections = []
    monkeypatch.setattr(gc, "callbacks", [lambda phase, info: collections.append(phase)])
    threshold = gc.get_threshold()
    gc.set_threshold(10)  # the loop's containers would pass this many times
    try:
        calibration_loop()
        assert gc.isenabled()
        gc.disable()
        calibration_loop()
        assert not gc.isenabled()
    finally:
        gc.enable()
        gc.set_threshold(*threshold)
    assert collections == []


def test_calibration_scales_by_the_median_nearby_loop_time() -> None:
    durations = iter([100, 400, 100, 100, 10_000, 100, 100, 100])
    clock_now = [0]

    def clock():
        return clock_now[0]

    def loop():
        clock_now[0] += next(durations) * 1000

    cal = Calibrator(interval_ns=1, loop=loop, clock=clock)
    for _ in range(7):
        cal.sample()
        clock_now[0] += 1_000_000
    assert cal.loop_ns == [d * 1000 for d in (100, 400, 100, 100, 10_000, 100, 100)]
    # Five samples nearest the middle: 400, 100, 100, 10000, 100 -> 100 us.
    assert cal.factor(cal.stamps[3]) == REFERENCE_NS / 100_000
    assert cal.factor(0) == REFERENCE_NS / 100_000
    assert cal.tick(clock_now[0]) is True
    assert cal.tick(clock_now[0]) is False  # next one not due yet
