"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tree-update --seed 1 --seconds 15 --trace 0

The program under test is imported from ``src/`` of the same checkout.
A run makes timed passes until ``--seconds`` have elapsed, at least
three; pass ``k`` sets up fresh stores and runs input set ``k`` of the
seed.  Host times are scaled by the calibration of ``calibration.py``.
A final replay of the first input set, left out of the metrics, must
repeat that pass's simulated counters exactly.  ``--trace 0`` reports
the end-to-end metrics of the timed passes; ``--trace 1`` traces the
replay and reports the per-layer split.

The report lines name every metric with its unit and, for percentiles,
the sample count.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
metrics ``BENCHMARK.json`` lists for the mode).  Exit status: 0 on
success, 1 if any call or correctness check failed or a metric had no
successful call to measure (its value is null), 2 on a usage or
environment error, 3 if every call and check succeeded but a tail
percentile has fewer than 10 samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from calibration import REFERENCE_NS, Calibrator
from layers import LayerTracer, SpanRecorder, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed whose simulated counters are pinned in ``pinned.json``.
DEFAULT_SEED = 1

#: A tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: A run makes at least this many timed passes; the simulated counters of
#: these first passes are pinned and give ``sim_ms_per_op``/``space_amp``.
PINNED_PASSES = 3


class UsageError(Exception):
    """The run cannot start: bad arguments or no program to measure."""


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and check it is used."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise UsageError(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise UsageError(f"imported repro from {repro.__file__}, not {src}")


class TailError(Exception):
    """Too few samples beyond a tail percentile to report it."""


def shown(value: float | None) -> str:
    return "not measured" if value is None else f"{value:.6g}"


def ratio(num: float, den: float) -> float | None:
    """``num / den``, or None (not measured) when ``den`` is 0."""
    return num / den if den else None


def percentile(samples: list[float], pct: float) -> tuple[float | None, int]:
    """Nearest-rank percentile and the number of samples beyond it; None
    and 0 for no samples."""
    if not samples:
        return None, 0
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(passes: list[Any], peak_rss_mb: float
               ) -> tuple[dict[str, float | None], list[str], list[str]]:
    """The end-to-end metrics of the passes, their report lines, and the
    tail percentiles with too few samples beyond them.  A metric with
    nothing to measure (no successful call of its kind) is None."""
    sets = passes[:PINNED_PASSES]
    calls = [c for p in passes for c in p.recorder.samples()]
    api_s = sum(ns for ns, _, _ in calls) / 1e9
    sim_ms = sum(
        c["end"]["sim_ms"] - c["setup"]["sim_ms"]
        for p in sets for c in p.counters.values()
    )
    metrics: dict[str, float | None] = {
        "ops_per_s": ratio(len(calls), api_s),
        "mb_per_s": ratio(sum(nbytes for _, _, nbytes in calls) / 1e6, api_s),
        "sim_ms_per_op": ratio(sim_ms, sum(p.recorder.attempted for p in sets)),
        "space_amp": ratio(sum(p.space[0] for p in sets),
                           sum(p.space[1] for p in sets)),
        "setup_s": statistics.median(
            p.setup_ns * p.recorder.calibrator.factor(p.setup_stamp)
            for p in passes
        ) / 1e9,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_s = sum(
        ns for p in passes for ns, _, _ in p.recorder.samples(scaled=False)
    ) / 1e9
    loop_ns = passes[0].recorder.calibrator.loop_ns
    metrics["host.unscaled_ops_per_s"] = ratio(len(calls), raw_s)
    metrics["host.loop_us"] = statistics.median(loop_ns) / 1e3
    lines = [
        f"  host speed: calibration loop median "
        f"{metrics['host.loop_us']:.1f} us over {len(loop_ns)} samples, "
        f"reference {REFERENCE_NS / 1e3:g} us; unscaled ops_per_s "
        f"{shown(metrics['host.unscaled_ops_per_s'])}",
    ]
    short_tails = []
    for kind, write in (("read", False), ("write", True)):
        samples = [ns for ns, is_write, _ in calls if is_write == write]
        for pct in (50, 99):
            value, beyond = percentile(samples, pct)
            name = f"{kind}_p{pct}_us"
            metrics[name] = None if value is None else value / 1e3
            lines.append(
                f"  {name:<22} {shown(metrics[name]):>14} us     "
                f"(n={len(samples)} calls, {beyond} beyond)"
            )
            if pct == 99 and beyond < MIN_TAIL_SAMPLES:
                short_tails.append(f"{name} has {beyond} samples beyond it, "
                                   f"fewer than {MIN_TAIL_SAMPLES}")
    return metrics, lines, short_tails


def paired_call_ns(traced: Any, first: Any) -> tuple[float, float]:
    """Scaled host time of the calls sampled in both ``traced`` and
    ``first``, two passes over the same inputs whose calls line up one to
    one; a call is left out on both sides unless both sampled it."""
    traced_ns = traced.recorder.sampled_ns()
    first_ns = first.recorder.sampled_ns()
    both = [
        (t, f) for t, f in zip(traced_ns, first_ns)
        if t is not None and f is not None
    ]
    return sum(t for t, _ in both), sum(f for _, f in both)


def layer_split(recorder: SpanRecorder, traced: Any,
                first: Any) -> dict[str, float | None]:
    """Per-layer metrics of a traced replay of the ``first`` pass."""
    metrics: dict[str, float | None] = dict(layer_metrics(recorder))
    delta = {
        key: sum(c["end"][key] - c["setup"][key]
                 for c in traced.counters.values())
        for key in next(iter(traced.counters.values()))["end"]
    }
    lookups = delta["pool_hits"] + delta["pool_misses"]
    metrics.update({
        "buffer.hit_rate": delta["pool_hits"] / lookups if lookups else 0.0,
        "buffer.evictions": delta["pool_evictions"],
        "buffer.writebacks": delta["pool_writebacks"],
        "disk.read_calls": delta["read_calls"],
        "disk.write_calls": delta["write_calls"],
        "disk.pages": delta["pages_read"] + delta["pages_written"],
        "trace_overhead": ratio(*paired_call_ns(traced, first)),
    })
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        declared: dict[str, str], pinned: list[Any] | None
        ) -> tuple[dict[str, Any], list[str]]:
    """Measure one workload; returns the result object and report lines.

    Raises :class:`TailError` for a run whose calls and checks all
    succeeded but whose tail percentiles have too few samples beyond
    them; a run with failures reports them instead.
    """
    from workloads import WORKLOADS, run_pass

    workload = WORKLOADS[workload_name]()
    calibrator = Calibrator()
    start = time.perf_counter()
    first = workload.inputs(seed, 0)
    passes = [run_pass(workload, first, calibrator)]
    # Later passes add only the benchmark's own samples to the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(passes) < PINNED_PASSES or time.perf_counter() - start < seconds:
        inputs = workload.inputs(seed, len(passes))
        passes.append(run_pass(workload, inputs, calibrator))
    # Replaying the first pass must repeat its simulated counters exactly;
    # with --trace 1 the replay is the traced pass.
    recorder = SpanRecorder()
    replay = run_pass(workload, first, calibrator,
                      traced=LayerTracer(recorder) if trace else None)

    failures = [m for p in [*passes, replay] for m in p.recorder.failures]
    attempted = sum(p.recorder.attempted for p in [*passes, replay])
    if replay.counters != passes[0].counters:
        failures.append("simulated counters of the replayed first pass "
                        f"{'(traced) ' if trace else ''}differ from the first")
    counters = [p.counters for p in passes[:PINNED_PASSES]]
    if pinned is not None and counters != pinned:
        failures.append(
            f"simulated counters at seed {seed} differ from those pinned "
            f"in perfbench/pinned.json"
        )
    metrics, lines, short_tails = end_to_end(passes, peak_rss_mb)
    if trace:
        metrics.update(layer_split(recorder, replay, passes[0]))

    lines.insert(0, f"workload {workload_name}  seed {seed}  "
                    f"{len(passes)} timed passes + 1 "
                    f"{'traced ' if trace else ''}replay of the first")
    for name, unit in declared.items():
        if name not in metrics:
            raise UsageError(f"BENCHMARK.json names {name!r}, "
                             f"which this run does not measure")
        if metrics[name] is None:
            failures.append(f"{name} not measured: no successful call "
                            f"of its kind")
        if not name.endswith(("_p50_us", "_p99_us")):
            lines.append(f"  {name:<22} {shown(metrics[name]):>14} {unit}")
    if short_tails and not failures:
        raise TailError("; ".join(short_tails))
    lines.append(f"  {'error_rate':<22} {len(failures) / attempted:>14.6g} "
                 f"ratio  ({len(failures)} failed of {attempted} attempted)")
    lines.append("  simulated counters of the first passes: "
                 + json.dumps(counters, sort_keys=True))
    lines += [f"  FAILED: {message}" for message in failures[:20]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    return result, lines


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        pins = json.loads((HERE / "pinned.json").read_text())
        import_program()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise UsageError(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(WORKLOADS)}")
        group = "per_layer" if args.trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in benchmark[group]}
        pinned = (
            pins.get(args.workload, [])
            if args.seed == DEFAULT_SEED else None
        )
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), declared, pinned)
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except TailError as exc:
        print(f"perfbench: run rejected: {exc}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
