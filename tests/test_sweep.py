"""Tests for the crash-sweep harness (repro.recovery.sweep).

The sweep is itself a verification harness, so the tests here check
both directions: shadowing stores survive a crash at *every* physical
write point (the sweep reports clean), and the harness genuinely
detects unsafety — with shadowing disabled, in-place updates lose
committed state and the sweep must say so.
"""

import pytest

from repro.recovery.sweep import (
    MUTATING_OPS,
    SWEEP_SCHEMES,
    BatchScenario,
    OpScenario,
    SweepReport,
    cli_main,
    run_sweep,
    sweep,
)


class TestExhaustiveSweep:
    @pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
    @pytest.mark.parametrize("op", MUTATING_OPS)
    def test_every_crash_point_recovers(self, scheme, op):
        report = sweep(OpScenario(scheme, op), ("crash",))
        assert report.clean, report.summary()
        assert report.outcomes, "sweep must exercise at least one crash"
        # Every crash landed before the (uncharged) commit write, so every
        # image rebuilds to the committed pre-state (or, for create, to no
        # object at all).
        assert all(
            o.outcome in ("pre", "absent") for o in report.outcomes
        )

    @pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
    def test_torn_writes_never_damage_committed_state(self, scheme):
        report = sweep(OpScenario(scheme, "append"), ("torn",))
        assert report.clean, report.summary()
        # Appends at this scale include at least one multi-page write.
        assert report.outcomes

    def test_full_sweep_is_clean(self):
        report = run_sweep(
            [OpScenario(s, op) for s in SWEEP_SCHEMES for op in MUTATING_OPS]
        )
        assert report.clean, report.summary()
        assert len(report.outcomes) > 30
        assert "CLEAN" in report.summary()


class TestNegativeControl:
    @pytest.mark.parametrize("scheme", ["esm", "eos"])
    def test_sweep_detects_unsafe_inplace_updates(self, scheme):
        """Without shadowing, overwrites destroy committed state in place;
        the sweep must fail — proving it can detect violations at all."""
        report = sweep(
            OpScenario(scheme, "overwrite", shadowing=False), ("crash",)
        )
        assert not report.clean
        assert any(
            "neither pre- nor post-state" in failure.detail
            for failure in report.failures
        )
        assert "FAILED" in report.summary()


class TestReport:
    def test_empty_report_is_clean(self):
        assert SweepReport().clean

    def test_summary_counts_by_scheme_and_op(self):
        report = sweep(OpScenario("starburst", "insert"), ("crash",))
        line = report.summary().splitlines()[0]
        assert line.startswith("starburst/insert:")
        assert "recovered" in line


class TestJobs:
    def test_report_is_identical_at_any_job_count(self):
        """Worker processes change nothing: summary, TSV and log match."""
        scenarios = [BatchScenario(scheme, 2) for scheme in SWEEP_SCHEMES]
        kinds = ("crash", "torn", "transient")
        serial = run_sweep(scenarios, kinds, jobs=1)
        parallel = run_sweep(scenarios, kinds, jobs=2)
        assert serial.clean, serial.summary()
        assert parallel.summary() == serial.summary()
        assert (
            parallel.classification_table()
            == serial.classification_table()
        )
        assert parallel.log.summary() == serial.log.summary()


class TestChaosCLI:
    def test_tiny_scale_exits_zero(self, capsys):
        assert cli_main(["--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "sweep CLEAN" in out

    def test_scheme_and_op_filters(self, capsys):
        assert cli_main(["--scheme", "eos", "--op", "insert"]) == 0
        out = capsys.readouterr().out
        assert "eos/insert" in out
        assert "esm/" not in out

    def test_dispatch_through_experiments_cli(self, capsys):
        from repro.experiments.cli import main

        assert main(["chaos", "--scheme", "starburst", "--op", "delete"]) == 0
        assert "starburst/delete" in capsys.readouterr().out
