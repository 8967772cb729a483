"""Crash-injection tests: shadowing makes operations recoverable.

The claim under test (Section 3.3): because shadowing never overwrites a
page holding committed state, a crash at *any* point during an operation
— before the final root/descriptor write — leaves the object's previous
content reconstructible from the disk image.  Without shadowing, in-place
overwrites destroy the committed state.
"""

import dataclasses

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.errors import CrashError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at
from repro.recovery.sweep import StoreCase, StoreScenario, read_image, sweep
from tests.conftest import pattern_bytes

PAGE = 128
CONFIG = small_page_config()

SCHEME_SETTINGS = [
    ("esm", {"leaf_pages": 2}),
    ("starburst", {}),
    ("eos", {"threshold_pages": 2}),
    ("blockbased", {}),
]


def make_store(scheme, options, shadowing=True):
    return LargeObjectStore(scheme, CONFIG, shadowing=shadowing, **options)


def committed_object(store):
    """An object with some history, in a quiesced (committed) state."""
    data = pattern_bytes(10 * PAGE + 33)
    oid = store.create(data)
    store.insert(oid, 5 * PAGE, pattern_bytes(2 * PAGE, salt=1))
    store.delete(oid, 100, 64)
    content = store.read(oid, 0, store.size(oid))
    return oid, content


def crash_at(store, write):
    """Arm a crash at the given 1-based physical write of ``store``."""
    return FaultInjector(store.env, FaultPlan(crash_writes=at(write)))


@dataclasses.dataclass(frozen=True)
class InsertAfterHistory(StoreScenario):
    """An insert into :func:`committed_object`, crashed by the sweep."""

    scheme: str
    options: dict
    offset: int
    payload: bytes

    @property
    def name(self):
        return f"{self.scheme}/insert"

    def fresh(self):
        store = make_store(self.scheme, self.options)
        oid, _ = committed_object(store)
        return StoreCase(store, oid)

    def mutate(self, case):
        case.store.insert(case.oid, self.offset, self.payload)


class TestRebuild:
    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS)
    def test_rebuild_matches_live_content(self, scheme, options):
        store = make_store(scheme, options)
        oid, content = committed_object(store)
        assert read_image(store, oid) == content


class TestCrashWithShadowing:
    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS)
    def test_any_crash_point_preserves_committed_state(self, scheme, options):
        """Crash at every write until the op completes: at each crash
        point, the pre-op content must be reconstructible."""
        report = sweep(InsertAfterHistory(
            scheme, options, 3 * PAGE + 17, pattern_bytes(3 * PAGE, salt=9)
        ), ("crash",))
        assert report.clean, "\n".join(report.failure_lines())
        assert report.outcomes
        assert all(o.outcome == "pre" for o in report.outcomes), (
            f"{scheme}: a crash lost data"
        )

    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS[:3])
    def test_crash_during_delete_recoverable(self, scheme, options):
        store = make_store(scheme, options)
        oid, committed = committed_object(store)
        with crash_at(store, 1):  # crash on the very first write
            with pytest.raises(CrashError):
                store.delete(oid, PAGE, 4 * PAGE)
        assert read_image(store, oid) == committed

    def test_completed_operation_commits_new_state(self):
        store = make_store("eos", {"threshold_pages": 2})
        oid, _ = committed_object(store)
        patch = pattern_bytes(PAGE, salt=5)
        store.insert(oid, 200, patch)
        new_content = store.read(oid, 0, store.size(oid))
        assert read_image(store, oid) == new_content


class TestCrashWithoutShadowing:
    def test_in_place_overwrite_loses_committed_state(self):
        """Without shadowing, a replace overwrites committed pages in
        place, so a crash mid-operation is unrecoverable."""
        store = make_store("eos", {"threshold_pages": 2}, shadowing=False)
        data = pattern_bytes(6 * PAGE)
        oid = store.create(data)
        store.manager.trim(oid)
        committed = store.read(oid, 0, store.size(oid))
        # Let the data overwrite land, then crash.
        with crash_at(store, 2):
            try:
                store.replace(oid, 0, pattern_bytes(2 * PAGE, salt=7))
            except CrashError:
                pass
        recovered = read_image(store, oid)
        assert recovered != committed, (
            "without shadowing the old state should be gone"
        )


class TestInjector:
    def test_rejects_negative_budget(self):
        # Crash points count physical writes from 1.
        with pytest.raises(ValueError):
            FaultPlan(crash_writes=at(0))

    def test_disarm_restores_normal_writes(self):
        store = make_store("eos", {})
        crash_at(store, 1).install().uninstall()
        oid = store.create(b"works fine")
        assert store.read(oid, 0, 10) == b"works fine"

    def test_context_manager_disarms(self):
        store = make_store("eos", {})
        with crash_at(store, 1):
            pass
        oid = store.create(b"xy")
        assert store.size(oid) == 2


class TestMoreCrashScenarios:
    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS)
    def test_crash_during_append_recoverable(self, scheme, options):
        store = make_store(scheme, options)
        oid, committed = committed_object(store)
        with crash_at(store, 1):
            with pytest.raises(CrashError):
                store.append(oid, pattern_bytes(4 * PAGE, salt=11))
        recovered = read_image(store, oid)
        # The committed prefix survives: in-place appends only ever write
        # past the committed bytes (or into fresh segments).
        assert recovered[: len(committed)] == committed

    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS[:3])
    def test_crash_during_replace_recoverable(self, scheme, options):
        store = make_store(scheme, options)
        oid, committed = committed_object(store)
        with crash_at(store, 1):
            with pytest.raises(CrashError):
                store.replace(oid, PAGE, pattern_bytes(3 * PAGE, salt=12))
        assert read_image(store, oid) == committed

    def test_repeated_crashes_then_success(self):
        """A client retrying after crashes eventually commits cleanly."""
        patch = pattern_bytes(2 * PAGE, salt=13)
        scenario = InsertAfterHistory("eos", {"threshold_pages": 2}, 100, patch)
        report = sweep(scenario, ("crash",))
        assert report.clean, "\n".join(report.failure_lines())
        assert report.outcomes, "the injector never fired"
        # Model recovery: every crash reopens from the committed image.
        assert all(o.outcome == "pre" for o in report.outcomes)
        case = scenario.fresh()
        committed = read_image(case.store, case.oid)
        scenario.mutate(case)  # the retry finally succeeds
        expected = committed[:100] + patch + committed[100:]
        assert read_image(case.store, case.oid) == expected
