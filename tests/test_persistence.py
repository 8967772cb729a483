"""Reopen tests: structures must be rebuildable from their disk images.

The simulation keeps structures in memory, but every index page, root,
directory, and descriptor also has an up-to-date serialized disk image;
these tests rebuild from those images and verify nothing is lost.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buddy.directory import deserialize_directory, serialize_directory
from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.fsck import check
from repro.recovery.atomic import reboot_store
from tests.conftest import pattern_bytes

PAGE = 128
CONFIG = small_page_config()


class TestTreeReopen:
    @pytest.mark.parametrize("scheme", ["esm", "eos"])
    def test_tree_rebuilds_from_disk(self, scheme, store_factory):
        store = store_factory(scheme)
        data = pattern_bytes(20 * PAGE)
        oid = store.create(data)
        for i in range(8):
            store.insert(oid, (i * 997) % store.size(oid), b"edit")
        # A short append leaves untrimmed slack in the last extent, which
        # only the root header records.
        store.append(oid, pattern_bytes(PAGE // 2 + 7))
        old_tree = store.manager.tree_of(oid)
        size = store.size(oid)
        expected = [
            (e.page_id, e.used_bytes, e.alloc_pages)
            for e in old_tree.iter_extents(charged=False)
        ]

        store.manager.mount(oid)
        reopened = store.manager.tree_of(oid)
        assert reopened is not old_tree
        assert reopened.total_bytes == size
        assert reopened.height == old_tree.height
        got = [
            (e.page_id, e.used_bytes, e.alloc_pages)
            for e in reopened.iter_extents(charged=True)
        ]
        assert got == expected

    def test_reopened_tree_locates_bytes(self, store_factory):
        store = store_factory("eos")
        data = pattern_bytes(10 * PAGE)
        oid = store.create(data)
        store.manager.mount(oid)
        cursor = store.manager.tree_of(oid).locate(5 * PAGE)
        assert cursor.extent_start <= 5 * PAGE


class TestDescriptorReopen:
    def test_descriptor_rebuilds_from_disk(self, store_factory):
        store = store_factory("starburst")
        oid = store.create()
        store.append(oid, pattern_bytes(9 * PAGE + 30))
        original = store.manager.descriptor_of(oid)
        store.manager.mount(oid)
        rebuilt = store.manager.descriptor_of(oid)
        assert rebuilt is not original
        assert [s.page_id for s in rebuilt.segments] == [
            s.page_id for s in original.segments
        ]
        assert rebuilt.total_bytes == original.total_bytes


MOUNT_SCHEMES = [
    ("esm", {"leaf_pages": 2}),
    ("starburst", {}),
    ("eos", {"threshold_pages": 2}),
    ("blockbased", {}),
]

history_step = st.tuples(
    st.sampled_from(
        ["create", "append", "insert", "delete", "replace", "destroy"]
    ),
    st.integers(min_value=0, max_value=10_000),  # object selector
    st.integers(min_value=0, max_value=10_000),  # position selector
    st.integers(min_value=1, max_value=8 * PAGE),  # size
)


@pytest.mark.parametrize("scheme,options", MOUNT_SCHEMES)
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(history_step, min_size=1, max_size=25))
def test_mount_equals_live(scheme, options, steps):
    """After any history, every object mounted from the disk image alone
    (the pool dropped first, as by a reboot) has the live page runs,
    size and content, and the store still checks clean."""
    store = LargeObjectStore(scheme, CONFIG, **options)
    manager = store.manager
    model: dict[int, bytearray] = {}
    for salt, (kind, which, position, size) in enumerate(steps):
        payload = pattern_bytes(size, salt=salt)
        if kind == "create" or not model:
            model[store.create(payload)] = bytearray(payload)
            continue
        oid = sorted(model)[which % len(model)]
        ref = model[oid]
        if kind == "destroy":
            store.destroy(oid)
            del model[oid]
        elif kind == "append":
            store.append(oid, payload)
            ref.extend(payload)
        elif kind == "insert":
            offset = position % (len(ref) + 1)
            store.insert(oid, offset, payload)
            ref[offset:offset] = payload
        elif ref:
            offset = position % len(ref)
            n = min(size, len(ref) - offset)
            if kind == "delete":
                store.delete(oid, offset, n)
                del ref[offset : offset + n]
            else:
                store.replace(oid, offset, payload[:n])
                ref[offset : offset + n] = payload[:n]
    assert manager.oids() == sorted(model)
    live = {oid: manager.page_runs(oid) for oid in model}

    reboot_store(store)
    for oid in manager.oids():
        manager.mount(oid)
    for oid, ref in model.items():
        assert manager.page_runs(oid) == live[oid]
        assert store.size(oid) == len(ref)
        assert store.read(oid, 0, len(ref)) == bytes(ref)
    report = check([(manager, manager.oids())])
    assert report.clean, report.summary()


class TestDirectoryReopen:
    def test_buddy_state_survives_serialization(self, store_factory):
        store = store_factory("esm", leaf_pages=2)
        oid = store.create(pattern_bytes(30 * PAGE))
        for i in range(5):
            store.delete(oid, i * 100, 50)
        allocator = store.env.areas.data
        for index in range(allocator.space_count):
            space = allocator._spaces[index]
            rebuilt = deserialize_directory(serialize_directory(space))
            assert bytes(rebuilt.bitmap) == bytes(space.bitmap)
            assert rebuilt.free_blocks == space.free_blocks
            rebuilt.check_invariants()


class TestContentDurability:
    @pytest.mark.parametrize("scheme", ["esm", "starburst", "eos"])
    def test_all_object_bytes_live_on_disk(self, scheme, store_factory):
        """In recorded mode, reading straight from the disk image (via the
        extent/segment maps) reproduces the object, byte for byte."""
        store = store_factory(scheme)
        data = pattern_bytes(15 * PAGE + 11)
        oid = store.create(data)
        store.insert(oid, 100, b"ABCDEF")
        store.delete(oid, 5, 3)
        expected = bytearray(data)
        expected[100:100] = b"ABCDEF"
        del expected[5:8]

        disk = store.env.disk
        pieces = []
        if scheme == "starburst":
            segments = store.manager.descriptor_of(oid).segments
            for segment in segments:
                raw = disk.peek_pages(
                    segment.page_id, segment.used_pages(PAGE)
                )
                pieces.append(raw[: segment.used_bytes])
        else:
            tree = store.manager.tree_of(oid)
            for extent in tree.iter_extents(charged=False):
                raw = disk.peek_pages(extent.page_id, extent.used_pages(PAGE))
                pieces.append(raw[: extent.used_bytes])
        assert b"".join(pieces) == bytes(expected)
