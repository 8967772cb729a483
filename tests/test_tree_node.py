"""Unit tests for index nodes: serialization (Section 2.1 layout),
page validation, and the mutation/prefix-sum API."""

import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buddy.area import DATA_AREA_BASE, META_AREA_BASE
from repro.core.config import (
    NODE_HEADER_BYTES,
    ROOT_HEADER_BYTES,
    small_page_config,
)
from repro.core.env import StorageEnvironment
from repro.core.errors import StorageCorruptionError
from repro.tree.node import (
    IndexNode,
    LeafExtent,
    node_header_size,
    root_header_size,
)
from repro.tree.tree import PositionalTree, _boundary_index, _choose_child

CONFIG = small_page_config(page_size=256)


def leaf_alloc(used, _rightmost, page_size=256):
    return -(-used // page_size)


class TestHeaderSizes:
    def test_root_header_matches_config_constant(self):
        assert root_header_size() == ROOT_HEADER_BYTES

    def test_node_header_matches_config_constant(self):
        assert node_header_size() == NODE_HEADER_BYTES


class TestLeafExtent:
    def test_used_pages(self):
        extent = LeafExtent(page_id=0, used_bytes=257, alloc_pages=2)
        assert extent.used_pages(256) == 2
        assert extent.free_bytes(256) == 255


class TestSerialization:
    def test_internal_node_roundtrip(self):
        node = IndexNode(page_id=META_AREA_BASE + 5, level=2)
        node.replace_all([100, 250], [META_AREA_BASE + 10, META_AREA_BASE + 11])
        data = node.serialize(
            CONFIG, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        )
        rebuilt, _total, _rm = IndexNode.deserialize(
            data, node.page_id, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=leaf_alloc,
        )
        assert rebuilt.level == 2
        assert rebuilt.counts == [100, 250]
        assert rebuilt.refs == [
            META_AREA_BASE + 10, META_AREA_BASE + 11
        ]

    def test_leaf_parent_root_roundtrip(self):
        node = IndexNode(page_id=META_AREA_BASE + 1, level=1)
        node.replace_all(
            [300, 90],
            [
                LeafExtent(DATA_AREA_BASE + 7, 300, 2),
                LeafExtent(DATA_AREA_BASE + 20, 90, 1),
            ],
        )
        data = node.serialize(
            CONFIG, is_root=True, total_bytes=390, rightmost_alloc=1,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        )
        rebuilt, total, rightmost = IndexNode.deserialize(
            data, node.page_id, is_root=True,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=leaf_alloc,
        )
        assert total == 390
        assert rightmost == 1
        assert rebuilt.counts == [300, 90]
        first = rebuilt.refs[0]
        assert isinstance(first, LeafExtent)
        assert first.page_id == DATA_AREA_BASE + 7
        assert first.alloc_pages == 2

    def test_wrong_magic_rejected(self):
        with pytest.raises(StorageCorruptionError):
            IndexNode.deserialize(
                bytes(256), 1, is_root=False,
                data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
                leaf_alloc_pages=leaf_alloc,
            )

    def test_overfull_node_rejected_at_serialize(self):
        node = IndexNode(page_id=1, level=2)
        node.replace_all(
            [1] * 100, [META_AREA_BASE + i for i in range(100)]
        )
        with pytest.raises(StorageCorruptionError):
            node.serialize(
                CONFIG, is_root=False,
                data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=10_000),
        min_size=1,
        max_size=CONFIG.node_fanout,
    ),
    st.booleans(),
)
def test_roundtrip_preserves_counts(counts, is_root):
    """Property: cumulative encoding round-trips arbitrary counts."""
    if is_root and len(counts) > CONFIG.root_fanout:
        counts = counts[: CONFIG.root_fanout]
    page_id = META_AREA_BASE + 3
    node = IndexNode(page_id=page_id, level=1)
    node.replace_all(
        list(counts),
        [
            LeafExtent(DATA_AREA_BASE + i, c, leaf_alloc(c, False))
            for i, c in enumerate(counts)
        ],
    )
    data = node.serialize(
        CONFIG, is_root=is_root, total_bytes=sum(counts),
        rightmost_alloc=node.refs[-1].alloc_pages,
        data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
    )
    rebuilt, _t, _r = IndexNode.deserialize(
        data, page_id, is_root=is_root,
        data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        leaf_alloc_pages=leaf_alloc,
    )
    assert rebuilt.counts == counts


# ----------------------------------------------------------------------
# Deserialize rejects pages no serialized node could have produced
# ----------------------------------------------------------------------
def node_page(level, pairs, n=None):
    """A raw non-root index page holding the given (cumulative, ptr) pairs."""
    n = len(pairs) if n is None else n
    body = b"".join(struct.pack("<II", cum, ptr) for cum, ptr in pairs)
    header = struct.pack("<2sBBHH", b"IN", level, 0, n, 0)
    return (header + body).ljust(CONFIG.page_size, b"\x00")


def root_page(level, total, pairs):
    """A raw root page with the given header total and pairs."""
    body = b"".join(struct.pack("<II", cum, ptr) for cum, ptr in pairs)
    header = struct.pack(
        "<2sBBHHQIQQI", b"RT", level, 0, len(pairs), 0, total, 1, 0, 0, 0
    )
    return (header + body).ljust(CONFIG.page_size, b"\x00")


def decode(page, is_root=False):
    return IndexNode.deserialize(
        page, META_AREA_BASE + 9, is_root=is_root,
        data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        leaf_alloc_pages=leaf_alloc,
    )


class TestDeserializeValidation:
    def test_well_formed_pages_decode(self):
        node, _t, _r = decode(node_page(1, [(100, 0), (150, 3)]))
        assert node.counts == [100, 50]
        node, total, _r = decode(root_page(1, 100, [(100, 0)]), is_root=True)
        assert total == 100 and node.counts == [100]

    def test_decreasing_cumulative_counts_rejected(self):
        # Decoded naively, the second extent would hold -50 bytes.
        with pytest.raises(StorageCorruptionError):
            decode(node_page(1, [(100, 0), (50, 1)]))

    def test_level_zero_rejected(self):
        with pytest.raises(StorageCorruptionError):
            decode(node_page(0, [(10, 0)]))

    def test_pair_count_beyond_page_rejected(self):
        with pytest.raises(StorageCorruptionError):
            decode(node_page(2, [(10, 0)], n=600))

    def test_root_total_disagreeing_with_pairs_rejected(self):
        with pytest.raises(StorageCorruptionError):
            decode(root_page(1, 999, [(100, 0)]), is_root=True)


# ----------------------------------------------------------------------
# Differential test of the node API against a from-scratch reference
# ----------------------------------------------------------------------
DIFF_CONFIG = small_page_config(page_size=1024)


def make_ref(level, seed):
    if level == 1:
        return LeafExtent(DATA_AREA_BASE + seed, 1, 1)
    return META_AREA_BASE + seed


def reference_page(counts, refs, level, is_root):
    """The page a node must serialize to, built with no caches at all."""
    base = DATA_AREA_BASE if level == 1 else META_AREA_BASE
    if is_root:
        header = struct.pack(
            "<2sBBHHQIQQI", b"RT", level, 0, len(counts), 0, sum(counts),
            0, 0, 0, 0,
        )
    else:
        header = struct.pack("<2sBBHH", b"IN", level, 0, len(counts), 0)
    body = b"".join(
        struct.pack("<II", cum, (ref.page_id if level == 1 else ref) - base)
        for cum, ref in zip(itertools.accumulate(counts), refs)
    )
    return (header + body).ljust(DIFF_CONFIG.page_size, b"\x00")


_STEP = st.tuples(
    st.integers(min_value=0, max_value=7),  # mutation (7: none)
    st.integers(min_value=0, max_value=5),  # query (5: none)
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=5_000),
)


def mutate(node, counts, refs, kind, x, y):
    """Apply one node mutation to ``node`` and to the plain-list model;
    returns the first entry index it touched."""
    n = len(counts)
    level = node.level
    i = x % (n + 1)
    if kind == 0:
        ref = make_ref(level, x % 4096)
        node.insert(i, y, ref)
        counts.insert(i, y)
        refs.insert(i, ref)
    elif kind == 1 and n:
        i = x % n
        assert node.pop(i) == (counts.pop(i), refs.pop(i))
    elif kind == 2 and n:
        i = x % n
        node.add(i, y - counts[i])
        counts[i] = y
    elif kind == 3 and n:  # repoint, or move a leaf extent in place
        i = x % n
        if level == 1 and y % 2:
            refs[i].page_id = DATA_AREA_BASE + y
        else:
            refs[i] = make_ref(level, y)
        node.set_ref(i, refs[i])
    elif kind == 4:  # split_off, optionally put the tail back
        tail = node.split_off(i)
        assert tail == (counts[i:], refs[i:])
        del counts[i:], refs[i:]
        if y % 2:
            node.extend(*tail)
            counts += tail[0]
            refs += tail[1]
    elif kind == 5:
        new_counts = [y, y // 2 + 1][: 1 + x % 2]
        new_refs = [make_ref(level, (x + j) % 4096) for j in range(len(new_counts))]
        i = n
        node.extend(new_counts, new_refs)
        counts += new_counts
        refs += new_refs
    elif kind == 6:
        counts.reverse()
        refs.reverse()
        node.replace_all(list(counts), list(refs))
        i = 0
    return i


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]), st.lists(_STEP, min_size=5, max_size=60))
def test_node_api_matches_reference(level, steps):
    """Random mutations, each followed by one prefix consumer, agree with
    sums and packs recomputed from scratch after every step."""
    env = StorageEnvironment(DIFF_CONFIG)
    tree = PositionalTree(
        DIFF_CONFIG, env.pool, env.areas.meta, data_base=DATA_AREA_BASE
    )
    node = IndexNode(META_AREA_BASE + 1, level)
    upper = IndexNode(META_AREA_BASE + 2, 2)
    upper.replace_all([7, 11, 13], [META_AREA_BASE + 3] * 3)
    counts: list[int] = []
    refs: list = []
    hot = 0
    for mutation, query, x, y in steps:
        if mutation < 7:
            hot = mutate(node, counts, refs, mutation, x, y)
        n = len(counts)
        cums = list(itertools.accumulate(counts))
        total = cums[-1] if n else 0
        # Half the queries probe the entries next to the last mutation,
        # where a truncated prefix ends.
        j = min(max(hot + y % 3 - 1, 0), n) if x % 2 else x % (n + 1)
        if query == 0 and n:  # _choose_child, at a boundary or anywhere
            offset = cums[j - 1] if j and y % 2 else x % (total + 1)
            index = next((k for k, c in enumerate(cums) if c > offset), n - 1)
            start = cums[index - 1] if index else 0
            assert _choose_child(node, offset) == (index, start)
        elif query == 1:  # _boundary_index
            assert _boundary_index(node, cums[j - 1] if j else 0) == j
        elif query == 2 and n:  # _path_prefix_bytes, one and two levels
            i = min(j, n - 1)
            k = y % 3
            assert tree._path_prefix_bytes([(node, i)]) == sum(counts[:i])
            assert tree._path_prefix_bytes([(upper, k), (node, i)]) == (
                sum([7, 11, 13][:k]) + sum(counts[:i])
            )
        elif query == 3:
            assert node.cums() == cums
            assert node.total_bytes == total
        elif query == 4 and 8 * n + ROOT_HEADER_BYTES <= DIFF_CONFIG.page_size:
            is_root = bool(y % 2)
            page = node.serialize(
                DIFF_CONFIG, is_root=is_root, total_bytes=total,
                data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            )
            assert page == reference_page(counts, refs, level, is_root)
        assert node.counts == counts
        assert node.refs == refs
        # The cached prefix, however far it reaches, is never stale.
        cached = node._cums
        assert cached == cums[: len(cached)]


class TestStaleCacheChecks:
    """Under REPRO_DEBUG=1 every prefix accessor re-derives its cache."""

    @pytest.fixture
    def node(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        node = IndexNode(META_AREA_BASE + 1, level=2)
        node.replace_all([10, 20, 30], [META_AREA_BASE + i for i in range(3)])
        node.cums()
        node.serialize(
            CONFIG, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        )
        # A mutation that bypasses the node API leaves every cache stale.
        node.counts[0] += 5
        return node

    @pytest.mark.parametrize("read", [
        lambda node: node.cums(),
        lambda node: node.prefix_past(0),
        lambda node: node.prefix_past(10**6),
        lambda node: _choose_child(node, 12),
        lambda node: _boundary_index(node, 30),
        lambda node: node.serialize(
            CONFIG, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        ),
    ])
    def test_stale_cache_detected(self, node, read):
        with pytest.raises(StorageCorruptionError, match="stale"):
            read(node)
