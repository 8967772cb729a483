"""Index nodes and leaf extents of the positional count tree (Section 2.1).

Each node holds a sequence of (count, pointer) pairs, kept in memory as
two parallel lists: ``counts`` (per-child byte counts) and ``refs``
(child page ids, or leaf extents at level 1).  On disk the counts are
cumulative, exactly as in the paper's Figure 1.  A pair occupies 8 bytes
(4-byte count + 4-byte pointer), so a 4 KB root holds up to 507 pairs and
a 4 KB internal page holds 511 (Section 4.1).

Level-1 nodes (the lowest index level) point at *leaf extents* — the data
segments themselves.  Higher levels point at child index pages.
"""

from __future__ import annotations

import dataclasses
import itertools
import struct
import sys
from array import array

from repro.core.config import SystemConfig
from repro.core.errors import InvalidArgumentError, StorageCorruptionError
from repro.lint.contracts import DEBUG_PROBE, runtime_checks_enabled

# The prefix accessors and serialize() run tens of thousands of times per
# experiment; the stale-cache verification they guard is REPRO_DEBUG-only,
# so the flag check itself must cost one dict lookup (see
# contracts.DEBUG_PROBE).
_DBG_ENV, _DBG_KEY, _DBG_ON = DEBUG_PROBE

_NODE_HEADER = struct.Struct("<2sBBHH")  # magic, level, flags, n_entries, pad
_ROOT_HEADER = struct.Struct("<2sBBHHQIQQI")  # + total_bytes, rightmost_alloc, rsvd
_PAIR = struct.Struct("<II")

_NODE_MAGIC = b"IN"
_ROOT_MAGIC = b"RT"

#: Array typecode of an unsigned 32-bit integer (the on-disk pair fields).
_U32 = next(code for code in "IL" if array(code).itemsize == 4)
#: Pages store little-endian pairs; arrays hold native-order items.
_SWAP = sys.byteorder != "little"


@dataclasses.dataclass(slots=True)
class LeafExtent:
    """One data segment referenced by a level-1 index node.

    Attributes
    ----------
    page_id:
        Global page id of the segment's first page.
    used_bytes:
        Bytes of the object stored in this segment (the pair's count).
    alloc_pages:
        Pages currently allocated to the segment.  For ESM this is the
        fixed leaf size; for EOS it equals ``ceil(used_bytes / page_size)``
        except possibly for the rightmost segment, which may carry
        untrimmed append slack.
    """

    page_id: int
    used_bytes: int
    alloc_pages: int

    def used_pages(self, page_size: int) -> int:
        """Pages of the segment that contain useful bytes."""
        return -(-self.used_bytes // page_size)

    def free_bytes(self, page_size: int) -> int:
        """Unused capacity within the allocated pages."""
        return self.alloc_pages * page_size - self.used_bytes


class IndexNode:
    """One index page of the positional tree.

    ``counts[i]`` and ``refs[i]`` form the node's i-th (count, pointer)
    pair.  Callers read both lists freely but change them only through
    the mutation methods (:meth:`insert`, :meth:`pop`, :meth:`add`,
    :meth:`set_ref`, :meth:`split_off`, :meth:`extend`,
    :meth:`replace_all`), each of which invalidates exactly the caches
    it affects.
    """

    __slots__ = (
        "page_id", "level", "counts", "refs", "dirty", "shadowed_this_op",
        "_cums", "_packed", "_packed_pairs", "_packed_base",
    )

    def __init__(self, page_id: int, level: int) -> None:
        if level < 1:
            raise InvalidArgumentError("index node level starts at 1")
        self.page_id = page_id
        self.level = level
        #: Per-child byte counts, in order.
        self.counts: list[int] = []
        #: Child index page id (internal node) or LeafExtent (level 1).
        self.refs: list[int | LeafExtent] = []
        #: Set while the node has unflushed changes in the current operation.
        self.dirty = False
        #: Set once the node has been relocated (shadowed) in the current op.
        self.shadowed_this_op = False
        #: Cumulative byte counts of the first ``len(_cums)`` entries.  A
        #: mutation truncates it at the first changed entry; readers
        #: extend it only as far as they need (see :meth:`prefix_past`).
        self._cums: list[int] = []
        #: Packed on-disk (cumulative, pointer) pairs as native-order
        #: 32-bit items.  Once the node has been packed against a pointer
        #: base, the mutation methods keep the pointer column current for
        #: every entry; the count column is current for the first
        #: ``_packed_pairs`` entries, and serialize rewrites only the rest.
        self._packed = array(_U32)
        self._packed_pairs = 0
        #: Pointer base of the packed pointers (None: nothing packed yet).
        #: A different base at serialize forces a full repack.
        self._packed_base: int | None = None

    @property
    def is_leaf_parent(self) -> bool:
        """True if this node's entries reference data segments."""
        return self.level == 1

    @property
    def total_bytes(self) -> int:
        """Bytes stored in the subtree rooted at this node."""
        cums = self.cums()
        return cums[-1] if cums else 0

    # ------------------------------------------------------------------
    # Mutation: each method invalidates the caches it affects
    # ------------------------------------------------------------------
    def _invalidate(self, index: int) -> None:
        """Drop cached prefix sums and packed counts from entry ``index``."""
        del self._cums[index:]
        if index < self._packed_pairs:
            self._packed_pairs = index

    def _pointer(self, ref: "int | LeafExtent") -> int:
        """On-disk pointer of ``ref`` (requires a packed base)."""
        assert self._packed_base is not None
        if self.level == 1:
            assert isinstance(ref, LeafExtent)
            return ref.page_id - self._packed_base
        assert isinstance(ref, int)
        return ref - self._packed_base

    def insert(self, index: int, count: int, ref: "int | LeafExtent") -> None:
        """Insert the pair (count, ref) before entry ``index``."""
        self.counts.insert(index, count)
        self.refs.insert(index, ref)
        self._invalidate(index)
        if self._packed_base is not None:
            packed = self._packed
            packed.insert(2 * index, self._pointer(ref))
            packed.insert(2 * index, 0)

    def pop(self, index: int = -1) -> "tuple[int, int | LeafExtent]":
        """Remove and return the pair at ``index`` (default: the last)."""
        if index < 0:
            index += len(self.counts)
        count = self.counts.pop(index)
        ref = self.refs.pop(index)
        self._invalidate(index)
        if self._packed_base is not None:
            del self._packed[2 * index : 2 * index + 2]
        return count, ref

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` bytes to the count of entry ``index``."""
        self.counts[index] += delta
        self._invalidate(index)

    def set_ref(self, index: int, ref: "int | LeafExtent") -> None:
        """Point entry ``index`` at ``ref``; the counts are unchanged.

        Also the notification that a leaf extent's ``page_id`` moved in
        place (pass the same extent): it re-encodes the packed pointer.
        """
        self.refs[index] = ref
        if self._packed_base is not None:
            self._packed[2 * index + 1] = self._pointer(ref)

    def split_off(self, index: int) -> "tuple[list[int], list[int | LeafExtent]]":
        """Remove and return the pairs from entry ``index`` onwards."""
        counts = self.counts[index:]
        refs = self.refs[index:]
        del self.counts[index:]
        del self.refs[index:]
        self._invalidate(index)
        if self._packed_base is not None:
            del self._packed[2 * index :]
        return counts, refs

    def extend(
        self, counts: list[int], refs: "list[int | LeafExtent]"
    ) -> None:
        """Append pairs at the end; every cached prefix stays valid."""
        self.counts.extend(counts)
        self.refs.extend(refs)
        if self._packed_base is not None:
            self._packed.extend(self._pack_pointers(refs))

    def replace_all(
        self, counts: list[int], refs: "list[int | LeafExtent]"
    ) -> None:
        """Make the node hold exactly these pairs (the lists are adopted)."""
        self.counts = counts
        self.refs = refs
        self._invalidate(0)
        self._packed = array(_U32)
        self._packed_base = None

    # ------------------------------------------------------------------
    # Cumulative counts
    # ------------------------------------------------------------------
    def cums(self) -> list[int]:
        """Cumulative byte counts of all entries (``cums[i]`` covers
        entries ``0..i``).

        This array is the node's on-disk representation of the counts;
        :meth:`serialize`, :attr:`total_bytes` and scans read it whole.
        Descents use :meth:`prefix_past`, which extends the cached prefix
        only as far as it looks.  Callers must not mutate the returned
        list.
        """
        cums = self._cums
        counts = self.counts
        valid = len(cums)
        if valid < len(counts):
            sums = itertools.accumulate(
                counts[valid:], initial=cums[-1] if valid else 0
            )
            next(sums)
            cums.extend(sums)
        if (_DBG_ENV is None or _DBG_ENV.get(_DBG_KEY) == _DBG_ON) and (
            runtime_checks_enabled()
        ):
            self._check_cums()
        return cums

    def prefix_past(self, offset: int) -> list[int]:
        """The cached cumulative counts, extended until the last one
        exceeds ``offset`` or every entry is covered.

        Bisecting the result finds the entry holding byte ``offset`` (or
        a boundary at ``offset``) exactly as bisecting :meth:`cums` would.
        After a mutation at entry ``i`` the next lookup near ``i``
        extends the cache by a few items instead of rebuilding ``i..n``.
        Callers must not mutate the returned list.
        """
        cums = self._cums
        if not cums or cums[-1] <= offset:
            counts = self.counts
            valid = len(cums)
            n = len(counts)
            total = cums[-1] if valid else 0
            while total <= offset and valid < n:
                total += counts[valid]
                cums.append(total)
                valid += 1
        if (_DBG_ENV is None or _DBG_ENV.get(_DBG_KEY) == _DBG_ON) and (
            runtime_checks_enabled()
        ):
            self._check_cums()
        return cums

    def _check_cums(self) -> None:
        """REPRO_DEBUG: the cached prefix must match a fresh summation."""
        cums = self._cums
        expected = list(itertools.accumulate(self.counts[: len(cums)]))
        if cums != expected:
            raise StorageCorruptionError(
                f"stale cumulative-count cache on index page {self.page_id}"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def serialize(self, config: SystemConfig, *, is_root: bool,
                  total_bytes: int = 0, rightmost_alloc: int = 0,
                  data_base: int, meta_base: int) -> bytes:
        """Encode the node as page content with cumulative counts."""
        n = len(self.counts)
        if is_root:
            header = _ROOT_HEADER.pack(
                _ROOT_MAGIC, self.level, 0, n, 0,
                total_bytes, rightmost_alloc, 0, 0, 0,
            )
        else:
            header = _NODE_HEADER.pack(_NODE_MAGIC, self.level, 0, n, 0)
        base = data_base if self.level == 1 else meta_base
        if base != self._packed_base:
            self._packed_base = base
            self._packed = self._pack_pointers(self.refs)
            self._packed_pairs = 0
        packed = self._packed
        k = self._packed_pairs
        if k < n:
            # The pointer column is current; rewrite the stale tail of the
            # count column in one strided C-level assignment.
            packed[2 * k :: 2] = array(_U32, self.cums()[k:])
            self._packed_pairs = n
        if _SWAP:
            swapped = array(_U32, packed)
            swapped.byteswap()
            pairs = swapped.tobytes()
        else:
            pairs = packed.tobytes()
        if (_DBG_ENV is None or _DBG_ENV.get(_DBG_KEY) == _DBG_ON) and (
            runtime_checks_enabled()
        ):
            expected = b"".join(
                _PAIR.pack(
                    cumulative,
                    (ref.page_id if self.level == 1 else ref) - base,
                )
                for cumulative, ref in zip(
                    itertools.accumulate(self.counts), self.refs
                )
            )
            if pairs != expected:
                raise StorageCorruptionError(
                    f"stale packed-pair cache on index page {self.page_id}"
                )
        page = header + pairs
        if len(page) > config.page_size:
            raise StorageCorruptionError(
                f"index node with {n} entries overflows page"
            )
        return page.ljust(config.page_size, b"\x00")

    def _pack_pointers(self, refs: "list[int | LeafExtent]") -> "array[int]":
        """Packed pairs for ``refs``: pointers set, count column zero."""
        pairs = array(_U32, bytes(8 * len(refs)))
        pairs[1::2] = array(_U32, [self._pointer(ref) for ref in refs])
        return pairs

    @classmethod
    def deserialize(cls, data: bytes, page_id: int, *, is_root: bool,
                    data_base: int, meta_base: int,
                    leaf_alloc_pages) -> "tuple[IndexNode, int, int]":
        """Decode page content back into a node.

        ``leaf_alloc_pages(used_bytes, is_rightmost)`` supplies the
        allocated page count of each referenced segment (it depends on the
        storage scheme).  Returns ``(node, total_bytes, rightmost_alloc)``;
        the last two are meaningful only for the root.  A page that no
        serialized node could have produced raises
        :class:`StorageCorruptionError`.
        """
        header = _ROOT_HEADER if is_root else _NODE_HEADER
        if len(data) < header.size:
            raise StorageCorruptionError(
                f"index page {page_id} is shorter than its header"
            )
        if is_root:
            magic, level, _flags, n, _pad, total, rightmost_alloc, _r1, _r2, _r3 = (
                header.unpack_from(data)
            )
            if magic != _ROOT_MAGIC:
                raise StorageCorruptionError("not a root page")
        else:
            magic, level, _flags, n, _pad = header.unpack_from(data)
            if magic != _NODE_MAGIC:
                raise StorageCorruptionError("not an index page")
            total, rightmost_alloc = 0, 0
        if level < 1:
            raise StorageCorruptionError(
                f"index page {page_id} has level {level}; levels start at 1"
            )
        offset = header.size
        end = offset + 8 * n
        if end > len(data):
            raise StorageCorruptionError(
                f"index page {page_id} claims {n} pairs, more than fit"
            )
        pairs = array(_U32, data[offset:end])
        if _SWAP:
            pairs.byteswap()
        cums = pairs[0::2].tolist()
        counts = [
            cumulative - previous
            for cumulative, previous in zip(cums, [0] + cums[:-1])
        ]
        if n and min(counts) <= 0:
            raise StorageCorruptionError(
                f"index page {page_id} has cumulative counts that do not "
                f"increase"
            )
        if is_root and total != (cums[-1] if n else 0):
            raise StorageCorruptionError(
                f"root page {page_id} records {total} bytes but its pairs "
                f"sum to {cums[-1] if n else 0}"
            )
        node = cls(page_id, level)
        base = data_base if level == 1 else meta_base
        ptrs = pairs[1::2]
        if level == 1:
            last = n - 1
            refs: list[int | LeafExtent] = [
                LeafExtent(
                    page_id=base + ptrs[i],
                    used_bytes=count,
                    alloc_pages=leaf_alloc_pages(count, is_root and i == last),
                )
                for i, count in enumerate(counts)
            ]
        else:
            refs = [base + ptr for ptr in ptrs]
        node.counts = counts
        node.refs = refs
        # Seed both caches from the decoded page: the cumulative counts
        # are exactly cums() and the raw pair region is the packed cache.
        node._cums = cums
        node._packed = pairs
        node._packed_pairs = n
        node._packed_base = base
        return node, total, rightmost_alloc


def root_header_size() -> int:
    """Bytes of the root-page header (must match config.ROOT_HEADER_BYTES)."""
    return _ROOT_HEADER.size


def node_header_size() -> int:
    """Bytes of a non-root index-page header (must match NODE_HEADER_BYTES)."""
    return _NODE_HEADER.size
