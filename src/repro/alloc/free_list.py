"""The paper's ``FB_list``: sorted free blocks with first-fit placement.

Supports the two growth directions Figure 4 uses — first-fit from
*upper* free addresses (long-lived data) and from *lower* free
addresses (results) — plus exact-placement for regularity, splitting
across several blocks when no single block fits, and coalescing on
free.

The block list is kept sorted by address and coalesced at all times,
which lets every address-directed operation locate its block with
:func:`bisect.bisect_right` instead of a scan:

* ``is_free`` / ``allocate_at`` find the covering block in O(log n);
* ``free`` finds the insertion point in O(log n), checks overlap
  against only the two neighbouring blocks, and coalesces locally —
  the historical append + sort + full-list merge is gone;
* ``allocate_split`` consumes whole blocks from one end in a single
  slice deletion instead of one list rewrite per block;
* ``free_words`` is maintained incrementally (O(1) query).

First-fit (``allocate_high``/``allocate_low``) still walks blocks from
the chosen end until one fits — that order *is* the first-fit
contract — but in the common non-fragmented case the end block fits
immediately.  The behaviour of every operation is byte-identical to
the retained linear oracle
(:class:`repro.alloc.reference.ReferenceFreeBlockList`), enforced by
property-based equivalence tests.

Invariants (checked by :meth:`FreeBlockList.check_invariants`, which is
O(n), and the property-based tests): blocks are sorted by address,
non-overlapping, non-empty, non-adjacent (always coalesced), within
capacity, and their sizes sum to the cached ``free_words``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.arch.frame_buffer import Extent
from repro.errors import AllocationError, FragmentationError

__all__ = ["FreeBlockList"]


class FreeBlockList:
    """Free-space bookkeeping for one frame-buffer set."""

    def __init__(self, capacity_words: int):
        if capacity_words <= 0:
            raise AllocationError(
                f"capacity must be positive, got {capacity_words}"
            )
        self.capacity_words = capacity_words
        # (start, size) blocks, sorted by start, coalesced.
        self._blocks: List[Tuple[int, int]] = [(0, capacity_words)]
        self._free_words = capacity_words

    # -- queries ---------------------------------------------------------

    @property
    def free_words(self) -> int:
        """Total free words."""
        return self._free_words

    @property
    def largest_block(self) -> int:
        """Size of the largest free block (0 when full)."""
        return max((size for _, size in self._blocks), default=0)

    def blocks(self) -> Tuple[Extent, ...]:
        """Snapshot of the free blocks, ascending by address."""
        return tuple(Extent(start, size) for start, size in self._blocks)

    def _covering_index(self, start: int) -> int:
        """Index of the last block with ``block_start <= start``, or -1.

        ``(start, capacity + 1)`` sorts after every real ``(start, size)``
        pair, so ``bisect_right`` lands just past any block starting at
        exactly *start*.
        """
        return bisect_right(
            self._blocks, (start, self.capacity_words + 1)
        ) - 1

    def is_free(self, start: int, size: int) -> bool:
        """True if ``[start, start+size)`` lies inside one free block."""
        if start < 0 or size <= 0 or start + size > self.capacity_words:
            return False
        index = self._covering_index(start)
        if index < 0:
            return False
        block_start, block_size = self._blocks[index]
        return start + size <= block_start + block_size

    # -- allocation -----------------------------------------------------

    def allocate_high(self, size: int, *, best_fit: bool = False) -> Extent:
        """Fit from upper free addresses.

        First fit (default) examines blocks from the highest address
        downwards and carves *size* words off the **top** of the first
        block that fits.  Best fit instead picks the *smallest* block
        that fits (highest such block on ties) — the ablation baseline
        for the paper's "the chosen allocation method is first-fit".
        """
        self._check_size(size)
        index = self._pick_block(size, from_high=True, best_fit=best_fit)
        if index is None:
            raise FragmentationError(
                f"no single free block of {size} words "
                f"(largest {self.largest_block}, free {self.free_words})"
            )
        block_start, block_size = self._blocks[index]
        start = block_start + block_size - size
        self._carve(index, start, size)
        return Extent(start, size)

    def allocate_low(self, size: int, *, best_fit: bool = False) -> Extent:
        """Fit from lower free addresses.

        First fit (default) examines blocks from the lowest address
        upwards and carves *size* words off the **bottom** of the first
        block that fits; best fit picks the smallest sufficient block.
        """
        self._check_size(size)
        index = self._pick_block(size, from_high=False, best_fit=best_fit)
        if index is None:
            raise FragmentationError(
                f"no single free block of {size} words "
                f"(largest {self.largest_block}, free {self.free_words})"
            )
        block_start, _ = self._blocks[index]
        self._carve(index, block_start, size)
        return Extent(block_start, size)

    def _pick_block(self, size: int, *, from_high: bool,
                    best_fit: bool) -> Optional[int]:
        """Index of the block to allocate from, or ``None``."""
        indices = (
            range(len(self._blocks) - 1, -1, -1) if from_high
            else range(len(self._blocks))
        )
        if not best_fit:
            for index in indices:
                if self._blocks[index][1] >= size:
                    return index
            return None
        best_index = None
        best_size = None
        for index in indices:
            block_size = self._blocks[index][1]
            if block_size >= size and (
                best_size is None or block_size < best_size
            ):
                best_index = index
                best_size = block_size
        return best_index

    def allocate_at(self, start: int, size: int) -> Extent:
        """Allocate an exact range (regularity placement).

        Raises:
            FragmentationError: if the range is not entirely free.
        """
        if size <= 0:
            self._check_size(size)
        capacity = self.capacity_words
        if start < 0 or start + size > capacity:
            raise FragmentationError(
                f"range [{start}..{start + size}) is not free"
            )
        # _covering_index, inlined: this is the per-placement path.
        index = bisect_right(self._blocks, (start, capacity + 1)) - 1
        if index >= 0:
            block_start, block_size = self._blocks[index]
            if start + size <= block_start + block_size:
                self._carve(index, start, size)
                return Extent(start, size)
        raise FragmentationError(
            f"range [{start}..{start + size}) is not free"
        )

    def allocate_split(self, size: int, *, from_high: bool) -> Tuple[Extent, ...]:
        """Allocate *size* words as possibly multiple extents.

        Used when no single block fits: "to improve memory usage the
        Complete Data Scheduler split it into two or more parts, and as
        a consequence the access to it is complex."  Blocks are consumed
        whole (except the last) from the chosen end of the address
        space; the whole-block run is removed with one slice deletion.

        Raises:
            FragmentationError: if total free space is insufficient.
        """
        self._check_size(size)
        if self._free_words < size:
            raise FragmentationError(
                f"cannot place {size} words: only {self._free_words} free"
            )
        blocks = self._blocks
        extents: List[Extent] = []
        remaining = size
        if from_high:
            whole = 0  # blocks consumed entirely, counted from the end
            while remaining > 0 and blocks[-1 - whole][1] <= remaining:
                block_start, block_size = blocks[-1 - whole]
                extents.append(Extent(block_start, block_size))
                remaining -= block_size
                whole += 1
            if whole:
                del blocks[len(blocks) - whole:]
            if remaining > 0:
                block_start, block_size = blocks[-1]
                start = block_start + block_size - remaining
                blocks[-1] = (block_start, block_size - remaining)
                extents.append(Extent(start, remaining))
        else:
            whole = 0
            while remaining > 0 and blocks[whole][1] <= remaining:
                block_start, block_size = blocks[whole]
                extents.append(Extent(block_start, block_size))
                remaining -= block_size
                whole += 1
            if whole:
                del blocks[:whole]
            if remaining > 0:
                block_start, block_size = blocks[0]
                blocks[0] = (block_start + remaining, block_size - remaining)
                extents.append(Extent(block_start, remaining))
        self._free_words -= size
        return tuple(extents)

    # -- freeing -----------------------------------------------------------

    def free(self, start: int, size: int) -> None:
        """Return ``[start, start+size)`` to the free list, coalescing.

        The insertion point is found by bisection; overlap (double free)
        can only involve the blocks immediately below and above it, and
        coalescing merges with at most those two neighbours.
        """
        if size <= 0:
            self._check_size(size)
        end = start + size
        capacity = self.capacity_words
        if start < 0 or end > capacity:
            raise AllocationError(
                f"free of [{start}..{end}) outside capacity {capacity}"
            )
        blocks = self._blocks
        # One past the covering block (see _covering_index).
        index = bisect_right(blocks, (start, capacity + 1))
        merge_prev = merge_next = False
        if index:
            prev_start, prev_size = blocks[index - 1]
            if prev_start + prev_size > start:
                raise AllocationError(
                    f"double free: [{start}..{end}) overlaps free block "
                    f"[{prev_start}..{prev_start + prev_size})"
                )
            merge_prev = prev_start + prev_size == start
        if index < len(blocks):
            next_start, next_size = blocks[index]
            if next_start < end:
                raise AllocationError(
                    f"double free: [{start}..{end}) overlaps free block "
                    f"[{next_start}..{next_start + next_size})"
                )
            merge_next = next_start == end
        if merge_prev and merge_next:
            blocks[index - 1] = (prev_start, prev_size + size + next_size)
            del blocks[index]
        elif merge_prev:
            blocks[index - 1] = (prev_start, prev_size + size)
        elif merge_next:
            blocks[index] = (start, size + next_size)
        else:
            blocks.insert(index, (start, size))
        self._free_words += size

    def free_extents(self, extents: Tuple[Extent, ...]) -> None:
        """Free a (possibly split) region."""
        for extent in extents:
            self.free(extent.start, extent.size)

    # -- internals -----------------------------------------------------------

    def _check_size(self, size: int) -> None:
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")

    def _carve(self, index: int, start: int, size: int) -> None:
        """Remove ``[start, start+size)`` from block *index*."""
        block_start, block_size = self._blocks[index]
        block_end = block_start + block_size
        end = start + size
        assert block_start <= start and end <= block_end, (
            block_start, block_size, start, size,
        )
        if start > block_start:
            self._blocks[index] = (block_start, start - block_start)
            if end < block_end:
                self._blocks.insert(index + 1, (end, block_end - end))
        elif end < block_end:
            self._blocks[index] = (end, block_end - end)
        else:
            del self._blocks[index]
        self._free_words -= size

    def check_invariants(self) -> None:
        """Assert structural invariants in one O(n) pass.

        Used by the property-based tests and by allocators constructed
        with ``debug_invariants=True`` (cheap enough to leave on in the
        whole test suite now that it is linear).
        """
        previous_end = None
        total = 0
        for start, size in self._blocks:
            if size <= 0:
                raise AllocationError(f"empty free block at {start}")
            if start < 0 or start + size > self.capacity_words:
                raise AllocationError(
                    f"free block [{start}..{start + size}) outside capacity"
                )
            if previous_end is not None and start <= previous_end:
                raise AllocationError(
                    f"free blocks unsorted or uncoalesced near {start}"
                )
            previous_end = start + size
            total += size
        if total != self._free_words:
            raise AllocationError(
                f"free-word counter drifted: cached {self._free_words}, "
                f"blocks sum to {total}"
            )

    def __str__(self) -> str:
        blocks = ", ".join(f"[{s}..{s + z})" for s, z in self._blocks)
        return f"FB_list({blocks or 'full'})"
