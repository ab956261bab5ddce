"""The hybrid log (§8.1).

One logical append-only address space: "the tail of the log is stored in
main memory and the remainder is spilled to storage".  The in-memory
portion is a ring buffer over ``[head_address, tail_address)``; its
youngest :data:`MUTABLE_FRACTION` supports in-place updates, the rest is
read-only.  When an append needs room, the oldest in-memory page spills
to the device and the head advances.

A page ends at the end of the record that fills it, so a record never
straddles a spill: it is wholly in memory or wholly on the device.
Records that tile :data:`PAGE_BYTES` give pages of exactly that size.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.faster.devices import IDevice
from repro.sim.kernel import Environment

__all__ = ["HybridLog"]

#: Spill granularity: FASTER flushes whole pages, not single records.
PAGE_BYTES = 1 << 16
#: Share of the in-memory log, youngest first, open to in-place updates.
MUTABLE_FRACTION = 0.9


class HybridLog:
    """The in-memory half of the log plus its spill mechanics."""

    def __init__(self, env: Environment, memory_bytes: int,
                 device: Optional[IDevice]):
        if memory_bytes < 1:
            raise ValueError("memory_bytes must be >= 1")
        self.env = env
        self.memory_bytes = memory_bytes
        self.device = device
        self.page_bytes = min(PAGE_BYTES, memory_bytes)
        self._buf = bytearray(memory_bytes)
        self.begin_address = 0
        self.head_address = 0
        self.tail_address = 0
        #: Start of the page the tail is filling, and the end addresses
        #: of the full in-memory pages before it, oldest first.
        self._open_page = 0
        self._page_ends: deque[int] = deque()
        #: Lifetime statistics.
        self.bytes_spilled = 0
        self.records_appended = 0

    # ------------------------------------------------------------------
    # Boundaries
    # ------------------------------------------------------------------

    @property
    def read_only_address(self) -> int:
        """Below this (and >= head) the in-memory log is immutable."""
        mutable_bytes = int(self.memory_bytes * MUTABLE_FRACTION)
        return max(self.head_address, self.tail_address - mutable_bytes)

    def in_memory(self, addr: int) -> bool:
        return self.head_address <= addr < self.tail_address

    def in_mutable_region(self, addr: int) -> bool:
        return self.read_only_address <= addr < self.tail_address

    # ------------------------------------------------------------------
    # Ring-buffer plumbing
    # ------------------------------------------------------------------

    def _ring_write(self, addr: int, data: bytes | memoryview) -> None:
        start = addr % self.memory_bytes
        first = min(len(data), self.memory_bytes - start)
        self._buf[start:start + first] = data[:first]
        if first < len(data):
            self._buf[0:len(data) - first] = data[first:]

    def _ring_read(self, addr: int, size: int) -> bytes:
        start = addr % self.memory_bytes
        first = min(size, self.memory_bytes - start)
        chunk = bytes(self._buf[start:start + first])
        if first < size:
            chunk += bytes(self._buf[0:size - first])
        return chunk

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _evict_page(self) -> None:
        """Spill the oldest page (all of memory if none is full yet) and
        advance the head."""
        if self._page_ends:
            end = self._page_ends.popleft()
        else:
            end = self._open_page = self.tail_address
        page_len = end - self.head_address
        page = self._ring_read(self.head_address, page_len)
        if self.device is not None:
            self.device.spill(self.head_address, page)
        self.bytes_spilled += page_len
        self.head_address += page_len

    def append(self, record: bytes) -> int:
        """Append one record; returns its log address."""
        return self.append_run(record, len(record))

    def append_run(self, records: bytes, record_size: int) -> int:
        """Append ``records``, a run of ``record_size``-byte records laid
        end to end; returns the first one's log address.

        Evicts old pages as needed.  Without a device, evicted data is
        simply lost (a pure in-memory cache configuration).  The run is
        written in pieces that each end where the open page closes or
        where the next record would need an eviction, so pages, spills
        and statistics come out as with one append per record.
        """
        memory = self.memory_bytes
        if record_size > memory:
            raise ValueError(
                f"record ({record_size} B) larger than log memory "
                f"({memory} B)")
        total = len(records)
        if record_size < 1 or total % record_size:
            raise ValueError(
                f"run of {total} B is not a whole number of "
                f"{record_size} B records")
        first = tail = self.tail_address
        end = first + total
        while tail < end:
            while tail - self.head_address + record_size > memory:
                self._evict_page()
            count = (end - tail) // record_size
            if count > 1:
                # Stop after the records that fit without an eviction,
                # or at the one that closes the open page.  (One record
                # always fits here and never overshoots a page close.)
                count = min(
                    count,
                    (memory - tail + self.head_address) // record_size,
                    -((tail - self._open_page - self.page_bytes)
                      // record_size))
            size = count * record_size
            offset = tail - first
            self._ring_write(tail, records if size == total else
                             memoryview(records)[offset:offset + size])
            tail = self.tail_address = tail + size
            if tail - self._open_page >= self.page_bytes:
                self._page_ends.append(tail)
                self._open_page = tail
            self.records_appended += count
        return first

    def read(self, addr: int, size: int) -> Optional[bytes]:
        """Read from the in-memory portion; None if already spilled."""
        if not self.in_memory(addr) or addr + size > self.tail_address:
            return None
        return self._ring_read(addr, size)

    def update_in_place(self, addr: int, data: bytes) -> bool:
        """Overwrite a record body; only legal in the mutable region."""
        if not self.in_mutable_region(addr):
            return False
        if addr + len(data) > self.tail_address:
            return False
        self._ring_write(addr, data)
        return True
