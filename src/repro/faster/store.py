"""FasterKv: the store facade tying index, hybrid log, and devices.

The timed operations (:meth:`FasterKv.read`, :meth:`FasterKv.upsert`)
are generators meant to run inside simulation processes; they charge
FASTER-thread CPU against the caller-supplied ``cpu`` resource so that
one thread's issue and completion work never overlaps in time, while
device waits release the thread (the asynchronous device interface of
§8.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faster.address import (
    NULL_ADDRESS,
    pack_key_records,
    pack_record,
    record_bytes,
    unpack_record,
)
from repro.faster.devices import IDevice
from repro.faster.hlog import HybridLog
from repro.faster.index import HashIndex
from repro.sim.clock import US
from repro.sim.kernel import Environment
from repro.sim.resources import Resource

__all__ = ["FasterCosts", "FasterKv", "ReadOutcome"]


@dataclass(frozen=True)
class FasterCosts:
    """FASTER-thread CPU costs, calibrated to §8.3.

    * all-in-memory: ~0.78 us/read -> 4 threads reach the paper's
      ~5 MOPS (Figure 19's 8 GB point);
    * the asynchronous device path adds issue + completion work -- with
      Redy's cheap client library the miss path totals ~1.45 us, giving
      the 0.8 MOPS single-thread figure of 18a.
    """

    in_memory_read: float = 0.78 * US
    async_issue: float = 0.70 * US
    async_completion: float = 0.55 * US
    upsert: float = 0.90 * US
    copy_to_tail: float = 0.35 * US
    #: Per-value-byte handling cost (copies through the session stack,
    #: cache misses on large records).  Negligible for the paper's 8-byte
    #: values; ~1 us per op for the 1 KB runs of Figure 18d.
    per_value_byte: float = 1.0e-9


@dataclass
class ReadOutcome:
    """Result of one read."""

    found: bool
    value: Optional[bytes] = None
    served_by: str = "memory"
    error: Optional[str] = None


class FasterKv:
    """A FASTER-style key-value store over one (possibly tiered) device."""

    def __init__(self, env: Environment, device: Optional[IDevice],
                 memory_bytes: int, value_bytes: int):
        self.env = env
        self.device = device
        self.value_bytes = value_bytes
        self.costs = FasterCosts()
        #: Write-through mode: an upsert is acknowledged only once the
        #: device has it -- "an append operation is applied to all
        #: tiers.  It is acknowledged to the client after all tiers have
        #: applied the append", modulated by the tiered device's *commit
        #: point* (§8.2).
        self.durable_writes = False
        self.index = HashIndex()
        self.hlog = HybridLog(env, memory_bytes, device)
        self.record_size = record_bytes(value_bytes)
        #: Lifetime statistics.
        self.reads_memory = 0
        self.reads_device = 0
        self.reads_missing = 0

    # ------------------------------------------------------------------
    # Untimed bulk load (benchmark setup)
    # ------------------------------------------------------------------

    def load(self, n_records: int) -> None:
        """Insert keys ``0..n_records-1`` without charging simulated time.

        Each key's value is the key's 8 little-endian bytes, repeated, so
        that round-trip tests can verify content integrity.  Records go
        into the log a page at a time: one packed run, one append, one
        index update per page.
        """
        size = self.record_size
        per_run = max(1, self.hlog.page_bytes // size)
        for first_key in range(0, n_records, per_run):
            count = min(per_run, n_records - first_key)
            first = self.hlog.append_run(
                pack_key_records(first_key, count, self.value_bytes), size)
            self.index.update_run(range(first_key, first_key + count),
                                  range(first, first + count * size, size))

    @property
    def log_size(self) -> int:
        """Total logical log bytes (memory + spilled)."""
        return self.hlog.tail_address

    # ------------------------------------------------------------------
    # Timed operations (run inside simulation processes)
    # ------------------------------------------------------------------

    def read(self, key: int, cpu: Resource):
        """Process: read one key; returns a :class:`ReadOutcome`."""
        yield cpu.acquire()
        try:
            address = self.index.lookup(key)
            if address == NULL_ADDRESS:
                yield self.env.timeout(self.costs.in_memory_read)
                self.reads_missing += 1
                return ReadOutcome(found=False)

            if self.hlog.in_memory(address):
                # Copy the record before yielding: a concurrent append
                # could evict this page mid-wait (real FASTER pins it via
                # epoch protection; copying first gives the same
                # guarantee here).
                blob = self.hlog.read(address, self.record_size)
                yield self.env.timeout(
                    self.costs.in_memory_read
                    + self.value_bytes * self.costs.per_value_byte)
                self.reads_memory += 1
                _key, value = unpack_record(blob)
                return ReadOutcome(found=True, value=value,
                                   served_by="memory")

            # Asynchronous device path: issue, release the thread while
            # the I/O is in flight, then pay completion costs.
            yield self.env.timeout(self.costs.async_issue)
        finally:
            cpu.release()
        if self.device is None:
            self.reads_missing += 1
            return ReadOutcome(found=False,
                               error="record evicted and no device")
        result = yield from self.device.read_io(address, self.record_size)
        yield cpu.acquire()
        try:
            serving = (result.tier if result.tier is not None
                       else self.device)
            completion = (self.costs.async_completion
                          + serving.client_cpu_per_read
                          + self.value_bytes * self.costs.per_value_byte)
            yield self.env.timeout(completion)
            if not result.ok:
                self.reads_missing += 1
                return ReadOutcome(found=False, error=result.error)
            key_read, value = unpack_record(result.data)
            # FASTER's read-cache behaviour: a record served by a device
            # is appended back to the tail so hot records migrate into
            # memory.  This is what makes the Zipfian runs of Figure 18b
            # faster than uniform -- "FASTER uses local memory to cache
            # frequently-accessed records".  The index swings only if it
            # still points at the address we fetched.
            yield self.env.timeout(self.costs.copy_to_tail)
            new_address = self.hlog.append(result.data)
            self.index.compare_and_update(key, address, new_address)
        finally:
            cpu.release()
        self.reads_device += 1
        return ReadOutcome(found=True, value=value, served_by=serving.name)

    def upsert(self, key: int, value: bytes, cpu: Resource):
        """Process: insert or update one key.

        Updates in the mutable region happen in place; everything else
        appends to the tail and swings the index (§8.1).
        """
        if len(value) != self.value_bytes:
            raise ValueError(
                f"value is {len(value)} B, store expects {self.value_bytes}")
        yield cpu.acquire()
        try:
            yield self.env.timeout(self.costs.upsert
                                   + len(value) * self.costs.per_value_byte)
            record = pack_record(key, value)
            address = self.index.lookup(key)
            if (address != NULL_ADDRESS
                    and self.hlog.in_mutable_region(address)):
                self.hlog.update_in_place(address, record)
                written_at = address
            else:
                written_at = self.hlog.append(record)
                self.index.update(key, written_at)
        finally:
            cpu.release()
        if self.durable_writes and self.device is not None:
            # Commit semantics: wait for the device (the tiered device
            # acks at its commit point) while the thread serves others.
            result = yield from self.device.write_io(written_at, record)
            if not result.ok:
                return False
        return True
