"""Per-tenant local backing store: the fail-open floor.

Every tenant namespace is mirrored into a client-local store standing
in for the FASTER hybrid log the cache was populated from (§6.2: "the
cache client can use a copy of the cache to populate the new cache").
Normal-path writes land here *synchronously at ack time* -- a local
memory copy, free in simulated time -- so the mirror always contains
every acknowledged byte.  When a tenant degrades (its remote region is
lost) the tier fails open to this store: reads are served locally at storage-class latency and writes go
write-through until the region recovers, after which the dirty chunks
re-populate the cache.

The latency model is deliberately simple -- a fixed per-access service
time on a single-queue device, orders of magnitude slower than the
RDMA path -- because the benchmark claims are about *availability*
(zero lost acked writes, automatic re-promotion), not about modelling
local flash.
"""

from __future__ import annotations

from repro.sim.clock import US
from repro.sim.resources import Resource

__all__ = ["FailOpenStore"]


class FailOpenStore:
    """A byte-addressable local mirror of one tenant's namespace."""

    #: Service time per access: ~120 us, the latency class of a local
    #: NVMe read -- 20-50x the RDMA path, which is exactly the point:
    #: degraded mode is *available*, not fast.
    access_latency_s = 120 * US

    def __init__(self, env, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._bytes = bytearray(capacity)
        #: Single-queue device: concurrent degraded accesses serialize.
        self._device = Resource(env, slots=1)
        #: Lifetime access counts.
        self.reads = 0
        self.writes = 0

    @property
    def queue_length(self) -> int:
        """Accesses waiting on the device (the degraded-shed signal)."""
        return self._device.queue_length + self._device.in_use

    # -- zero-time mirror maintenance (ack path) -----------------------

    def mirror(self, addr: int, data: bytes) -> None:
        """Apply acked bytes to the mirror without charging time.

        Called on the normal path the moment the remote write is
        acknowledged; the copy models client-local memory the CPU
        already touched to issue the write.
        """
        self._check(addr, len(data))
        self._bytes[addr:addr + len(data)] = data

    def peek(self, addr: int, size: int) -> bytes:
        """Zero-time read (recovery flush assembles chunks with this)."""
        self._check(addr, size)
        return bytes(self._bytes[addr:addr + size])

    # -- timed fail-open accesses (degraded path) ----------------------

    def read(self, addr: int, size: int):
        """Process: serve one degraded read at storage latency."""
        self._check(addr, size)
        yield self._device.acquire()
        try:
            yield self.env.timeout(self.access_latency_s)
        finally:
            self._device.release()
        self.reads += 1
        return bytes(self._bytes[addr:addr + size])

    def write(self, addr: int, data: bytes):
        """Process: apply one write-through write at storage latency."""
        self._check(addr, len(data))
        yield self._device.acquire()
        try:
            yield self.env.timeout(self.access_latency_s)
        finally:
            self._device.release()
        self._bytes[addr:addr + len(data)] = data
        self.writes += 1
        return True

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.capacity:
            raise ValueError(f"access [{addr}, {addr + size}) outside "
                             f"backing capacity {self.capacity}")
