"""FASTER's storage devices.

``IDevice`` "exposes storage as a byte-addressable sequential address
space" (§8.2).  The hybrid log spills pages into the device; reads fetch
them back with device-appropriate cost:

* :class:`SsdDevice` -- server-local SSD: ~100 us log-normal latency
  with garbage-collection stalls and bounded internal parallelism;
* :class:`SmbDirectDevice` -- the paper's RDMA file-server baseline:
  lower latency than SSD but a heavy per-op client stack and no
  batching;
* :class:`RedyDevice` -- a Redy cache wrapped as a device, holding the
  most recent ``capacity`` bytes of the log as a ring;
* :class:`TieredDevice` -- the tiered meta-device: every spill lands in
  all tiers, a read is served by the lowest (fastest) tier that covers
  its address, and the *commit point* selects which tier's write
  acknowledgement completes an append.

Every device also carries ``client_cpu_per_read`` -- the FASTER-thread
CPU consumed per asynchronous read against it (I/O code path, context
switching), the overhead §8.3 calls out.  It is what separates Redy's
user-level client library from the kernel SMB/SSD stacks in Figures
18-20.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.hardware.ssd import SsdSpec
from repro.net.memory import zeroed
from repro.obs.metrics import registry_of
from repro.sim.clock import US
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Resource


def _service_histogram(env: Environment, device_name: str):
    """Per-device service-time histogram, or None when uninstrumented."""
    metrics = registry_of(env)
    if metrics is None:
        return None
    return metrics.histogram(f"device.{device_name}.service_time")

__all__ = [
    "DeviceReadResult",
    "IDevice",
    "LocalMemoryDevice",
    "RedyDevice",
    "SmbDirectDevice",
    "SsdDevice",
    "TieredDevice",
]


@dataclass
class DeviceReadResult:
    """Outcome of one device read or write."""

    ok: bool
    data: Optional[bytes] = None
    error: Optional[str] = None
    #: The device that actually served a tiered read (None elsewhere).
    tier: Optional["IDevice"] = None


class IDevice(abc.ABC):
    """A byte-addressable sequential storage address space.

    A device implements each access as a generator body that returns
    its :class:`DeviceReadResult`: :meth:`read_io` and :meth:`write_io`.
    A caller already running in a process delegates to a body with
    ``yield from`` and pays for no process or event of the device's
    own (the store and the tiered device do this).  :meth:`read` and
    :meth:`write` run the body as a process, which is the event that
    fires with the result.
    """

    name: str = "device"
    #: FASTER-thread CPU per asynchronous read on this device.
    client_cpu_per_read: float = 0.0
    env: Environment

    @abc.abstractmethod
    def read_io(self, addr: int, size: int):
        """Generator body of one read; returns a DeviceReadResult."""

    @abc.abstractmethod
    def write_io(self, addr: int, data: bytes):
        """Generator body of one write; returns a DeviceReadResult."""

    def read(self, addr: int, size: int) -> Event:
        """Asynchronous read; fires with a :class:`DeviceReadResult`."""
        return self.env.process(self.read_io(addr, size),
                                name=f"{self.name}-r@{addr}")

    def write(self, addr: int, data: bytes) -> Event:
        """Asynchronous write; fires with a :class:`DeviceReadResult`."""
        return self.env.process(self.write_io(addr, data),
                                name=f"{self.name}-w@{addr}")

    @abc.abstractmethod
    def spill(self, addr: int, data: bytes) -> None:
        """Untimed ingestion of a flushed log page (setup/bulk load)."""

    @abc.abstractmethod
    def covers(self, addr: int) -> bool:
        """Whether this device currently holds ``addr``."""


class _BufferedDevice(IDevice):
    """Shared machinery: a byte buffer plus a spill watermark."""

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise ValueError("device capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._buf = zeroed(capacity)
        self._watermark = 0  # exclusive end of spilled data
        self._service_time = _service_histogram(env, self.name)

    @property
    def watermark(self) -> int:
        return self._watermark

    def covers(self, addr: int) -> bool:
        return 0 <= addr < self._watermark

    def _store(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > self.capacity:
            raise ValueError(
                f"{self.name}: write [{addr}, {addr + len(data)}) outside "
                f"capacity {self.capacity}")
        self._buf[addr:addr + len(data)] = data
        self._watermark = max(self._watermark, addr + len(data))

    def _fetch(self, addr: int, size: int) -> bytes:
        return self._buf[addr:addr + size]

    def spill(self, addr: int, data: bytes) -> None:
        self._store(addr, data)


class LocalMemoryDevice(_BufferedDevice):
    """DRAM as a device tier: near-instant, used in tests and as the
    reference point for the Figure 19 local-memory sweep."""

    name = "local-memory"
    client_cpu_per_read = 0.05 * US

    def __init__(self, env: Environment, capacity: int):
        super().__init__(env, capacity)
        self._latency = 0.1 * US

    def read_io(self, addr: int, size: int):
        data = self._fetch(addr, size)
        yield from self._complete()
        return DeviceReadResult(ok=True, data=data)

    def write_io(self, addr: int, data: bytes):
        self._store(addr, data)
        yield from self._complete()
        return DeviceReadResult(ok=True)

    def _complete(self):
        yield self.env.timeout(self._latency)
        if self._service_time is not None:
            self._service_time.observe(self._latency)


class _SlottedDevice(_BufferedDevice):
    """A buffered device whose accesses queue for one of ``slots``
    service slots, then take a sampled service latency."""

    def __init__(self, env: Environment, capacity: int, slots: int):
        super().__init__(env, capacity)
        self._slots = Resource(env, slots=slots)

    def _latency(self, size: int, is_write: bool) -> float:
        raise NotImplementedError

    def read_io(self, addr: int, size: int):
        return self._service(addr, size, None)

    def write_io(self, addr: int, data: bytes):
        return self._service(addr, len(data), data)

    def _service(self, addr: int, size: int, data: Optional[bytes]):
        started = self.env.now
        yield self._slots.acquire()
        try:
            yield self.env.timeout(self._latency(size, data is not None))
        finally:
            self._slots.release()
        if self._service_time is not None:
            # Queueing for a slot counts: that is the latency the log's
            # read path actually sees.
            self._service_time.observe(self.env.now - started)
        if data is not None:
            self._store(addr, data)
            return DeviceReadResult(ok=True)
        return DeviceReadResult(ok=True, data=self._fetch(addr, size))


class SsdDevice(_SlottedDevice):
    """Server-attached SSD with log-normal latency and GC stalls."""

    name = "ssd"
    #: Kernel block-I/O stack + async completion per read.
    client_cpu_per_read = 3.5 * US

    def __init__(self, env: Environment, capacity: int,
                 rng: np.random.Generator):
        spec = SsdSpec()
        super().__init__(env, capacity, spec.internal_parallelism)
        self.spec = spec
        self.rng = rng

    def _latency(self, size: int, is_write: bool) -> float:
        return self.spec.sample_latency(size, is_write, self.rng)


class SmbDirectDevice(_SlottedDevice):
    """The SMB Direct baseline: an RDMA-enabled file-server protocol.

    Faster than SSD (its data sits in the file server's memory and moves
    over RDMA) but request/response per operation with a kernel client
    stack -- no Redy-style batching -- which is why it trails Redy by
    ~10x in Figure 18.
    """

    name = "smb-direct"
    #: Kernel SMB3 client + RDMA transport per read.
    client_cpu_per_read = 10.5 * US

    #: Network round trip per request.
    network_rtt = 2.9 * US
    #: Server-side service time per request (file-server CPU + RDMA).
    service_time = 6.0 * US
    #: Effective per-connection bandwidth, Gbit/s.
    bandwidth_gbps = 50.0
    #: Concurrent requests the file server services for one client.
    server_slots = 4

    def __init__(self, env: Environment, capacity: int,
                 rng: np.random.Generator):
        super().__init__(env, capacity, self.server_slots)
        self.rng = rng

    def _latency(self, size: int, is_write: bool) -> float:
        transfer = size * 8 / (self.bandwidth_gbps * 1e9)
        jitter = float(np.exp(self.rng.normal(0.0, 0.15)))
        return (self.network_rtt + self.service_time * jitter + transfer)


class RedyDevice(IDevice):
    """A Redy cache wrapped as an ``IDevice`` (Figure 17).

    The cache holds the most recent ``cache.capacity`` bytes of the log
    as a ring: log address ``a`` lives at cache address
    ``a % capacity``.  Older addresses fall out of the window and must
    be served by the next tier, and so must every address up to the end
    of a write piece that failed: its ring slot never got the bytes.
    """

    name = "redy"
    #: Redy's user-level client library is far cheaper per op than the
    #: kernel storage stacks -- the core of the §8.3 result.
    client_cpu_per_read = 0.2 * US

    def __init__(self, cache):
        self.env = cache.env
        self.cache = cache
        self._watermark = 0
        #: Log addresses below this never read from the ring: a write
        #: piece that failed left its slot holding older bytes.
        self._floor = 0
        self._service_time = _service_histogram(self.env, self.name)

    @property
    def capacity(self) -> int:
        return self.cache.capacity

    @property
    def window_start(self) -> int:
        return max(self._watermark - self.cache.table.capacity, self._floor)

    def covers(self, addr: int) -> bool:
        return (max(self._watermark - self.cache.table.capacity, self._floor)
                <= addr < self._watermark)

    def _ring_pieces(self, addr: int, size: int):
        """Split [addr, addr+size) at the ring boundary."""
        start = addr % self.capacity
        first = min(size, self.capacity - start)
        yield start, 0, first
        if first < size:
            yield 0, first, size - first

    def read_io(self, addr: int, size: int):
        started = self.env.now
        capacity = self.cache.table.capacity
        start = addr % capacity
        if start + size <= capacity:
            # One piece: the cache's bytes are the read's.
            result = yield from self.cache.read_io(start, size)
            if addr < self.window_start:
                return self._aged_out(addr)
            if not result.ok:
                return DeviceReadResult(ok=False, error=result.error)
            if self._service_time is not None:
                self._service_time.observe(self.env.now - started)
            return DeviceReadResult(ok=True, data=result.data)
        # A read across the ring's wrap: both halves in parallel.
        pieces = list(self._ring_pieces(addr, size))
        results = yield self.env.all_of([
            self.cache.read(cache_addr, length)
            for cache_addr, _buffer_offset, length in pieces])
        if addr < self.window_start:
            return self._aged_out(addr)
        failed = next((r for r in results if not r.ok), None)
        if failed is not None:
            return DeviceReadResult(ok=False, error=failed.error)
        buffer = bytearray(size)
        for (_cache_addr, buffer_offset, length), result in zip(pieces,
                                                                results):
            buffer[buffer_offset:buffer_offset + length] = result.data
        if self._service_time is not None:
            self._service_time.observe(self.env.now - started)
        return DeviceReadResult(ok=True, data=bytes(buffer))

    @staticmethod
    def _aged_out(addr: int) -> DeviceReadResult:
        """The address aged out of the ring while the read was in
        flight: its slot now holds newer log bytes.  Callers fall back
        to the next tier (the log's full copy)."""
        return DeviceReadResult(
            ok=False, error=f"address {addr} fell out of the cache "
                            f"window during the read")

    def write_io(self, addr: int, data: bytes):
        pieces = list(self._ring_pieces(addr, len(data)))
        results = yield self.env.all_of([
            self.cache.write(cache_addr,
                             data[buffer_offset:buffer_offset + length])
            for cache_addr, buffer_offset, length in pieces])
        self._watermark = max(self._watermark, addr + len(data))
        failed = None
        for (_cache_addr, buffer_offset, length), result in zip(pieces,
                                                                results):
            if not result.ok:
                failed = failed or result
                self._floor = max(self._floor, addr + buffer_offset + length)
        if failed is not None:
            return DeviceReadResult(ok=False, error=failed.error)
        return DeviceReadResult(ok=True)

    def spill(self, addr: int, data: bytes) -> None:
        for cache_addr, buffer_offset, length in self._ring_pieces(
                addr, len(data)):
            self.cache.load(cache_addr,
                            data[buffer_offset:buffer_offset + length])
        self._watermark = max(self._watermark, addr + len(data))


class TieredDevice(IDevice):
    """FASTER's tiered-storage meta-device (§8.2).

    ``tiers`` run fastest-first.  Spills/writes go to every tier; a read
    is served by the first tier that covers its address; the *commit
    point* (index into ``tiers``) selects how many tiers must
    acknowledge a write before it completes.
    """

    name = "tiered"

    def __init__(self, env: Environment, tiers: List[IDevice]):
        if not tiers:
            raise ValueError("tiered device needs at least one tier")
        self.env = env
        self.tiers = list(tiers)
        #: Acknowledge a write once the first tier has it; an experiment
        #: may move the commit point up before the first write.
        self.commit_point = 0

    def resolve(self, addr: int) -> Optional[IDevice]:
        """The lowest tier currently holding ``addr``."""
        for tier in self.tiers:
            if tier.covers(addr):
                return tier
        return None

    def covers(self, addr: int) -> bool:
        return self.resolve(addr) is not None

    def read_io(self, addr: int, size: int):
        """Serve from the lowest covering tier, falling back to higher
        tiers when a cache tier's copy aged out mid-read."""
        last_error = f"address {addr} on no tier"
        for tier in self.tiers:
            if not tier.covers(addr):
                continue
            result = yield from tier.read_io(addr, size)
            if result.ok:
                result.tier = tier
                return result
            last_error = result.error
        return DeviceReadResult(ok=False, error=last_error)

    def write_io(self, addr: int, data: bytes):
        """Apply to all tiers; complete at the commit point."""
        events = [tier.write(addr, data) for tier in self.tiers]
        results = yield self.env.all_of(events[:self.commit_point + 1])
        failed = next((r for r in results if not r.ok), None)
        if failed is not None:
            return DeviceReadResult(ok=False, error=failed.error)
        return DeviceReadResult(ok=True)

    def spill(self, addr: int, data: bytes) -> None:
        for tier in self.tiers:
            tier.spill(addr, data)
