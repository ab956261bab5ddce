"""The region table: mapping a cache's address space to VM memory.

The cache client "constructs a *region table* that maps the cache's
address space [0, capacity) to memory regions on servers.  It divides
the address space into *virtual regions*, mapping each one to a
*physical region* on a VM" (§3.3, Figure 5).

The table also carries the per-region gates that implement the §6.2
migration optimizations: *pause-on-migration writes* pause writes only
to the region currently being migrated, and *unpaused reads* leave reads
flowing to the old VM until the flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.net.memory import AccessToken
from repro.sim.kernel import Environment, Event

__all__ = ["AddressError", "Fragment", "RegionMapping", "RegionTable"]

#: Default physical region size: "configurable (1 GB by default)" (§3.3).
DEFAULT_REGION_BYTES = 1 << 30


class AddressError(Exception):
    """An access fell outside [0, capacity)."""


@dataclass
class RegionMapping:
    """One virtual region and its current physical home."""

    index: int
    token: AccessToken
    server_name: str
    _write_gate: Optional[Event] = field(default=None, repr=False)
    _read_gate: Optional[Event] = field(default=None, repr=False)

    @property
    def writes_paused(self) -> bool:
        return self._write_gate is not None

    @property
    def reads_paused(self) -> bool:
        return self._read_gate is not None


@dataclass(frozen=True)
class Fragment:
    """One region-local piece of a (possibly spanning) cache access."""

    region_index: int
    token: AccessToken
    offset: int
    length: int
    #: Offset of this fragment within the original request buffer.
    buffer_offset: int


class RegionTable:
    """Address translation plus migration gates for one cache."""

    def __init__(self, env: Environment, region_bytes: int):
        if region_bytes < 1:
            raise ValueError(f"region_bytes must be >= 1, got {region_bytes}")
        self.env = env
        self.region_bytes = region_bytes
        self._regions: List[RegionMapping] = []

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._regions)

    @property
    def capacity(self) -> int:
        return len(self._regions) * self.region_bytes

    @property
    def regions(self) -> List[RegionMapping]:
        return list(self._regions)

    def region(self, index: int) -> RegionMapping:
        return self._regions[index]

    def append_region(self, token: AccessToken, server_name: str) -> RegionMapping:
        if token.size < self.region_bytes:
            raise ValueError(
                f"physical region ({token.size} B) smaller than the virtual "
                f"region size ({self.region_bytes} B)")
        mapping = RegionMapping(index=len(self._regions), token=token,
                                server_name=server_name)
        self._regions.append(mapping)
        return mapping

    def remap(self, index: int, token: AccessToken, server_name: str) -> None:
        """Flip one virtual region to a new physical home (migration)."""
        mapping = self._regions[index]
        mapping.token = token
        mapping.server_name = server_name

    def truncate(self, new_capacity: int) -> List[RegionMapping]:
        """Shrink to ``new_capacity``; returns the dropped mappings."""
        keep = math.ceil(new_capacity / self.region_bytes)
        dropped = self._regions[keep:]
        self._regions = self._regions[:keep]
        return dropped

    def regions_on(self, server_name: str) -> List[RegionMapping]:
        return [m for m in self._regions if m.server_name == server_name]

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------

    def _outside(self, addr: int, size: int) -> AddressError:
        return AddressError(
            f"access [{addr}, {addr + size}) outside cache of capacity "
            f"{self.capacity}")

    def locate(self, addr: int, size: int) -> Optional[Tuple[int, int]]:
        """``(region index, offset)`` of a non-empty access that sits
        inside one region; ``None`` for one that spans regions or is
        empty (:meth:`translate` splits those).  Raises
        :class:`AddressError` as :meth:`translate` does."""
        region_bytes = self.region_bytes
        if (addr < 0 or size < 0
                or addr + size > len(self._regions) * region_bytes):
            raise self._outside(addr, size)
        offset = addr % region_bytes
        if size == 0 or offset + size > region_bytes:
            return None
        return addr // region_bytes, offset

    def translate(self, addr: int, size: int) -> List[Fragment]:
        """Split [addr, addr+size) into region-local fragments."""
        if addr < 0 or size < 0 or addr + size > self.capacity:
            raise self._outside(addr, size)
        fragments: List[Fragment] = []
        cursor = addr
        remaining = size
        buffer_offset = 0
        while remaining > 0:
            index = cursor // self.region_bytes
            offset = cursor % self.region_bytes
            length = min(remaining, self.region_bytes - offset)
            mapping = self._regions[index]
            fragments.append(Fragment(
                region_index=index, token=mapping.token, offset=offset,
                length=length, buffer_offset=buffer_offset))
            cursor += length
            remaining -= length
            buffer_offset += length
        return fragments

    # ------------------------------------------------------------------
    # Migration gates
    # ------------------------------------------------------------------

    def pause_writes(self, index: int) -> None:
        mapping = self._regions[index]
        if mapping._write_gate is None:
            mapping._write_gate = self.env.event()

    def pause_reads(self, index: int) -> None:
        mapping = self._regions[index]
        if mapping._read_gate is None:
            mapping._read_gate = self.env.event()

    def resume(self, index: int) -> None:
        """Lift both gates, waking everything that was waiting."""
        mapping = self._regions[index]
        if mapping._write_gate is not None:
            mapping._write_gate.succeed()
            mapping._write_gate = None
        if mapping._read_gate is not None:
            mapping._read_gate.succeed()
            mapping._read_gate = None

    def gate(self, index: int, is_read: bool) -> Optional[Event]:
        """The gate a read (``is_read``) or a write of region ``index``
        waits out, if one is closed (§6.2: paused until the region
        migrates)."""
        mapping = self._regions[index]
        return mapping._read_gate if is_read else mapping._write_gate
