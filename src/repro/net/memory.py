"""Registered memory regions and access tokens.

A cache server registers its memory regions with the NIC and hands the
client one access token per region (paper §4.2, *Connection Setup*).  A
one-sided verb must present a valid token; presenting a stale token (for
example after a region was torn down by a reclamation) raises
:class:`RdmaAccessError`, which is how the client learns it must consult
the cache manager.
"""

from __future__ import annotations

import itertools
import mmap
from dataclasses import dataclass
from typing import Optional

__all__ = ["AccessToken", "MemoryRegion", "RdmaAccessError", "zeroed"]

# Fallback id/key sources for regions that are never registered with a
# fabric endpoint (unit tests poking a region directly).  Registered
# regions are re-issued fabric-scoped ids at ``Endpoint.register`` time
# so that same-seed runs in one interpreter produce identical ids --
# module counters keep ticking between runs, and the leaked ids reach
# routing tables and process names, which breaks bit-identical replay.
_REGION_IDS = itertools.count(1)
_TOKEN_KEYS = itertools.count(0x1000)


def zeroed(size: int) -> mmap.mmap:
    """A ``size``-byte zero-filled store that costs host memory only for
    the pages written.

    A private anonymous mapping reads as zeros: a read maps the kernel's
    shared zero page, which the resident set does not count, and the
    first write to a page allocates it.  Slice reads return ``bytes``
    and slice writes behave as on a ``bytearray``, except that a
    wrong-length assignment raises instead of resizing -- every writer
    bounds-checks first, so no path relies on either.
    """
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


class RdmaAccessError(Exception):
    """A verb presented an invalid/stale token or an out-of-bounds address."""


@dataclass(frozen=True)
class AccessToken:
    """Capability to access one registered region remotely."""

    region_id: int
    key: int
    size: int


class MemoryRegion:
    """A byte-addressable region registered with a NIC.

    ``backing`` chooses whether the region actually stores bytes.  The
    functional cache path needs real bytes (a read must return what was
    written).  A backed region is a :func:`zeroed` store, so it costs
    host memory only for the pages the simulation writes, not for its
    capacity.  The performance-measurement path moves size-only payloads
    and registers regions with ``backing=False``, which also skips the
    byte copies.
    """

    def __init__(self, size: int, backing: bool = True):
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.region_id = next(_REGION_IDS)
        self.size = size
        self._buf: Optional[mmap.mmap] = zeroed(size) if backing else None
        self._token = AccessToken(
            region_id=self.region_id, key=next(_TOKEN_KEYS), size=size)
        self._revoked = False
        self._mailbox = None
        self._registered = False

    def rebind_identity(self, region_id: int, key: int) -> None:
        """Re-issue the region id and token key (fabric registration).

        Called once by :meth:`Endpoint.register` before the token can
        escape, replacing the module-counter fallback ids with ids drawn
        from the fabric's own counters so they are deterministic per run.
        """
        if self._registered:
            return
        self._registered = True
        self.region_id = region_id
        self._token = AccessToken(region_id=region_id, key=key, size=self.size)

    def attach_mailbox(self, callback) -> None:
        """Observe remote writes carrying a message object.

        This models a local thread polling the region: a message ring is
        just registered memory, and the owner discovers inbound request /
        response batches by polling it.  ``callback(message)`` runs at
        delivery time (when the payload lands in memory, before the
        writer's completion is generated).
        """
        self._mailbox = callback

    def deliver(self, message: object) -> None:
        """Hand a message object to the attached mailbox, if any."""
        if self._mailbox is not None and message is not None:
            self._mailbox(message)

    @property
    def token(self) -> AccessToken:
        return self._token

    @property
    def has_backing(self) -> bool:
        return self._buf is not None

    def revoke(self) -> None:
        """Invalidate the region's token (deregistration / VM teardown)."""
        self._revoked = True

    def check_access(self, token: AccessToken, offset: int, length: int) -> None:
        """Validate a remote access; raises :class:`RdmaAccessError` on failure."""
        if self._revoked:
            raise RdmaAccessError(
                f"region {self.region_id} token revoked (VM gone?)")
        if token.region_id != self.region_id or token.key != self._token.key:
            raise RdmaAccessError(
                f"token {token} does not match region {self.region_id}")
        if offset < 0 or length < 0 or offset + length > self.size:
            raise RdmaAccessError(
                f"access [{offset}, {offset + length}) outside region of "
                f"size {self.size}")

    def write(self, token: AccessToken, offset: int, data: Optional[bytes],
              length: Optional[int] = None) -> None:
        """Remote write.  ``data`` may be None for size-only payloads."""
        size = len(data) if data is not None else int(length or 0)
        self.check_access(token, offset, size)
        if self._buf is not None and data is not None:
            self._buf[offset:offset + size] = data

    def read(self, token: AccessToken, offset: int,
             length: int) -> Optional[bytes]:
        """Remote read.  Returns None when the region has no backing store."""
        self.check_access(token, offset, length)
        if self._buf is None:
            return None
        return self._buf[offset:offset + length]

    def local_write(self, offset: int, data: bytes) -> None:
        """Server-local write (used by the cache server's request executor)."""
        if offset < 0 or offset + len(data) > self.size:
            raise RdmaAccessError(
                f"local write [{offset}, {offset + len(data)}) out of bounds")
        if self._buf is not None:
            self._buf[offset:offset + len(data)] = data

    def local_read(self, offset: int, length: int) -> Optional[bytes]:
        """Server-local read."""
        if offset < 0 or offset + length > self.size:
            raise RdmaAccessError(
                f"local read [{offset}, {offset + length}) out of bounds")
        if self._buf is None:
            return None
        return self._buf[offset:offset + length]

    def __repr__(self) -> str:
        backing = "backed" if self.has_backing else "unbacked"
        return f"<MemoryRegion {self.region_id} size={self.size} {backing}>"
