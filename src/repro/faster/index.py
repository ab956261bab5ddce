"""The FASTER hash index: keys to log addresses.

FASTER's index "maps keys to record addresses" and "is stored in the
client's memory" (§8.1).  This implementation keeps FASTER's semantics
-- last-writer-wins address per key, no storage of values -- behind a
small API, with bucket-count accounting so its memory footprint can be
reported alongside the log's.
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.faster.address import NULL_ADDRESS

__all__ = ["HashIndex"]


class HashIndex:
    """In-memory key -> address map."""

    #: Approximate bytes per entry (key + address + bucket overhead),
    #: used for memory-footprint reporting.
    BYTES_PER_ENTRY = 24

    def __init__(self):
        self._entries: Dict[int, int] = {}
        #: Lifetime statistics.
        self.lookups = 0
        self.updates = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    @property
    def memory_bytes(self) -> int:
        return len(self._entries) * self.BYTES_PER_ENTRY

    def lookup(self, key: int) -> int:
        """Address of the latest record for ``key``; NULL_ADDRESS if absent."""
        self.lookups += 1
        return self._entries.get(key, NULL_ADDRESS)

    def update(self, key: int, address: int) -> None:
        """Point ``key`` at a new record address (insert or supersede)."""
        if address < 0:
            raise ValueError(f"invalid address {address}")
        self.updates += 1
        self._entries[key] = address

    def update_run(self, keys: range, addresses: range) -> None:
        """Point each of ``keys`` at the matching one of ``addresses``:
        one :meth:`update` per key, in order."""
        if len(keys) != len(addresses):
            raise ValueError(
                f"{len(keys)} keys for {len(addresses)} addresses")
        if addresses and min(addresses[0], addresses[-1]) < 0:
            raise ValueError(f"invalid address in {addresses}")
        self.updates += len(keys)
        self._entries.update(zip(keys, addresses))

    def compare_and_update(self, key: int, expected: int,
                           address: int) -> bool:
        """CAS-style update, mirroring FASTER's concurrent index ops.

        In the single-threaded simulation this never races, but callers
        use it where real FASTER would, so the logic reads the same.
        """
        current = self._entries.get(key, NULL_ADDRESS)
        if current != expected:
            return False
        self.update(key, address)
        return True
