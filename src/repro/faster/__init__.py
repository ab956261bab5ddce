"""A FASTER-style key-value store (the paper's §8 integration target).

FASTER [SIGMOD'18] is a hash-indexed key-value store over a *hybrid
log*: the log's tail lives in memory (with an in-place-updatable mutable
region), the rest spills to storage through an ``IDevice`` abstraction.
Tiered storage composes devices, each tier a replica of a suffix of the
log; reads are served by the lowest tier holding the address.

This package implements those data structures functionally -- reads
really traverse index -> log -> device and return the bytes that were
written -- with CPU/IO costs charged in simulated time so the Figure
18-20 experiments reproduce:

* :mod:`repro.faster.address` -- log addresses and segment math;
* :mod:`repro.faster.index` -- the hash index;
* :mod:`repro.faster.hlog` -- the hybrid log;
* :mod:`repro.faster.devices` -- IDevice + Local/SSD/SMB-Direct/Redy/
  Tiered devices;
* :mod:`repro.faster.store` -- the FasterKv facade.
"""

from repro.faster.address import NULL_ADDRESS, record_bytes
from repro.faster.devices import (
    DeviceReadResult,
    IDevice,
    LocalMemoryDevice,
    RedyDevice,
    SmbDirectDevice,
    SsdDevice,
    TieredDevice,
)
from repro.faster.hlog import HybridLog
from repro.faster.index import HashIndex
from repro.faster.store import FasterCosts, FasterKv

__all__ = [
    "DeviceReadResult",
    "FasterCosts",
    "FasterKv",
    "HashIndex",
    "HybridLog",
    "IDevice",
    "LocalMemoryDevice",
    "NULL_ADDRESS",
    "RedyDevice",
    "SmbDirectDevice",
    "SsdDevice",
    "TieredDevice",
    "record_bytes",
]
