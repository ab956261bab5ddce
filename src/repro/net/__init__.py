"""Simulated RDMA fabric.

This package models the pieces of the RDMA stack that Redy's protocol
interacts with:

* :mod:`repro.net.fabric` -- endpoints (NIC ports) placed in a rack /
  cluster topology, with per-endpoint transmit serialization at line rate
  and per-hop switch latency.
* :mod:`repro.net.memory` -- registered memory regions and the access
  tokens returned by the cache server's *Connect* handshake.
* :mod:`repro.net.qp` -- queue pairs: reliable, connected, in-order
  delivery with a bounded number of in-flight operations.
* :mod:`repro.net.verbs` -- one-sided READ / WRITE work requests
  (two-sided send/receive is layered on one-sided writes by the cache
  engine, exactly as the paper does in Section 4.1).
"""

from repro.net.fabric import Endpoint, Fabric, Placement
from repro.net.memory import AccessToken, MemoryRegion, RdmaAccessError
from repro.net.qp import QueuePair, QueuePairError
from repro.net.verbs import Completion, RdmaOp, WorkRequest

__all__ = [
    "AccessToken",
    "Completion",
    "Endpoint",
    "Fabric",
    "MemoryRegion",
    "Placement",
    "QueuePair",
    "QueuePairError",
    "RdmaAccessError",
    "RdmaOp",
    "WorkRequest",
]
