"""The elastic RDMA connection control plane.

Redy's evaluation assumes long-lived clients, so connection setup is
free and static.  At the ROADMAP's north-star scale -- bursty
serverless/elastic clients connecting and vanishing by the thousand --
the *control plane* dominates: QP creation and connect handshakes,
memory-registration latency, and per-QP NIC context-cache pressure
(Swift, "Rethinking RDMA Control Plane for Elastic Computing").  This
package models those costs and builds the mitigations Swift argues for:

* :class:`QpPool` -- shared QPs multiplexing logical client sessions,
  with request tagging and completion demultiplexing;
* lazy establishment (first use connects) and doorbell-batched connect
  (followers of a connect batch pay a discounted command cost);
* a warm pool pre-connected ahead of demand
  (:meth:`QpPool.ensure_warm`);
* fast teardown/reclaim with idle harvesting, releasing QPs, NIC
  context-cache entries, and registered recv regions.

Everything is deterministic: RNG only through seeded streams, QP ids
from the fabric's per-run counter, and every decision appended to a
digestable :class:`CplaneLog` so the sanitizer can replay a connection
storm bit-identically.
"""

from repro.cplane.log import CplaneLog
from repro.cplane.plane import ControlPlane
from repro.cplane.pool import PoolPolicy, QpPool
from repro.cplane.session import ClientSession
from repro.cplane.storm import run_connection_storm

__all__ = [
    "ClientSession",
    "ControlPlane",
    "CplaneLog",
    "PoolPolicy",
    "QpPool",
    "run_connection_storm",
]
