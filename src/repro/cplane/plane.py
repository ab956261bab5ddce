"""The control-plane facade: pools, harvester, and wiring.

One :class:`ControlPlane` per fabric.  It flips the fabric into
control-plane cost modeling (QP/connect/MR costs + NIC context caches),
owns one :class:`~repro.cplane.pool.QpPool` per (local, remote)
endpoint pair, and runs the periodic idle harvester; a harvest keeps
the warm QPs a pool's last ``ensure_warm`` asked for.  The shard
router wires into it through :meth:`bind_router`: a rebalance that
removes a member reclaims every QP pooled against the departed endpoint
(fast teardown), so a storm landing mid-rebalance cannot strand QPs on
a corpse.

Installing a plane turns on the fabric's control-plane cost model
(``fabric.model_control_plane``); the engine's attach path reads that
flag to create its per-thread QPs deferred, so their connect handshake
is charged on first use.  The engine does not lease pooled QPs: only
sessions opened through :meth:`open_session` ride the pools.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional, Tuple

from repro.cplane.log import CplaneLog
from repro.cplane.pool import PoolPolicy, QpPool
from repro.cplane.session import ClientSession
from repro.net.fabric import Endpoint, Fabric
from repro.sim.kernel import Environment, Event

__all__ = ["ControlPlane"]

#: Simulated seconds between idle-harvester passes.
_HARVEST_INTERVAL_S = 0.1


class ControlPlane:
    """Connection control plane layered over one fabric."""

    def __init__(self, env: Environment, fabric: Fabric, *,
                 policy: Optional[PoolPolicy] = None):
        self.env = env
        self.fabric = fabric
        self.policy = policy if policy is not None else PoolPolicy()
        self.log = CplaneLog()
        #: (local name, remote name) -> pool; session ids are unique
        #: across all pools (shared counter).
        self.pools: Dict[Tuple[str, str], QpPool] = {}
        self._session_ids = itertools.count(1)
        self._harvester_running = False
        # Control-plane costs become real the moment a plane exists:
        # deferred QPs, timed registration, and NIC context caches.
        fabric.enable_control_plane_model()

    # ------------------------------------------------------------------
    # Pools
    # ------------------------------------------------------------------

    def pool(self, local: Endpoint, remote: Endpoint) -> QpPool:
        """The pool carrying ``local``'s sessions to ``remote``
        (created on first use)."""
        key = (local.name, remote.name)
        pool = self.pools.get(key)
        if pool is None:
            pool = QpPool(self.env, local, remote, self.policy, self.log,
                          session_ids=self._session_ids)
            self.pools[key] = pool
        return pool

    def open_session(self, local: Endpoint, remote: Endpoint
                     ) -> Generator[Event, object, ClientSession]:
        """Process: open one logical session through the right pool."""
        session = yield from self.pool(local, remote).open_session()
        return session

    def close_session(self, session: ClientSession) -> None:
        pool = self.pools.get((session.local_name, session.remote_name))
        if pool is not None:
            pool.close_session(session)

    # ------------------------------------------------------------------
    # Harvesting
    # ------------------------------------------------------------------

    def harvest_once(self) -> int:
        """One harvester pass over every pool (sorted order)."""
        return sum(self.pools[key].harvest() for key in sorted(self.pools))

    def start_harvester(self) -> None:
        """Spawn the periodic idle-harvest process (idempotent)."""
        if self._harvester_running:
            return
        self._harvester_running = True
        self.env.process(self._harvest_loop(), name="cplane-harvester")

    def _harvest_loop(self):
        while True:
            yield self.env.timeout(_HARVEST_INTERVAL_S)
            self.harvest_once()

    # ------------------------------------------------------------------
    # Serving-layer wiring
    # ------------------------------------------------------------------

    def bind_router(self, router) -> None:
        """Reclaim pooled QPs when a rebalance removes members: every
        pool whose remote endpoint is dead or gone tears down fast
        instead of letting sessions time out against a corpse."""
        router.on_rebalance.append(self._on_rebalance)

    def _on_rebalance(self, report) -> None:
        reclaimed = 0
        for key in sorted(self.pools):
            pool = self.pools[key]
            if not pool.remote.alive:
                reclaimed += pool.reclaim_all(reason="rebalance: remote gone")
        self.log.append(self.env.now, "storm.rebalance", "plane",
                        reclaimed=reclaimed,
                        lost_slots=getattr(report, "lost_slots", 0))
