"""The cache server: the agent running on every cache-hosting VM.

A :class:`CacheServer` owns the VM's registered memory regions and, for
two-sided configurations, a pool of server threads that poll per-
connection message rings, execute request batches against local memory,
and write response batches back through the same connection (§4.2,
*Reads and Writes*).
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.core.protocol import (
    ConnectReply,
    ConnectRequest,
    OpResult,
    ResponseBatch,
)
from repro.hardware.profiles import TestbedProfile
from repro.net.fabric import Endpoint
from repro.net.memory import MemoryRegion, RdmaAccessError
from repro.net.qp import QueuePair
from repro.net.verbs import RdmaOp, WorkRequest
from repro.sim.kernel import Environment
from repro.sim.resources import Store

__all__ = ["CacheServer"]

#: Sizing of the request message ring: one slot per in-flight batch, each
#: slot a 4 KB transfer (the point past which batching stops helping).
RING_SLOT_BYTES = 4096


class _ServerConnection:
    """Server-side state for one client connection."""

    def __init__(self, request_ring: MemoryRegion, response_qp: QueuePair,
                 response_ring_token) -> None:
        self.request_ring = request_ring
        self.response_qp = response_qp
        self.response_ring_token = response_ring_token


class CacheServer:
    """Cache-server agent for one VM (one RDMA endpoint)."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 endpoint: Endpoint, rng: np.random.Generator):
        self.env = env
        self.profile = profile
        self.endpoint = endpoint
        self.rng = rng
        self.alive = True
        self.regions: Dict[int, MemoryRegion] = {}
        self._connections: Dict[int, _ServerConnection] = {}
        self._threads: List[Store] = []
        self._thread_count = 0
        self._next_connection_id = 0
        #: Lifetime statistics.
        self.batches_processed = 0
        self.ops_processed = 0

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def allocate_regions(self, count: int, size: int,
                         backed: bool = True) -> List[MemoryRegion]:
        """Allocate and NIC-register ``count`` data regions of ``size``."""
        regions = []
        for _ in range(count):
            region = self.endpoint.register(MemoryRegion(size, backing=backed))
            self.regions[region.region_id] = region
            regions.append(region)
        return regions

    def release_region(self, region_id: int) -> None:
        """Deregister one region (shrink / teardown)."""
        self.regions.pop(region_id, None)
        self.endpoint.deregister(region_id)

    def connect(self, request: ConnectRequest,
                client_endpoint: Endpoint) -> ConnectReply:
        """Process a *Connect* message.

        Allocates the requested data regions, sets up one request ring and
        one response queue pair per connection, and sizes the server
        thread pool to the configuration.  Returns the access tokens the
        client needs (§4.2).
        """
        if not self.alive:
            raise RdmaAccessError(f"cache server {self.endpoint.name} is down")
        regions = self.allocate_regions(
            request.n_regions, request.region_size, backed=request.backed)

        self._ensure_threads(request.server_threads)

        ring_tokens = []
        for ring_index in range(request.connections):
            connection_id = self._next_connection_id
            self._next_connection_id += 1
            ring = self.endpoint.register(MemoryRegion(
                max(1, request.queue_depth) * RING_SLOT_BYTES, backing=False))
            response_qp = QueuePair(self.env, self.endpoint, client_endpoint,
                                    max_depth=request.queue_depth)
            connection = _ServerConnection(
                ring, response_qp, request.response_ring_tokens[ring_index])
            self._connections[connection_id] = connection
            if self._threads:
                inbox = self._threads[connection_id % len(self._threads)]
                ring.attach_mailbox(
                    lambda batch, inbox=inbox, conn=connection:
                        inbox.try_put((conn, batch)))
            ring_tokens.append(ring.token)
        return ConnectReply(
            region_tokens=[region.token for region in regions],
            request_ring_tokens=ring_tokens)

    def shutdown(self) -> None:
        """Stop serving (graceful teardown after migration completes)."""
        self.alive = False

    def fail(self) -> None:
        """Hard failure: the VM is gone; all regions become inaccessible."""
        self.alive = False
        self.endpoint.fail()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def _ensure_threads(self, count: int) -> None:
        while self._thread_count < count:
            inbox: Store = Store(self.env)
            self._threads.append(inbox)
            index = self._thread_count
            self._thread_count += 1
            self.env.process(
                self._thread_loop(inbox),
                name=f"cache-server:{self.endpoint.name}:thread{index}")

    def _thread_loop(self, inbox: Store):
        # Hot loop (once per request batch): profile costs are frozen,
        # so they and the bound methods are hoisted out of the loop.
        cpu = self.profile.cpu
        noise_sigma = self.profile.measurement_noise
        poll_cycle = cpu.server_poll_cycle
        batch_overhead = cpu.server_batch_overhead
        op_cost = cpu.server_op_cost
        doorbell = self.profile.nic.doorbell
        env = self.env
        # numpy computes uniform(0, c) as 0 + c * random() and
        # normal(0, sigma) as 0 + sigma * standard_normal(), on the same
        # stream: the products below are those draws, bit for bit, at
        # a fraction of the call cost.
        random = self.rng.random
        standard_normal = self.rng.standard_normal
        execute = self._execute
        inbox_get = inbox.get
        while True:
            connection, batch = yield inbox_get()
            if not self.alive:
                return
            # The poller notices the ring write up to a poll cycle later.
            yield env.timeout(random() * poll_cycle)
            work = batch_overhead
            thread_count = self._thread_count
            for op in batch.ops:
                work += op.weight * op_cost(op.size, thread_count)
            work *= math.exp(noise_sigma * standard_normal())
            yield env.timeout(work)
            if not self.alive:
                # The VM died mid-processing: no response ever leaves.
                return

            results = [execute(op) for op in batch.ops]
            self.batches_processed += 1
            self.ops_processed += batch.total_ops

            response = ResponseBatch(ops=batch.ops, results=results,
                                     batch_id=batch.batch_id)
            # Unsignaled: the client finds the response by polling its
            # ring, so nothing waits on this write's success.
            wr = WorkRequest(
                RdmaOp.WRITE, connection.response_ring_token, 0,
                batch.response_bytes, payload_object=response,
                signaled=False)
            yield env.timeout(doorbell)
            connection.response_qp.post(wr)

    def _execute(self, op) -> OpResult:
        """Run one request against local memory (§4.2): a write copies the
        payload to the destination; a read copies from the source into the
        response buffer."""
        region = self.regions.get(op.token.region_id) if op.token else None
        if op.token is not None and region is None:
            return OpResult(ok=False, error=(
                f"region {op.token.region_id} not on server "
                f"{self.endpoint.name}"))
        try:
            if region is None:
                return OpResult(ok=True)
            if op.is_read:
                data = region.local_read(op.offset, op.size)
                return OpResult(ok=True, data=data)
            if op.data is not None:
                region.local_write(op.offset, op.data)
            return OpResult(ok=True)
        except RdmaAccessError as exc:
            return OpResult(ok=False, error=str(exc))
