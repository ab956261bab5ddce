"""RDMA-based RPC for control-plane traffic.

§7.1: "We implemented an RPC framework based on RDMA for efficient
operations between clients, servers, and the manager."  The data path
never touches this -- it exists for control messages: *Connect*
handshakes, *Allocate* calls to the manager, reclamation alerts, and
the modeling loop of Figure 9.

An RPC costs what its messages cost on the simulated fabric (per-message
NIC processing, wire time, switch hops) plus a service time at the
callee.  Handlers are plain callables; exceptions travel back to the
caller as failed events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.hardware.profiles import TestbedProfile
from repro.net.fabric import Endpoint
from repro.sim.clock import US
from repro.sim.kernel import Environment, Event

__all__ = ["RpcClient", "RpcError", "RpcServer"]

#: Serialized size of a control message, request or response.
MESSAGE_BYTES = 256
#: Handler time at the callee.
SERVICE_TIME = 5.0 * US


class RpcError(Exception):
    """Remote handler failed, or the method does not exist."""


@dataclass
class _Call:
    call_id: int
    method: str
    payload: Any


class RpcServer:
    """Dispatches named methods on one endpoint."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 endpoint: Endpoint):
        self.env = env
        self.profile = profile
        self.endpoint = endpoint
        self._handlers: Dict[str, Callable[[Any], Any]] = {}
        #: Lifetime statistics.
        self.calls_served = 0

    def register(self, method: str, handler: Callable[[Any], Any]) -> None:
        """Expose ``handler`` as ``method``.  Last registration wins."""
        self._handlers[method] = handler

    def handler_for(self, method: str) -> Optional[Callable[[Any], Any]]:
        return self._handlers.get(method)


class RpcClient:
    """Issues calls from one endpoint to RPC servers on the fabric."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 endpoint: Endpoint):
        self.env = env
        self.profile = profile
        self.endpoint = endpoint
        #: Lifetime statistics.
        self.calls_sent = 0
        #: Call ids name the round-trip processes.  Scoped to the client,
        #: not the module, so same-seed runs in one interpreter name
        #: their processes identically (a module counter keeps ticking
        #: across runs, which the replay sanitizer flags as divergence).
        self._call_ids = itertools.count(1)

    def call(self, server: RpcServer, method: str,
             payload: Any = None) -> Event:
        """Invoke ``method`` on ``server``; the returned event fires with
        the handler's return value, or fails with :class:`RpcError`."""
        call = _Call(call_id=next(self._call_ids), method=method,
                     payload=payload)
        done = self.env.event()
        self.calls_sent += 1
        self.env.process(self._roundtrip(server, call, done),
                         name=f"rpc:{method}#{call.call_id}")
        return done

    def _roundtrip(self, server: RpcServer, call: _Call, done: Event):
        nic = self.profile.nic
        fabric = self.endpoint.fabric

        # Request leg.
        yield self.env.timeout(nic.doorbell + nic.per_message_processing)
        yield fabric.transmit(self.endpoint, server.endpoint, MESSAGE_BYTES)
        if not server.endpoint.alive:
            done.fail(RpcError(f"{call.method}: server endpoint down"))
            return
        yield self.env.timeout(nic.rx_dma)

        # Service.
        handler = server.handler_for(call.method)
        if handler is None:
            error: Optional[Exception] = RpcError(
                f"no such method {call.method!r}")
            result = None
        else:
            yield self.env.timeout(SERVICE_TIME)
            try:
                result = handler(call.payload)
                error = None
            except Exception as exc:  # noqa: BLE001 - returned to caller
                result = None
                error = RpcError(f"{call.method} failed: {exc}")
        server.calls_served += 1

        # Response leg.
        yield self.env.timeout(nic.doorbell + nic.per_message_processing)
        yield fabric.transmit(server.endpoint, self.endpoint,
                              MESSAGE_BYTES,
                              nic.rx_dma + nic.completion_poll)

        if error is not None:
            done.fail(error)
        else:
            done.succeed(result)
