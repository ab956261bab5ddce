"""Network fabric: endpoints, placement, and message delivery.

The fabric owns the physical-layer costs: transmit serialization at line
rate (shared by everything an endpoint sends -- this is how migration
traffic contends with foreground traffic in the Figure 15/16 experiments)
and per-switch-hop propagation latency.  A link is a FIFO reservation,
not a lock: each message books the next free interval on it, so a
message costs one kernel entry, at its arrival (a cross-rack message
through an oversubscribed rack uplink keeps one more, at tx end).

Topology follows the paper's three network distances (§5.2): endpoints in
the same rack are one switch apart, same cluster three, different
clusters five.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from repro.hardware.nic import QpContextCache
from repro.hardware.profiles import (
    SWITCH_HOPS_INTER_CLUSTER,
    SWITCH_HOPS_INTRA_CLUSTER,
    SWITCH_HOPS_INTRA_RACK,
    TestbedProfile,
)
from repro.net.memory import MemoryRegion
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event

__all__ = ["Endpoint", "Fabric", "Placement"]


@dataclass(frozen=True)
class Placement:
    """Where an endpoint lives in the data-center topology."""

    cluster: int = 0
    rack: int = 0

    def switch_hops_to(self, other: "Placement") -> int:
        if self.cluster != other.cluster:
            return SWITCH_HOPS_INTER_CLUSTER
        if self.rack != other.rack:
            return SWITCH_HOPS_INTRA_CLUSTER
        return SWITCH_HOPS_INTRA_RACK


class Endpoint:
    """One RDMA NIC port with its registered memory regions.

    Endpoints are created through :meth:`Fabric.add_endpoint`.
    """

    def __init__(self, fabric: "Fabric", name: str, placement: Placement):
        self.fabric = fabric
        self.name = name
        self.placement = placement
        #: Instant the tx link finishes serializing every message it has
        #: accepted.  Outbound bytes go out at line rate in FIFO order
        #: (see :meth:`Fabric.transmit`); every QP on this endpoint
        #: shares the link, so bulk transfers and foreground traffic
        #: contend.
        self.tx_free_at = -math.inf
        self.regions: Dict[int, MemoryRegion] = {}
        self.alive = True
        #: Every queue pair touching this endpoint (either side), so a
        #: link fault can flush all of them (see ``repro.faults``).
        self.qps: list = []
        #: Serialization slowdown factor (>= 1).  ``repro.faults`` sets
        #: it above 1 to model a throttled/overheating node; all outbound
        #: wire time stretches by this factor while it is raised.
        self.throttle = 1.0
        #: On-NIC QP-context (ICM) cache.  ``None`` -- the historical
        #: default -- models an always-resident context (no per-QP NIC
        #: state pressure); control-plane modeling installs an LRU of
        #: ``NicSpec.qp_context_cache_entries`` and every verb through
        #: this NIC then touches it (see ``QueuePair._launch``).
        self.qp_context_cache: Optional[QpContextCache] = None
        if fabric.model_control_plane:
            self.enable_control_plane_model()

    def enable_control_plane_model(self) -> None:
        """Install the per-NIC control-plane state (the QP-context
        cache) on this endpoint.  Idempotent."""
        if self.qp_context_cache is None:
            self.qp_context_cache = QpContextCache(
                self.fabric.profile.nic.qp_context_cache_entries)

    def register(self, region: MemoryRegion) -> MemoryRegion:
        """Register a memory region with this NIC.

        First registration re-issues the region's id and token key from
        the fabric's per-run counters, keeping ids bit-identical across
        same-seed runs in one interpreter (region ids reach routing
        tables and replay traces, so leaking a module-global counter
        across runs shows up as schedule divergence).
        """
        region.rebind_identity(*self.fabric.issue_region_identity())
        self.regions[region.region_id] = region
        return region

    def register_timed(self, region: MemoryRegion
                       ) -> Generator[Event, None, MemoryRegion]:
        """Process: register ``region``, charging the NIC's registration
        latency first (base + size-proportional pinning cost).

        The synchronous :meth:`register` keeps the historical free
        path; control-plane-aware callers (``repro.cplane``, the
        connect storm) go through this one so registration cost lands
        on the session-establishment critical path, where Swift
        measures it.
        """
        nic = self.fabric.profile.nic
        yield self.fabric.env.timeout(nic.mr_register_latency(region.size))
        self.fabric.note_mr_registration(region.size)
        return self.register(region)

    def deregister(self, region_id: int) -> None:
        region = self.regions.pop(region_id, None)
        if region is not None:
            region.revoke()

    def drop_qp(self, qp) -> None:
        """Forget one queue pair (QP reclaim path).  Without this, the
        ``qps`` registry grows forever across client churn -- the
        region/QP token leak the control-plane PR fixes."""
        try:
            self.qps.remove(qp)
        except ValueError:
            pass
        if self.qp_context_cache is not None:
            self.qp_context_cache.evict(qp.qp_id)

    def find_region(self, region_id: int) -> Optional[MemoryRegion]:
        return self.regions.get(region_id)

    def fail(self) -> None:
        """Kill the endpoint (VM failure / reclamation finalized).

        All registered regions are revoked; in-flight and future verbs
        targeting it complete in error.
        """
        self.alive = False
        for region in self.regions.values():
            region.revoke()
        self.regions.clear()

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Endpoint {self.name} {self.placement} {state}>"


class Fabric:
    """The data-center network connecting all endpoints."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 model_control_plane: bool = False):
        self.env = env
        self.profile = profile
        #: Charge RDMA control-plane costs (QP create/connect handshake,
        #: registration latency, QP-context cache pressure).  Off by
        #: default: the paper's long-lived-client experiments assume an
        #: amortized control plane, and their calibration must not move.
        #: ``repro.cplane.ControlPlane`` flips it (and retrofits already
        #: -created endpoints) when it attaches to a fabric.
        self.model_control_plane = model_control_plane
        self._endpoints: Dict[str, Endpoint] = {}
        #: Per-rack uplink reservations (the instant each rack's shared
        #: uplink frees up), used when the profile declares finite uplink
        #: bandwidth.
        self._uplink_free_at: Dict[tuple[int, int], float] = {}
        #: Fabric-wide extra one-way propagation delay, seconds.  The
        #: fault injector raises it for the duration of a transient
        #: latency spike (congestion, PFC storm) and lowers it back.
        self.extra_latency_s = 0.0
        #: Per-run region-id / token-key sources (see Endpoint.register).
        self._region_ids = itertools.count(1)
        self._token_keys = itertools.count(0x1000)
        #: Per-run QP-id source: context-cache keys and the cplane event
        #: log carry QP ids, so like region ids they must be scoped to
        #: the fabric (not a module global) to replay bit-identically.
        self._qp_ids = itertools.count(1)
        #: Lifetime control-plane accounting (registration work done
        #: through the timed path, QP handshakes that connected, and
        #: verbs that missed a NIC's QP-context cache).
        self.mr_registrations = 0
        self.mr_registered_bytes = 0
        self.qp_establishments = 0
        self.qp_context_misses = 0
        # Memoized pure-profile costs, keyed by hop count / payload size.
        # The profile is immutable, so the cached floats are the exact
        # values the methods return; transmit() runs once per simulated
        # message and these two lookups replace method calls on it.
        self._one_way_cache: Dict[int, float] = {}
        self._wire_time_cache: Dict[int, float] = {}
        metrics = registry_of(env)
        if metrics is not None:
            self._bytes_moved = metrics.counter("fabric.bytes")
            self._messages = metrics.counter("fabric.messages")
            #: Aggregate serialization seconds across all tx links; the
            #: exporter divides by (endpoints x sim time) for utilization.
            self._tx_busy = metrics.counter("fabric.tx_busy_seconds")
        else:
            self._bytes_moved = None
            self._messages = None
            self._tx_busy = None

    def issue_region_identity(self) -> tuple[int, int]:
        """Next (region_id, token_key) pair for a region registration."""
        return next(self._region_ids), next(self._token_keys)

    def issue_qp_id(self) -> int:
        """Next queue-pair id (per-run counter; see ``_qp_ids``)."""
        return next(self._qp_ids)

    def note_mr_registration(self, region_bytes: int) -> None:
        """Account one timed memory registration."""
        self.mr_registrations += 1
        self.mr_registered_bytes += region_bytes

    def enable_control_plane_model(self) -> None:
        """Turn on control-plane cost modeling, retrofitting endpoints
        created before the switch was flipped.  Idempotent."""
        self.model_control_plane = True
        for endpoint in self._endpoints.values():
            endpoint.enable_control_plane_model()

    def add_endpoint(self, name: str,
                     placement: Placement = Placement()) -> Endpoint:
        if name in self._endpoints:
            raise ValueError(f"endpoint name {name!r} already in use")
        endpoint = Endpoint(self, name, placement)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        return self._endpoints[name]

    def switch_hops(self, src: Endpoint, dst: Endpoint) -> int:
        return src.placement.switch_hops_to(dst.placement)

    def transmit(self, src: Endpoint, dst: Endpoint,
                 wire_payload_bytes: int, tail: float = 0.0) -> Event:
        """Send one message from ``src`` to ``dst`` (see :meth:`send`);
        the returned event fires when it has arrived, plus ``tail``.
        For a generator to yield."""
        arrived = self.send(src, dst, wire_payload_bytes, None, None, tail)
        assert arrived is not None
        return arrived

    def send(self, src: Endpoint, dst: Endpoint, wire_payload_bytes: int,
             fn: Optional[Callable[[Any], None]], arg: Any,
             tail: float = 0.0) -> Optional[Event]:
        """Send one message from ``src`` to ``dst``: ``fn(arg)`` runs
        when it has arrived, plus ``tail``, from a timed call with no
        event (:meth:`Environment.call_at`; a callback record's next
        stage).  With no ``fn``, an event fires there instead and is
        returned (:meth:`transmit`).

        The source's tx link is a FIFO reservation: the message starts
        serializing when the link frees up (``tx_free_at``, or now if it
        is idle) and holds it for its wire time, so concurrent senders
        queue in call order without a waiter event.  Propagation across
        the switches does not hold the link: back-to-back messages
        pipeline, which is what makes queue depth effective.

        ``tail`` is receive-side work that follows arrival with nothing
        checked in between (a READ payload's DMA into requester memory);
        folding it in saves the caller a stage.  The arrival instant
        is ``end + (base + extra)`` then ``+ tail``, the association a
        chain of relative timeouts would produce.

        Faults apply when the message reserves the link, i.e. when this
        is called: the source's ``throttle`` stretches its wire time and
        the fabric's ``extra_latency_s`` (a latency spike) lengthens its
        propagation.  A message already queued or serializing when a
        fault edge passes keeps the values it reserved with.
        """
        wire_time = self._wire_time_cache.get(wire_payload_bytes)
        if wire_time is None:
            wire_time = self.profile.nic.wire_time(wire_payload_bytes)
            self._wire_time_cache[wire_payload_bytes] = wire_time
        wire_time = wire_time * src.throttle
        env = self.env
        start = src.tx_free_at
        now = env.now
        if start < now:
            start = now
        end = start + wire_time
        src.tx_free_at = end
        tx_busy = self._tx_busy
        if tx_busy is not None:
            tx_busy.inc(wire_time)
            self._bytes_moved.inc(wire_payload_bytes)
            self._messages.inc()
        hops = src.placement.switch_hops_to(dst.placement)
        base = self._one_way_cache.get(hops)
        if base is None:
            base = self.profile.fabric.one_way_base(hops)
            self._one_way_cache[hops] = base
        if (hops > SWITCH_HOPS_INTRA_RACK
                and self.profile.fabric.rack_uplink_gbps is not None):
            arrived = None
            if fn is None:
                arrived = env.event()
                fn, arg = Event.succeed, arrived
            uplink_time = wire_payload_bytes * 8 / (
                self.profile.fabric.rack_uplink_gbps * 1e9)
            key = (src.placement.cluster, src.placement.rack)
            env.call_at(end, self._via_rack_uplink,
                        (key, uplink_time, base, tail, fn, arg))
            return arrived
        when = end + (base + self.extra_latency_s) + tail
        if fn is None:
            return env.timeout_at(when)
        env.call_at(when, fn, arg)
        return None

    def _via_rack_uplink(self, hop: tuple) -> None:
        """A cross-rack message on an oversubscribed fabric left its tx
        link: book the rack's shared uplink, then run its arrival.

        The uplink is a FIFO reservation too, but messages must reach
        it in tx-end order, so this books it at tx end (a timed call),
        and reads the latency spike at that instant as well.
        """
        key, uplink_time, base, tail, fn, arg = hop
        now = self.env.now
        start = self._uplink_free_at.get(key, now)
        if start < now:
            start = now
        end = start + uplink_time
        self._uplink_free_at[key] = end
        self.env.call_at(end + (base + self.extra_latency_s) + tail, fn, arg)
