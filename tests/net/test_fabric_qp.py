"""Integration tests: verbs over the fabric through queue pairs."""

import pytest

from repro.hardware import AZURE_HPC
from repro.net import (
    Fabric,
    MemoryRegion,
    Placement,
    QueuePair,
    QueuePairError,
    RdmaOp,
    WorkRequest,
)
from repro.sim import Environment, US


def make_pair(hops="rack", depth=4, region_size=4096, backing=True):
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    client = fabric.add_endpoint("client", Placement(cluster=0, rack=0))
    placements = {
        "rack": Placement(cluster=0, rack=0),
        "cluster": Placement(cluster=0, rack=1),
        "dc": Placement(cluster=1, rack=0),
    }
    server = fabric.add_endpoint("server", placements[hops])
    region = server.register(MemoryRegion(region_size, backing=backing))
    qp = QueuePair(env, client, server, max_depth=depth)
    return env, fabric, client, server, region, qp


def run_one(env, qp, wr):
    def proc(env):
        completion = yield qp.post(wr)
        return completion, env.now

    return env.run_process(proc(env))


class TestOneSidedVerbs:
    def test_write_then_read_round_trips_data(self):
        env, _, _, _, region, qp = make_pair()

        def proc(env):
            write = WorkRequest(RdmaOp.WRITE, region.token, 64, 5, data=b"hello")
            completion = yield qp.post(write)
            assert completion.ok
            read = WorkRequest(RdmaOp.READ, region.token, 64, 5)
            completion = yield qp.post(read)
            return completion

        completion = env.run_process(proc(env))
        assert completion.ok
        assert completion.data == b"hello"

    def test_small_write_latency_near_paper(self):
        """An inline 8B write costs ~3.3us at the QP level (1 switch).

        The remaining ~0.85us of the paper's 4.1us figure is client CPU
        (handoff, doorbell, poll, callback), charged by the engine.
        """
        env, _, _, _, region, qp = make_pair()
        wr = WorkRequest(RdmaOp.WRITE, region.token, 0, 8, data=b"12345678")
        _, elapsed = run_one(env, qp, wr)
        assert 3.0 * US < elapsed < 3.6 * US

    def test_read_slower_than_small_write(self):
        """Reads pay the responder PCIe fetch that inline writes skip."""
        env_w, _, _, _, region_w, qp_w = make_pair()
        _, write_time = run_one(
            env_w, qp_w,
            WorkRequest(RdmaOp.WRITE, region_w.token, 0, 8, data=b"x" * 8))
        env_r, _, _, _, region_r, qp_r = make_pair()
        _, read_time = run_one(
            env_r, qp_r, WorkRequest(RdmaOp.READ, region_r.token, 0, 8))
        assert read_time > write_time

    def test_write_above_inline_threshold_pays_dma_fetch(self):
        nic = AZURE_HPC.nic
        env_a, _, _, _, region_a, qp_a = make_pair()
        _, inline_time = run_one(
            env_a, qp_a,
            WorkRequest(RdmaOp.WRITE, region_a.token, 0,
                        nic.inline_threshold_bytes,
                        data=b"x" * nic.inline_threshold_bytes))
        env_b, _, _, _, region_b, qp_b = make_pair()
        size = nic.inline_threshold_bytes + 1
        _, fetched_time = run_one(
            env_b, qp_b,
            WorkRequest(RdmaOp.WRITE, region_b.token, 0, size, data=b"x" * size))
        # One extra byte crosses the inline threshold: the jump must be the
        # PCIe fetch, far larger than one byte of wire time.
        assert fetched_time - inline_time > 0.3 * US

    def test_latency_grows_with_switch_hops(self):
        times = {}
        for hops in ("rack", "cluster", "dc"):
            env, _, _, _, region, qp = make_pair(hops=hops)
            _, times[hops] = run_one(
                env, qp, WorkRequest(RdmaOp.READ, region.token, 0, 8))
        assert times["rack"] < times["cluster"] < times["dc"]
        # Each extra pair of switch hops adds 2 hops x 0.75us x 2 directions.
        assert times["cluster"] - times["rack"] == pytest.approx(3.0 * US)


class TestQueueDepth:
    def test_depth_limits_in_flight(self):
        env, _, _, _, region, qp = make_pair(depth=2)
        events = [
            qp.post(WorkRequest(RdmaOp.READ, region.token, 0, 8))
            for _ in range(5)
        ]
        assert qp.in_flight == 2
        assert qp.backlog_length == 3
        env.run()
        assert all(ev.value.ok for ev in events)
        assert qp.in_flight == 0

    def test_pipelining_beats_serial_issue(self):
        """Four reads at depth 4 finish much faster than at depth 1."""

        def run_depth(depth):
            env, _, _, _, region, qp = make_pair(depth=depth)

            def proc(env):
                events = [
                    qp.post(WorkRequest(RdmaOp.READ, region.token, 0, 8))
                    for _ in range(4)
                ]
                yield env.all_of(events)
                return env.now

            return env.run_process(proc(env))

        assert run_depth(4) < run_depth(1) / 2

    def test_depth_beyond_nic_limit_rejected(self):
        env = Environment()
        fabric = Fabric(env, AZURE_HPC)
        a = fabric.add_endpoint("a")
        b = fabric.add_endpoint("b")
        with pytest.raises(QueuePairError):
            QueuePair(env, a, b, max_depth=AZURE_HPC.nic.max_queue_depth + 1)

    def test_completions_in_post_order(self):
        """Equal reads complete in post order: they share one FIFO link
        each way.  Mixed sizes need not (see
        test_small_write_overtakes_a_bulk_read_on_one_qp)."""
        env, _, _, _, region, qp = make_pair(depth=4)
        order = []

        def proc(env):
            events = []
            for i in range(6):
                ev = qp.post(WorkRequest(
                    RdmaOp.READ, region.token, 0, 8, context=i))
                ev._add_callback(lambda e: order.append(e.value.context))
                events.append(ev)
            yield env.all_of(events)

        env.run_process(proc(env))
        assert order == sorted(order)


class TestFailureHandling:
    def test_dead_endpoint_yields_error_completion(self):
        env, _, _, server, region, qp = make_pair()
        server.fail()
        completion, _ = run_one(
            env, qp, WorkRequest(RdmaOp.READ, region.token, 0, 8))
        assert not completion.ok
        assert "down" in completion.error

    def test_deregistered_region_yields_error_completion(self):
        env, _, _, server, region, qp = make_pair()
        server.deregister(region.region_id)
        completion, _ = run_one(
            env, qp, WorkRequest(RdmaOp.READ, region.token, 0, 8))
        assert not completion.ok

    def test_out_of_bounds_access_yields_error_completion(self):
        env, _, _, _, region, qp = make_pair(region_size=64)
        completion, _ = run_one(
            env, qp, WorkRequest(RdmaOp.READ, region.token, 60, 16))
        assert not completion.ok
        assert "outside region" in completion.error

    def test_reclaim_fails_backlogged_requests(self):
        env, _, _, _, region, qp = make_pair(depth=1)
        first = qp.post(WorkRequest(RdmaOp.READ, region.token, 0, 8))
        second = qp.post(WorkRequest(RdmaOp.READ, region.token, 0, 8))
        qp.reclaim()
        env.run()
        assert first.value.ok  # already in flight, allowed to finish
        assert not second.value.ok
        assert "reclaimed" in second.value.error

    def test_post_after_reclaim_completes_in_error(self):
        """A late poster gets an error completion, never an exception,
        and a reclaimed QP cannot be brought back."""
        env, _, _, _, region, qp = make_pair()
        qp.reclaim()
        completion, _ = run_one(
            env, qp, WorkRequest(RdmaOp.READ, region.token, 0, 8))
        assert not completion.ok
        assert "reclaimed" in completion.error
        with pytest.raises(QueuePairError):
            qp.reconnect()
        with pytest.raises(QueuePairError):
            qp.establish()

    def test_reclaim_with_operations_in_flight(self):
        """Mid-run teardown: every posted op completes exactly once.

        Launched operations finish normally (their wire traffic is
        committed); the unsent backlog fails immediately; nothing hangs,
        double-fires, or leaks in-flight accounting.
        """
        env, _, _, _, region, qp = make_pair(depth=2)
        events = [qp.post(WorkRequest(RdmaOp.READ, region.token, 0, 8))
                  for _ in range(6)]
        assert qp.in_flight == 2 and qp.backlog_length == 4

        def reclaimer(env):
            # Well inside the first ops' flight time (~3.5us each).
            yield env.timeout(1 * US)
            qp.reclaim()

        env.process(reclaimer(env))
        env.run()

        completions = [event.value for event in events]
        assert all(event.processed for event in events)
        # The two launched ops finished; the four backlogged ones failed.
        assert [c.ok for c in completions] == [True, True] + [False] * 4
        assert all("reclaimed" in c.error for c in completions[2:])
        assert qp.in_flight == 0
        assert qp.backlog_length == 0
        # Completion timestamps are sane: failures at reclaim time,
        # successes when their wire round trip ended.
        assert all(c.completed_at == pytest.approx(1 * US)
                   for c in completions[2:])
        assert all(c.completed_at > 1 * US for c in completions[:2])


class TestUnsignaledWrites:
    """``signaled=False`` (the message-ring writes): a success completes
    silently, with no event-list entry; every error still fires."""

    @staticmethod
    def _write(region, offset=0):
        return WorkRequest(RdmaOp.WRITE, region.token, offset, 8,
                           data=b"unsignal", payload_object="batch",
                           signaled=False)

    def test_success_delivers_without_firing(self):
        steps = {}
        for signaled in (True, False):
            env, _, _, _, region, qp = make_pair()
            delivered = []
            region.attach_mailbox(delivered.append)
            wr = self._write(region)
            wr.signaled = signaled
            event = qp.post(wr)
            env.run()
            assert delivered == ["batch"]
            assert region.read(region.token, 0, 8) == b"unsignal"
            assert event.triggered is signaled
            assert qp.in_flight == 0
            steps[signaled] = env.event_loop_stats()["steps"]
        # Four executor timeouts (NIC processing, request arrival,
        # responder DMA, ack arrival) plus the signaled completion.
        assert steps == {True: 5, False: 4}

    @pytest.mark.parametrize("fault,error", [
        ("dead-remote", "remote endpoint down"),
        ("revoked-region", "no region"),
        ("qp-in-error", "link down"),
        ("reclaimed-backlog", "reclaimed")])
    def test_errors_still_fire(self, fault, error):
        env, _, _, server, region, qp = make_pair(depth=1)
        if fault == "dead-remote":
            server.fail()
        elif fault == "revoked-region":
            server.deregister(region.region_id)
        elif fault == "qp-in-error":
            qp.inject_error("link down")
        else:
            in_flight = qp.post(self._write(region, offset=8))
        event = qp.post(self._write(region))
        if fault == "reclaimed-backlog":
            assert qp.backlog_length == 1
            qp.reclaim()
        env.run()
        assert event.processed and not event.value.ok
        assert error in event.value.error
        if fault == "reclaimed-backlog":
            # The launched write finishes on the wire, silently.
            assert not in_flight.triggered


class TestBandwidthSharing:
    def test_tx_link_serializes_concurrent_bulk_sends(self):
        """Two 1 MiB sends from one endpoint serialize back to back:
        the second arrives at start + 2 x wire + propagation, exactly."""
        env, fabric, client, server, _, _ = make_pair()
        size = 1 << 20
        wire = AZURE_HPC.nic.wire_time(size)
        prop = AZURE_HPC.fabric.one_way_base(fabric.switch_hops(client,
                                                                server))
        arrivals = []

        def proc(env):
            yield env.timeout(1 * US)
            start = env.now
            first = fabric.transmit(client, server, size)
            second = fabric.transmit(client, server, size)
            for message in (first, second):
                message._add_callback(lambda _: arrivals.append(env.now))
            yield env.all_of([first, second])
            return start

        start = env.run_process(proc(env))
        assert arrivals == [start + wire + prop, start + 2 * wire + prop]

    def test_small_write_overtakes_a_bulk_read_on_one_qp(self):
        """Completions are not delivered in post order (DESIGN.md §6):
        a 64 B WRITE posted behind a 1 MiB READ completes first."""
        env, _, _, _, region, qp = make_pair(region_size=2 << 20,
                                             backing=False)
        done = {}

        def proc(env):
            read = qp.post(WorkRequest(RdmaOp.READ, region.token, 0,
                                       1 << 20))
            write = qp.post(WorkRequest(RdmaOp.WRITE, region.token,
                                        1 << 20, 64, data=b"w" * 64))
            for name, event in (("read", read), ("write", write)):
                event._add_callback(
                    lambda e, name=name: done.setdefault(name, env.now))
            yield env.all_of([read, write])

        env.run_process(proc(env))
        assert list(done) == ["write", "read"]
        assert done["write"] < 4 * US < 100 * US < done["read"]


class TestFaultEdges:
    """A message's throttle stretch and latency-spike extra are fixed
    when it reserves the tx link, i.e. when it is sent (DESIGN.md §5e)."""

    SIZE = 1 << 20

    def _send_across_edge(self, apply_fault):
        """Send two messages back to back, apply a fault while the first
        is still serializing, then send a third; return the arrivals."""
        env, fabric, client, server, _, _ = make_pair()
        arrivals = {}

        def send(name):
            message = fabric.transmit(client, server, self.SIZE)
            message._add_callback(
                lambda _: arrivals.setdefault(name, env.now))
            return message

        def proc(env):
            first, queued = send("first"), send("queued")
            yield env.timeout(AZURE_HPC.nic.wire_time(self.SIZE) / 2)
            apply_fault(fabric, client)
            later = send("later")
            yield env.all_of([first, queued, later])

        env.run_process(proc(env))
        return arrivals

    def test_throttle_edge_stretches_only_later_reservations(self):
        wire = AZURE_HPC.nic.wire_time(self.SIZE)
        prop = AZURE_HPC.fabric.one_way_base(1)

        def throttle(fabric, client):
            client.throttle = 4.0

        arrivals = self._send_across_edge(throttle)
        # The queued message serializes after the edge at full speed.
        assert arrivals["first"] == wire + prop
        assert arrivals["queued"] == wire + wire + prop
        assert arrivals["later"] == wire + wire + wire * 4.0 + prop

    def test_spike_edge_delays_only_later_reservations(self):
        wire = AZURE_HPC.nic.wire_time(self.SIZE)
        prop = AZURE_HPC.fabric.one_way_base(1)
        extra = 50 * US

        def spike(fabric, client):
            fabric.extra_latency_s += extra

        arrivals = self._send_across_edge(spike)
        # Both messages sent before the edge propagate without the spike,
        # though each is still on the wire when it starts.
        assert arrivals["first"] == wire + prop
        assert arrivals["queued"] == wire + wire + prop
        assert arrivals["later"] == wire + wire + wire + (prop + extra)


class TestRackUplinkOversubscription:
    def _cross_rack_bulk(self, uplink_gbps, n_flows=4, size=1 << 20):
        """Time for n concurrent cross-rack 1MB writes from one rack."""
        profile = AZURE_HPC.with_overrides(
            fabric=AZURE_HPC.fabric.__class__(rack_uplink_gbps=uplink_gbps))
        env = Environment()
        fabric = Fabric(env, profile)
        sinks, qps = [], []
        for i in range(n_flows):
            src = fabric.add_endpoint(f"src{i}", Placement(0, 0))
            dst = fabric.add_endpoint(f"dst{i}", Placement(0, 1))
            region = dst.register(MemoryRegion(size, backing=False))
            sinks.append(region)
            qps.append(QueuePair(env, src, dst, max_depth=1))

        def proc(env):
            events = [
                qp.post(WorkRequest(RdmaOp.WRITE, region.token, 0, size))
                for qp, region in zip(qps, sinks)
            ]
            yield env.all_of(events)
            return env.now

        return env.run_process(proc(env))

    def test_uplink_serializes_concurrent_cross_rack_flows(self):
        unlimited = self._cross_rack_bulk(uplink_gbps=None)
        squeezed = self._cross_rack_bulk(uplink_gbps=25.0)
        # Four 1MB flows through a 25 Gbit/s uplink take ~4 x 0.34 ms;
        # the non-blocking fabric overlaps them fully.
        assert squeezed > 3 * unlimited

    def test_intra_rack_traffic_ignores_the_uplink(self):
        profile = AZURE_HPC.with_overrides(
            fabric=AZURE_HPC.fabric.__class__(rack_uplink_gbps=1.0))
        env = Environment()
        fabric = Fabric(env, profile)
        src = fabric.add_endpoint("a", Placement(0, 0))
        dst = fabric.add_endpoint("b", Placement(0, 0))  # same rack
        region = dst.register(MemoryRegion(1 << 20, backing=False))
        qp = QueuePair(env, src, dst, max_depth=1)

        def proc(env):
            yield qp.post(WorkRequest(RdmaOp.WRITE, region.token, 0,
                                      1 << 20))
            return env.now

        elapsed = env.run_process(proc(env))
        # Even a 1 Gbit/s uplink cannot slow rack-local traffic.
        assert elapsed < 500 * US

    def test_default_profile_fabric_is_non_blocking(self):
        assert AZURE_HPC.fabric.rack_uplink_gbps is None
