"""Each verb's completion instant and outcome on an idle fabric.

The expected instants are built from the profile's NIC and fabric terms
in the association the queue pair's timeouts produce: a relative
timeout adds its delay to the instant it was created at, and a message
that leaves at ``start`` arrives at ``start + wire + (base + extra) +
tail`` (see ``Fabric.transmit``).  Every comparison is exact, so a
rewrite of the verb executor that reorders a single float addition, or
adds or drops a stage, fails here.
"""

import pytest

from repro.hardware import AZURE_HPC
from repro.net import (
    Fabric,
    MemoryRegion,
    Placement,
    QueuePair,
    RdmaOp,
    WorkRequest,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment

NIC = AZURE_HPC.nic
PM = NIC.per_message_processing
RECORD = bytes(range(64))
#: Where the record sits in the region.
RECORD_AT = 4096
#: The completion's correlation value.
CONTEXT = ("ctx", 7)
#: Every verb is posted at this instant, not at 0, so that a sum that
#: starts from the posting instant shows its association: here
#: ``(POSTED + PM) + dma_fetch(512)`` and ``POSTED + (PM +
#: dma_fetch(512))`` differ in the last place.
POSTED = 7.77e-6


def _base():
    hops = Placement(cluster=0, rack=0).switch_hops_to(
        Placement(cluster=0, rack=0))
    return AZURE_HPC.fabric.one_way_base(hops)


BASE = _base()


def arrive(start, wire_bytes, tail=0.0):
    """Arrival instant of a message leaving an idle link at ``start``."""
    return start + NIC.wire_time(wire_bytes) + (BASE + 0.0) + tail


def read_instants(size):
    """NIC processing, request arrival, responder DMA, response arrival
    with the payload's DMA into requester memory."""
    sent = POSTED + PM
    arrived = arrive(sent, 0)
    fetched = arrived + NIC.dma_fetch(size)
    return sent, arrived, fetched, arrive(fetched, size, NIC.rx_dma)


def write_instants(size):
    """NIC processing (plus the payload fetch when it does not ride
    inline), request arrival, responder DMA, ack arrival.  Returns
    (delivery instant, completion instant)."""
    sent = POSTED + PM
    if not NIC.can_inline(size):
        sent = sent + NIC.dma_fetch(size)
    landed = arrive(sent, size) + NIC.rx_dma
    return landed, arrive(landed, 0)


def make_pair(metrics=None):
    env = Environment()
    if metrics is not None:
        metrics.install(env)
    fabric = Fabric(env, AZURE_HPC)
    client = fabric.add_endpoint("client", Placement(cluster=0, rack=0))
    server = fabric.add_endpoint("server", Placement(cluster=0, rack=0))
    region = server.register(MemoryRegion(1 << 20))
    region.local_write(RECORD_AT, RECORD)
    qp = QueuePair(env, client, server, max_depth=4)
    return env, client, server, region, qp


def complete(env, qp, wr, at=None, disturb=None):
    """Post ``wr`` at ``POSTED`` (``disturb()`` runs at ``at``);
    returns the completion and the instant its waiter resumed."""
    if disturb is not None:
        env.timeout_at(at)._add_callback(lambda _event: disturb())

    def waiter():
        yield env.timeout_at(POSTED)
        completion = yield qp.post(wr)
        return completion, env.now

    completion, resumed = env.run_process(waiter())
    assert qp.in_flight == 0
    return completion, resumed


def outcome(completion):
    return (completion.wr_id, completion.op, completion.ok, completion.data,
            completion.error, completion.context)


def test_read():
    env, _, _, region, qp = make_pair()
    completion, resumed = complete(env, qp, WorkRequest(
        RdmaOp.READ, region.token, RECORD_AT, 64, context=CONTEXT))
    assert completion.completed_at == resumed == read_instants(64)[3]
    assert outcome(completion) == (
        1, RdmaOp.READ, True, RECORD, None, CONTEXT)


@pytest.mark.parametrize("size", [8, 512], ids=["inline", "dma-fetch"])
def test_write(size):
    assert NIC.can_inline(size) is (size == 8)
    if size == 512:
        assert (POSTED + PM) + NIC.dma_fetch(size) != POSTED + (
            PM + NIC.dma_fetch(size))
    env, _, _, region, qp = make_pair()
    delivered = []
    region.attach_mailbox(lambda message: delivered.append(
        (message, env.now)))
    data = b"w" * size
    completion, resumed = complete(env, qp, WorkRequest(
        RdmaOp.WRITE, region.token, 64, size, data=data, context=CONTEXT,
        payload_object="message"))
    landed, acked = write_instants(size)
    assert delivered == [("message", landed)]
    assert completion.completed_at == resumed == acked
    assert outcome(completion) == (
        1, RdmaOp.WRITE, True, None, None, CONTEXT)
    assert region.read(region.token, 64, size) == data


def test_unsignaled_write():
    """A success fires nothing; the mailbox still gets the message at
    delivery and the wire-latency histogram the full round trip."""
    metrics = MetricsRegistry()
    env, _, _, region, qp = make_pair(metrics)
    delivered = []
    region.attach_mailbox(lambda message: delivered.append(
        (message, env.now)))
    env.run(until=POSTED)
    event = qp.post(WorkRequest(RdmaOp.WRITE, region.token, 64, 512,
                                payload_object="batch", signaled=False))
    env.run()
    landed, acked = write_instants(512)
    assert delivered == [("batch", landed)]
    assert not event.triggered and qp.in_flight == 0
    assert env.now == acked
    wire = metrics.histogram("qp.wire_latency")
    assert (wire.count, wire.max) == (1, acked - POSTED)
    assert metrics.counter("qp.error_completions").value == 0


class TestErrorPaths:
    """Error completions fire at the stage that found the fault."""

    def test_dead_requester_completes_in_error_at_post_instant(self):
        env, client, _, region, qp = make_pair()
        client.fail()
        completion, resumed = complete(env, qp, WorkRequest(
            RdmaOp.READ, region.token, 0, 64, context=CONTEXT))
        assert completion.completed_at == resumed == POSTED
        assert outcome(completion) == (
            1, RdmaOp.READ, False, None, "local endpoint down", CONTEXT)

    def test_dead_responder_completes_in_error_at_arrival(self):
        env, _, server, region, qp = make_pair()
        sent, arrived, _, _ = read_instants(64)
        completion, resumed = complete(
            env, qp, WorkRequest(RdmaOp.READ, region.token, 0, 64),
            at=(sent + arrived) / 2, disturb=server.fail)
        assert completion.completed_at == resumed == arrived
        assert outcome(completion) == (
            1, RdmaOp.READ, False, None, "remote endpoint down", None)

    def test_missing_region_completes_in_error_at_arrival(self):
        env, _, server, region, qp = make_pair()
        server.deregister(region.region_id)
        completion, resumed = complete(
            env, qp, WorkRequest(RdmaOp.READ, region.token, 0, 64))
        assert completion.completed_at == resumed == read_instants(64)[1]
        assert outcome(completion) == (
            1, RdmaOp.READ, False, None,
            f"no region {region.region_id} at server", None)

    def test_region_revoked_mid_read_completes_in_error_after_the_fetch(
            self):
        env, _, _, region, qp = make_pair()
        _, arrived, fetched, _ = read_instants(64)
        completion, resumed = complete(
            env, qp, WorkRequest(RdmaOp.READ, region.token, 0, 64),
            at=(arrived + fetched) / 2, disturb=region.revoke)
        assert completion.completed_at == resumed == fetched
        assert outcome(completion) == (
            1, RdmaOp.READ, False, None,
            f"region {region.region_id} token revoked (VM gone?)", None)
