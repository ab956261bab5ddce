"""The per-op stage ledger (``OpStages``) on the one-sided fast path.

Gate 1 is an accounting identity: on every op, the stages sum to the
op's latency from the start of its hand-off, and ``settled - queued``
is exactly the ``OpResult.latency`` the data path reports.  The pins
below then build each stage of an uncontended GET and PUT from the
profile's terms, in the association the simulation produces them, and
name the gap to the analytic ``DataPathModel.round_trip``.
"""

import math
from dataclasses import replace

import pytest

from repro.core import Slo
from repro.core.config import RdmaConfig
from repro.core.engine import CacheDataPath
from repro.core.latency import DataPathModel
from repro.core.measurement import measure_config, placements_for_hops
from repro.core.protocol import ONE_SIDED_STAGES, EngineOp, OpStages
from repro.core.server import CacheServer
from repro.hardware import AZURE_HPC
from repro.net import Fabric
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_cluster

RECORD = 64


@pytest.fixture
def finished(monkeypatch):
    """Every (op, result) the data path settles, in settle order."""
    settled = []
    finish = CacheDataPath._finish

    def recording(path, op, result):
        settled.append((op, result))
        finish(path, op, result)

    monkeypatch.setattr(CacheDataPath, "_finish", recording)
    return settled


def _check_identity(op, result):
    stages = op.stages
    durations = stages.durations()
    assert list(durations) == list(ONE_SIDED_STAGES)
    assert all(seconds >= 0.0 for seconds in durations.values())
    assert stages.queued == op.enqueued_at
    assert stages.settled - stages.queued == result.latency
    assert math.isclose(sum(durations.values()),
                        stages.settled - stages.handed,
                        rel_tol=1e-12, abs_tol=1e-18)


def test_stages_sum_to_latency_on_every_measure_config_op(finished):
    # Two threads, each with more callers than credits: ops wait for
    # their issue slot, a credit and the thread CPU.
    config = RdmaConfig(2, 0, 1, 4)
    assert config.uses_one_sided
    measure_config(config, RECORD, batches_per_connection=60,
                   warmup_batches=10, extra_outstanding=4, seed=3,
                   metrics=MetricsRegistry())
    assert len(finished) > 100
    for op, result in finished:
        _check_identity(op, result)
    waited = {stage for op, _ in finished
              for stage, seconds in op.stages.durations().items()
              if seconds > 0.0}
    assert {"handoff", "slot_wait", "credit_wait", "cpu_wait", "issue",
            "verb", "reap_cpu_wait", "reap"} <= waited


def test_stages_sum_to_latency_on_every_redy_cache_callback_op(finished):
    harness = build_cluster(seed=2, metrics=MetricsRegistry())
    env = harness.env
    cache = harness.redy_client("ledger").create(
        1 << 20, Slo(max_latency=20e-6, min_throughput=2e6,
                     record_size=RECORD),
        region_bytes=1 << 20)
    assert cache.path.config.uses_one_sided
    latencies = []

    def burst():
        for index in range(200):
            addr = (index % 64) * RECORD
            if index % 4:
                cache.read(addr, RECORD, latencies.append)
            else:
                cache.write(addr, bytes([index % 251]) * RECORD,
                            latencies.append)
            if index % 16 == 15:
                yield env.timeout(2e-6)

    env.process(burst())
    env.run()
    assert len(finished) == len(latencies) == 200
    for op, result in finished:
        _check_identity(op, result)
    # The cache's own latency runs from the hand-off's start.
    assert sorted(op.stages.settled - op.stages.handed
                  for op, _ in finished) == sorted(
        result.latency for result in latencies)


def test_untraced_ops_carry_no_ledger(finished):
    measure_config(RdmaConfig(1, 0, 1, 2), RECORD,
                   batches_per_connection=10, warmup_batches=2)
    assert finished and all(op.stages is None for op, _ in finished)


# ----------------------------------------------------------------------
# One uncontended GET and PUT, stage by stage
# ----------------------------------------------------------------------

#: Noise off, so each charge is its profile term exactly.
PROFILE = replace(AZURE_HPC, measurement_noise=0.0)
NIC, CPU = PROFILE.nic, PROFILE.cpu
#: The fast path's latency-optimal shape: one thread, one credit.
CONFIG = RdmaConfig(1, 0, 1, 1)
#: The op is handed over at this instant, not at 0, so that a sum
#: starting from it shows its association.
HANDED = 7.77e-6


def _one_op(is_read, submitted=False):
    """Hand one 64 B op to an idle one-hop testbed; returns it and its
    result.  The op runs in the caller's frame (``path.io``, the
    ``_one_sided`` generator), or ``submitted`` as a ``OneSidedIo``
    record (``path.submit``)."""
    env = Environment()
    MetricsRegistry().install(env)
    rngs = RngRegistry(seed=0)
    fabric = Fabric(env, PROFILE)
    client_place, server_place = placements_for_hops(1)
    server = CacheServer(env, PROFILE,
                         fabric.add_endpoint("server", server_place),
                         rngs.stream("server"))
    path = CacheDataPath(env, PROFILE, CONFIG,
                         fabric.add_endpoint("client", client_place),
                         rngs.stream("client"))
    token = path.attach_server(server, n_regions=1, region_size=1 << 20,
                               backed=False)[0]
    outcome = {}

    def app():
        yield env.timeout(HANDED)
        op = EngineOp(is_read=is_read, size=RECORD, token=token,
                      offset=4096)
        op.stages = OpStages(env.now)
        yield env.timeout(path.submission_overhead())
        if submitted:
            path.submit(op)
            outcome["result"] = yield op.completion
        else:
            outcome["result"] = yield from path.io(op)
        outcome["op"] = op

    env.process(app())
    env.run()
    return outcome["op"], outcome["result"]


def _arrive(start, wire_bytes, tail=0.0):
    """Arrival of a message leaving an idle link at ``start`` (see
    ``tests/net/test_verb_timing.py``)."""
    base = PROFILE.fabric.one_way_base(1)
    return start + NIC.wire_time(wire_bytes) + (base + 0.0) + tail


def _expected(is_read):
    """Every stamp of the op, built from the profile's terms."""
    queued = HANDED + CPU.handoff_lockfree
    posted = queued + (CPU.batch_prepare + NIC.doorbell
                       + 1 * CPU.client_per_op)
    sent = posted + NIC.per_message_processing
    if is_read:
        fetched = _arrive(sent, 0) + NIC.dma_fetch(RECORD)
        completed = _arrive(fetched, RECORD, NIC.rx_dma)
    else:
        if not NIC.can_inline(RECORD):
            sent = sent + NIC.dma_fetch(RECORD)
        completed = _arrive(_arrive(sent, RECORD) + NIC.rx_dma, 0)
    reaped = completed + (NIC.completion_poll + CPU.callback)
    return {"handed": HANDED, "queued": queued, "slot": queued,
            "credit": queued, "cpu": queued, "posted": posted,
            "completed": completed, "reaping": completed,
            "reaped": reaped, "settled": reaped}


@pytest.mark.parametrize("is_read", [True, False], ids=["get", "put"])
def test_uncontended_op_pinned_stage_by_stage(is_read):
    op, result = _one_op(is_read)
    assert result.ok
    stamps = {name: getattr(op.stages, name) for name in OpStages.__slots__}
    assert stamps == _expected(is_read)
    durations = op.stages.durations()
    for wait in ("slot_wait", "credit_wait", "cpu_wait", "reap_cpu_wait",
                 "numa"):
        assert durations[wait] == 0.0


@pytest.mark.parametrize("is_read", [True, False], ids=["get", "put"])
def test_submitted_op_stamps_the_stages_the_generator_does(is_read):
    # Two codings of one stage sequence: the record must stamp every
    # stage at the instant the generator does.
    op, result = _one_op(is_read, submitted=True)
    generator_op, generator_result = _one_op(is_read)
    assert result.ok and result.latency == generator_result.latency
    stamps = {name: getattr(op.stages, name) for name in OpStages.__slots__}
    assert stamps == {name: getattr(generator_op.stages, name)
                      for name in OpStages.__slots__}


@pytest.mark.parametrize("is_read", [True, False], ids=["get", "put"])
def test_uncontended_op_gap_to_the_analytic_round_trip(is_read):
    """``measure_config`` samples an op as its latency plus half its
    hand-off.  Against ``round_trip`` that sample lacks the other half
    of the hand-off, and it pays two terms the model leaves out: the
    per-request client CPU charge at issue and the request's wire time
    (a READ's empty request, a WRITE's empty ack)."""
    op, result = _one_op(is_read)
    durations = op.stages.durations()
    sample = result.latency + durations["handoff"] / 2.0
    model = DataPathModel(PROFILE, switch_hops=1).round_trip(
        CONFIG, RECORD, is_read)
    gap = model - sample
    assert gap == pytest.approx(
        CPU.handoff_lockfree / 2 - CPU.client_per_op - NIC.wire_time(0),
        rel=1e-9)
    assert gap == pytest.approx(0.0602e-6, rel=1e-6)
