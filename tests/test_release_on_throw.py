"""A process that fails while it holds a grant still frees the grant.

A yield raises when the event it waits on fails: the kernel throws the
failure into the generator there.  Every ``yield r.acquire()`` in the
simulator holds its slot under ``try``/``finally``, so the slot comes
back on that path too.  Each case below steps one such process until
it holds its grant and waits inside the protected block, then throws a
failure into it.  The resource-balance check in ``tests/conftest.py``
then fails the case if the slot is still held at its end.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import RdmaConfig
from repro.core.engine import CacheDataPath
from repro.core.migration import _ingest_chunk
from repro.core.server import CacheServer
from repro.faster import SsdDevice
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement
from repro.shard.rebalance import Rebalancer
from repro.sim import Environment
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.tenant.backing import FailOpenStore

from tests.faster.test_store import make_store
from tests.shard.conftest import make_fleet

#: A completed verb, as a process waiting on one receives it.
_OK = SimpleNamespace(ok=True, data=b"")


def _path():
    """A one-thread data path attached to one server region."""
    rngs = RngRegistry(0)
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    server = CacheServer(env, AZURE_HPC,
                         fabric.add_endpoint("server", Placement()),
                         rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, RdmaConfig(1, 0, 1, 4),
                         fabric.add_endpoint("client", Placement()),
                         rngs.stream("client"))
    path.attach_server(server, n_regions=1, region_size=4096)
    thread = path.threads[0]
    connection = next(iter(thread.connections.values()))
    return env, path, thread, connection


def _store(method, *args, nth=1):
    env, store, cpu = make_store()
    return env, getattr(store, method)(*args, cpu), cpu, nth


def _engine(stage):
    env, path, thread, connection = _path()
    body = {
        "issue": lambda: path._issue(thread, connection, 1),
        "reap_batch": lambda: path._reap_batch(thread, connection, 1,
                                               object(), []),
    }[stage]()
    return env, body, thread.cpu, 1


def _backing(kind):
    env = Environment()
    backing = FailOpenStore(env, 4096)
    body = (backing.read(0, 64) if kind == "read"
            else backing.write(0, b"w" * 64))
    return env, body, backing._device, 1


def _rebalance(grant):
    harness, _client, members, router = make_fleet(n_shards=2)
    env = harness.env
    window, ingest = Resource(env, slots=8), Resource(env)
    source, target = sorted(members)
    move = SimpleNamespace(sources=[source], targets=[target])
    body = Rebalancer(router)._copy_slot(
        move, 0, router._members[target], ingest, window,
        {"bytes": 0, "lost": 0, "lost_ids": []})
    return env, body, (window if grant == "window" else ingest), 1


def _device():
    env = Environment()
    ssd = SsdDevice(env, 4096, np.random.default_rng(0))
    return env, ssd.read_io(0, 64), ssd._slots, 1


def _migration_ingest():
    env = Environment()
    ingest = Resource(env)
    region = SimpleNamespace(local_write=lambda offset, data: None)
    return env, _ingest_chunk(env, env.event(), region, 0, 4096,
                              ingest), ingest, 1


SITES = {
    "faster.store.read": lambda: _store("read", 99),
    # Key 0 was spilled: the read frees the thread during the device I/O
    # and takes it again for the completion.
    "faster.store.read-device": lambda: _store("read", 0, nth=2),
    "faster.store.upsert": lambda: _store("upsert", 5, b"v" * 8),
    "core.engine.issue": lambda: _engine("issue"),
    "core.engine.reap_batch": lambda: _engine("reap_batch"),
    "tenant.backing.read": lambda: _backing("read"),
    "tenant.backing.write": lambda: _backing("write"),
    "shard.rebalance.window": lambda: _rebalance("window"),
    "shard.rebalance.ingest": lambda: _rebalance("ingest"),
    "faster.devices.service": _device,
    "core.migration.ingest": _migration_ingest,
}


@pytest.mark.parametrize("site", SITES)
def test_a_failure_while_holding_the_grant_frees_it(site):
    env, body, resource, nth = SITES[site]()
    granted = []
    acquire = resource.acquire
    resource.acquire = lambda: granted.append(True) or acquire()
    # Step until the nth acquire of the resource is yielded, answering
    # every wait with a completed verb; then once more, into the block
    # that holds the grant.
    next(body)
    while len(granted) < nth:
        body.send(_OK)
    body.send(None)
    assert resource.in_use
    with pytest.raises(RuntimeError, match="failed event"):
        body.throw(RuntimeError("a failed event"))
    del resource.acquire
    env.run()  # whatever the body started before it failed finishes
