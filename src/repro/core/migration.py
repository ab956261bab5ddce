"""Region migration (§6.2).

When a VM hosting cache regions is reclaimed (or a cheaper VM shows up),
the affected regions move to a new VM: the new VM pulls the data with
one-sided READs over a bandwidth-optimized connection, and the client
flips its region table when each region lands.

Two optimizations keep the foreground workload alive (evaluated in
Figures 15/16):

* **unpaused reads** -- reads keep hitting the old VM and "immediately
  switch to the new VM when the migration is over";
* **pause-on-migration writes** -- regions migrate one at a time and
  writes pause "only to the region being migrated".

Both default to on; the benchmarks flip them off to reproduce the
paper's unoptimized baseline (throughput drops proportional to the
migrated fraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from repro.core.server import CacheServer
from repro.net.qp import QueuePair
from repro.net.verbs import RdmaOp, WorkRequest
from repro.obs.metrics import registry_of
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.client import RedyCache

__all__ = ["MigrationPolicy", "MigrationReport", "migrate_regions"]

#: Transfer granularity of the one-sided bulk reads.
_CHUNK_BYTES = 1 << 20
#: In-flight chunks on the migration connection.
MIGRATION_QUEUE_DEPTH = 8
#: Receiver-side ingest rate (copy + registration on the new VM's
#: single migration thread).  This is the end-to-end bottleneck:
#: 8 Gbit/s reproduces the paper's 1.09 s per 1 GB region (§7.4).
INGEST_BANDWIDTH_GBPS = 8.0


@dataclass(frozen=True)
class MigrationPolicy:
    """Mechanics and optimizations of a region migration."""

    #: Keep serving reads from the old VM while its regions migrate.
    unpaused_reads: bool = True
    #: Pause writes only to the region currently being migrated (off =
    #: pause every affected region for the whole migration).
    pause_per_region: bool = True


@dataclass
class MigrationReport:
    """What a completed migration did and how long it took."""

    regions_moved: List[int]
    bytes_moved: int
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


def migrate_regions(cache: "RedyCache", old_server: CacheServer,
                    new_server: CacheServer,
                    region_indices: Sequence[int],
                    policy: MigrationPolicy = MigrationPolicy()):
    """Process: move ``region_indices`` from ``old_server`` to
    ``new_server``, updating the cache's region table as each region
    completes.  Returns a :class:`MigrationReport`.
    """
    env = cache.env
    table = cache.table
    started_at = env.now
    metrics = registry_of(env)
    pause_window = bytes_counter = None
    if metrics is not None:
        #: Per-region write-pause windows -- the §7.4 robustness number
        #: the optimizations exist to shrink.
        pause_window = metrics.histogram("migration.pause_window")
        bytes_counter = metrics.counter("migration.bytes_moved")
        metrics.counter("migration.runs").inc()
    pause_started: dict[int, float] = {}

    def _pause(index: int) -> None:
        pause_started[index] = env.now
        table.pause_writes(index)
        if not policy.unpaused_reads:
            table.pause_reads(index)

    def _resume(index: int) -> None:
        table.resume(index)
        if pause_window is not None and index in pause_started:
            pause_window.observe(env.now - pause_started.pop(index))

    # "The cache client needs to tell the new VM to establish a
    # bandwidth-optimized connection with the existing cache" (§6.2).
    qp = QueuePair(env, new_server.endpoint, old_server.endpoint,
                   max_depth=min(MIGRATION_QUEUE_DEPTH,
                                 cache.profile.nic.max_queue_depth))
    ingest = Resource(env, slots=1)

    # The migration QP is a temporary bulk pipe: reclaim it no matter
    # how the migration ends, or it stays registered on both endpoints
    # (fault flushes would walk it and reclaim storms would count it)
    # long after the source VM is gone.
    try:
        if not policy.pause_per_region:
            # Unoptimized baseline: everything affected pauses for the
            # whole migration.
            for index in region_indices:
                _pause(index)

        bytes_moved = 0
        for index in region_indices:
            if policy.pause_per_region:
                _pause(index)

            old_token = table.region(index).token
            new_region = new_server.allocate_regions(
                1, cache.region_bytes, backed=cache.backed)[0]

            # Pull the region chunk by chunk; the QP pipelines up to
            # queue_depth chunks while the ingest thread copies.
            chunk_events = []
            offset = 0
            while offset < cache.region_bytes:
                length = min(_CHUNK_BYTES,
                             cache.region_bytes - offset)
                wr = WorkRequest(RdmaOp.READ, old_token, offset, length)
                completion_event = qp.post(wr)
                chunk_events.append(env.process(
                    _ingest_chunk(env, completion_event, new_region,
                                  offset, length, ingest),
                    name=f"migrate:r{index}:+{offset}"))
                offset += length
            results = yield env.all_of(chunk_events)
            if not all(results):
                raise RuntimeError(
                    f"migration of region {index} failed: source VM gone")
            bytes_moved += cache.region_bytes
            if bytes_counter is not None:
                bytes_counter.inc(cache.region_bytes)

            # Flip the region table, then resume paused writers: "After
            # a region has been migrated, the cache client updates its
            # region table using the new VM and resumes paused writes."
            cache.ensure_attached(new_server)
            cache.path.add_route(new_region.region_id,
                                 new_server.endpoint.name)
            table.remap(index, new_region.token, new_server.endpoint.name)
            if policy.pause_per_region:
                _resume(index)

        if not policy.pause_per_region:
            for index in region_indices:
                _resume(index)
    finally:
        if not qp.reclaimed:
            qp.reclaim()

    return MigrationReport(
        regions_moved=list(region_indices), bytes_moved=bytes_moved,
        started_at=started_at, finished_at=env.now)


def _ingest_chunk(env, completion_event, new_region, offset, length,
                  ingest: Resource):
    """Receive one chunk and copy it into the new region."""
    completion = yield completion_event
    if not completion.ok:
        return False
    yield ingest.acquire()
    try:
        yield env.timeout(length * 8 / (INGEST_BANDWIDTH_GBPS * 1e9))
    finally:
        ingest.release()
    if completion.data is not None:
        new_region.local_write(offset, completion.data)
    return True
