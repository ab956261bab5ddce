"""The virtual-time workload executor.

Drives a :class:`~repro.faster.store.FasterKv` with N simulated FASTER
threads.  Each thread is one CPU (a ``Resource``); the asynchronous
device interface lets a thread keep several operations outstanding, so
each thread runs ``outstanding_per_thread`` concurrent op slots that
all charge CPU against the same resource.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faster.store import FasterKv
from repro.sim.kernel import Environment
from repro.sim.resources import Resource

__all__ = ["KvRunResult", "RouterRunResult", "run_kv_workload",
           "run_router_workload"]


@dataclass(frozen=True)
class KvRunResult:
    """Measured outcome of one workload run."""

    throughput: float
    latency_mean: float
    latency_p99: float
    ops_measured: int
    memory_hit_fraction: float
    served_by: dict

    @property
    def throughput_mops(self) -> float:
        return self.throughput / 1e6


def run_kv_workload(env: Environment, store: FasterKv, *,
                    n_threads: int,
                    keys: np.ndarray,
                    is_read: np.ndarray,
                    update_value: bytes = b"",
                    outstanding_per_thread: int = 8) -> KvRunResult:
    """Run ``len(keys)`` operations across ``n_threads`` threads.

    Operations are consumed from the pre-generated ``keys`` /
    ``is_read`` arrays in order, shared by all threads (a global
    cursor), which matches how YCSB clients pull from a generator.
    Returns throughput measured after the first 20 % of operations
    completed (letting the FASTER read-cache reach steady state).
    """
    if len(keys) != len(is_read):
        raise ValueError("keys and is_read must have equal length")
    n_ops = len(keys)
    warmup_ops = int(n_ops * 0.2)

    cursor = {"next": 0, "done": 0}
    window = {"t0": None, "w0": 0, "t1": None, "w1": 0}
    latencies: list[float] = []
    served: dict[str, int] = {}

    cpus = [Resource(env, slots=1) for _ in range(n_threads)]

    def slot(thread_index: int):
        cpu = cpus[thread_index]
        while cursor["next"] < n_ops:
            op_index = cursor["next"]
            cursor["next"] += 1
            start = env.now
            if is_read[op_index]:
                outcome = yield from store.read(int(keys[op_index]), cpu)
                if outcome.found:
                    served[outcome.served_by] = served.get(
                        outcome.served_by, 0) + 1
            else:
                yield from store.upsert(int(keys[op_index]), update_value,
                                        cpu)
            cursor["done"] += 1
            if cursor["done"] > warmup_ops:
                latencies.append(env.now - start)
                if window["t0"] is None:
                    window["t0"] = env.now
                    window["w0"] = cursor["done"]
            window["t1"] = env.now
            window["w1"] = cursor["done"]

    for thread_index in range(n_threads):
        for slot_index in range(outstanding_per_thread):
            env.process(slot(thread_index),
                        name=f"kv-load:t{thread_index}:s{slot_index}")
    env.run()

    if window["t0"] is None or window["t1"] == window["t0"]:
        raise RuntimeError("run too short to measure; increase n_ops")
    duration = window["t1"] - window["t0"]
    measured = window["w1"] - window["w0"]
    samples = np.asarray(latencies)
    total_served = sum(served.values()) or 1
    return KvRunResult(
        throughput=measured / duration,
        latency_mean=float(samples.mean()),
        latency_p99=float(np.percentile(samples, 99)),
        ops_measured=measured,
        memory_hit_fraction=served.get("memory", 0) / total_served,
        served_by=dict(served),
    )


@dataclass(frozen=True)
class RouterRunResult:
    """Measured outcome of one closed-loop run against a ShardRouter."""

    throughput: float
    latency_mean: float
    latency_p99: float
    ops_measured: int
    reads: int
    writes: int
    failed: int

    @property
    def throughput_mops(self) -> float:
        return self.throughput / 1e6


def run_router_workload(env: Environment, router, *,
                        keys: np.ndarray,
                        is_read: np.ndarray,
                        record_bytes: int = 64,
                        concurrency: int = 64) -> RouterRunResult:
    """Drive a :class:`~repro.shard.router.ShardRouter` closed-loop.

    ``concurrency`` client slots pull (key, op) pairs off a shared
    cursor -- the YCSB client-pool shape -- mapping key ``k`` to the
    record-aligned address ``(k % records) * record_bytes``.  Zipfian
    key streams therefore concentrate on a few slots, which is what the
    hot-key tier is for.  Throughput is measured after the first 10 %
    of the operations completed (past ring warmup and the first hot-key
    promotions).
    """
    if len(keys) != len(is_read):
        raise ValueError("keys and is_read must have equal length")
    records = router.capacity // record_bytes
    if records < 1:
        raise ValueError("record_bytes exceeds router capacity")
    n_ops = len(keys)
    warmup_ops = int(n_ops * 0.1)

    cursor = {"next": 0, "done": 0}
    window = {"t0": None, "w0": 0, "t1": None, "w1": 0}
    latencies: list[float] = []
    counts = {"reads": 0, "writes": 0, "failed": 0}
    payload = b"\xab" * record_bytes

    def slot():
        while cursor["next"] < n_ops:
            op_index = cursor["next"]
            cursor["next"] += 1
            addr = (int(keys[op_index]) % records) * record_bytes
            start = env.now
            if is_read[op_index]:
                result = yield router.read(addr, record_bytes)
                counts["reads"] += 1
            else:
                result = yield router.write(addr, payload)
                counts["writes"] += 1
            if not result.ok:
                counts["failed"] += 1
            cursor["done"] += 1
            if cursor["done"] > warmup_ops:
                latencies.append(env.now - start)
                if window["t0"] is None:
                    window["t0"] = env.now
                    window["w0"] = cursor["done"]
            window["t1"] = env.now
            window["w1"] = cursor["done"]

    for slot_index in range(concurrency):
        env.process(slot(), name=f"router-load:s{slot_index}")
    env.run()

    if window["t0"] is None or window["t1"] == window["t0"]:
        raise RuntimeError("run too short to measure; increase n_ops")
    duration = window["t1"] - window["t0"]
    measured = window["w1"] - window["w0"]
    samples = np.asarray(latencies)
    return RouterRunResult(
        throughput=measured / duration,
        latency_mean=float(samples.mean()),
        latency_p99=float(np.percentile(samples, 99)),
        ops_measured=measured,
        reads=counts["reads"],
        writes=counts["writes"],
        failed=counts["failed"],
    )
