"""Parallel sweep execution over independent measurement tasks.

The grid sweeps behind every figure reproduction are embarrassingly
parallel: each grid point is one :func:`measure_config` call with its
own seed, its own :class:`~repro.sim.kernel.Environment`, and no shared
state.  :class:`SweepRunner` fans those calls across a
``ProcessPoolExecutor``, collects results in task order, and falls back
to in-process serial execution when ``max_workers=1`` or a pool cannot
be created (restricted sandboxes, missing OS semaphores).

Determinism contract: a task's result depends only on the task's own
fields (config, profile, parameters, seed), never on scheduling.  The
runner therefore guarantees that serial and parallel runs over the same
task list return bit-identical ``MeasurementResult`` values and --
because each task's metrics are captured as a snapshot and merged in
task order -- identical registry contents too.  Every run measures:
results are never stored across processes, so each number comes from
the code that printed it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import RdmaConfig
from repro.core.measurement import MeasurementResult, measure_config
from repro.hardware.profiles import AZURE_HPC, TestbedProfile
from repro.obs.metrics import MetricsRegistry

__all__ = ["SweepRunner", "SweepTask", "tasks_for"]


@dataclass(frozen=True)
class SweepTask:
    """One grid point: the full argument set of a ``measure_config`` call."""

    config: RdmaConfig
    record_size: int
    profile: TestbedProfile = AZURE_HPC
    switch_hops: int = 1
    read_fraction: float = 0.5
    batches_per_connection: int = 120
    warmup_batches: int = 30
    extra_outstanding: int = 0
    seed: int = 0
    #: Pointer-chasing GET workload (index word -> record); the config's
    #: ``use_verb_programs`` picks the transport.
    dependent_reads: bool = False


def tasks_for(configs: Iterable[RdmaConfig], *, record_size: int,
              base_seed: int = 0, seed_stride: int = 1,
              **params) -> List[SweepTask]:
    """Tasks for a config list with deterministic per-task seeds.

    Task ``i`` gets ``base_seed + i * seed_stride``; a ``seed_stride``
    of 0 reuses one seed across the grid (the fig07/08 ladder does
    this, keeping the noise draw identical between stages).
    """
    return [SweepTask(config=config, record_size=record_size,
                      seed=base_seed + index * seed_stride, **params)
            for index, config in enumerate(configs)]


def _execute_task(task: SweepTask) -> Tuple[MeasurementResult, Dict]:
    """Worker body: run one task with a private metrics registry.

    Module-level (not a closure) so it pickles into pool workers.  The
    registry is always attached: instrumentation only observes -- it
    never perturbs simulated timing or RNG draws -- so a run with a
    parent registry and one without measure the same numbers.
    """
    registry = MetricsRegistry()
    result = measure_config(
        task.config, task.record_size,
        profile=task.profile,
        switch_hops=task.switch_hops,
        read_fraction=task.read_fraction,
        batches_per_connection=task.batches_per_connection,
        warmup_batches=task.warmup_batches,
        extra_outstanding=task.extra_outstanding,
        seed=task.seed,
        metrics=registry,
        dependent_reads=task.dependent_reads,
    )
    return result, registry.snapshot()


class SweepRunner:
    """Runs a batch of :class:`SweepTask` across a process pool.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` means ``os.cpu_count()``.  ``1`` forces the
        serial path (no pool is created at all).
    metrics:
        Optional parent :class:`MetricsRegistry`.  Per-task snapshots
        are merged into it in task order; the runner adds nothing of
        its own, so the registry holds simulated results only.
    """

    def __init__(self, *, max_workers: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.metrics = metrics
        #: Mode of the last run() -- "parallel" or "serial"; tests and
        #: the CLI report it.
        self.last_mode: Optional[str] = None

    def run(self, tasks: Sequence[SweepTask]) -> List[MeasurementResult]:
        """Execute ``tasks``; results are returned in task order."""
        outcomes = self._execute(list(tasks))
        if self.metrics is not None:
            for _result, snapshot in outcomes:
                self.metrics.merge_snapshot(snapshot)
        return [result for result, _snapshot in outcomes]

    def _worker_budget(self) -> int:
        if self.max_workers is not None:
            return self.max_workers
        return os.cpu_count() or 1

    def _execute(self, tasks: List[SweepTask]
                 ) -> List[Tuple[MeasurementResult, Dict]]:
        if len(tasks) > 1 and self._worker_budget() > 1:
            try:
                workers = min(self._worker_budget(), len(tasks))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [pool.submit(_execute_task, task)
                               for task in tasks]
                    outcomes = [future.result() for future in futures]
                self.last_mode = "parallel"
                return outcomes
            except (OSError, ImportError, NotImplementedError,
                    PermissionError):
                # No usable pool in this environment (sandboxed /dev/shm,
                # missing multiprocessing semaphores): degrade to serial.
                pass
        self.last_mode = "serial"
        return [_execute_task(task) for task in tasks]
