"""Offline performance modeling (§5.2).

The modeler walks the powers-of-two measurement grid of a
:class:`~repro.core.space.ConfigSpace`, "measures" each grid
configuration with a pluggable measurer, and builds a
:class:`PerfModel` that predicts any configuration in the space by
linear interpolation between adjacent measured configurations -- the
paper's example: ``f(1,1,1,3)`` is estimated as the mean of
``f(1,1,1,2)`` and ``f(1,1,1,4)``.

*Early termination* skips grid points whose predecessor-along-an-axis
already failed to improve throughput ("if the throughput does not
improve from f(4,2,2,2) to f(8,2,2,2), there is no point in measuring
f(16,2,2,2)"); skipped points are filled with plateau estimates.

Two measurers are provided:

* :func:`make_testbed_measurer` runs the full simulated testbed
  (:func:`repro.core.measurement.measure_config`) per grid point
  through a :class:`~repro.exec.runner.SweepRunner` -- the faithful but
  slower path;
* :func:`make_analytic_measurer` evaluates the analytic
  :class:`~repro.core.latency.DataPathModel` with multiplicative
  measurement noise -- the fast path for large campaigns.

As in the paper, where the modeler runs offline once per testbed and
record size, :func:`analytic_model` builds each analytic model once per
process: the cache manager and the tenant SLO plans share one
:class:`PerfModel` per (space, profile, distance, noise, seed).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PerfPoint, RdmaConfig
from repro.core.latency import DataPathModel
from repro.core.space import ConfigSpace
from repro.hardware.profiles import AZURE_HPC, TestbedProfile

__all__ = [
    "ModelingStats",
    "OfflineModeler",
    "PerfModel",
    "analytic_model",
    "make_analytic_measurer",
    "make_testbed_measurer",
]

Measurer = Callable[[RdmaConfig], PerfPoint]

#: Throughput must improve by at least this factor for an axis step to
#: count as "improving" (early-termination sensitivity).
_IMPROVEMENT_EPSILON = 1.01

#: How many models :func:`analytic_model` keeps.  The tier-1 suite
#: uses 20 distinct keys outside the store's own tests; a benchmark
#: process uses at most four.
MODEL_STORE_SIZE = 32

#: §5.2: "If one measurement takes a minute, including switching to the
#: new configuration, performing I/Os, and reporting the result".
MINUTES_PER_MEASUREMENT = 1.0

_Key = Tuple[int, int, int, int]


def _key(config: RdmaConfig) -> _Key:
    return (config.server_threads, config.client_threads,
            config.batch_size, config.queue_depth)


@dataclass(frozen=True)
class ModelingStats:
    """Campaign bookkeeping for the §5.2 / §7.3 numbers."""

    space_size: int
    grid_size: int
    measured: int
    estimated: int

    @property
    def campaign_minutes(self) -> float:
        """Wall time of the campaign at one minute per measurement."""
        return self.measured * MINUTES_PER_MEASUREMENT

    @property
    def naive_campaign_years(self) -> float:
        """What measuring the full space would cost (the "over five
        years" of §5.2)."""
        return self.space_size * MINUTES_PER_MEASUREMENT / (60 * 24 * 365)


class PerfModel:
    """An interpolated performance model for one (record size, distance)."""

    def __init__(self, space: ConfigSpace, switch_hops: int,
                 points: Dict[_Key, PerfPoint]):
        self.space = space
        self.switch_hops = switch_hops
        self._points = dict(points)
        self._s_axis = sorted({k[0] for k in points})
        self._c_axis = sorted({k[1] for k in points})
        self._b_axis = sorted({k[2] for k in points})
        self._q_axis = sorted({k[3] for k in points})
        self._bracket_cache: Dict[tuple, list] = {}
        self._predict_cache: Dict[_Key, PerfPoint] = {}

    def known(self, config: RdmaConfig) -> Optional[PerfPoint]:
        return self._points.get(_key(config))

    def bounds(self) -> tuple[PerfPoint, PerfPoint]:
        """(best, worst) corners: (min latency, max tput) / (max, min).

        Used to draw random SLOs "between the lowest and highest latency
        and throughput values in the model" (§7.3).
        """
        latencies = [p.latency for p in self._points.values()]
        tputs = [p.throughput for p in self._points.values()]
        return (PerfPoint(min(latencies), max(tputs)),
                PerfPoint(max(latencies), min(tputs)))

    @staticmethod
    def _bracket(axis: List[int], value: int) -> List[Tuple[int, float]]:
        """[(axis value, weight)] pairs for linear interpolation."""
        if value <= axis[0]:
            return [(axis[0], 1.0)]
        if value >= axis[-1]:
            return [(axis[-1], 1.0)]
        hi_index = bisect.bisect_left(axis, value)
        lo, hi = axis[hi_index - 1], axis[hi_index]
        if lo == value:
            return [(lo, 1.0)]
        t = (value - lo) / (hi - lo)
        return [(lo, 1.0 - t), (hi, t)]

    def _corner(self, s: int, c: int, b: int, q: int) -> PerfPoint:
        """Grid lookup with constraint snapping.

        The c >= s constraint can make a bracketing corner invalid (e.g.
        interpolating c=5 between grid 4 and 8 while s=8); such corners
        snap c up to the nearest measured value >= s.
        """
        c = max(c, s, 1)
        if (s, c, b, q) not in self._points:
            snapped = [v for v in self._c_axis if v >= c]
            for candidate in snapped:
                if (s, candidate, b, q) in self._points:
                    c = candidate
                    break
        point = self._points.get((s, c, b, q))
        if point is None:
            raise KeyError(
                f"no measured corner near (s={s}, c={c}, b={b}, q={q})")
        return point

    def _bracket_cached(self, axis_name: str, axis: List[int],
                        value: int) -> List[Tuple[int, float]]:
        cache_key = (axis_name, value)
        brackets = self._bracket_cache.get(cache_key)
        if brackets is None:
            brackets = self._bracket(axis, value)
            self._bracket_cache[cache_key] = brackets
        return brackets

    def predict(self, config: RdmaConfig) -> PerfPoint:
        """Interpolated (latency, throughput) for any configuration.

        Results are memoized: an online search may evaluate tens of
        thousands of leaves, many shared between searches.
        """
        key = _key(config)
        cached = self._predict_cache.get(key)
        if cached is not None:
            return cached
        s, c, b, q = key
        if s == 0:
            s_brackets = [(0, 1.0)]
            b_brackets = [(1, 1.0)]
        else:
            s_positive = [v for v in self._s_axis if v >= 1]
            s_brackets = self._bracket_cached("s", s_positive, s)
            b_brackets = self._bracket_cached("b", self._b_axis, b)
        c_brackets = self._bracket_cached("c", self._c_axis, c)
        q_brackets = self._bracket_cached("q", self._q_axis, q)

        latency = 0.0
        throughput = 0.0
        for s_val, s_w in s_brackets:
            for c_val, c_w in c_brackets:
                for b_val, b_w in b_brackets:
                    for q_val, q_w in q_brackets:
                        weight = s_w * c_w * b_w * q_w
                        corner = self._corner(s_val, c_val, b_val, q_val)
                        latency += weight * corner.latency
                        throughput += weight * corner.throughput
        point = PerfPoint(latency=latency, throughput=throughput)
        self._predict_cache[key] = point
        return point

    # -- vectorized plane prediction ------------------------------------

    def _weight_matrix(self, axis: List[int],
                       values: List[int]) -> np.ndarray:
        """Rows: interpolation weights of each value over ``axis``."""
        matrix = np.zeros((len(values), len(axis)))
        index_of = {v: i for i, v in enumerate(axis)}
        for row, value in enumerate(values):
            for axis_value, weight in self._bracket(axis, value):
                matrix[row, index_of[axis_value]] = weight
        return matrix

    def predict_plane(self, s: int, c: int) -> tuple[np.ndarray, np.ndarray]:
        """(latency, throughput) arrays over the full (b, q) plane.

        Shape ``(n_b, n_q)`` where b runs over ``space.b_values(s)`` and q
        over ``space.q_values()``.  Numerically identical to calling
        :meth:`predict` per leaf (same corners, same linear weights), but
        one matrix product instead of thousands of dictionary walks --
        this is what makes the online search interactive (§7.3 reports
        0.027 s average).  Planes are cached per (s, c).
        """
        cache_key = ("plane", s, c)
        cached = self._bracket_cache.get(cache_key)
        if cached is not None:
            return cached

        b_values = list(self.space.b_values(s))
        q_values = list(self.space.q_values())
        if s == 0:
            s_brackets = [(0, 1.0)]
            b_grid = [1]
        else:
            s_positive = [v for v in self._s_axis if v >= 1]
            s_brackets = self._bracket(s_positive, s)
            b_grid = self._b_axis
        c_brackets = self._bracket(self._c_axis, c)

        grid_lat = np.zeros((len(b_grid), len(self._q_axis)))
        grid_tput = np.zeros_like(grid_lat)
        for s_val, s_w in s_brackets:
            for c_val, c_w in c_brackets:
                weight = s_w * c_w
                for bi, b_val in enumerate(b_grid):
                    for qi, q_val in enumerate(self._q_axis):
                        corner = self._corner(s_val, c_val, b_val, q_val)
                        grid_lat[bi, qi] += weight * corner.latency
                        grid_tput[bi, qi] += weight * corner.throughput

        w_b = self._weight_matrix(b_grid, b_values)
        w_q = self._weight_matrix(self._q_axis, q_values)
        lat_plane = w_b @ grid_lat @ w_q.T
        tput_plane = w_b @ grid_tput @ w_q.T
        # Read-only: a stored model's planes are shared by every caller.
        lat_plane.flags.writeable = False
        tput_plane.flags.writeable = False
        self._bracket_cache[cache_key] = (lat_plane, tput_plane)
        return lat_plane, tput_plane


@dataclass
class OfflineModeler:
    """Runs the offline modeling campaign for one configuration space."""

    space: ConfigSpace
    measurer: Measurer
    switch_hops: int = 1
    early_termination: bool = True
    _points: Dict[_Key, PerfPoint] = field(default_factory=dict)
    _measured: Dict[_Key, bool] = field(default_factory=dict)

    def build(self) -> tuple[PerfModel, ModelingStats]:
        """Measure the grid (with early termination) and build the model.

        A measurer exposing a ``prefetch(configs)`` hook (see
        :func:`make_testbed_measurer`) gets the whole grid up front so it
        can batch the measurements across a worker pool.  The prefetch is
        speculative: with early termination on, some prefetched points
        end up estimated rather than consumed -- wasted compute the
        parallel speedup more than pays for -- and since each point is a
        pure function of its own config, consuming a prefetched result
        is bit-identical to measuring on demand.
        """
        prefetch = getattr(self.measurer, "prefetch", None)
        if prefetch is not None:
            prefetch(self.space.iter_grid())
        for config in self.space.iter_grid():
            key = _key(config)
            plateau = self._plateau_source(key) if self.early_termination else None
            if plateau is not None:
                self._points[key] = self._estimate_from(plateau, key)
                self._measured[key] = False
            else:
                self._points[key] = self.measurer(config)
                self._measured[key] = True
        measured = sum(1 for flag in self._measured.values() if flag)
        stats = ModelingStats(
            space_size=self.space.size(),
            grid_size=self.space.grid_size(),
            measured=measured,
            estimated=len(self._points) - measured,
        )
        return PerfModel(self.space, self.switch_hops, self._points), stats

    # -- early termination --------------------------------------------

    def _axis_values(self, axis: int, key: _Key) -> List[int]:
        s = key[0]
        if axis == 0:
            return self.space.grid_s_values()
        if axis == 1:
            return self.space.grid_c_values(s)
        if axis == 2:
            return self.space.grid_b_values(s)
        return self.space.grid_q_values()

    def _predecessor(self, key: _Key, axis: int) -> Optional[_Key]:
        values = self._axis_values(axis, key)
        try:
            index = values.index(key[axis])
        except ValueError:
            return None
        if index == 0:
            return None
        pred = list(key)
        pred[axis] = values[index - 1]
        pred_key = tuple(pred)
        return pred_key if pred_key in self._points else None

    @staticmethod
    def _is_one_sided_key(key: _Key) -> bool:
        s, _c, b, _q = key
        return s == 0 or b == 1

    def _plateau_source(self, key: _Key) -> Optional[_Key]:
        """If some axis already stopped improving, return the plateau
        point to estimate from instead of measuring.

        The comparison is only meaningful within one transport regime:
        stepping from a one-sided point (b=1 or s=0) to a two-sided one
        changes the protocol, not just a parameter, so those steps never
        trigger termination.
        """
        for axis in range(4):
            pred = self._predecessor(key, axis)
            if pred is None:
                continue
            prepred = self._predecessor(pred, axis)
            if prepred is None:
                continue
            if (self._is_one_sided_key(prepred)
                    != self._is_one_sided_key(pred)):
                continue
            if (self._points[pred].throughput
                    <= self._points[prepred].throughput * _IMPROVEMENT_EPSILON):
                return pred
        return None

    def _estimate_from(self, source: _Key, key: _Key) -> PerfPoint:
        """Plateau estimate: throughput stays flat; latency scales with
        the depth/batch growth (L ~ q * cycle at the operating point)."""
        base = self._points[source]
        scale = 1.0
        if source[3] != key[3]:  # q axis
            scale *= key[3] / source[3]
        if source[2] != key[2]:  # b axis
            scale *= key[2] / source[2]
        return PerfPoint(latency=base.latency * scale,
                         throughput=base.throughput)


def make_analytic_measurer(profile: TestbedProfile = AZURE_HPC, *,
                           record_size: int, switch_hops: int = 1,
                           noise: Optional[float] = None,
                           seed: int = 0,
                           dependent_reads: bool = False) -> Measurer:
    """Measurer backed by the analytic model plus measurement noise.

    ``dependent_reads=True`` models the pointer-chasing GET workload:
    per-op latency comes from
    :meth:`~repro.core.latency.DataPathModel.dependent_read_round_trip`
    (which honours ``config.use_verb_programs``), and throughput is the
    closed-loop bound of ``q`` chases in flight per connection, capped
    by the NIC message rate at one message per program or two per
    two-hop chase.
    """
    model = DataPathModel(profile, switch_hops)
    rng = np.random.default_rng(seed)
    sigma = profile.measurement_noise if noise is None else noise

    def dependent_point(config: RdmaConfig) -> PerfPoint:
        nic = profile.nic
        rtt = model.dependent_read_round_trip(config, record_size)
        messages = 1 if config.use_verb_programs else 2
        cycle = max(rtt / config.queue_depth,
                    messages / (nic.message_rate_mops_per_qp * 1e6))
        throughput = min(
            config.client_threads / cycle,
            nic.message_rate_mops_total * 1e6 / messages)
        return PerfPoint(latency=max(rtt, config.queue_depth * cycle),
                         throughput=throughput)

    def measurer(config: RdmaConfig) -> PerfPoint:
        if dependent_reads:
            point = dependent_point(config)
        else:
            point = model.evaluate(config, record_size)
        if sigma <= 0:
            return point
        return PerfPoint(
            latency=point.latency * float(np.exp(rng.normal(0.0, sigma))),
            throughput=point.throughput * float(np.exp(rng.normal(0.0, sigma))),
        )

    return measurer


@functools.lru_cache(maxsize=MODEL_STORE_SIZE)
def analytic_model(space: ConfigSpace, *, profile: TestbedProfile,
                   switch_hops: int, noise: float, seed: int) -> PerfModel:
    """The analytic model of ``space``, built once per process per key.

    Runs :class:`OfflineModeler` over :func:`make_analytic_measurer` and
    keeps the model in a bounded LRU keyed by the arguments.  The build
    is a pure function of them -- the measurer is a closed form whose
    noise is drawn from ``default_rng(seed)`` in grid order -- so a
    stored model is what a rebuild would return.  Callers share the
    returned model: it has no public mutators, and its prediction caches
    memoize pure values.  A caller that needs a fresh build, or the
    campaign's :class:`ModelingStats`, runs :class:`OfflineModeler`.
    """
    measurer = make_analytic_measurer(
        profile, record_size=space.record_size, switch_hops=switch_hops,
        noise=noise, seed=seed)
    model, _stats = OfflineModeler(
        space, measurer, switch_hops=switch_hops).build()
    return model


class TestbedMeasurer:
    """An engine measurer that batches grid points through a sweep runner.

    Calling it measures one configuration with
    :func:`~repro.core.measurement.measure_config`; :meth:`prefetch`
    hands a whole batch of configurations to a
    :class:`~repro.exec.runner.SweepRunner` first, so a parallel pool
    (and the on-disk result cache) serves the subsequent calls.  Every
    grid point uses the *same* seed, so prefetched, cached, and
    on-demand results are bit-identical.
    """

    def __init__(self, runner, profile: TestbedProfile = AZURE_HPC, *,
                 record_size: int, switch_hops: int = 1, seed: int = 0,
                 batches_per_connection: int = 60,
                 warmup_batches: int = 15,
                 dependent_reads: bool = False):
        self._runner = runner
        self._profile = profile
        self._record_size = record_size
        self._switch_hops = switch_hops
        self._seed = seed
        self._batches = batches_per_connection
        self._warmup = warmup_batches
        self._dependent_reads = dependent_reads
        self._results: Dict[RdmaConfig, PerfPoint] = {}

    def _task(self, config: RdmaConfig):
        from repro.exec.runner import SweepTask
        return SweepTask(
            config=config, record_size=self._record_size,
            profile=self._profile, switch_hops=self._switch_hops,
            read_fraction=0.5, batches_per_connection=self._batches,
            warmup_batches=self._warmup, seed=self._seed,
            dependent_reads=self._dependent_reads)

    def prefetch(self, configs) -> None:
        """Measure ``configs`` as one batch; later calls hit the table."""
        configs = [c for c in configs if c not in self._results]
        if not configs:
            return
        results = self._runner.run([self._task(c) for c in configs])
        for config, result in zip(configs, results):
            self._results[config] = result.perf

    def __call__(self, config: RdmaConfig) -> PerfPoint:
        point = self._results.get(config)
        if point is None:
            self.prefetch([config])
            point = self._results[config]
        return point


def make_testbed_measurer(profile: TestbedProfile = AZURE_HPC, *,
                          record_size: int, switch_hops: int = 1,
                          seed: int = 0,
                          batches_per_connection: int = 60,
                          warmup_batches: int = 15,
                          dependent_reads: bool = False,
                          runner=None) -> TestbedMeasurer:
    """Batch-mode engine measurer backed by ``repro.exec``.

    ``runner`` defaults to a fresh :class:`SweepRunner` with no cache
    (pool-size ``os.cpu_count()``); pass one explicitly to share a
    result cache or a metrics registry with the caller.
    """
    if runner is None:
        from repro.exec.runner import SweepRunner
        runner = SweepRunner()
    return TestbedMeasurer(
        runner, profile, record_size=record_size, switch_hops=switch_hops,
        seed=seed, batches_per_connection=batches_per_connection,
        warmup_batches=warmup_batches, dependent_reads=dependent_reads)
