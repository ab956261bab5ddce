"""The offline modeling campaign as a distributed protocol (Figure 9).

§5.2's modeling is a conversation: "The manager and the client then
repeatedly generate the next configuration to measure (1), switch to
that configuration, measure its latency and throughput by performing
I/O operations on the cache, and report the result to the manager (2).
When the manager determines that the model is complete (3), it signals
the application to terminate."

:func:`run_modeling_campaign` runs exactly that protocol in simulated
time: the manager side (an :class:`~repro.core.rpc.RpcServer` with
``next_config`` / ``report`` handlers) owns the grid walk and early
termination; the measurement application (an RPC client on its own VM)
switches configurations, measures, and reports.  Each measurement
charges its real cost -- reconfiguration, the I/O run, reporting --
which is what turns ~350 grid points into the hours-long campaign §7.3
describes ("which took only 15 hours" for ~1000 measurements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import PerfPoint, RdmaConfig
from repro.core.modeling import Measurer, OfflineModeler, PerfModel
from repro.core.rpc import RpcClient, RpcServer
from repro.core.space import ConfigSpace
from repro.hardware.profiles import AZURE_HPC
from repro.net.fabric import Fabric, Placement
from repro.sim.clock import S
from repro.sim.kernel import Environment

__all__ = ["CampaignResult", "run_modeling_campaign"]

#: Tear down rings/QPs and set up the next configuration (§5.2 counts
#: "switching to the new configuration" in its minute-per-measurement).
RECONFIGURE_S = 20.0

#: Running enough I/O for a stable latency/throughput estimate.
MEASURE_S = 35.0

#: Building/accounting one estimated (early-terminated) leaf.
ESTIMATE_S = 0.05


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one simulated modeling campaign."""

    model: PerfModel
    measured: int
    estimated: int
    #: Simulated wall time of the whole campaign, seconds.
    duration_s: float
    rpc_calls: int

    @property
    def duration_hours(self) -> float:
        return self.duration_s / 3600.0


class _ManagerSide:
    """The manager's half of Figure 9: grid walk + early termination."""

    def __init__(self, space: ConfigSpace):
        # Reuse the modeler's grid/termination logic by feeding results
        # in as they arrive.
        self._modeler = OfflineModeler(space, measurer=None)  # type: ignore[arg-type]
        self._walk = iter(space.iter_grid())
        self._pending: Optional[RdmaConfig] = None

    def next_config(self, _payload) -> Optional[tuple]:
        """RPC handler: the next configuration needing a measurement,
        or None when the model is complete (step (3) of Figure 9)."""
        from repro.core.modeling import _key  # shared key layout

        while True:
            config = next(self._walk, None)
            if config is None:
                return None
            key = _key(config)
            plateau = self._modeler._plateau_source(key)
            if plateau is not None:
                self._modeler._points[key] = self._modeler._estimate_from(
                    plateau, key)
                self._modeler._measured[key] = False
                continue
            self._pending = config
            return (config.client_threads, config.server_threads,
                    config.batch_size, config.queue_depth)

    def report(self, payload) -> bool:
        """RPC handler: record one measurement (step (2))."""
        from repro.core.modeling import _key

        latency, throughput = payload
        assert self._pending is not None, "report without a pending config"
        self._modeler._points[_key(self._pending)] = PerfPoint(
            latency=latency, throughput=throughput)
        self._modeler._measured[_key(self._pending)] = True
        self._pending = None
        return True

    def finish(self) -> tuple[PerfModel, int, int]:
        measured = sum(1 for flag in self._modeler._measured.values()
                       if flag)
        estimated = len(self._modeler._points) - measured
        model = PerfModel(self._modeler.space, self._modeler.switch_hops,
                          self._modeler._points)
        return model, measured, estimated


def run_modeling_campaign(space: ConfigSpace,
                          measurer: Measurer) -> CampaignResult:
    """Run the Figure 9 protocol end to end in simulated time.

    ``measurer`` supplies each configuration's (latency, throughput) --
    normally :func:`~repro.core.modeling.make_analytic_measurer` with
    noise, standing in for the I/O run whose *duration* is charged here.
    """
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    manager_endpoint = fabric.add_endpoint("manager", Placement(0, 0))
    app_endpoint = fabric.add_endpoint("measure-app", Placement(0, 0))

    manager = _ManagerSide(space)
    rpc_server = RpcServer(env, AZURE_HPC, manager_endpoint)
    rpc_server.register("next_config", manager.next_config)
    rpc_server.register("report", manager.report)
    rpc_client = RpcClient(env, AZURE_HPC, app_endpoint)

    def measurement_app(env):
        while True:
            encoded = yield rpc_client.call(rpc_server, "next_config")
            if encoded is None:
                return  # step (3): the manager signalled completion
            config = RdmaConfig(*encoded)
            yield env.timeout(RECONFIGURE_S * S)
            perf = measurer(config)  # the I/O run itself ...
            yield env.timeout(MEASURE_S * S)  # ... takes real time
            yield rpc_client.call(rpc_server, "report",
                                  (perf.latency, perf.throughput))

    env.run_process(measurement_app(env), name="figure9-app")
    env.run()
    model, measured, estimated = manager.finish()
    return CampaignResult(
        model=model, measured=measured, estimated=estimated,
        duration_s=env.now + estimated * ESTIMATE_S,
        rpc_calls=rpc_client.calls_sent,
    )
