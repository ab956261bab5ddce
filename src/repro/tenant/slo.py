"""SLO classes: named tiers mapped onto the offline model's frontier.

A tenant does not pick an RDMA configuration; it picks a *class*
(``premium`` / ``standard`` / ``scavenger``).  The class's
latency/throughput target is expressed relative to the offline model's
:meth:`~repro.core.modeling.PerfModel.bounds` corners, and
:class:`~repro.core.search.SloSearcher` -- the paper's §5 config-space
search -- resolves it to the cheapest configuration on the Pareto
frontier that satisfies it.  The serving tier then enforces the class
through weighted scheduling: the class weight is the tenant's share of
the shard pool when it is contended, and the searched configuration's
queue depth bounds the tenant's in-flight ops.

Everything here is a pure function of its arguments: the analytic
measurer runs with ``noise=0``, so two calls with the same parameters
produce bit-identical plans (the determinism contract).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PerfPoint, RdmaConfig, Slo
from repro.core.modeling import analytic_model
from repro.core.search import SloSearcher
from repro.core.space import ConfigSpace
from repro.hardware.profiles import AZURE_HPC

__all__ = ["ClassPlan", "SLO_CLASS_WEIGHTS", "plan_slo_classes"]

#: Relative scheduling weight of each class when shards are contended.
SLO_CLASS_WEIGHTS = {"premium": 8, "standard": 4, "scavenger": 1}

#: Where each class sits between the model's (best, worst) latency
#: corners: target = best * (worst/best)**fraction (geometric blend),
#: and the throughput floor interpolates the same way toward the low
#: corner.  Premium hugs the fast corner; scavenger accepts anything.
_CLASS_LATENCY_FRACTION = {"premium": 0.25, "standard": 0.55,
                           "scavenger": 1.0}
_CLASS_THROUGHPUT_FRACTION = {"premium": 0.5, "standard": 0.25,
                              "scavenger": 0.0}


@dataclass(frozen=True)
class ClassPlan:
    """One SLO class resolved to a point on the Pareto frontier."""

    name: str
    #: Scheduling weight across the shared shard pool.
    weight: int
    #: The class's latency/throughput target handed to the searcher.
    slo: Slo
    #: The cheapest configuration satisfying the target.
    config: RdmaConfig
    #: The model's prediction for that configuration -- the per-tenant
    #: latency/throughput budget the isolation benchmark asserts on.
    predicted: PerfPoint

    @property
    def max_inflight(self) -> int:
        """In-flight cap the tier enforces for tenants of this class:
        the searched configuration's aggregate queue depth."""
        return max(1, self.config.queue_depth * self.config.client_threads)


def plan_slo_classes(record_size: int = 64, *,
                     max_client_threads: int = 4,
                     max_queue_depth: int = 8,
                     switch_hops: int = 1,
                     seed: int = 0) -> dict[str, ClassPlan]:
    """Map every SLO class to a searched config + predicted perf point.

    Takes a small offline model (noise-free analytic measurer, so the
    result is deterministic and cheap) over the given config space from
    the process-wide :func:`~repro.core.modeling.analytic_model` store
    and runs the §5 SLO search once per class.  ``scavenger`` targets the
    worst corner and is always satisfiable; the tighter classes fall
    back to the nearest satisfiable target (latency relaxed toward the
    worst corner) rather than failing the whole plan, mirroring how the
    paper's search degrades an unsatisfiable SLO request.
    """
    space = ConfigSpace(max_client_threads=max_client_threads,
                        record_size=record_size,
                        max_queue_depth=max_queue_depth)
    model = analytic_model(space, profile=AZURE_HPC,
                           switch_hops=switch_hops, noise=0.0, seed=seed)
    best, worst = model.bounds()
    searcher = SloSearcher.for_model(model)

    plans: dict[str, ClassPlan] = {}
    for name in sorted(SLO_CLASS_WEIGHTS):
        latency_fraction = _CLASS_LATENCY_FRACTION[name]
        tput_fraction = _CLASS_THROUGHPUT_FRACTION[name]
        ratio = worst.latency / best.latency
        floor = (worst.throughput
                 + tput_fraction * (best.throughput - worst.throughput))
        config = None
        slo = None
        # Relax latency toward the worst corner until the search
        # succeeds; the worst corner itself is in the model, so the
        # loop terminates with a config for every class.
        while config is None:
            slo = Slo(max_latency=best.latency * ratio ** latency_fraction,
                      min_throughput=floor,
                      record_size=record_size)
            config = searcher.search(slo)
            if config is None:
                if latency_fraction >= 1.0 and floor <= worst.throughput:
                    raise RuntimeError(
                        f"SLO class {name!r}: even the worst corner is "
                        f"unsatisfiable -- degenerate model")
                latency_fraction = min(1.0, latency_fraction + 0.25)
                floor = max(worst.throughput, floor * 0.5)
        plans[name] = ClassPlan(name=name,
                                weight=SLO_CLASS_WEIGHTS[name],
                                slo=slo, config=config,
                                predicted=model.predict(config))
    return plans
