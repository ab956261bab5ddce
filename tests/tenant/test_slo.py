"""SLO class planning: deterministic Pareto-frontier placement."""

from repro.core.modeling import analytic_model
from repro.tenant import SLO_CLASS_WEIGHTS, plan_slo_classes


class TestPlanSloClasses:
    def test_all_classes_resolve(self):
        plans = plan_slo_classes()
        assert sorted(plans) == sorted(SLO_CLASS_WEIGHTS)
        for name, plan in sorted(plans.items()):
            assert plan.name == name
            assert plan.weight == SLO_CLASS_WEIGHTS[name]
            assert plan.max_inflight >= 1

    def test_classes_order_on_the_frontier(self):
        plans = plan_slo_classes()
        # Premium targets the fast corner, scavenger accepts the slow
        # one; the searched targets must order accordingly.
        assert (plans["premium"].slo.max_latency
                < plans["standard"].slo.max_latency
                < plans["scavenger"].slo.max_latency)
        assert (plans["premium"].weight > plans["standard"].weight
                > plans["scavenger"].weight)

    def test_searched_configs_satisfy_their_targets(self):
        plans = plan_slo_classes()
        for plan in plans.values():
            assert plan.predicted.latency <= plan.slo.max_latency
            assert plan.predicted.throughput >= plan.slo.min_throughput

    def test_planning_is_deterministic(self):
        assert plan_slo_classes() == plan_slo_classes()
        assert plan_slo_classes(seed=3) == plan_slo_classes(seed=3)

    def test_plans_share_one_stored_model(self):
        plan_slo_classes(seed=11)
        before = analytic_model.cache_info()
        plan_slo_classes(seed=11)
        after = analytic_model.cache_info()
        assert (after.misses, after.hits) == (before.misses,
                                              before.hits + 1)

    def test_space_parameters_change_the_plan(self):
        small = plan_slo_classes(max_client_threads=1, max_queue_depth=4)
        large = plan_slo_classes(max_client_threads=8, max_queue_depth=16)
        assert (small["premium"].config != large["premium"].config
                or small["premium"].predicted != large["premium"].predicted)
