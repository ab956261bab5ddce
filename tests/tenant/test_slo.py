"""SLO class planning: deterministic Pareto-frontier placement."""

from repro.core.modeling import analytic_model
from repro.tenant import plan_slo_classes


class TestPlanSloClasses:
    def test_all_classes_resolve(self):
        plans = plan_slo_classes()
        assert sorted(plans) == ["premium", "scavenger", "standard"]
        for name, plan in sorted(plans.items()):
            assert plan.name == name

    def test_classes_order_on_the_frontier(self):
        plans = plan_slo_classes()
        # Premium targets the fast corner, scavenger accepts the slow
        # one; the searched targets must order accordingly.
        assert (plans["premium"].slo.max_latency
                < plans["standard"].slo.max_latency
                < plans["scavenger"].slo.max_latency)

    def test_searched_configs_satisfy_their_targets(self):
        plans = plan_slo_classes()
        for plan in plans.values():
            assert plan.predicted.latency <= plan.slo.max_latency
            assert plan.predicted.throughput >= plan.slo.min_throughput

    def test_planning_is_deterministic(self):
        assert plan_slo_classes() == plan_slo_classes()

    def test_plans_share_one_stored_model(self):
        plan_slo_classes()
        before = analytic_model.cache_info()
        plan_slo_classes()
        after = analytic_model.cache_info()
        assert (after.misses, after.hits) == (before.misses,
                                              before.hits + 1)
