"""Multi-tenant serving tier: SLO isolation over the shard router.

``repro.tenant`` turns the single-user reproduction into a serving
system: each registered tenant gets a private slice of the shared
address space, token-bucket admission control with deterministic load
shedding, an SLO class mapped onto the offline model's Pareto frontier
(its latency budget), and graceful degradation to a local backing store
when its remote region is lost.  Isolation between tenants is admission
control alone: the §5 search configures each cache from its SLO, and the
paper has no runtime scheduler across tenants.
"""

from repro.tenant.admission import (
    ADMIT,
    AdmissionController,
    DELAY,
    SHED,
    TokenBucket,
)
from repro.tenant.backing import FailOpenStore
from repro.tenant.slo import ClassPlan, plan_slo_classes
from repro.tenant.tier import TenantSpec, TenantState, TenantTier

__all__ = [
    "ADMIT",
    "AdmissionController",
    "ClassPlan",
    "DELAY",
    "FailOpenStore",
    "SHED",
    "TenantSpec",
    "TenantState",
    "TenantTier",
    "TokenBucket",
    "plan_slo_classes",
]
