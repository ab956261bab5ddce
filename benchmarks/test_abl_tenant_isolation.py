"""Ablation: multi-tenant serving tier (``repro.tenant``).

Redy's cache is a shared regional pool; the tenant tier slices it into
private namespaces with per-tenant token-bucket admission, SLO-class
latency budgets, and fail-open degradation.  Admission is its only
isolation mechanism.  This ablation measures the four claims the
subsystem makes:

* **Noisy neighbors are contained.**  An abusive scavenger tenant
  offering 10x its admitted rate must not move a quiet premium tenant's
  read p99 beyond budget (1.5x the quiet baseline, with a 2 us absolute
  floor for tiny-sample jitter).
* **Admission shields the pool.**  The abuse is absorbed by shedding
  the abuser -- the scavenger sheds thousands of requests while the
  premium tenant sheds exactly zero.
* **A region kill degrades, then heals.**  Hard-killing one member of a
  replication=1 fleet mid-run flips affected tenants to fail-open on
  the backing store; every acknowledged write survives, and the tier
  re-promotes automatically once the flush drains.
* **Everything replays.**  Same seed, same abuse, same kill -> the
  same per-tenant stats and a bit-identical metrics snapshot.

The experiment itself is :func:`repro.gates.tenants_run` -- the same
deterministic run behind the ``tenants`` entry of ``python -m repro
gate`` -- so CI's gate and this ablation can never drift apart.
"""

from repro.gates import tenants_run

SEED = 11
OPS = 2400
#: The headline budget: 10x abuse may not move the premium p99 past
#: this factor of the quiet baseline.
BUDGET_FACTOR = 1.5
#: Absolute jitter floor: with ~1800 read samples a single extra
#: scheduling collision can move p99 by one service quantum.
BUDGET_FLOOR_S = 2e-6


def _budget(baseline_p99: float) -> float:
    return max(baseline_p99 * BUDGET_FACTOR, baseline_p99 + BUDGET_FLOOR_S)


def test_abusive_tenant_does_not_move_premium_p99(report, bench_metrics):
    baseline = tenants_run(SEED, OPS, abusive=False, kill=False)
    noisy = tenants_run(SEED, OPS, abusive=True, kill=False)
    bench_metrics.merge_snapshot(noisy["metrics"])
    base_p99 = baseline["premium_read_p99_s"]
    noisy_p99 = noisy["premium_read_p99_s"]
    budget = _budget(base_p99)
    scav = noisy["tenants"]["scav"]
    report("abl_tenant_isolation",
           "Noisy neighbor: quiet premium p99 under 10x scavenger abuse",
           [f"premium read p99 quiet    {base_p99 * 1e6:>7.2f} us",
            f"premium read p99 noisy    {noisy_p99 * 1e6:>7.2f} us",
            f"budget                    {budget * 1e6:>7.2f} us",
            f"scavenger admitted        {scav['admitted']:>7}",
            f"scavenger shed            {scav['shed']:>7}",
            f"premium shed              "
            f"{noisy['tenants']['prem']['shed']:>7}"])
    assert noisy_p99 <= budget, (
        f"10x abuse moved the quiet premium read p99 from "
        f"{base_p99 * 1e6:.2f} to {noisy_p99 * 1e6:.2f} us "
        f"(budget {budget * 1e6:.2f} us)")


def test_admission_absorbs_the_abuse_by_shedding_the_abuser():
    noisy = tenants_run(SEED, OPS, abusive=True, kill=False)
    scav = noisy["tenants"]["scav"]
    prem = noisy["tenants"]["prem"]
    # The open-loop flood runs at 10x the scavenger's token rate: the
    # vast majority of it must shed, and none of the pressure may leak
    # into the quiet tenant's admission.
    assert scav["shed"] > 5 * scav["admitted"] / 10
    assert scav["shed"] > 1000
    assert prem["shed"] == 0
    assert prem["degradations"] == 0


def test_region_kill_fails_open_and_recovers_losslessly(bench_metrics):
    chaos = tenants_run(SEED, OPS, abusive=True, kill=True)
    bench_metrics.merge_snapshot(chaos["metrics"])
    assert len(chaos["members_after"]) == 2, "victim must leave the ring"
    history = chaos["history"]
    assert history["reads"] > 200
    assert history["failures"] == [], (
        f"{len(history['failures'])} reads across the member kill broke "
        f"the op history, first: {history['failures'][0]}")
    for name in ("prem", "std"):
        stats = chaos["tenants"][name]
        assert stats["degradations"] >= 1, f"{name} never degraded"
        assert stats["repromotions"] == stats["degradations"], (
            f"{name} is stuck degraded")
        assert stats["degraded"] is False
    assert any(chaos["tenants"][n]["fail_open_reads"] > 0
               for n in chaos["tenants"]), "no reads failed open"


def test_same_seed_runs_are_bit_identical():
    first = tenants_run(SEED, OPS, abusive=True, kill=True)
    second = tenants_run(SEED, OPS, abusive=True, kill=True)
    assert first["tenants"] == second["tenants"]
    assert first["premium_read_p99_s"] == second["premium_read_p99_s"]
    assert first["metrics"] == second["metrics"], (
        "same-seed replay must produce a bit-identical metrics snapshot")
    assert first.get("rebalance") == second.get("rebalance")
