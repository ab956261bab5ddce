"""The fault plane's determinism contract.

Same seed, same scenario => **bit-identical** fault log (compared by
SHA-256 digest over the canonical JSONL serialization) and identical
metrics snapshots.  This holds across repeated runs *within one
process* -- the hard case, since any module-global counter or hidden
RNG shows up as a second-run divergence here.  ``python -m repro gate``
makes the same comparison across the two kernel event loops.
"""

import pytest

from repro.faults.scenarios import churn_run
from repro.gates import SCENARIOS

#: The gate entries that wrap :mod:`repro.faults.scenarios`.
CHAOS = ["conn-storm-rebalance", "evict-primary", "link-flap",
         "shard-churn", "slow-node", "spot-churn", "spot-evict-programs"]


@pytest.mark.parametrize("name", CHAOS)
def test_same_seed_is_bit_identical(name):
    first = SCENARIOS[name].run(0)
    second = SCENARIOS[name].run(0)
    assert first["digest"] == second["digest"]
    assert first["events"] == second["events"]
    assert first["metrics"] == second["metrics"]
    assert first["summary"] == second["summary"]
    assert first["sim_seconds"] == second["sim_seconds"]


def test_different_seed_diverges_when_randomized():
    # The Poisson-driven scenario must actually depend on the seed.
    run = SCENARIOS["spot-churn"].run
    assert run(0)["digest"] != run(1)["digest"]


def test_churn_runs_inject_faults_and_log_them():
    report = churn_run(seed=0, rate_per_s=2.0)
    kinds = report.log.kinds()
    assert {"vm-eviction", "vm-kill"} & set(kinds)
    assert report.summary["faults_injected"] >= 1
    assert report.summary["probes"] > 0
    # Every injected fault is in the log with a simulated timestamp.
    assert all(event.time >= 0.5 for event in report.log
               if event.kind in ("vm-eviction", "vm-kill"))
