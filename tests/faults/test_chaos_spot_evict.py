"""Chaos under live migration: writes and reads through spot evictions.

The `spot-evict` scenario runs a write -> read-back probe stream while
notice-based spot evictions migrate regions underneath it.  The
invariants pinned here: every read-back returned what the op history
allows, and migrations actually happened.
"""

from repro.gates import SCENARIOS

SCENARIO = SCENARIOS["spot-evict"]


def test_spot_evictions_lose_no_acked_writes():
    blob = SCENARIO.run(0)
    summary = blob["summary"]
    assert SCENARIO.invariants(blob) == []

    # The scenario is only meaningful if migrations actually ran.
    assert summary["migrations"] >= 1
    assert summary["migration_failures"] == 0

    # The headline invariant: every read-back returned what the op
    # history allows, so every acknowledged write read back intact.
    history = blob["history"]
    assert history["failures"] == []
    assert history["reads"] > 100
    # Every probe's write and read-back succeeded.
    assert summary["failed_probes"] == 0
    assert history["ops"] == 2 * history["reads"]

    # Fault log recorded the evictions the probes survived.
    assert "vm-eviction" in {event["kind"] for event in blob["events"]}


def test_scenario_is_seed_sensitive():
    assert SCENARIO.run(0)["digest"] != SCENARIO.run(3)["digest"]
