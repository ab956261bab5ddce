"""Chaos under verb programs: live migration vs the CAS-guarded chase.

The `spot-evict-programs` scenario runs a write -> pointer-swing ->
dependent-read probe stream (transport: one-RTT verb programs) while
notice-based spot evictions migrate regions underneath it.  The
invariants pinned here: every read-back returned what the op history
allows, migrations actually exercised, and coherent program/fallback
accounting.
"""

from repro.gates import SCENARIOS

SCENARIO = SCENARIOS["spot-evict-programs"]


def test_spot_evictions_lose_no_acked_writes():
    blob = SCENARIO.run(0)
    summary = blob["summary"]
    assert SCENARIO.invariants(blob) == []

    # The scenario is only meaningful if faults actually landed and the
    # workload actually chased pointers through programs.
    assert summary["migrations"] >= 1
    assert summary["migration_failures"] == 0
    assert summary["programs"] > 100

    # The headline invariant: every read-back returned what the op
    # history allows, so every acknowledged write read back intact.
    history = blob["history"]
    assert history["failures"] == []
    assert history["reads"] > 100
    # Every probe's record write, pointer swing and read-back succeeded.
    assert summary["failed_probes"] == 0
    assert history["ops"] == 3 * history["reads"]

    # Accounting coherence: every chase ran as a program or a two-hop
    # read, and every program failure (abort or otherwise) fell back.
    assert summary["two_hop_reads"] == summary["program_fallbacks"]
    assert summary["program_cas_aborts"] <= summary["program_fallbacks"]

    # Fault log recorded the evictions the probes survived.
    assert "vm-eviction" in {event["kind"] for event in blob["events"]}


def test_scenario_is_seed_sensitive():
    assert SCENARIO.run(0)["digest"] != SCENARIO.run(3)["digest"]
