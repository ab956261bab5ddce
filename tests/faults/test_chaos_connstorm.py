"""Chaos: a connection storm landing mid-rebalance loses nothing."""

from repro.gates import SCENARIOS

SCENARIO = SCENARIOS["conn-storm-rebalance"]


def test_storm_mid_rebalance_loses_no_acked_writes():
    blob = SCENARIO.run(0)
    summary = blob["summary"]
    assert SCENARIO.invariants(blob) == []
    # The headline invariant: every probe read through the kill +
    # rebalance + session storm returned what the op history allows, so
    # every write the replicated router acked read back intact.
    history = blob["history"]
    assert history["failures"] == []
    assert history["reads"] > 1000
    assert history["ops"] == 2 * history["reads"]  # write, then read
    # The kill landed and the ring healed.
    assert summary["faults_injected"] >= 1.0
    assert summary["members_after"] == 3.0
    assert summary["rebalances"] >= 1.0
    assert summary["lost_slots"] == 0.0  # replication=2 covered the loss
    # Every storm session ran to completion -- reads against the corpse
    # fail fast (counted), they do not hang.
    assert summary["storm_completed"] == summary["storm_sessions"]
    assert summary["storm_read_failures"] > 0
    assert summary["demux_misroutes"] == 0.0
    # Fast teardown: the QPs pooled against the dead endpoint (and the
    # idle survivors past the warm target) were reclaimed.
    assert summary["qps_reclaimed"] > 0


def test_same_seed_chaos_replay_is_bit_identical():
    assert SCENARIO.run(1) == SCENARIO.run(1)
