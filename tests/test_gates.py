"""The scenario registry and the gate harness (``repro.gates``).

Two halves: every registered entry's invariants hold at seed 0 and
each one fails when a single field of its blob is violated, and the
harness tells an ordering bug, a replay bug and an invariant failure
apart and holds each entry's seed-0 kernel events and its seed-0 and
seed-1 blob digests to the recorded values.
"""

import copy
import dataclasses
import functools
import json
import re
from pathlib import Path

import pytest

from repro import gates
from repro.core import RdmaConfig
from repro.core.engine import CacheDataPath
from repro.core.protocol import EngineOp
from repro.core.server import CacheServer
from repro.gates import SCENARIOS, Scenario
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement, qp
from repro.sim.kernel import Environment
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry


@functools.lru_cache(maxsize=None)
def _blob(name):
    """Seed-0 blob of one entry, run once per test session."""
    return SCENARIOS[name].run(0)


#: A ``history.failures`` list with one failure line in it.
_STALE = ["key 4096: read [1.0000000, 1.0000100] returned a stale value"]

#: Per entry, fields to break one at a time: (dotted path, bad value).
#: Every path must make the entry's invariants report a failure.
MUTATIONS = {
    "measure": [("two-sided.ops_measured", 0),
                ("programs.latency_p50", 1.0),
                ("two-sided.programs", 3),
                ("programs.programs", 0),
                ("programs.program_fallbacks", 1)],
    "verbs": [("program.failed", 1),
              ("program.digest", "0" * 64),
              ("program.read_latency_mean_us", 1e9),
              ("program.programs", 0),
              ("program.program_cas_aborts", 1),
              ("two_hop.programs", 1),
              ("two_hop.two_hop_reads", 0)],
    "shard": [("failed", 1),
              ("history.reads", 0),
              ("history.failures", _STALE),
              ("rebalance.lost_slots", 1),
              ("members_after", ["s00", "s01", "s02", "s03"])],
    "tenants": [("noisy.premium_read_p99_s", 1.0),
                ("noisy.tenants.scav.shed", 1000),
                ("kill.tenants.scav.shed", 10),
                ("noisy.tenants.prem.shed", 1),
                ("kill.failed_reads.std", 1),
                ("kill.history.reads", 0),
                ("kill.history.failures", _STALE),
                ("kill.members_after", ["s00", "s01", "s02"]),
                ("kill.tenants.prem.fail_open_reads", 0),
                ("kill.tenants.std.repromotions", 0),
                ("kill.tenants.prem.degraded", True)],
    "connstorm": [("pooled.completed", 1199),
                  ("pooled.failures", 1),
                  ("per-client.leaked_qps", 1),
                  ("pooled-lazy.pool_totals.demux_misroutes", 1),
                  ("pooled-lazy.ttfb_us.p99", 1e9),
                  ("pooled-lazy.mr_registrations", 10 ** 9)],
    "spot-churn": [("summary.faults_injected", 0),
                   ("summary.migrations", 0)],
    "spot-evict-programs": [("summary.faults_injected", 0),
                            ("history.failures", _STALE),
                            ("summary.failed_probes", 1)],
    "evict-primary": [("summary.failed_probes", 1),
                      ("summary.members_after", 2),
                      ("history.failures", _STALE)],
    "link-flap": [("summary.failed_probes", 1),
                  ("summary.retries", 0)],
    "slow-node": [("summary.failed_probes", 1),
                  ("summary.faults_injected", 0)],
    "shard-churn": [("summary.failed_probes", 2),
                    ("summary.members_after", 4),
                    ("summary.lost_slots", 1)],
    "conn-storm-rebalance": [("summary.storm_completed", 399),
                             ("summary.demux_misroutes", 1),
                             ("history.failures", _STALE),
                             ("summary.failed_probes", 1)],
}


def test_every_entry_has_mutations():
    assert list(MUTATIONS) == list(SCENARIOS)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_entry_passes_its_invariants(name):
    blob = _blob(name)
    assert json.loads(json.dumps(blob)) == blob  # JSON-able as is
    assert SCENARIOS[name].invariants(blob) == []


@pytest.mark.parametrize("name,path,value", [
    (name, path, value)
    for name, mutations in MUTATIONS.items()
    for path, value in mutations])
def test_one_violated_field_fails_the_invariants(name, path, value):
    blob = copy.deepcopy(_blob(name))
    *parents, leaf = path.split(".")
    target = functools.reduce(lambda node, key: node[key], parents, blob)
    assert leaf in target
    target[leaf] = value
    assert SCENARIOS[name].invariants(blob) != []


def test_unbatched_two_sided_run_fails_the_measure_invariants():
    blob = copy.deepcopy(_blob("measure"))
    assert "batch_weight_mean" in blob["two-sided"]
    blob["two-sided"]["batch_weight_mean"] = 1.0
    assert SCENARIOS["measure"].invariants(blob) != []


def test_tenants_isolates_abuse_and_recovers_from_the_kill():
    kill = _blob("tenants")["kill"]
    stats = kill["tenants"]
    # The abusive tenant is shed in bulk; the quiet tenants never are.
    assert stats["scav"]["shed"] > 1000
    assert stats["prem"]["shed"] == stats["std"]["shed"] == 0
    # The mid-run kill degrades tenants but reads stay answered:
    # fail-open turns a region loss into latency, not unavailability.
    assert kill["failed_reads"] == {"prem": 0, "std": 0}
    for name in ("prem", "std"):
        assert stats[name]["fail_open_reads"] > 0
        assert stats[name]["degradations"] == stats[name]["repromotions"]
        assert stats[name]["degradations"] >= 1
        assert stats[name]["degraded"] is False
    # Every read, mid-kill and after it, returned a value the op
    # history allows: no acknowledged write was lost.
    assert kill["history"]["failures"] == []
    assert kill["history"]["reads"] > 0


# ----------------------------------------------------------------------
# The op history names a broken §6.2 claim
# ----------------------------------------------------------------------

def test_reads_paused_by_a_migration_fail_spot_churn_by_the_read(
        monkeypatch):
    """Reads stay unpaused while a region migrates (§6.2): a migration
    that closes the read gate too fails ``spot-churn`` with the read
    that met it."""
    from repro.core import client, migration

    def pausing_reads(*args, policy, **kwargs):
        return migration.migrate_regions(
            *args, policy=dataclasses.replace(policy, unpaused_reads=False),
            **kwargs)

    monkeypatch.setattr(client, "migrate_regions", pausing_reads)
    scenario = SCENARIOS["spot-churn"]
    [line] = scenario.invariants(scenario.run(0))
    assert re.fullmatch(r"key 4096: read \[[\d.]+, [\d.]+\] met region "
                        r"\d+'s closed migration read gate", line), line


def test_an_unacked_seed_write_fails_evict_primary(monkeypatch):
    """The write seeded before the kill must be acked.  A router that
    drops it leaves the probes reading the initial zeroes, which the
    history allows; the failed required write names the fault."""
    from repro.core.client import CacheIoResult
    from repro.shard import ShardRouter

    def dropping_write_io(self, addr, data, **options):
        return CacheIoResult(ok=False, error="dropped")
        yield  # a generator, like the ``*_io`` body it replaces

    monkeypatch.setattr(ShardRouter, "write_io", dropping_write_io)
    scenario = SCENARIOS["evict-primary"]
    assert scenario.invariants(scenario.run(0)) == [
        "key 4096: required write [0.0000000, 0.0000000] failed"]


def test_skipping_the_lost_slot_degrade_fails_tenants_by_stale_reads(
        monkeypatch):
    """A tenant whose slots the kill lost must degrade and re-populate
    from its mirror; skip that, and the kill run's reads of the rebuilt
    slots come back as zeroes nobody wrote."""
    from repro.tenant.tier import TenantTier

    monkeypatch.setattr(TenantTier, "_on_rebalance",
                        lambda self, report: None)
    scenario = SCENARIOS["tenants"]
    failures = scenario.invariants(scenario.run(0))
    stale = [line for line in failures if line.startswith("kill: key (")]
    assert stale, failures
    assert re.fullmatch(
        r"kill: key \('(prem|std)', \d+\): read \[[\d.]+, [\d.]+\] "
        r"returned 0{16}\.\.\(64 B\), a value no write began before the "
        r"read ended", stale[0]), stale[0]
    assert not any(line.startswith(("quiet: key", "noisy: key"))
                   for line in failures)


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------

def _clean(seed):
    env = Environment()

    def worker():
        yield env.timeout(1.0 + seed)

    env.process(worker(), name="w")
    env.run()
    return {"now": env.now}


def _misordered(seed):
    """An event list that runs the last-queued entry first: an ordering
    bug, identical on every run."""
    env = Environment()

    def worker():
        yield env.timeout(0)

    for index in range(3):
        env.process(worker(), name=f"w{index}")
    env._immediate.reverse()
    env.run()
    return {"now": env.now}


#: Module-level state a badly written entry reads across runs.
_RUNS = {"count": 0}


def _blob_reads_module_state(seed):
    """Identical schedules, but the blob counts earlier runs."""
    _RUNS["count"] += 1
    env = Environment()
    env.run()
    return {"runs": _RUNS["count"]}


def _extra_normal_on_replay(seed):
    """One-sided reads and an empty blob; the second run takes one extra
    normal from the data path's stream before them."""
    _RUNS["count"] += 1
    rngs = RngRegistry(seed)
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    server = CacheServer(env, AZURE_HPC,
                         fabric.add_endpoint("server", Placement()),
                         rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, RdmaConfig(1, 0, 1, 4),
                         fabric.add_endpoint("client", Placement()),
                         rngs.stream("client"))
    token = path.attach_server(server, n_regions=1, region_size=4096)[0]
    if _RUNS["count"] == 2:
        path._normal()

    def reader():
        for _ in range(8):
            yield from path.io(EngineOp(is_read=True, size=64, token=token))

    env.process(reader(), name="reader")
    env.run()
    return {}


#: Enough strings that two hash seeds all but never iterate a set of
#: them in one order.
_NAMES = [f"worker-{index:02d}" for index in range(32)]


def _set_ordered_spawns(seed):
    """Spawns one worker per name in a ``set``'s order: the same on
    every run in one interpreter, salted by the hash seed."""
    env = Environment()

    def worker():
        yield env.timeout(1.0)

    for name in set(_NAMES):
        env.process(worker(), name=name)
    env.run()
    return {"now": env.now}


def _register(monkeypatch, name, run, invariants=lambda blob: []):
    monkeypatch.setitem(SCENARIOS, name, Scenario(run, invariants))


def test_loop_dependent_trace_is_an_ordering_bug(monkeypatch):
    # Both runs misorder alike, so they replay; the order check fails it.
    _register(monkeypatch, "misordered", _misordered)
    entry = gates.check("misordered")
    assert not entry["ok"]
    divergence = entry["divergence"]
    assert divergence["kind"] == "ordering"
    assert divergence["entry"] == "misordered"
    assert divergence["mismatches"] > 0
    assert divergence["expected"][0] == divergence["dispatched"][0] == 0.0
    assert divergence["expected"][1] < divergence["dispatched"][1]
    assert entry["failures"][0].startswith("ordering bug: misordered ")
    assert json.loads(json.dumps(entry)) == entry


def test_blob_reading_module_state_is_a_replay_bug(monkeypatch):
    _register(monkeypatch, "leaky", _blob_reads_module_state)
    monkeypatch.setitem(_RUNS, "count", 0)
    entry = gates.check("leaky")
    assert entry["divergence"] == {"kind": "replay", "entry": "leaky",
                                   "runs": "leaky[run-vs-replay]"}
    assert entry["failures"] == [
        "replay bug: leaky[run-vs-replay] traces agree but the blobs differ"]
    assert _RUNS["count"] == 2


def test_one_extra_data_path_normal_fails_the_replay_check(monkeypatch):
    # The data path's normals reach the trace as one draw per block, so
    # both runs draw one block; the extra normal shifts every charge
    # after it, and the trace diverges as a schedule.
    _register(monkeypatch, "extra-normal", _extra_normal_on_replay)
    monkeypatch.setitem(_RUNS, "count", 0)
    entry = gates.check("extra-normal")
    assert not entry["ok"]
    divergence = entry["divergence"]
    assert divergence["kind"] == "replay"
    assert divergence["rng_divergence"] == {}
    assert divergence["attribution"].startswith("schedule divergence")
    assert entry["failures"][0].startswith(
        "replay bug: extra-normal[run-vs-replay] same-seed replay diverged")
    assert _RUNS["count"] == 2


def test_one_extra_verb_stage_timeout_fails_the_gate(monkeypatch):
    # A verb runs as a chain of timed calls, with no process or event
    # of its own to show in the trace.  One more stage on a zero
    # timeout -- between a request's arrival and its service, which
    # moves no simulated instant -- still shows in the recorded kernel
    # events.
    arrived = qp._Verb.arrived

    def one_more_stage(verb):
        verb.qp.env.timeout(0)._add_callback(lambda _later: arrived(verb))

    monkeypatch.setattr(qp._Verb, "arrived", one_more_stage)
    entry = gates.check("verbs")
    assert not entry["ok"]
    assert entry["divergence"] is None
    recorded = json.loads(gates.EVENTS_FILE.read_text())["verbs"]
    assert entry["events"] > sum(recorded.values())
    assert entry["failures"][0].startswith(
        f"kernel events grew {sum(recorded.values())} -> {entry['events']} "
        "at seed 0 (")
    # The stage adds one timeout: a trigger and the callback it runs,
    # which no process resume records.
    assert f"trigger {recorded['trigger']} -> " in entry["failures"][0]
    assert "resume" not in entry["failures"][0]


def test_set_ordered_schedule_is_a_hash_seed_bug(monkeypatch):
    # One interpreter iterates the set alike on every run, so the
    # in-process replay agrees; the child, under another hash seed,
    # spawns the workers in another order.
    _register(monkeypatch, "set-order", _set_ordered_spawns)
    assert gates.check("set-order")["ok"]
    report = gates.gate(["set-order"])
    [entry] = report["entries"]
    assert not entry["ok"]
    divergence = entry["divergence"]
    assert divergence["kind"] == "hash-seed"
    label = f"set-order[run-vs-PYTHONHASHSEED={report['hash_seed']}]"
    assert divergence["runs"] == label
    # The first diverging trace entry is a spawn: the same pid, another
    # name.
    index = divergence["index"]
    first, child = divergence["entry_a"], divergence["entry_b"]
    assert first[:2] == child[:2] == ["spawn", index + 1]
    assert first[2] != child[2] and {first[2], child[2]} <= set(_NAMES)
    assert entry["failures"][0] == (
        f"hash-seed bug: {label} same-seed replay diverged at kernel "
        f"event {index}: {tuple(first)!r} vs {tuple(child)!r}")
    assert entry["failures"][1] == (
        f"attribution: {divergence['attribution']}")
    assert divergence["attribution"].startswith("schedule divergence")
    assert json.loads(json.dumps(report)) == report


def test_invariant_failures_fail_a_replaying_entry(monkeypatch):
    _register(monkeypatch, "wrong", _clean,
              lambda blob: [f"now = {blob['now']}, expected 0"])
    entry = gates.check("wrong")
    assert entry["divergence"] is None
    assert entry["failures"] == ["now = 1.0, expected 0"]
    assert not entry["ok"]


def _holds_a_slot(release):
    """A worker holds one of two slots for a second, then releases it
    only if ``release``."""
    def run(seed):
        env = Environment()
        slots = Resource(env, slots=2)

        def worker():
            yield slots.acquire()
            yield env.timeout(1.0)
            if release:
                slots.release()

        env.process(worker(), name="w")
        env.run()
        return {"now": env.now}
    return run


@pytest.mark.holds_resource("the unreleased run leaves its slot held")
def test_a_run_leaving_a_slot_held_fails_with_that_resource(monkeypatch):
    built_at = next(
        number for number, line in enumerate(
            Path(__file__).read_text().splitlines(), start=1)
        if "slots = Resource(env, slots=2)" in line)
    _register(monkeypatch, "held", _holds_a_slot(release=False))
    entry = gates.check("held")
    assert not entry["ok"] and entry["divergence"] is None
    assert entry["failures"] == [
        f"resource built at tests/test_gates.py:{built_at} ends with 1 of "
        f"2 slots held and 0 waiting"]
    assert entry["blob"] == {"now": 1.0}  # the check adds nothing here
    _register(monkeypatch, "held", _holds_a_slot(release=True))
    entry = gates.check("held")
    assert entry["ok"] and entry["failures"] == []


def test_recorded_events_cover_every_entry():
    recorded = json.loads(gates.EVENTS_FILE.read_text())
    assert list(recorded) == list(SCENARIOS)
    for kinds in recorded.values():
        assert tuple(kinds) == gates.EVENT_KINDS
        assert all(isinstance(count, int) and count >= 0
                   for count in kinds.values())
        assert kinds["spawn"] > 0


def test_recorded_blob_digests_cover_every_entry():
    recorded = json.loads(gates.BLOBS_FILE.read_text())
    assert list(recorded) == list(SCENARIOS)
    for digests in recorded.values():
        assert list(digests) == ["0", "1"]
        assert all(re.fullmatch(r"[0-9a-f]{64}", digest)
                   for digest in digests.values())


def test_readme_gate_block_matches_the_registry():
    """README's ``repro gate --all`` console block lists every entry in
    registry order with its recorded seed-0 kernel events."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("$ python -m repro gate --all", 1)[1]
    block = block.split("```", 1)[0]
    shown = re.findall(r"^PASS (\S+) +([\d,]+) kernel events", block,
                       flags=re.MULTILINE)
    recorded = json.loads(gates.EVENTS_FILE.read_text())
    assert [name for name, _ in shown] == list(SCENARIOS)
    assert {name: int(count.replace(",", ""))
            for name, count in shown} == {
        name: sum(kinds.values()) for name, kinds in recorded.items()}
    assert f"gate: {len(SCENARIOS)}/{len(SCENARIOS)} passed at seed 0" \
        in block


@pytest.mark.parametrize("delta,change", [(-1, "grew"), (1, "dropped")])
def test_seed_0_event_count_change_fails_with_old_and_new(
        monkeypatch, tmp_path, delta, change):
    _register(monkeypatch, "clean", _clean)
    first = gates.check("clean")
    events, kinds = first["events"], first["event_kinds"]
    assert sum(kinds.values()) == events
    recorded = tmp_path / "gate_events.json"
    recorded.write_text(json.dumps(
        {"clean": {**kinds, "step": kinds["step"] + delta}}))
    monkeypatch.setattr(gates, "EVENTS_FILE", recorded)
    entry = gates.check("clean")
    assert not entry["ok"]
    assert len(entry["failures"]) == 1
    assert entry["failures"][0].startswith(
        f"kernel events {change} {events + delta} -> {events} at seed 0 "
        f"(step {kinds['step'] + delta} -> {kinds['step']}")
    # Only seed 0 is recorded; exact counts pass.
    assert gates.check("clean", seed=1)["ok"]
    recorded.write_text(json.dumps({"clean": kinds}))
    assert gates.check("clean")["ok"]


def test_seed_0_events_moved_between_kinds_fail_at_an_equal_total(
        monkeypatch, tmp_path):
    _register(monkeypatch, "clean", _clean)
    kinds = gates.check("clean")["event_kinds"]
    recorded = tmp_path / "gate_events.json"
    recorded.write_text(json.dumps({"clean": {
        **kinds, "resume": kinds["resume"] + 1,
        "trigger": kinds["trigger"] - 1}}))
    monkeypatch.setattr(gates, "EVENTS_FILE", recorded)
    entry = gates.check("clean")
    total = sum(kinds.values())
    assert entry["failures"] == [
        f"kernel events held at {total} but moved between kinds at seed 0 "
        f"(resume {kinds['resume'] + 1} -> {kinds['resume']}, trigger "
        f"{kinds['trigger'] - 1} -> {kinds['trigger']}): record the new "
        "counts in gate_events.json"]


def test_blob_digest_change_fails_with_old_and_new(monkeypatch, tmp_path):
    _register(monkeypatch, "clean", _clean)
    digest = gates.check("clean", seed=1)["blob_digest"]
    recorded = tmp_path / "gate_blobs.json"
    recorded.write_text(json.dumps({"clean": {"1": "0" * 64}}))
    monkeypatch.setattr(gates, "BLOBS_FILE", recorded)
    entry = gates.check("clean", seed=1)
    assert not entry["ok"]
    assert entry["failures"] == [
        f"blob digest moved {'0' * 16} -> {digest[:16]} at seed 1: a "
        "change meant to move this result records the new digest in "
        "gate_blobs.json"]
    # Only recorded seeds are checked; the recorded digest passes.
    assert gates.check("clean", seed=0)["ok"]
    recorded.write_text(json.dumps({"clean": {"1": digest}}))
    assert gates.check("clean", seed=1)["ok"]


def test_report_counts_entries_and_renders(monkeypatch):
    _register(monkeypatch, "clean", _clean)
    _register(monkeypatch, "wrong", _clean, lambda blob: ["broken"])
    report = gates.gate(["clean", "wrong"], seed=0)
    assert report["schema"] == "repro.gate/v1"
    assert (report["ok"], report["passed"]) == (False, 1)
    assert json.loads(json.dumps(report)) == report
    text = gates.format_report(report)
    assert "PASS clean" in text and "FAIL wrong" in text
    assert "  - broken" in text
    assert text.endswith("gate: 1/2 passed at seed 0")
