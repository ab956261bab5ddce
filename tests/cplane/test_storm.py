"""The connection-storm ablation: replay determinism, wins, leak-freedom."""

import json

from repro.cplane import run_connection_storm
from repro.obs.metrics import MetricsRegistry

CLIENTS = 400


def test_same_seed_storm_replay_is_bit_identical():
    first = run_connection_storm(11, clients=CLIENTS, reads_per_session=2)
    second = run_connection_storm(11, clients=CLIENTS, reads_per_session=2)
    assert first == second  # the whole blob, log digest included


def test_different_seeds_schedule_differently():
    a = run_connection_storm(1, clients=CLIENTS)
    b = run_connection_storm(2, clients=CLIENTS)
    assert a["log_digest"] != b["log_digest"]
    assert a["ttfb_us"] != b["ttfb_us"]


def test_pooling_beats_naive_on_tail_ttfb():
    naive = run_connection_storm(3, clients=CLIENTS,
                                 strategy="per-client")
    lazy = run_connection_storm(3, clients=CLIENTS,
                                strategy="pooled-lazy")
    assert lazy["ttfb_us"]["p99"] < naive["ttfb_us"]["p99"]
    # Shared QPs + shared recv regions: the control-plane work drops
    # by an order of magnitude, not a constant.
    assert lazy["mr_registrations"] * 10 <= naive["mr_registrations"]
    assert (lazy["pool_totals"]["qps_created"] * 10
            <= naive["pool_totals"]["qps_created"])


def test_prewarm_removes_the_cold_spike():
    cold = run_connection_storm(5, clients=CLIENTS, strategy="pooled")
    warm = run_connection_storm(5, clients=CLIENTS, strategy="pooled",
                                prewarm=4)
    assert warm["ttfb_us"]["max"] < cold["ttfb_us"]["max"]
    assert warm["ttfb_us"]["p99"] <= cold["ttfb_us"]["p99"]


def test_every_strategy_completes_and_leaks_nothing():
    for strategy in ("per-client", "pooled", "pooled-lazy"):
        blob = run_connection_storm(7, clients=CLIENTS, strategy=strategy,
                                    reads_per_session=2)
        assert blob["completed"] == CLIENTS, strategy
        assert blob["failures"] == 0, strategy
        assert blob["leaked_qps"] == 0, strategy
        assert blob["leaked_client_regions"] == 0, strategy
        assert blob["pool_totals"]["demux_misroutes"] == 0, strategy


def test_storm_blob_is_json_clean():
    blob = run_connection_storm(13, clients=50)
    # np.float64 leaking out of the RNG draws would raise here.
    round_trip = json.loads(json.dumps(blob, sort_keys=True))
    assert round_trip["clients"] == 50


def test_a_passed_registry_moves_no_byte_and_counts_the_blob_totals():
    # Per-client QPs arriving within 1 ms outnumber each server NIC's
    # QP-context cache, so both counts move.
    kwargs = dict(clients=CLIENTS, strategy="per-client",
                  reads_per_session=2, window_s=0.001)
    plain = run_connection_storm(17, **kwargs)
    registry = MetricsRegistry()
    traced = run_connection_storm(17, metrics=registry, **kwargs)
    assert (json.dumps(traced, sort_keys=True)
            == json.dumps(plain, sort_keys=True))
    assert plain["qp_establishments"] > 0
    assert plain["qp_context_misses"] > 0
    assert (registry.get("qp.establishments").value
            == plain["qp_establishments"])
    assert (registry.get("qp.context_misses").value
            == plain["qp_context_misses"])
