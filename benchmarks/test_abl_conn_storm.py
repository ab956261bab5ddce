"""Ablation: connection-storm TTFB under the QP pool strategies.

Swift's control-plane argument, replayed on the Redy testbed: when a
burst of elastic clients arrives inside one 50 ms window, a naive
per-client design pays QP creation, the connect handshake, and memory
registration on every open -- so every client's time-to-first-byte
carries the full control-plane bill.  Multiplexing sessions onto
pooled QPs amortizes that bill across ``sessions_per_qp`` arrivals,
lazy establishment moves the residual handshakes off the open path,
and a warm pool pre-connected ahead of the burst (``prewarm=8``)
removes them entirely.

The rows report the TTFB percentiles plus the control-plane work each
strategy performed (QPs created, establishments, registrations) and
the leak surface after harvest -- which must be zero everywhere.
"""

from repro.cplane import run_connection_storm

CLIENTS = 6000
READS_PER_SESSION = 2
SEED = 7

CASES = [
    ("per-client", dict(strategy="per-client")),
    ("pooled", dict(strategy="pooled")),
    ("pooled-lazy", dict(strategy="pooled-lazy")),
    ("pooled+warm", dict(strategy="pooled", prewarm=8)),
]


def run_experiment(metrics=None):
    rows = {}
    for label, kwargs in CASES:
        # The headline configuration's metrics feed the BENCH blob.
        registry = metrics if label == "pooled-lazy" else None
        rows[label] = run_connection_storm(
            SEED, clients=CLIENTS, reads_per_session=READS_PER_SESSION,
            metrics=registry, **kwargs)
    return rows


def test_abl_conn_storm(benchmark, report, bench_metrics):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1,
                              kwargs={"metrics": bench_metrics})
    lines = [f"{'strategy':>12} {'p50 us':>8} {'p99 us':>8} {'max us':>8} "
             f"{'QPs':>6} {'estab':>6} {'MRs':>6} "
             f"({CLIENTS} clients in 50 ms)"]
    for label, blob in rows.items():
        lines.append(
            f"{label:>12} {blob['ttfb_us']['p50']:>8.1f} "
            f"{blob['ttfb_us']['p99']:>8.1f} {blob['ttfb_us']['max']:>8.1f} "
            f"{blob['pool_totals'].get('qps_created', 0):>6} "
            f"{int(blob['qp_establishments']):>6} "
            f"{blob['mr_registrations']:>6}")
    naive = rows["per-client"]
    lazy = rows["pooled-lazy"]
    ratio = naive["ttfb_us"]["p99"] / max(lazy["ttfb_us"]["p99"], 1e-9)
    lines.append(f"(pooling cuts p99 TTFB {ratio:.1f}x; Swift-style "
                 "shared QPs + lazy connect + doorbell-batched setup)")
    report("abl_conn_storm",
           "Ablation: connection storm, naive vs pooled control plane",
           lines)

    for label, blob in rows.items():
        assert blob["completed"] == CLIENTS, label
        assert blob["failures"] == 0, label
        assert blob["leaked_qps"] == 0, label
        assert blob["leaked_client_regions"] == 0, label
        assert blob["pool_totals"].get("demux_misroutes", 0) == 0, label
    # The tentpole claim: pooling + lazy connect beats naive per-client
    # QPs on tail TTFB, and amortizes registrations by >= 10x.
    assert lazy["ttfb_us"]["p99"] < naive["ttfb_us"]["p99"]
    assert lazy["mr_registrations"] * 10 <= naive["mr_registrations"]
    # The warm pool removes the handshake from the open path entirely:
    # its p99 must match the steady-state pooled p99 (no cold spike).
    warm = rows["pooled+warm"]
    assert warm["ttfb_us"]["p99"] <= rows["pooled"]["ttfb_us"]["p99"]
