"""Table 2 / §5.2: the configuration space and its bounds.

Reproduces the variable bounds of Table 2 and the space-size arithmetic
of §5.2: for 8-byte records with C=30 client cores and a queue-depth
limit of 16, the space holds ~3M configurations; measuring each at one
minute would take "over five years", while the powers-of-two grid with
early termination needs ~1000 measurements (~15 hours)."""

from repro.core import config_space_size, max_batch_size
from repro.core.campaign import run_modeling_campaign
from repro.core.modeling import (OfflineModeler, make_analytic_measurer,
                                 make_testbed_measurer)
from repro.core.space import ConfigSpace
from repro.hardware import AZURE_HPC


def run_experiment():
    space = ConfigSpace(max_client_threads=30, record_size=8,
                        max_queue_depth=16)
    measurer = make_analytic_measurer(record_size=8, noise=0.03, seed=4)
    _model, stats = OfflineModeler(space, measurer).build()
    campaign = run_modeling_campaign(
        space, make_analytic_measurer(record_size=8, noise=0.03, seed=4))

    # §5.2 executed for real on a small slice of the space: the modeler
    # hands its grid to the sweep executor via the measurer's prefetch
    # hook, which batches the engine-backed measurements across the
    # worker pool.
    small_space = ConfigSpace(max_client_threads=4, record_size=256,
                              max_queue_depth=8)
    engine_measurer = make_testbed_measurer(
        record_size=256, seed=4, batches_per_connection=12,
        warmup_batches=3)
    _small_model, engine_stats = OfflineModeler(
        small_space, engine_measurer).build()
    return space, stats, campaign, engine_stats


def test_tab02_config_space(benchmark, report):
    space, stats, campaign, engine_stats = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1)
    lines = [
        "Table 2 bounds (8-byte records, HB60rs + ConnectX-5):",
        f"  c: 1 .. {space.max_client_threads}   (client cores)",
        f"  s: 0 .. c                     (server threads)",
        f"  b: 1 .. {space.max_batch}  = ceil(4KB / record size)",
        f"  q: {space.min_queue_depth} .. {space.max_queue_depth}"
        f"   (fully-loaded-QP floor .. NIC limit)",
        "",
        f"space size: {stats.space_size:,} configurations "
        f"(paper: ~3 M)",
        f"naive campaign at 1 min each: {stats.naive_campaign_years:.1f} "
        f"years (paper: over five years)",
        f"powers-of-two grid: {stats.grid_size} points; measured "
        f"{stats.measured}, early-terminated {stats.estimated} "
        f"(paper: ~1000 measurements)",
        f"campaign time: {stats.campaign_minutes / 60:.1f} hours "
        f"(paper: 15 hours)",
        f"Figure 9 protocol, simulated end to end: {campaign.measured} "
        f"measurements over {campaign.rpc_calls} RPCs in "
        f"{campaign.duration_hours:.1f} simulated hours "
        f"(paper's rate: ~1 min/measurement)",
        f"engine-backed slice via sweep executor: "
        f"{engine_stats.grid_size} grid points, measured "
        f"{engine_stats.measured}, early-terminated "
        f"{engine_stats.estimated}",
    ]
    report("tab02", "Table 2 / §5.2: configuration space", lines)
    assert campaign.measured == stats.measured
    assert campaign.duration_hours < 24
    # The batched engine slice walks its whole grid.
    assert engine_stats.measured > 0
    assert engine_stats.measured + engine_stats.estimated \
        == engine_stats.grid_size

    assert stats.space_size == 3_095_430
    assert max_batch_size(8) == 512
    assert stats.naive_campaign_years > 5.0
    assert stats.measured <= 1000
    assert stats.campaign_minutes / 60 < 24
    # The closed form matches the generic helper.
    assert stats.space_size == config_space_size(30, 512, 16)
