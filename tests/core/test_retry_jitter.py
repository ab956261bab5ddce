"""The retry backoff schedule: doubling from the base, then capped, and
the same on every run (no draw from any stream)."""

from repro.core.client import RetryPolicy


def test_backoff_without_rng_is_the_deterministic_cap():
    policy = RetryPolicy(max_attempts=5, base_backoff_s=1e-4,
                         max_backoff_s=4e-4)
    assert policy.backoff_s(1) == 1e-4
    assert policy.backoff_s(2) == 2e-4
    assert policy.backoff_s(3) == 4e-4
    assert policy.backoff_s(4) == 4e-4  # capped
