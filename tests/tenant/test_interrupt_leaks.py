"""Exception-path leak regressions in the serving tier.

These tests pin the one resource ``TenantTier._request`` holds across a
suspension point: the admission reservation a DELAY verdict takes,
released after the reservation sleep.  A request that left through an
exception must not keep it, or the tenant's admission capacity shrinks
for good.  A yield raises when the event it waits on fails, so the
``try``/``finally`` around the sleep must still run.
"""

import pytest

from repro.tenant.admission import DELAY

from .test_tier import make_tier, spec


def _drive(env, gen):
    """Run a request generator inside a wrapper that absorbs the
    test's injected failure, so the process ends cleanly."""
    def wrapper(env):
        try:
            yield from gen
        except RuntimeError:
            pass
    return env.process(wrapper(env))


class TestAdmissionReservation:
    def test_uninterrupted_delay_still_releases_exactly_once(self):
        harness, _, _, tier = make_tier()
        env = harness.env
        tenant = tier.register(spec("t", rate_per_s=10.0, burst=1.0))
        tenant.admission.admit()
        verdict, wait = tenant.admission.admit()
        done = env.event()
        _drive(env, tier._request(tenant, True, 0, 64, None, done,
                                  verdict, wait))
        env.run()
        assert tenant.admission.queued == 0

    def test_failed_delay_sleep_still_releases_the_reservation(self):
        harness, _, _, tier = make_tier()
        tenant = tier.register(spec("t", rate_per_s=10.0, burst=1.0))
        tenant.admission.admit()
        verdict, wait = tenant.admission.admit()
        assert verdict == DELAY and tenant.admission.queued == 1
        gen = tier._request(tenant, True, 0, 64, None, harness.env.event(),
                            verdict, wait)
        next(gen)  # suspended on the reservation sleep
        # The kernel throws a failed event into the waiting process.
        with pytest.raises(RuntimeError):
            gen.throw(RuntimeError("sleep failed"))
        assert tenant.admission.queued == 0
