"""Exception-path leak regressions in the serving tier.

These tests pin two resources ``TenantTier._request`` holds across a
suspension point: the admission reservation a DELAY verdict takes
(released after the reservation sleep) and the WRR in-flight slot
(released after the router I/O).  A request that left through an
exception used to keep its slot, permanently shrinking the tier's
capacity.  A yield raises when the event it waits on fails, so every
``try``/``finally`` around a suspension point must still run.
"""

import pytest

from repro.sim import US
from repro.tenant.admission import ADMIT, DELAY

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


class TestInflightSlot:
    def test_failed_router_io_releases_the_wrr_slot(self):
        harness, _, _, tier = make_tier()
        env = harness.env
        tenant = tier.register(spec("t"))
        doomed = env.event()

        def failing_read_io(*_args, **_kwargs):
            yield doomed
        tier.router.read_io = failing_read_io

        done = env.event()
        proc = _drive(env, tier._request(tenant, True, 0, 64, None, done,
                                         ADMIT, 0.0))

        def failer(env):
            yield env.timeout(2 * US)
            assert tier._inflight == 1
            doomed.fail(RuntimeError("region lost"))
        env.process(failer(env))
        env.run()

        assert not proc.is_alive
        # The failure landed mid-I/O: the request never completed.
        assert not done.triggered
        # Pre-fix the slot leaked: _inflight stayed 1 and the tenant's
        # max_inflight budget shrank by one forever.
        assert tier._inflight == 0
        assert tenant.inflight == 0

    def test_completed_request_frees_the_slot_too(self):
        harness, _, _, tier = make_tier()
        env = harness.env
        tenant = tier.register(spec("t"))
        tier.load("t", 0, b"\x07" * 64)
        done = tier.read("t", 0, 64)
        result = env.run_process(_await(env, done))
        assert result.ok
        assert tier._inflight == 0
        assert tenant.inflight == 0


def _await(env, event):
    def proc(env):
        result = yield event
        return result
    return proc(env)
