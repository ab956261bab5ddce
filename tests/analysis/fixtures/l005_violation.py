"""Lint fixture: L005 acquire without finally-protected release (3 findings)."""


def direct(env, window, router):
    yield window.acquire()
    yield router.read(1)
    window.release()


class Tier:
    def request(self, env, tenant):
        yield from self._acquire_slot(tenant)
        yield env.timeout(1.0)
        self._release_slot(tenant)

    def _acquire_slot(self, tenant):
        yield tenant.slots.acquire()

    def _release_slot(self, tenant):
        tenant.slots.release()


def guarded(env, cpu):
    # A non-blocking grant holds the slot on its True arm: a failure of
    # the charge leaves it held.
    if cpu.try_acquire():
        yield env.timeout(1.0)
        cpu.release()
