"""Lint fixture: L005 clean -- releases are finally-protected."""


def direct(env, window, router):
    yield window.acquire()
    try:
        yield router.read(1)
    finally:
        window.release()


class Tier:
    def request(self, env, tenant):
        yield from self._acquire_slot(tenant)
        try:
            yield env.timeout(1.0)
        finally:
            self._release_slot(tenant)

    def _acquire_slot(self, tenant):
        yield tenant.slots.acquire()

    def _release_slot(self, tenant):
        tenant.slots.release()


def flat(env, cpu):
    if not cpu.try_acquire():
        yield cpu.acquire()
    try:
        yield env.timeout(1.0)
    finally:
        cpu.release()


def guarded(env, cpu):
    if cpu.try_acquire():
        try:
            yield env.timeout(1.0)
        finally:
            cpu.release()
