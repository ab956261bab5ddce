"""Fixtures shared across the suite."""

import pytest

from repro.analysis.sanitize import DispatchOrder
from repro.sim import Environment


@pytest.fixture
def make_env(request):
    """Environment factory for kernel tests run two ways.

    Parametrize indirectly --
    ``@pytest.mark.parametrize("make_env", ["calendar", "heap"],
    indirect=True)`` -- and build every Environment of the test with
    ``make_env()``.  ``"calendar"`` runs the bare event loop.  ``"heap"``
    attaches a :class:`DispatchOrder`, whose reference heap must agree
    with every dispatch (checked at teardown); the run itself must not
    notice, so the test's own assertions hold unchanged.
    """
    recorders = []

    def make():
        env = Environment()
        if request.param == "heap":
            env.monitor = DispatchOrder()
            recorders.append(env.monitor)
        return env

    yield make
    for recorder in recorders:
        assert not recorder.mismatches, recorder.first_mismatch
