"""Fixtures shared across the suite."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.sanitize import (DispatchOrder, tracked_resources,
                                     unbalanced)
from repro.sim import Environment

pytest_plugins = ["pytester"]

#: What :func:`under_hash_seed` runs in its child interpreter.
_RECORD_IN_CHILD = (
    "import importlib, json, sys\n"
    "from repro.analysis.sanitize import _record, trace_digest\n"
    "module, name = sys.argv[1].split(':')\n"
    "workload = getattr(importlib.import_module(module), name)\n"
    "recorder, result = _record(workload, int(sys.argv[2]))\n"
    "print(json.dumps([trace_digest(recorder.entries), result]))\n")


def under_hash_seed(hash_seed, workload, seed):
    """Record ``workload(seed)`` (``"module:function"``) in a fresh
    interpreter under ``PYTHONHASHSEED=hash_seed``; returns its trace
    digest and its JSON-able result.  Two hash seeds under which a
    ``set`` iterates in two orders test that a run does not follow
    that order."""
    done = subprocess.run(
        [sys.executable, "-c", _RECORD_IN_CHILD, workload, str(seed)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": hash_seed,
             "PYTHONPATH": os.pathsep.join(sys.path)})
    return json.loads(done.stdout.splitlines()[-1])


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "holds_resource(reason): the test ends holding a Resource slot or "
        "waiter on purpose, so the resource-balance check skips it")


@pytest.fixture(autouse=True)
def resource_balance(request):
    """Fail a test that ends with a Resource not idle (a slot held or a
    process queued), naming where the Resource was built.  A test that
    holds one on purpose says why with ``@pytest.mark.holds_resource``."""
    with tracked_resources() as built:
        yield
    if request.node.get_closest_marker("holds_resource") is None:
        lines = unbalanced(built)
        if lines:
            pytest.fail("\n".join(lines), pytrace=False)


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
