"""A seeded workload broken on purpose by leaked module-global state.

The leak works the way a forgotten global cache would: every run after
the first schedules differently and draws extra values from its RNG
stream, so any harness that runs it twice from one seed must report a
divergence attributed to the ``demo`` stream.  Reset :data:`LEAK`
before each use.
"""

from repro.gates import Scenario
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

LEAK = {"runs": 0}


def demo_nondet(seed: int) -> dict:
    """A seeded workload broken by leaked module-global state (demo)."""
    LEAK["runs"] += 1
    leak = LEAK["runs"]
    env = Environment()
    rng = RngRegistry(seed).stream("demo")

    def worker():
        for _ in range(3):
            yield env.timeout(rng.random() * 1e-3)
            if leak > 1:  # the leaked state perturbs later runs only
                rng.random()
                yield env.timeout(1e-6 * leak)

    env.process(worker(), name="demo")
    env.run()
    return {}


#: The demo as a gate entry: no invariants, so only the replay check
#: can fail it.
DEMO = Scenario(demo_nondet, lambda blob: [])
