"""Per-component random-number streams.

Every stochastic component (trace generator, SSD tail model, measurement
noise, workload key-choosers) draws from its own named stream so that
adding randomness to one component never perturbs another.  Streams are
derived from a single root seed with ``numpy``'s SeedSequence spawning,
which guarantees independence.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory of named, reproducible ``numpy`` generators.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("ssd")
    >>> b = rngs.stream("ssd")     # same name -> same stream object
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            # Derive a child seed from (root, name) deterministically:
            # hash the name into entropy so stream identity is stable
            # regardless of creation order.
            name_entropy = [ord(ch) for ch in name]
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=tuple(name_entropy))
            self._streams[name] = np.random.Generator(np.random.PCG64(child))
        return self._streams[name]
