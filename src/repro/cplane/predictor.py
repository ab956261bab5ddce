"""Warm-pool sizing from observed session-open traffic.

Pre-connecting QPs ahead of demand only pays if the pool knows how much
demand is coming.  The predictor watches session-open arrivals and
keeps an exponentially weighted estimate of the arrival rate; the warm
target is then Little's law over the connect path: with sessions
arriving at ``rate`` per second and establishment taking
``establish_latency`` seconds, ``rate * latency`` connects are in
flight at steady state, so that many pre-connected QPs (times a safety
factor) absorb a burst without a handshake on the critical path.

Deterministic: state is a pure function of the ``observe()`` call times
-- no wall clock, no randomness.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["WarmPoolPredictor"]

#: EWMA weight of the newest instantaneous arrival rate.
_ALPHA = 0.3
#: Factor on the Little's-law in-flight connects the warm target holds.
_SAFETY = 2.0
#: Most warm QPs the target asks for.
_MAX_WARM = 64


class WarmPoolPredictor:
    """EWMA arrival-rate estimator feeding the warm-pool target."""

    __slots__ = ("observations", "_rate", "_last", "_coincident")

    def __init__(self):
        self.observations = 0
        self._rate: Optional[float] = None
        self._last: Optional[float] = None
        #: Arrivals at exactly the same instant as the last one (batch
        #: arrivals in a discrete-event schedule); folded into the next
        #: nonzero interval's instantaneous rate.
        self._coincident = 0

    @property
    def rate_per_s(self) -> float:
        """Current smoothed arrival-rate estimate (0.0 before data)."""
        return self._rate if self._rate is not None else 0.0

    def observe(self, now: float) -> None:
        """Record one arrival at simulated time ``now``."""
        self.observations += 1
        last = self._last
        if last is None:
            self._last = now
            return
        dt = now - last
        if dt <= 0.0:
            self._coincident += 1
            return
        arrivals = 1 + self._coincident
        self._coincident = 0
        self._last = now
        instantaneous = arrivals / dt
        if self._rate is None:
            self._rate = instantaneous
        else:
            self._rate += _ALPHA * (instantaneous - self._rate)

    def target_warm(self, establish_latency_s: float) -> int:
        """Warm QPs to hold ready given the connect-path latency."""
        if establish_latency_s < 0:
            raise ValueError("establish_latency_s must be >= 0")
        in_flight = self.rate_per_s * establish_latency_s * _SAFETY
        return min(_MAX_WARM, int(math.ceil(in_flight)))
