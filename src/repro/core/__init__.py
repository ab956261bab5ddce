"""Redy: the paper's primary contribution.

Layout (bottom to top):

* :mod:`repro.core.config` -- RDMA configurations, SLOs, Table 2 bounds.
* :mod:`repro.core.latency` -- the analytic data-path performance model.
* :mod:`repro.core.engine` -- the executable data path on the simulated
  fabric (ring buffers, batching, queue pairs, server threads).
* :mod:`repro.core.space` / :mod:`repro.core.modeling` /
  :mod:`repro.core.search` -- the five-level configuration tree, offline
  modeling with interpolation + early termination, and the Figure 10
  online SLO search.
* :mod:`repro.core.regions` / :mod:`repro.core.server` /
  :mod:`repro.core.client` / :mod:`repro.core.manager` -- the cache
  service itself (Table 1 API).
* :mod:`repro.core.migration` -- region migration with unpaused reads and
  pause-on-migration writes.
"""

from repro.core.config import (
    ConfigurationError,
    PerfPoint,
    RdmaConfig,
    Slo,
    config_space_size,
    max_batch_size,
    MIN_QUEUE_DEPTH_OPTIMIZED,
)
from repro.core.client import (
    CacheDeletedError,
    CacheIoResult,
    RedyCache,
    RedyClient,
)
from repro.core.manager import (
    CacheAllocation,
    CacheManager,
    SloUnsatisfiableError,
)
from repro.core.migration import MigrationPolicy

__all__ = [
    "CacheAllocation",
    "CacheDeletedError",
    "CacheIoResult",
    "CacheManager",
    "ConfigurationError",
    "MIN_QUEUE_DEPTH_OPTIMIZED",
    "MigrationPolicy",
    "PerfPoint",
    "RdmaConfig",
    "RedyCache",
    "RedyClient",
    "Slo",
    "SloUnsatisfiableError",
    "config_space_size",
    "max_batch_size",
]
