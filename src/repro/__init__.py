"""redy-repro: a full Python reproduction of Redy (VLDB 2021).

Redy is a cloud cache service over RDMA-accessible remote memory with
SLO-driven configuration, stranded-memory economics, and live region
migration.  This package reimplements the complete system -- and every
substrate its evaluation depends on -- on a calibrated discrete-event
simulated testbed:

* :mod:`repro.sim` -- the discrete-event kernel;
* :mod:`repro.hardware` -- calibrated NIC/CPU/SSD/fabric cost profiles;
* :mod:`repro.net` -- the RDMA model (verbs, queue pairs);
* :mod:`repro.cluster` -- VM allocation, spot markets, reclamation,
  synthetic cluster traces, stranded-memory analysis;
* :mod:`repro.core` -- Redy itself: the data path, the configuration
  space and SLO search, the cache manager/client/server, migration,
  replication, and the cost/preemption optimizers;
* :mod:`repro.faster` -- a FASTER-style key-value store with tiered
  storage devices (the paper's §8 integration);
* :mod:`repro.workloads` -- YCSB workloads and ready-made scenarios.

Start with ``examples/quickstart.py`` or
:func:`repro.workloads.scenarios.build_cluster`.
"""

__version__ = "1.0.0"
