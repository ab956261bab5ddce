"""The control plane's append-only decision log.

Every control-plane action -- session open/close, QP create, establish,
reclaim, warm-pool resize, harvest -- is recorded with its simulated
timestamp.  Like the fault log it imitates, the log is the subsystem's
determinism contract: same seed, bit-identical log, checkable in one
:meth:`CplaneLog.digest` comparison (canonical JSON lines, sorted keys,
``repr``-exact floats).
"""

from __future__ import annotations

from repro.faults.log import FaultEvent, FaultLog

__all__ = ["CplaneEvent", "CplaneLog"]

#: One control-plane action at one simulated instant (same canonical
#: shape as a fault event: time, kind, target, detail).
CplaneEvent = FaultEvent


class CplaneLog(FaultLog):
    """Append-only record of everything the control plane decided.

    Event kinds in use: ``session.open``, ``session.close``,
    ``qp.create``, ``qp.establish``, ``qp.reclaim``, ``mr.register``,
    ``warm.target``, ``harvest``, ``storm.rebalance``.  The storm
    blob carries the log's :meth:`digest`, so the ``connstorm`` gate
    entry compares whole logs across its two event-loop runs.
    """
