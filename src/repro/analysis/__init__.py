"""The replay sanitizer behind ``python -m repro gate``.

:mod:`repro.analysis.sanitize` runs a workload twice from one seed
while recording every kernel scheduling action and every RNG draw,
and bisects the first diverging kernel event.  Its recorder also
checks every dispatch against a reference ``(when, insertion)`` heap
and names every sim ``Resource`` a run leaves holding a slot or a
waiter, and :func:`~repro.analysis.sanitize.hash_seed_runs` records
workloads once more in a fresh interpreter under another
``PYTHONHASHSEED``.  :mod:`repro.gates` runs every registered scenario
through all three; tier-1 runs the same balance check on every test.

Determinism is checked by running, not by reading source: a wall-clock
read, an unseeded draw or a hash-ordered iteration that reaches the
schedule or a result makes two runs differ.
"""

from repro.analysis.sanitize import DivergenceReport, sanitize

__all__ = ["DivergenceReport", "sanitize"]
