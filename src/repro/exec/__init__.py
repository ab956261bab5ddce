"""Parallel sweep execution over independent measurement tasks.

``repro.exec`` turns the reproduction's configuration sweeps from
serial batch jobs into parallel ones (the Swift/elastic control-plane
framing from PAPERS.md): :class:`~repro.exec.runner.SweepRunner` fans
independent ``measure_config`` calls across a process pool with
deterministic per-task seeds and ordered result collection, falling
back to serial execution when only one worker is available.  Every run
measures: nothing is stored between processes.

See DESIGN.md ("Parallel sweep execution") for the worker model and the
determinism guarantees.
"""

from repro.exec.runner import SweepRunner, SweepTask, tasks_for

__all__ = ["SweepRunner", "SweepTask", "tasks_for"]
