"""JSON export of a run's metrics.

The exported blob is the contract between the simulator and the
benchmark trajectory: every bench run writes a ``BENCH_<id>.json`` next
to its ``.txt`` table so that regressions in op latency (p50/p99
histograms) and throughput (counters over measured duration) are
machine-diffable across PRs.  Schema::

    {
      "schema": "repro.obs/v1",
      "name": "<run id>",
      "sim_now": <simulated seconds at snapshot>,
      "event_loop": {"steps": ..., "events": ..., "immediate_calls": ...,
                     "process_failures": ..., "pending": ...},  # when env given
      "metrics": {"<dotted.name>": {"type": ..., ...}, ...},
      "extra": {...}                                      # caller context
    }
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["SCHEMA", "snapshot", "to_json", "write_json", "format_table"]

SCHEMA = "repro.obs/v1"


def _jsonable(value: Any) -> Any:
    """Replace the infinities empty histograms carry with None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def snapshot(registry: MetricsRegistry, *, name: str = "",
             env=None,
             extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One self-describing dict of everything the run measured."""
    blob: Dict[str, Any] = {
        "schema": SCHEMA,
        "name": name,
        "metrics": registry.snapshot(),
    }
    if env is not None:
        blob["sim_now"] = env.now
        blob["event_loop"] = env.event_loop_stats()
    if extra:
        blob["extra"] = extra
    return _jsonable(blob)


def to_json(registry: MetricsRegistry, *, name: str = "", env=None,
            extra: Optional[Dict[str, Any]] = None, indent: int = 2) -> str:
    return json.dumps(
        snapshot(registry, name=name, env=env, extra=extra),
        indent=indent, sort_keys=True)


def write_json(path, registry: MetricsRegistry, *, name: str = "",
               env=None,
               extra: Optional[Dict[str, Any]] = None) -> pathlib.Path:
    """Write the snapshot to ``path`` and return it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(registry, name=name or path.stem, env=env,
                            extra=extra) + "\n")
    return path


def _si(value: float) -> str:
    """Seconds with a readable unit (metrics are overwhelmingly times)."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e9:
        return f"{value:.3g}"
    if magnitude >= 1:
        return f"{value:.4g}"
    if magnitude >= 1e-3:
        return f"{value * 1e3:.4g}m"
    if magnitude >= 1e-6:
        return f"{value * 1e6:.4g}u"
    return f"{value * 1e9:.4g}n"


def format_table(blob: Dict[str, Any]) -> str:
    """Human view of a snapshot for the ``python -m repro metrics`` CLI."""
    lines = [f"{'metric':<44} {'type':<9} value"]
    for name, metric in sorted(blob.get("metrics", {}).items()):
        kind = metric.get("type", "?")
        if kind == "histogram":
            value = (f"n={metric['count']} mean={_si(metric['mean'])} "
                     f"p50={_si(metric['p50'])} p99={_si(metric['p99'])}")
        elif kind == "gauge":
            value = f"{_si(metric['value'])} (max {_si(metric['max'])})"
        else:
            value = _si(metric["value"])
        lines.append(f"{name:<44} {kind:<9} {value}")
    loop = blob.get("event_loop")
    if loop:
        lines.append("")
        lines.append("event loop: " + "  ".join(
            f"{key}={value}" for key, value in sorted(loop.items())))
    if "sim_now" in blob:
        lines.append(f"simulated time: {blob['sim_now']:.6f}s")
    return "\n".join(lines)
