"""Registry-backed runtime-health views.

Every stream runtime is a
:class:`~repro.stream.runtime.ShardedStreamRuntime` (a single feed is
one shard), and every stats consumer (``repro stream``, the replay
audit, the bench harness) reads one shape from **one** source:

* :func:`runtime_health` — the unified, schema-versioned health
  document: counters, per-stage latency summaries (from the shared
  registry when instrumentation is on), and one index row per shard;
* :func:`stage_latencies` — count/total/mean per tick stage out of the
  ``psp_tick_stage_seconds`` histogram.

The counters in the health document are also what the registry's
``psp_*_total`` instruments hold — ``tests/obs/test_stat_views.py``
asserts the two stay equal, which is the "one source" contract.  A
caller that needs only the index rows reads each shard index's
``segment_stats`` directly, which merges no registry.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.registry import Histogram, MetricsRegistry

#: Version stamp of the health-document shape.
HEALTH_SCHEMA_VERSION = 2


def stage_latencies(registry: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    """Per-stage timing summary from ``psp_tick_stage_seconds``.

    Returns ``{stage: {"count": n, "total_seconds": s, "mean_ms": m}}``
    for every stage the trace has recorded (plus a ``"tick"`` row from
    the whole-tick histogram), empty with a :class:`~repro.obs.registry.
    NullRegistry` or before the first instrumented tick.
    """
    out: Dict[str, Dict[str, float]] = {}
    collected = registry.collect()
    stage_hist = collected.get("psp_tick_stage_seconds")
    if isinstance(stage_hist, Histogram):
        for key, series in sorted(stage_hist.samples().items()):
            stage = key[stage_hist.labelnames.index("stage")]
            out[stage] = {
                "count": series.count,
                "total_seconds": series.sum,
                "mean_ms": (
                    series.sum / series.count * 1e3 if series.count else 0.0
                ),
            }
    tick_hist = collected.get("psp_tick_seconds")
    if isinstance(tick_hist, Histogram):
        for _, series in tick_hist.samples().items():
            out["tick"] = {
                "count": series.count,
                "total_seconds": series.sum,
                "mean_ms": (
                    series.sum / series.count * 1e3 if series.count else 0.0
                ),
            }
    return out


def runtime_health(runtime) -> Dict[str, object]:
    """The unified health document of a stream runtime, any shard count.

    Reads only the runtime's public surface (``ticks``, ``deltas``,
    ``evaluator``, ``filter_reports``, ``learned_keywords``,
    ``metrics``, ``executor`` and the per-shard ``cursors``,
    ``shard_deltas`` and ``shard_indexes``).
    """
    evaluator = runtime.evaluator
    return {
        "health_schema": HEALTH_SCHEMA_VERSION,
        "runtime": "sharded",
        "counters": {
            "ticks": len(runtime.ticks),
            # Observed, not indexed: also survives a restore from a lean
            # (include_index=False) checkpoint, where the index restarts
            # empty.
            "posts_ingested": runtime.deltas.observed_posts,
            "posts_rejected": sum(
                len(report.rejected) for report in runtime.filter_reports
            ),
            "retunes": evaluator.retunes,
            "forced_retunes": evaluator.forced_retunes,
            "tara_rescores": evaluator.rescores,
            "alerts": len(evaluator.alerts),
            "learned_keywords": list(runtime.learned_keywords),
        },
        "stages": stage_latencies(runtime.metrics),
        "shards": runtime.shard_count,
        "executor": getattr(runtime.executor, "kind", "unknown"),
        "cursors": list(runtime.cursors),
        "shard_stats": [
            {
                "shard": shard_id,
                "cursor": cursor,
                "posts": deltas.observed_posts,
                "index": index.segment_stats,
            }
            for shard_id, (cursor, deltas, index) in enumerate(
                zip(runtime.cursors, runtime.shard_deltas, runtime.shard_indexes)
            )
        ],
    }


def describe_stages(
    stages: Dict[str, Dict[str, float]], *, indent: str = "  "
) -> Optional[str]:
    """Human lines for a :func:`stage_latencies` result (None if empty)."""
    if not stages:
        return None
    order = [
        "shard_map",
        "shard_merge",
        "sai",
        "retune",
        "rescore",
        "alert_emit",
        "tick",
    ]
    names = [s for s in order if s in stages]
    names += [s for s in sorted(stages) if s not in order]
    width = max(len(name) for name in names)
    lines = [
        f"{indent}{name:<{width}}  x{int(stages[name]['count']):>6}  "
        f"mean {stages[name]['mean_ms']:8.3f} ms  "
        f"total {stages[name]['total_seconds']:8.3f} s"
        for name in names
    ]
    return "\n".join(lines)
