"""Unified telemetry for the streaming stack (``repro.obs``).

Zero-dependency observability: every runtime layer writes into one
:class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms
with labels), stage timings come from the :class:`TickTrace` span
recorder, and three exporters read the result — Prometheus text
exposition, a schema-versioned JSON snapshot (embedded in checkpoints
and bench records), and the human ``repro stats`` table.

Instrumentation is opt-in: constructing a runtime without ``metrics=``
wires the :class:`NullRegistry` no-op path, whose overhead the
``obs_overhead`` microbench bounds at ≤3% tick latency *with the full
registry enabled* (the null path is free).  Per-shard child registries
merge into their parent by pure summation — the metric-space mirror of
``SignalDelta.merge`` — so sharded totals equal the single-runtime
totals for the same events (property-tested in
``tests/properties/test_metrics_merge.py``).

See ``docs/OBSERVABILITY.md`` for the instrument catalog and label
conventions.
"""

from repro.obs.export import (
    json_snapshot,
    lint_prometheus,
    prometheus_text,
    stats_table,
    write_snapshot,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    OBS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    ensure_registry,
)
from repro.obs.trace import NULL_TRACE, Span, TickTrace, trace_for
from repro.obs.views import (
    HEALTH_SCHEMA_VERSION,
    describe_stages,
    runtime_health,
    stage_latencies,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "HEALTH_SCHEMA_VERSION",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACE",
    "NullRegistry",
    "OBS_SCHEMA_VERSION",
    "Span",
    "TickTrace",
    "describe_stages",
    "ensure_registry",
    "json_snapshot",
    "lint_prometheus",
    "prometheus_text",
    "runtime_health",
    "stage_latencies",
    "stats_table",
    "trace_for",
    "write_snapshot",
]
