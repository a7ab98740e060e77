"""S11 — telemetry overhead: instrumented ticks vs the NullRegistry path.

The unified telemetry layer (:mod:`repro.obs`) promises "free when off,
cheap when on": every streaming hot path defaults to the no-op
:class:`~repro.obs.registry.NullRegistry`, and enabling a full
:class:`~repro.obs.registry.MetricsRegistry` — counters, gauges,
histograms *and* per-stage span tracing on every tick — must cost at
most :data:`~repro.analysis.benchkit.OBS_OVERHEAD_BUDGET_PCT` percent
of tick latency.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q

``test_obs_overhead_gate`` drives the identical fleet-scale feed
through identical runtimes with and without a live registry (pairs of
one run per side ticked in lockstep, the order alternating tick by
tick; the overhead is the median of the per-pair ratios), asserts the
instrumented run stays within the overhead budget, that both runs
produce identical tables/SAI/counters (the instrumentation is purely
observational), that the registry's counters agree with the runtime
health document's, and writes ``BENCH_obs_overhead.json``.
"""

from repro.analysis.benchjson import load_bench_result
from repro.analysis.benchkit import (
    OBS_OVERHEAD_BUDGET_PCT,
    run_obs_overhead_bench,
)
from repro.obs.export import lint_prometheus, prometheus_text
from repro.obs.registry import MetricsRegistry


def test_obs_overhead_gate(bench_report):
    result = run_obs_overhead_bench()
    path = bench_report(result)
    payload = load_bench_result(path)
    print("\nS11 summary: " + str(payload))

    assert result.equivalent, (
        "instrumented run diverged from the NullRegistry run — the "
        "telemetry layer must be purely observational"
    )
    extra = payload["extra"]
    assert extra["registry_matches_health_counters"] is True
    # The acceptance gate: full instrumentation costs <= 3% tick latency.
    assert extra["overhead_pct"] <= OBS_OVERHEAD_BUDGET_PCT, payload
    assert extra["within_budget"] is True, payload
    # The embedded snapshot restores into a registry whose Prometheus
    # exposition parses cleanly — the artifact CI uploads is well-formed.
    restored = MetricsRegistry()
    restored.restore(extra["metrics"])
    problems = lint_prometheus(prometheus_text(restored))
    assert problems == [], problems
