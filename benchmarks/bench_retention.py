"""S10 — tiered retention (hot/warm/cold) vs the same index without it.

The long-horizon always-on workload: a multi-year sharded stream
replayed twice through :class:`~repro.stream.sharding.
ShardedStreamRuntime`.  Without retention knobs (the "flat" phase) the
index keeps the whole corpus in one warm span whose consolidations —
and interner pool and arena — grow with stream age, so its
steady-state tick latency and resident footprint climb for the life of
the monitor.  The tiered engine (:mod:`repro.stream.tiers`) seals the
hot tail into date-bounded warm segments, decays warm segments past the
age horizon into immutable cold segments carrying precomputed
per-keyword aggregate sidecars, and prunes the interner pool to the
hot+warm working set — steady-state tick cost and RSS stay bounded by
the retention window, not the stream's age.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_retention.py -q

The workload profile comes from ``$S10_PROFILE`` (``full`` | ``smoke``,
default ``full``).  The full profile is the acceptance run: a 5-year
1.87M-post stream, a >= 5x steady-state tick-latency gate and a <= 0.5x
peak-RSS ratio against the flat phase.  The smoke profile is the CI
run: same kernels and equivalence checks on a 5-year 467k-post stream,
gated at the proportionally lower floors its smaller corpus can show
(the flat side's per-tick consolidation cost grows with corpus size,
so a small stream understates the acceptance gap).

Equivalence is twofold: both phases must raise identical alert
sequences and finish on the identical SAI table, and a tiered sharded
``replay_scenario`` audit must hold parity (plus checkpoint resume and
bounded memory) against the paper's batch monitor.

``test_s10_retention_latency_rss_and_equivalence`` writes
``BENCH_retention.json`` (see docs/BENCHMARKS.md for the schema).
"""

import os

from repro.analysis.benchjson import load_bench_result
from repro.analysis.benchkit import (
    S10_PROFILES,
    S10_RSS_RATIO_BUDGET,
    run_retention_bench,
)

PROFILE = os.environ.get("S10_PROFILE", "full")

#: Steady-state tick-latency gate per profile (flat mean over tiered
#: mean, final 20% of ticks).  ``full`` is the acceptance claim;
#: ``smoke`` gates the floor a 467k-post stream can demonstrate.
GATES = {"full": 5.0, "smoke": 1.4}


def test_s10_retention_latency_rss_and_equivalence(bench_report):
    result = run_retention_bench(profile=PROFILE)
    path = bench_report(result)
    payload = load_bench_result(path)
    print("\nS10 summary: " + str(payload))

    assert result.equivalent, (
        "tiered phase diverged from the flat phase or the batch-monitor "
        "replay audit failed"
    )
    assert result.speedup >= GATES[PROFILE], payload
    extra = payload["extra"]
    assert extra["phase_alert_parity"], extra
    assert extra["replay_ok"], extra
    assert extra["rss_within_budget"], extra
    assert extra["rss_ratio_budget"] == S10_RSS_RATIO_BUDGET[PROFILE]
    assert extra["tiered_segments"]["layout"] == "tiered"
    assert extra["tiered_segments"]["cold_seals"] > 0
    assert "peak_rss_kb" in extra  # the writer's satellite-wide stamp
    dims = S10_PROFILES[PROFILE]
    expected_posts = dims["years"] * 365 * dims["posts_per_day"]
    assert payload["workload"]["posts"] == expected_posts
    assert payload["workload"]["profile"] == PROFILE
    assert payload["bench"] == "retention"
