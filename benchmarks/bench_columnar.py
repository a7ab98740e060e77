"""S9 — columnar arena ingest vs the per-object delta-segment append path.

The 10M+-corpus ingest workload: a synthetic date-ordered stream lands
in micro-batches on an appendable index.  The pre-columnar reaction
(the PR-6 :class:`StreamingCorpusIndex`, replicated verbatim in
:mod:`repro.analysis._legacy_index`) keeps per-post ``Post`` /
``PostAnalysis`` object lists and three dict posting maps, and every
1024-post compaction rebuilds all of them over the whole corpus —
O(N^2/threshold) ingest.  The columnar engine
(:mod:`repro.social.columnar`) appends into parallel ``array`` columns
and one joined haystack arena (the arena sweep is its one matcher, so it
builds no postings), and its geometric compactions concatenate arrays at
C speed — O(N) ingest.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_columnar.py -q

The workload profile comes from ``$S9_PROFILE`` (``full`` | ``smoke``,
default ``full``).  The full profile is the acceptance run: 1M+ posts,
a >= 10x ingest-throughput gate (typical margin is ~20-30x) and a
peak-RSS budget.  The smoke profile is the CI run: same kernels,
equivalence and RSS checks at a fraction of the wall time, gated at the
proportionally lower floor its smaller naive sample can show (the
legacy path's per-post cost grows with corpus size, so a 32k-post
sample understates the 1M-post gap by ~8x).

``test_s9_columnar_ingest_speedup_and_equivalence`` writes
``BENCH_columnar.json`` (see docs/BENCHMARKS.md for the schema).
"""

import os

from repro.analysis.benchjson import load_bench_result
from repro.analysis.benchkit import (
    S9_PROFILES,
    S9_RSS_BUDGET_KB,
    run_columnar_bench,
)

PROFILE = os.environ.get("S9_PROFILE", "full")

#: Ingest-throughput gate per profile (engine posts/s over naive
#: posts/s).  ``full`` is the paper-scale acceptance claim; ``smoke``
#: gates the floor a 32k-post naive sample can demonstrate.
GATES = {"full": 10.0, "smoke": 2.5}


def test_s9_columnar_ingest_speedup_and_equivalence(bench_report):
    result = run_columnar_bench(profile=PROFILE)
    path = bench_report(result)
    payload = load_bench_result(path)
    print("\nS9 summary: " + str(payload))

    assert result.equivalent, (
        "columnar index diverged from the per-object reference on the "
        "out-of-order streamed sample"
    )
    assert result.speedup >= GATES[PROFILE], payload
    extra = payload["extra"]
    assert extra["rss_within_budget"], extra
    assert extra["peak_rss_budget_kb"] == S9_RSS_BUDGET_KB[PROFILE]
    assert "peak_rss_kb" in extra  # the writer's satellite-wide stamp
    assert payload["workload"]["posts"] == S9_PROFILES[PROFILE]["engine_posts"]
    assert payload["bench"] == "columnar"
