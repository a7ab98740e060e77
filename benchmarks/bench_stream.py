"""S7 — one streaming tick vs full rebuild + full pipeline re-run.

The continuous-operation workload: a corpus has been analysed, and a
micro-batch of new posts arrives.  The pre-stream reaction (the
monitor's grow-window behaviour) rebuilds the corpus and its columnar
index from scratch and re-runs the whole query→sai→split→tune pipeline
— O(corpus) per tick.  The streaming runtime
(:mod:`repro.stream.runtime`) appends the batch to the delta-segment
index, folds it into the running per-keyword aggregates and re-tunes
only when a dirty keyword is insider-classified — O(new posts).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_stream.py -q

``test_stream_tick_speedup_and_equivalence`` asserts a >= 10x speedup
on the incremental tick, post-for-post index equivalence with a
from-scratch rebuild, identical insider tables/SAI rows, and writes
``BENCH_stream.json`` (see docs/BENCHMARKS.md for the schema).
"""

import pytest

from repro.analysis.benchjson import load_bench_result
from repro.analysis.benchkit import (
    fleet_workload,
    rebuild_and_rerun_pass,
    run_stream_bench,
)
from repro.core.config import TargetApplication
from repro.core.timewindow import TimeWindow
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime

TICK_POSTS = 150


@pytest.fixture(scope="module")
def workload():
    return fleet_workload(years=tuple(range(2012, 2024)))


def test_s7_naive_rebuild_rerun(benchmark, workload):
    posts = sorted(workload.corpus.posts, key=lambda p: (p.created_at, p.post_id))
    target = TargetApplication("fleet_member", "europe", "fleet")

    def run():
        return rebuild_and_rerun_pass(
            posts, workload.database, target, TimeWindow.full_history()
        )

    sai, table = benchmark(run)
    print(f"\nS7 — full rebuild + pipeline re-run: {len(posts)} posts, "
          f"{len(workload.database)} keywords")
    assert len(sai) == len(workload.database)


def test_s7_stream_tick(benchmark, workload):
    posts = sorted(workload.corpus.posts, key=lambda p: (p.created_at, p.post_id))
    target = TargetApplication("fleet_member", "europe", "fleet")
    head = len(posts) - TICK_POSTS

    feed = SyntheticFeed(posts)
    runtime = StreamRuntime(feed, workload.database, target=target)
    runtime.ingest(feed.events_after(-1, limit=head))
    tail_events = feed.events_after(runtime.cursor)

    # benchmark.pedantic: a tick consumes its events, so re-ingesting is
    # a duplicate-id error by design — run the timed kernel exactly once.
    tick = benchmark.pedantic(
        runtime.ingest, args=(tail_events,), iterations=1, rounds=1
    )
    print(f"\nS7 — streaming tick: +{tick.accepted} posts, "
          f"{len(tick.dirty)} dirty keywords, retuned={tick.retuned}")
    assert tick.accepted == TICK_POSTS


def test_stream_tick_speedup_and_equivalence(workload, bench_report):
    result = run_stream_bench(workload=workload, tick_posts=TICK_POSTS)
    path = bench_report(result)
    payload = load_bench_result(path)
    print("\nS7 summary: " + str(payload))

    assert result.equivalent, (
        "streamed index/table/SAI diverged from the full rebuild"
    )
    # The acceptance gate: an incremental tick must beat the full
    # rebuild + full pipeline re-run >= 10x (typical margin is ~15-25x).
    assert result.speedup >= 10.0, payload
    assert payload["bench"] == "stream"
    assert payload["extra"]["retuned"] is True
