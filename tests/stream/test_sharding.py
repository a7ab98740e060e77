"""Tests for the sharded streaming runtime and its merge step."""

import datetime as dt

import pytest

from repro.core.config import TargetApplication
from repro.core.errors import PSPError
from repro.core.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.core.monitor import PSPMonitor
from repro.core.poisoning import PostAuthenticityFilter
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social import ecm_reprogramming_corpus
from repro.stream.deltas import DeltaTracker
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime
from repro.stream.sharding import (
    ShardedStreamRuntime,
    merge_signals,
    partition_posts,
    shard_feeds,
)
from tests.conftest import build_ecm_database

ECM_TARGET = TargetApplication("car", "europe", "passenger")


def _posts():
    return list(ecm_reprogramming_corpus().posts)


def _single_runtime(**kwargs):
    return StreamRuntime(
        SyntheticFeed(_posts()),
        build_ecm_database(),
        target=ECM_TARGET,
        since_year=2015,
        **kwargs,
    )


def _sharded_runtime(shards=3, **kwargs):
    return ShardedStreamRuntime(
        shard_feeds(_posts(), shards),
        build_ecm_database(),
        target=ECM_TARGET,
        since_year=2015,
        **kwargs,
    )


def _advance_years(runtime, first=2018, last=2023):
    for year in range(first, last + 1):
        runtime.advance_to(dt.date(year, 12, 31), upto_year=year)
    return runtime


def _alert_keys(runtime):
    return [(a.upto_year, a.changes) for a in runtime.alerts]


class TestPartitioning:
    def test_partitions_are_disjoint_and_complete(self):
        posts = _posts()
        partitions = partition_posts(posts, 4)
        assert len(partitions) == 4
        ids = [p.post_id for part in partitions for p in part]
        assert sorted(ids) == sorted(p.post_id for p in posts)

    def test_partitioning_is_deterministic(self):
        posts = _posts()
        first = partition_posts(posts, 3)
        second = partition_posts(posts, 3)
        assert [[p.post_id for p in part] for part in first] == [
            [p.post_id for p in part] for part in second
        ]

    def test_custom_key_routes_by_region(self):
        posts = _posts()
        partitions = partition_posts(posts, 2, key=lambda p: p.region)
        for part in partitions:
            assert len({p.region for p in part}) <= 1

    def test_shard_feeds_cover_the_corpus(self):
        posts = _posts()
        feeds = shard_feeds(posts, 5)
        assert sum(len(feed) for feed in feeds) == len(posts)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            partition_posts(_posts(), 0)


class TestSingleFeedParity:
    """Shard count does not matter: N merged shards == one feed.

    Both sides run the same tick, so this compares two configurations
    of one runtime; the independent oracle is the batch monitor
    (:class:`TestMonitorIntegration`).
    """

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_yearly_alerts_table_and_sai_match(self, shards):
        single = _advance_years(_single_runtime())
        sharded = _advance_years(_sharded_runtime(shards))
        assert _alert_keys(sharded) == _alert_keys(single)
        assert (
            sharded.current_table.as_rows() == single.current_table.as_rows()
        )
        assert (
            sharded.current_result.sai.as_rows()
            == single.current_result.sai.as_rows()
        )

    def test_executors_produce_identical_results(self):
        reference = _advance_years(_sharded_runtime(3))
        for executor in (SerialExecutor(), ThreadExecutor(2), ProcessExecutor(2)):
            with _advance_years(
                _sharded_runtime(3, executor=executor)
            ) as runtime:
                assert _alert_keys(runtime) == _alert_keys(reference)
                assert (
                    runtime.current_table.as_rows()
                    == reference.current_table.as_rows()
                )

    def test_micro_batch_run_drains_every_feed(self):
        runtime = _sharded_runtime(3, batch_size=100)
        ticks = runtime.run()
        assert runtime.tick() is None  # drained
        assert sum(t.accepted for t in ticks) == len(_posts())
        assert all(len(t.shard_accepted) == 3 for t in ticks)
        health = runtime.runtime_health()
        assert health["counters"]["posts_ingested"] == len(_posts())
        assert health["shards"] == 3
        assert len(health["shard_stats"]) == 3

    def test_one_evaluation_per_tick_regardless_of_shards(self):
        runtime = _advance_years(_sharded_runtime(4))
        # ticks == retunes upper bound: one evaluation per merged tick,
        # not one per shard batch.
        assert runtime.evaluator.retunes <= len(runtime.ticks)


class TestOneAnalyzer:
    """One sentiment analyzer per runtime scores every delta."""

    @staticmethod
    def _tiered():
        return _sharded_runtime(2, warm_span_days=30, cold_age_days=60)

    def test_ticks_build_no_analyzer(self, monkeypatch):
        runtime = self._tiered()
        built = []
        init = SentimentAnalyzer.__init__

        def counting_init(analyzer, *args, **kwargs):
            built.append(analyzer)
            init(analyzer, *args, **kwargs)

        monkeypatch.setattr(SentimentAnalyzer, "__init__", counting_init)
        _advance_years(runtime)
        assert all(
            index.segment_stats["cold_seals"] > 0
            for index in runtime.shard_indexes
        )
        assert len(runtime.ticks) == 6
        assert built == []

    def test_trackers_and_sidecars_share_the_analyzer(self):
        runtime = self._tiered()
        analyzer = runtime.deltas.analyzer
        assert all(d.analyzer is analyzer for d in runtime.shard_deltas)
        assert all(
            index.sidecar_analyzer is analyzer
            for index in runtime.shard_indexes
        )
        assert runtime.merged_deltas().analyzer is analyzer


class TestMergeStep:
    def test_merge_signals_equals_unsharded_signals(self):
        posts = _posts()
        database = build_ecm_database()
        whole = DeltaTracker(database, region="europe")
        whole.observe_batch(posts)
        trackers = []
        for part in partition_posts(posts, 3):
            tracker = DeltaTracker(database, region="europe")
            tracker.observe_batch(part)
            trackers.append(tracker)
        merged = merge_signals(trackers)
        want = whole.signals()
        assert set(merged) == set(want)
        for keyword, signals in want.items():
            got = merged[keyword]
            assert got.post_count == signals.post_count
            assert got.engagement == signals.engagement
            assert got.mean_sentiment == pytest.approx(
                signals.mean_sentiment
            )

    def test_incremental_merge_matches_fresh_merge(self):
        runtime = _advance_years(_sharded_runtime(3))
        maintained = runtime.deltas.state_dict()
        fresh = runtime.merged_deltas().state_dict()
        # The transient dirty bookkeeping differs (ticks consume it);
        # every aggregate must be identical.
        for key in ("observed", "votes", "buckets"):
            assert maintained[key] == fresh[key]


class TestRuntimeBehaviour:
    def test_rejects_empty_feed_list(self):
        with pytest.raises(ValueError):
            ShardedStreamRuntime([], build_ecm_database())

    def test_database_addition_adopted_across_shards(self):
        database = build_ecm_database()
        runtime = ShardedStreamRuntime(
            shard_feeds(_posts(), 2), database, target=ECM_TARGET
        )
        runtime.tick()
        from repro.core.keywords import AttackKeyword
        from repro.iso21434.enums import AttackVector

        database.add(
            AttackKeyword(keyword="newkeyword", vector=AttackVector.LOCAL)
        )
        tick = runtime.tick()
        assert tick is not None
        assert "newkeyword" in tick.dirty
        assert all(
            "newkeyword" in deltas.keywords for deltas in runtime.shard_deltas
        )
        assert "newkeyword" in runtime.deltas.keywords
        counters = runtime.runtime_health()["counters"]
        assert counters["learned_keywords"] == ["newkeyword"]

    def test_filter_applies_per_shard_batch(self):
        flood = [p for p in _posts()]
        runtime = ShardedStreamRuntime(
            shard_feeds(flood, 2),
            build_ecm_database(),
            target=ECM_TARGET,
            post_filter=PostAuthenticityFilter(),
        )
        runtime.run()
        # One report per non-empty shard batch.
        assert runtime.filter_reports
        counters = runtime.runtime_health()["counters"]
        assert counters["posts_ingested"] + counters["posts_rejected"] == len(
            flood
        )

    def test_state_roundtrip_resumes_identically(self):
        reference = _advance_years(_sharded_runtime(3))

        interrupted = _advance_years(_sharded_runtime(3), last=2020)
        state = interrupted.state_dict()

        resumed = _sharded_runtime(3)
        resumed.load_state(state)
        _advance_years(resumed, first=2021)
        reference_tail = _alert_keys(reference)[len(interrupted.alerts):]
        assert _alert_keys(resumed)[len(interrupted.alerts):] == reference_tail
        assert (
            resumed.current_table.as_rows()
            == reference.current_table.as_rows()
        )

    def test_state_rejects_wrong_shard_count(self):
        state = _sharded_runtime(3).state_dict()
        with pytest.raises(ValueError):
            _sharded_runtime(2).load_state(state)


class TestMonitorIntegration:
    @pytest.mark.parametrize(
        "shards", [None, 2, 3], ids=["one-feed", "two-shards", "three-shards"]
    )
    def test_sharded_monitor_matches_batch_monitor(self, ecm_framework, shards):
        # The batch monitor is the independent oracle for every shard
        # count, the one-feed runtime (no ``shards``) included.
        batch = PSPMonitor(ecm_framework, start_year=2015)
        batch_alerts = batch.run_years(2018, 2023)

        sharded = PSPMonitor(
            ecm_framework, start_year=2015, stream=True, shards=shards
        )
        stream_alerts = sharded.run_years(2018, 2023)

        assert [a.upto_year for a in stream_alerts] == [
            a.upto_year for a in batch_alerts
        ]
        assert [a.changes for a in stream_alerts] == [
            a.changes for a in batch_alerts
        ]
        assert (
            sharded.current_table.as_rows() == batch.current_table.as_rows()
        )
        assert sharded.stream_runtime.shard_count == (shards or 1)

    def test_shards_require_stream_mode(self, ecm_framework):
        with pytest.raises(ValueError):
            PSPMonitor(ecm_framework, start_year=2015, shards=2)

    def test_monitor_close_releases_the_runtime(self, ecm_framework):
        closed = []
        with PSPMonitor(
            ecm_framework, start_year=2015, stream=True, shards=2
        ) as monitor:
            monitor.tick(2018)
            runtime = monitor.stream_runtime
            original = runtime.executor.close
            runtime.executor.close = lambda: (closed.append(True), original())
        assert closed  # __exit__ reached the executor
