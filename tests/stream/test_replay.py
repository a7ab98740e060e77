"""Long-horizon replay harness: acceptance matrix and unit tests.

The acceptance matrix drives every registered scenario through a
multi-month sharded replay and requires all three audited invariants
(alert parity vs the batch monitor, checkpoint/resume parity, bounded
index memory) to hold — the PR's headline guarantee.
"""

import datetime as dt

import pytest

from repro.social.post import Post
from repro.social.registry import (
    OutageWindow,
    default_registry,
    get_scenario,
    scenario_names,
)
from repro.social.resilience import TransientPlatformError
from repro.stream.feed import SyntheticFeed
from repro.stream.replay import (
    BestEffortFeed,
    DelayedFeed,
    FlakyFeed,
    ReplayReport,
    RetryingFeed,
    month_boundaries,
    replay_poison_defence,
    replay_scenario,
)


class TestMonthBoundaries:
    def test_monthly_cadence(self):
        boundaries = month_boundaries(2020, 2020)
        assert len(boundaries) == 12
        assert boundaries[0] == dt.date(2020, 1, 31)
        assert boundaries[1] == dt.date(2020, 2, 29)  # leap year
        assert boundaries[-1] == dt.date(2020, 12, 31)

    def test_quarterly_and_yearly_cadence(self):
        quarters = month_boundaries(2020, 2021, cadence="quarterly")
        assert len(quarters) == 8
        assert quarters[0] == dt.date(2020, 3, 31)
        years = month_boundaries(2020, 2022, cadence="yearly")
        assert years == [
            dt.date(2020, 12, 31),
            dt.date(2021, 12, 31),
            dt.date(2022, 12, 31),
        ]

    def test_months_cap(self):
        assert len(month_boundaries(2020, 2023, months=5)) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            month_boundaries(2021, 2020)
        with pytest.raises(ValueError):
            month_boundaries(2020, 2021, months=0)
        with pytest.raises(ValueError):
            month_boundaries(2020, 2021, cadence="hourly")


class TestDelayedFeed:
    def _posts(self):
        return [
            Post(
                post_id=f"forum:f{i}",
                text="#dpfdelete chat",
                author=f"u{i}",
                created_at=dt.date(2021, 1, 10 + i),
            )
            for i in range(3)
        ] + [
            Post(
                post_id="twitter:t0",
                text="#dpfdelete chat",
                author="t",
                created_at=dt.date(2021, 1, 12),
            )
        ]

    def _outage(self):
        return OutageWindow(
            platform="forum",
            start=dt.date(2021, 1, 1),
            end=dt.date(2021, 1, 31),
        )

    def test_outage_posts_arrive_after_the_window(self):
        feed = DelayedFeed(self._posts(), [self._outage()])
        mid = feed.events_after(-1, until=dt.date(2021, 1, 20))
        # Only the unaffected twitter post is visible mid-outage.
        assert [e.post.post_id for e in mid] == ["twitter:t0"]
        after = feed.events_after(-1, until=dt.date(2021, 2, 1))
        assert len(after) == 4

    def test_created_at_is_preserved(self):
        feed = DelayedFeed(self._posts(), [self._outage()])
        backfilled = feed.events_after(-1, until=dt.date(2021, 2, 1))
        dates = {e.post.post_id: e.post.created_at for e in backfilled}
        assert dates["forum:f0"] == dt.date(2021, 1, 10)

    def test_no_outage_matches_synthetic_order(self):
        posts = self._posts()
        delayed = DelayedFeed(posts)
        synthetic = SyntheticFeed(posts)
        assert [e.post.post_id for e in delayed.events_after(-1)] == [
            e.post.post_id for e in synthetic.events_after(-1)
        ]

    def test_partition_preserves_the_union(self):
        feed = DelayedFeed(self._posts(), [self._outage()])
        shards = feed.partition(3)
        union = sorted(
            e.post.post_id for shard in shards for e in shard.events_after(-1)
        )
        assert union == sorted(p.post_id for p in self._posts())


class TestResilienceWrappers:
    def _feed(self):
        return SyntheticFeed([
            Post(
                post_id=f"p{i}",
                text="#dpfdelete kit",
                author=f"u{i}",
                created_at=dt.date(2021, 1, 1 + i),
            )
            for i in range(4)
        ])

    def test_retrying_feed_rides_out_transient_failures(self):
        flaky = FlakyFeed(self._feed(), failures=2)
        retrying = RetryingFeed(flaky, max_attempts=3)
        events = retrying.events_after(-1)
        assert len(events) == 4
        assert retrying.retries == 2

    def test_retrying_feed_gives_up_eventually(self):
        flaky = FlakyFeed(self._feed(), failures=5)
        retrying = RetryingFeed(flaky, max_attempts=2)
        with pytest.raises(TransientPlatformError):
            retrying.events_after(-1)

    def test_best_effort_feed_degrades_to_empty(self):
        flaky = FlakyFeed(self._feed(), failures=1)
        best_effort = BestEffortFeed(flaky)
        assert best_effort.events_after(-1) == ()
        assert best_effort.degraded_polls == 1
        # The failure cleared: the stable cursor re-offers everything.
        assert len(best_effort.events_after(-1)) == 4


class TestStreamingResilience:
    """Injected platform failures must not corrupt the alert stream."""

    def _sharded(self, feeds, config=None):
        from repro.stream.sharding import ShardedStreamRuntime

        spec = get_scenario("ecm")
        return ShardedStreamRuntime(
            feeds,
            spec.database(),
            target=spec.target,
            since_year=spec.start_year,
            config=config,
        )

    def _alerts(self, runtime, spec):
        alerts = []
        for year in range(spec.start_year, spec.end_year + 1):
            tick = runtime.advance_to(
                dt.date(year, 12, 31), upto_year=year
            )
            if tick.alert is not None:
                alerts.append((year, tick.alert.changes))
        runtime.close()
        return alerts

    def test_transient_failures_with_retries_keep_alert_parity(self):
        spec = get_scenario("ecm")
        posts = list(spec.corpus().posts)
        from repro.stream.sharding import shard_feeds

        reference = self._alerts(
            self._sharded(shard_feeds(posts, 2)), spec
        )
        wrapped = tuple(
            RetryingFeed(FlakyFeed(feed, failures=2), max_attempts=4)
            for feed in shard_feeds(posts, 2)
        )
        resilient = self._alerts(self._sharded(wrapped), spec)
        assert resilient == reference
        assert reference  # the scenario is alert-bearing

    def test_persistent_outage_never_drops_other_platforms_alerts(self):
        # Split the ECM corpus into the insider keywords feed and the
        # rest; the "rest" platform dies permanently.  Degradation must
        # deliver exactly the alerts of a run where that platform simply
        # has nothing — never fewer.
        spec = get_scenario("ecm")
        posts = list(spec.corpus().posts)
        insider_only = [p for p in posts if "relayattack" not in p.text]
        outsider_only = [p for p in posts if "relayattack" in p.text]

        reference = self._alerts(
            self._sharded(
                (SyntheticFeed(insider_only), SyntheticFeed([]))
            ),
            spec,
        )
        dead_platform = BestEffortFeed(
            FlakyFeed(SyntheticFeed(outsider_only), failures=10**9)
        )
        degraded = self._alerts(
            self._sharded(
                (SyntheticFeed(insider_only), dead_platform)
            ),
            spec,
        )
        assert degraded == reference
        assert reference  # non-failing keywords still alert
        assert dead_platform.degraded_polls > 0


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("name", scenario_names())
    def test_three_month_sharded_replay(self, name):
        report = replay_scenario(name, months=3, shards=2)
        assert report.boundaries == 3
        assert report.alert_parity, report.describe()
        assert report.table_parity, report.describe()
        assert report.sai_parity, report.describe()
        assert report.checkpoint_parity, report.describe()
        assert report.memory_bounded, report.describe()
        assert report.ok

    @pytest.mark.parametrize("name", scenario_names())
    def test_year_one_sharded_replay(self, name):
        report = replay_scenario(name, months=12, shards=2)
        assert report.ok, report.describe()

    def test_full_span_replay_is_alert_bearing(self):
        report = replay_scenario("ecm", shards=2)
        assert report.ok, report.describe()
        assert report.stream_alerts >= 1
        assert report.stream_alerts == report.batch_alerts

    def test_single_shard_exercises_file_checkpoints(self, tmp_path):
        report = replay_scenario(
            "motorcycle", months=12, shards=1, checkpoint_dir=tmp_path
        )
        assert report.ok, report.describe()
        # The delta-chain restore actually happened from this directory.
        assert list(tmp_path.iterdir())

    def test_outage_scenario_full_span(self):
        report = replay_scenario("busfleet", shards=2)
        assert report.ok, report.describe()
        # The outage shadow was real: some boundaries were excluded and
        # convergence was still reached at the end.
        assert report.excluded_boundaries > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            replay_scenario("ecm", shards=0)
        with pytest.raises(KeyError):
            replay_scenario("submarine")


class TestPoisonDefence:
    def test_marine_burst_is_fully_absorbed(self):
        report = replay_poison_defence("marine")
        assert report.poison_posts == 20
        assert report.all_poison_rejected
        assert report.organic_rejected == 0
        assert report.alerts_match
        assert report.table_match
        assert report.ok
        assert "PASS" in report.describe()

    def test_scenario_without_bursts_rejected(self):
        with pytest.raises(ValueError, match="no poisoning bursts"):
            replay_poison_defence("ecm")


class TestReplayReport:
    def test_ok_requires_every_invariant(self):
        base = dict(
            scenario="x", shards=1, boundaries=3, posts=10,
            stream_alerts=0, batch_alerts=0, retunes=3, forced_retunes=0,
            excluded_boundaries=0, alert_parity=True, table_parity=True,
            sai_parity=True, checkpoint_parity=True, memory_bounded=True,
        )
        assert ReplayReport(**base).ok
        for flag in (
            "alert_parity", "table_parity", "sai_parity",
            "checkpoint_parity", "memory_bounded",
        ):
            broken = dict(base)
            broken[flag] = False
            report = ReplayReport(**broken)
            assert not report.ok
            assert "FAIL" in report.describe()


class TestSeedStability:
    @pytest.mark.parametrize("name", scenario_names())
    def test_replay_is_reproducible(self, name):
        # Two independent replays of the same scenario must agree on
        # every counter: the whole pipeline is deterministic end to end.
        first = replay_scenario(name, months=6, shards=2)
        second = replay_scenario(name, months=6, shards=2)
        assert first.ok and second.ok
        assert first.stream_alerts == second.stream_alerts
        assert first.retunes == second.retunes
        assert first.posts == second.posts


def test_registry_and_replay_agree_on_scenario_count():
    assert len(default_registry()) >= 8


class TestFeedWrapperCounters:
    """The resilience wrappers surface their behaviour as feed_* counters."""

    def _feed(self):
        return SyntheticFeed([
            Post(
                post_id=f"p{i}",
                text="#dpfdelete kit",
                author=f"u{i}",
                created_at=dt.date(2021, 1, 1 + i),
            )
            for i in range(4)
        ])

    def test_retrying_feed_counts_retries(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        flaky = FlakyFeed(self._feed(), failures=2, metrics=registry)
        retrying = RetryingFeed(flaky, max_attempts=3, metrics=registry)
        retrying.events_after(-1)
        collected = registry.collect()
        assert collected["feed_retries_total"].value() == 2
        assert collected["feed_failures_total"].value() == 2

    def test_best_effort_feed_counts_dropped_batches(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        flaky = FlakyFeed(self._feed(), failures=1, metrics=registry)
        best_effort = BestEffortFeed(flaky, metrics=registry)
        best_effort.events_after(-1)
        best_effort.events_after(-1)
        assert (
            registry.collect()["feed_dropped_batches_total"].value() == 1
        )

    def _outage_posts(self):
        posts = [
            Post(
                post_id=f"forum:f{i}",
                text="#dpfdelete chat",
                author=f"u{i}",
                created_at=dt.date(2021, 1, 10 + i),
            )
            for i in range(3)
        ]
        outage = OutageWindow(
            platform="forum",
            start=dt.date(2021, 1, 1),
            end=dt.date(2021, 1, 31),
        )
        return posts, [outage]

    def test_delayed_feed_counts_each_delayed_event_once(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        posts, outages = self._outage_posts()
        feed = DelayedFeed(posts, outages, metrics=registry)
        assert registry.collect()["feed_delayed_events_total"].value() == 3

        feed.partition(3)
        # Partition children must not re-count the same delays.
        assert registry.collect()["feed_delayed_events_total"].value() == 3

    def test_unwrapped_feeds_emit_nothing(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        DelayedFeed(self._outage_posts()[0], metrics=registry)
        # No outages: the counter exists but records zero delays.
        assert registry.collect()["feed_delayed_events_total"].value() == 0


class TestReplayTelemetry:
    def test_report_carries_stages_counters_and_audit_outcomes(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        report = replay_scenario(
            "excavator", months=2, shards=2, metrics=registry
        )
        assert report.ok, report.describe()

        assert report.stage_latencies["tick"]["count"] > 0
        assert "shard_map" in report.stage_latencies
        assert report.feed_counters.get("feed_delayed_events_total", 0) >= 0

        audits = registry.collect()["replay_audit_outcomes_total"]
        for invariant in (
            "alert_parity",
            "table_parity",
            "sai_parity",
            "checkpoint_parity",
            "memory_bounded",
        ):
            assert (
                audits.value(invariant=invariant, outcome="pass") == 1
            ), invariant
            assert audits.value(invariant=invariant, outcome="fail") == 0
        boundaries = registry.collect()["replay_boundaries_total"]
        assert boundaries.value() == report.boundaries

        text = report.describe()
        assert "stage" in text

    def test_shared_registry_reports_each_replay_alone(self):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.views import stage_latencies

        registry = MetricsRegistry()
        replay_scenario("excavator", months=3, metrics=registry)
        report = replay_scenario("excavator", months=3, metrics=registry)
        assert report.stage_latencies["tick"]["count"] == 3
        row = report.stage_latencies["tick"]
        assert row["mean_ms"] == row["total_seconds"] / 3 * 1e3
        # The exported registry itself stays cumulative.
        assert stage_latencies(registry)["tick"]["count"] == 6

    def test_uninstrumented_replay_report_is_unchanged(self):
        report = replay_scenario("excavator", months=2, shards=2)
        assert report.stage_latencies == {}
        assert report.feed_counters == {}
        assert "stage" not in report.describe()
