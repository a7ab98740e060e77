"""Tests for the streaming runtime orchestrator."""

import datetime as dt

import pytest

from repro.core.config import TargetApplication
from repro.core.errors import PSPError
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.monitor import PSPMonitor, TrendAlert
from repro.core.poisoning import PostAuthenticityFilter
from repro.iso21434.enums import AttackVector
from repro.social import ecm_reprogramming_corpus
from repro.social.post import Engagement, Post
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime
from repro.tara.lifecycle import LifecycleTracker, ReprocessingTrigger
from tests.conftest import build_ecm_database

ECM_TARGET = TargetApplication("car", "europe", "passenger")


def _ecm_runtime(**kwargs):
    return StreamRuntime(
        SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
        build_ecm_database(),
        target=ECM_TARGET,
        since_year=2015,
        **kwargs,
    )


def _advance_years(runtime, first=2018, last=2023):
    alerts = []
    for year in range(first, last + 1):
        tick = runtime.advance_to(dt.date(year, 12, 31), upto_year=year)
        if tick.alert is not None:
            alerts.append(tick.alert)
    return alerts


class TestTickLoop:
    def test_first_tick_establishes_baseline_without_alert(self):
        runtime = _ecm_runtime()
        tick = runtime.advance_to(dt.date(2018, 12, 31), upto_year=2018)
        assert tick.retuned
        assert tick.alert is None
        assert runtime.current_table is not None
        assert runtime.alerts == ()

    def test_empty_first_tick_still_tunes_baseline(self):
        runtime = _ecm_runtime()
        tick = runtime.ingest(())
        assert tick.retuned
        assert runtime.current_table is not None

    def test_feed_drain_via_steps(self):
        runtime = _ecm_runtime(batch_size=500)
        ticks = runtime.run()
        assert sum(t.accepted for t in ticks) == len(
            ecm_reprogramming_corpus()
        )
        assert runtime.step() is None  # drained
        assert runtime.runtime_health()["counters"]["ticks"] == len(ticks)

    def test_ecm_trend_shift_matches_batch_monitor(self, ecm_framework):
        batch = PSPMonitor(ecm_framework, start_year=2015)
        batch_alerts = batch.run_years(2018, 2023)

        runtime = _ecm_runtime()
        stream_alerts = _advance_years(runtime)

        assert [a.upto_year for a in stream_alerts] == [
            a.upto_year for a in batch_alerts
        ]
        assert [a.changes for a in stream_alerts] == [
            a.changes for a in batch_alerts
        ]
        assert (
            runtime.current_table.as_rows()
            == batch.current_table.as_rows()
        )
        assert (
            runtime.current_result.sai.as_rows()
            == batch_alerts[-1].result.sai.as_rows()
        )


class TestConditionalRecompute:
    def test_outsider_only_batch_skips_retune(self):
        db = KeywordDatabase()
        db.add(
            AttackKeyword(
                keyword="dpfdelete",
                vector=AttackVector.PHYSICAL,
                owner_approved=True,
            )
        )
        db.add(
            AttackKeyword(
                keyword="relayattack",
                vector=AttackVector.ADJACENT,
                owner_approved=False,
            )
        )
        # A real insider baseline: the trailing outsider drip is well
        # under the default 10% staleness allowance, so the skip path
        # must hold even with the volume-drift policy active.
        posts = [
            Post(
                post_id=f"i{i}",
                text="my #dpfdelete kit",
                author=f"a{i}",
                created_at=dt.date(2020, 1, 1 + i),
            )
            for i in range(25)
        ] + [
            Post(
                post_id="o0",
                text="#relayattack thieves caught",
                author="b",
                created_at=dt.date(2020, 2, 1),
            ),
            Post(
                post_id="o1",
                text="more #relayattack warnings",
                author="c",
                created_at=dt.date(2020, 3, 1),
            ),
        ]
        feed = SyntheticFeed(posts)
        runtime = StreamRuntime(feed, db)
        first = runtime.ingest(feed.events_after(-1, limit=25))
        assert first.retuned  # baseline
        outsider_tick = runtime.ingest(feed.events_after(runtime.cursor))
        assert outsider_tick.dirty == ("relayattack",)
        assert not outsider_tick.retuned
        assert not outsider_tick.rescored
        assert outsider_tick.alert is None
        assert runtime.runtime_health()["counters"]["forced_retunes"] == 0

    def test_untouched_batch_skips_retune(self):
        db = KeywordDatabase()
        db.add(AttackKeyword(keyword="dpfdelete", owner_approved=True))
        posts = [
            Post(
                post_id="i0",
                text="my #dpfdelete kit",
                author="a",
                created_at=dt.date(2020, 1, 1),
            ),
            Post(
                post_id="n0",
                text="nothing to see here",
                author="b",
                created_at=dt.date(2020, 2, 1),
            ),
        ]
        feed = SyntheticFeed(posts)
        runtime = StreamRuntime(feed, db)
        runtime.ingest(feed.events_after(-1, limit=1))
        tick = runtime.ingest(feed.events_after(runtime.cursor))
        assert tick.dirty == ()
        assert not tick.retuned

    def test_rescore_only_on_fingerprint_change(self, fig4_network):
        runtime = _ecm_runtime(network=fig4_network)
        _advance_years(runtime)
        stats = runtime.runtime_health()["counters"]
        # every yearly tick retunes (insider keywords always dirty) but
        # the compiled model is re-scored only when ratings moved
        assert stats["retunes"] == 6
        assert stats["tara_rescores"] == len(runtime.alerts)
        for alert in runtime.alerts:
            assert alert.tara is not None

    def test_alert_shape_is_monitor_compatible(self):
        runtime = _ecm_runtime()
        alerts = _advance_years(runtime)
        assert alerts
        for alert in alerts:
            assert isinstance(alert, TrendAlert)
            assert "insider ratings moved" in alert.describe()
            assert alert.result.tuning.insider_table is not None


class TestPoisoningDefence:
    def _organic(self, i):
        return Post(
            post_id=f"org{i:03d}",
            text=f"my obd tuning log number {i}",
            author=f"owner{i}",
            created_at=dt.date(2020, 1, 1 + (i % 27)),
            engagement=Engagement(views=90 + 7 * (i % 5), likes=3 + i % 4),
        )

    def _flood(self, copies, day=15):
        return [
            Post(
                post_id=f"poison{i:03d}",
                text="everyone is doing the #dpfdelete now, get yours",
                author="botnet001",
                created_at=dt.date(2020, 1, day),
                engagement=Engagement(views=50000, likes=2500),
            )
            for i in range(copies)
        ]

    def test_duplicate_flood_rejected_before_dirtying(self):
        """A flood injected mid-stream never dirties its target keyword.

        The duplicate rule caps the near-identical copies and the
        robust engagement rule absorbs the survivors (bought-engagement
        signature), so the targeted keyword's aggregates stay untouched
        and no retune/alert fires.
        """
        db = KeywordDatabase()
        db.add(AttackKeyword(keyword="obdtuning", owner_approved=True))
        db.add(AttackKeyword(keyword="dpfdelete", owner_approved=True))
        organic = [self._organic(i) for i in range(40)]
        flood = self._flood(10)
        feed = SyntheticFeed(organic + flood)
        runtime = StreamRuntime(
            feed, db, post_filter=PostAuthenticityFilter()
        )
        baseline = runtime.ingest(feed.events_after(-1, limit=20))
        assert baseline.retuned

        tick = runtime.ingest(feed.events_after(runtime.cursor))
        # the whole mid-stream flood dies across the filter rules ...
        assert tick.rejected == len(flood)
        assert tick.accepted == len(organic) - 20
        # ... before it can dirty the targeted keyword
        assert "dpfdelete" not in tick.dirty
        assert runtime.deltas.window_count("dpfdelete") == 0
        assert tick.alert is None
        report = runtime.filter_reports[-1]
        assert {r.post.author for r in report.rejected} == {"botnet001"}

    def test_unfiltered_runtime_is_poisoned(self):
        """Control: without the filter the flood dirties the keyword."""
        db = KeywordDatabase()
        db.add(AttackKeyword(keyword="obdtuning", owner_approved=True))
        db.add(AttackKeyword(keyword="dpfdelete", owner_approved=True))
        organic = [self._organic(i) for i in range(40)]
        feed = SyntheticFeed(organic + self._flood(10))
        runtime = StreamRuntime(feed, db)
        tick = runtime.ingest(feed.events_after(-1))
        assert "dpfdelete" in tick.dirty
        assert runtime.deltas.window_count("dpfdelete") == 10


class TestLifecycleAndSafety:
    def test_alerts_recorded_on_lifecycle_tracker(self):
        tracker = LifecycleTracker()
        runtime = _ecm_runtime(tracker=tracker)
        alerts = _advance_years(runtime)
        assert tracker.reprocessing_count(
            ReprocessingTrigger.PSP_TREND_SHIFT
        ) == len(alerts)

    def test_database_addition_mid_stream_adopted(self):
        runtime = _ecm_runtime()
        runtime.advance_to(dt.date(2018, 12, 31))
        runtime._database.add(AttackKeyword(keyword="newkeyword"))
        tick = runtime.advance_to(dt.date(2019, 12, 31))
        assert "newkeyword" in runtime.deltas.keywords
        assert "newkeyword" in tick.dirty
        counters = runtime.runtime_health()["counters"]
        assert counters["learned_keywords"] == ["newkeyword"]

    def test_database_annotation_mid_stream_reclassifies(self):
        runtime = _ecm_runtime()
        runtime.advance_to(dt.date(2018, 12, 31))
        keyword = runtime.deltas.keywords[0]
        runtime._database.annotate(keyword, owner_approved=True)
        tick = runtime.advance_to(dt.date(2019, 12, 31))
        assert keyword in tick.dirty

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            _ecm_runtime(batch_size=0)
