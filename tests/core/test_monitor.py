"""Tests for the runtime PSP monitor."""

import pytest

from repro.core.monitor import PSPMonitor
from repro.iso21434.enums import AttackVector
from repro.tara.lifecycle import LifecycleTracker, Phase, ReprocessingTrigger


class TestTick:
    def test_first_tick_is_baseline(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        assert monitor.tick(2018) is None
        assert monitor.current_table is not None
        assert monitor.alerts == ()

    def test_ticks_must_advance(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        monitor.tick(2018)
        with pytest.raises(ValueError, match="advance"):
            monitor.tick(2018)

    def test_tick_before_start_rejected(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        with pytest.raises(ValueError, match="precedes"):
            monitor.tick(2014)

    def test_stable_years_do_not_alert(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        monitor.tick(2018)
        # 2019/2020 continue the same physical-dominated regime
        assert monitor.tick(2019) is None
        assert monitor.tick(2020) is None


class TestTrendDetection:
    def test_ecm_shift_detected_eventually(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        alerts = monitor.run_years(2018, 2023)
        assert alerts
        # the local vector must appear among the raised ratings
        raised = [
            change.vector
            for alert in alerts
            for change in alert.changes
            if change.raised
        ]
        assert AttackVector.LOCAL in raised

    def test_alert_describe(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        alerts = monitor.run_years(2018, 2023)
        text = alerts[0].describe()
        assert "insider ratings moved" in text

    def test_run_years_validates_order(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        with pytest.raises(ValueError):
            monitor.run_years(2023, 2018)


class TestLifecycleIntegration:
    def test_alerts_recorded_as_reprocessing(self, ecm_framework):
        tracker = LifecycleTracker(phase=Phase.PRODUCTION_READINESS)
        monitor = PSPMonitor(
            ecm_framework, start_year=2015, tracker=tracker
        )
        alerts = monitor.run_years(2018, 2023)
        assert len(monitor.reprocessing_events()) == len(alerts)
        assert tracker.reprocessing_count(
            ReprocessingTrigger.PSP_TREND_SHIFT
        ) == len(alerts)

    def test_without_tracker_no_events(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        monitor.run_years(2018, 2023)
        assert monitor.reprocessing_events() == ()


class TestStreamMode:
    def test_stream_tick_api_is_backward_compatible(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015, stream=True)
        assert monitor.tick(2018) is None  # baseline, as in batch mode
        assert monitor.current_table is not None
        with pytest.raises(ValueError, match="advance"):
            monitor.tick(2018)
        assert monitor.stream_runtime is not None

    def test_stream_alerts_match_batch_alerts(self, ecm_client):
        from tests.conftest import build_ecm_database
        from repro import PSPFramework, TargetApplication

        target = TargetApplication("car", "europe", "passenger")
        batch = PSPMonitor(
            PSPFramework(ecm_client, target, database=build_ecm_database()),
            start_year=2015,
        )
        stream = PSPMonitor(
            PSPFramework(ecm_client, target, database=build_ecm_database()),
            start_year=2015,
            stream=True,
        )
        batch_alerts = batch.run_years(2018, 2023)
        stream_alerts = stream.run_years(2018, 2023)
        assert [a.upto_year for a in stream_alerts] == [
            a.upto_year for a in batch_alerts
        ]
        assert [a.changes for a in stream_alerts] == [
            a.changes for a in batch_alerts
        ]
        assert (
            stream.current_table.as_rows() == batch.current_table.as_rows()
        )

    def test_stream_tara_matches_batch_tara(self, ecm_client, fig4_network):
        from tests.conftest import build_ecm_database
        from repro import PSPFramework, TargetApplication

        target = TargetApplication("car", "europe", "passenger")
        batch = PSPMonitor(
            PSPFramework(ecm_client, target, database=build_ecm_database()),
            start_year=2015,
            network=fig4_network,
        )
        stream = PSPMonitor(
            PSPFramework(ecm_client, target, database=build_ecm_database()),
            start_year=2015,
            network=fig4_network,
            stream=True,
        )
        batch_alerts = batch.run_years(2018, 2023)
        stream_alerts = stream.run_years(2018, 2023)
        assert [a.tara for a in stream_alerts] == [
            a.tara for a in batch_alerts
        ]
        assert stream.tara_scorer is not None
        assert stream.baseline_tara() == batch.baseline_tara()

    def test_stream_alerts_recorded_on_tracker(self, ecm_framework):
        tracker = LifecycleTracker(phase=Phase.PRODUCTION_READINESS)
        monitor = PSPMonitor(
            ecm_framework, start_year=2015, tracker=tracker, stream=True
        )
        alerts = monitor.run_years(2018, 2023)
        assert len(monitor.reprocessing_events()) == len(alerts)

    def test_stream_with_learn_rejected(self, ecm_framework):
        with pytest.raises(ValueError, match="learning"):
            PSPMonitor(
                ecm_framework, start_year=2015, stream=True, learn=True
            )

    def test_filtering_client_routes_filter_into_feed_path(self, ecm_client):
        from tests.conftest import build_ecm_database
        from repro import PSPFramework, TargetApplication
        from repro.core.poisoning import FilteringClient

        filtering = FilteringClient(ecm_client)
        framework = PSPFramework(
            filtering,
            TargetApplication("car", "europe", "passenger"),
            database=build_ecm_database(),
        )
        monitor = PSPMonitor(framework, start_year=2015, stream=True)
        runtime = monitor.stream_runtime
        # the client stack is unwrapped: the corpus feeds the stream and
        # the FilteringClient's own filter guards each micro-batch
        assert runtime.post_filter is filtering.post_filter
        assert monitor.tick(2018) is None

    def test_stream_without_corpus_client_needs_feed(self, ecm_client):
        from tests.conftest import build_ecm_database
        from repro import PSPFramework, TargetApplication
        from repro.social.api import SocialMediaClient

        class StubClient(SocialMediaClient):
            def search(self, query):
                return []

            def count_by_year(self, query):
                return {}

        framework = PSPFramework(
            StubClient(),
            TargetApplication("car", "europe", "passenger"),
            database=build_ecm_database(),
        )
        with pytest.raises(ValueError, match="feed"):
            PSPMonitor(framework, start_year=2015, stream=True)


class TestTaraRescoring:
    def test_alerts_carry_rescored_tara(self, ecm_framework, fig4_network):
        monitor = PSPMonitor(
            ecm_framework, start_year=2015, network=fig4_network
        )
        alerts = monitor.run_years(2018, 2023)
        assert alerts
        for alert in alerts:
            assert alert.tara is not None
            assert alert.tara.records
        assert monitor.tara_scorer is not None

    def test_alert_tara_matches_engine_run(self, ecm_framework, fig4_network):
        from repro.tara.engine import TaraEngine

        monitor = PSPMonitor(
            ecm_framework, start_year=2015, network=fig4_network
        )
        alerts = monitor.run_years(2018, 2023)
        alert = alerts[-1]
        engine = TaraEngine(
            fig4_network, insider_table=alert.result.insider_table
        )
        assert alert.tara == engine.run()

    def test_baseline_tara_available(self, ecm_framework, fig4_network):
        monitor = PSPMonitor(
            ecm_framework, start_year=2015, network=fig4_network
        )
        baseline = monitor.baseline_tara()
        assert baseline is not None
        assert baseline.table_source == "iso21434-g9"

    def test_without_network_no_tara(self, ecm_framework):
        monitor = PSPMonitor(ecm_framework, start_year=2015)
        assert monitor.tara_scorer is None
        assert monitor.baseline_tara() is None
        alerts = monitor.run_years(2018, 2023)
        assert all(alert.tara is None for alert in alerts)


class TestCachedMonthlyTicks:
    def test_monthly_monitor_fetches_each_post_once(self):
        import datetime as dt

        from repro.core.framework import PSPFramework
        from repro.core.timewindow import TimeWindow
        from repro.social.api import BatchQuery
        from repro.social.registry import get_scenario
        from repro.stream.replay import month_boundaries

        spec = get_scenario("ecm")
        client = spec.client()
        inner_search_many = client.search_many
        fetched = []

        def counting_search_many(batch):
            result = inner_search_many(batch)
            fetched.append(result.total_matches)
            return result

        client.search_many = counting_search_many
        database = spec.database()
        cached = PSPFramework(client, spec.target, database=database, cache=True)
        plain = PSPFramework(
            spec.client(), spec.target, database=spec.database()
        )
        monitor = PSPMonitor(cached, start_year=spec.start_year)
        boundaries = month_boundaries(spec.start_year, spec.end_year)
        assert len(boundaries) == 108

        def bits(sai):
            return [
                (
                    entry.keyword,
                    entry.score.hex(),
                    entry.probability.hex(),
                    entry.mean_sentiment.hex(),
                    entry.post_count,
                    entry.engagement,
                )
                for entry in sai
            ]

        since = dt.date(spec.start_year, 1, 1)
        for boundary in boundaries:
            monitor.tick_date(boundary)
            window = TimeWindow(since=since, until=boundary)
            # The cached run is the tick's own result, memoised per window.
            assert bits(cached.run(window, learn=False).sai) == bits(
                plain.run(window, learn=False).sai
            ), boundary

        final = spec.client().search_many(
            BatchQuery(
                keywords=database.keywords,
                since=since,
                until=boundaries[-1],
                region=spec.target.region,
            )
        )
        assert final.total_matches == 1957
        assert sum(fetched) == final.total_matches
        assert len(fetched) == len(boundaries)
        years = spec.end_year - spec.start_year + 1
        assert len(cached.client.cache) <= len(database) * years == 45

    def test_monthly_ticks_build_no_analyzer(self, monkeypatch):
        import datetime as dt

        from repro.core.framework import PSPFramework
        from repro.core.timewindow import TimeWindow
        from repro.nlp.sentiment import SentimentAnalyzer
        from repro.social.registry import get_scenario
        from repro.stream.replay import month_boundaries

        spec = get_scenario("ecm")
        boundaries = month_boundaries(spec.start_year, spec.end_year)[:12]
        cached = PSPFramework(
            spec.client(), spec.target, database=spec.database(), cache=True
        )
        monitor = PSPMonitor(cached, start_year=spec.start_year)
        builds = []
        original_init = SentimentAnalyzer.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(SentimentAnalyzer, "__init__", counting_init)
        for boundary in boundaries:
            monitor.tick_date(boundary)
        monkeypatch.undo()
        assert len(builds) == 0

        fresh = PSPFramework(
            spec.client(), spec.target, database=spec.database()
        )
        for boundary in boundaries:
            window = TimeWindow(
                since=dt.date(spec.start_year, 1, 1), until=boundary
            )
            # The cached run is the tick's own result, memoised per window.
            assert (
                cached.run(window, learn=False).sai.as_rows()
                == fresh.run(window, learn=False).sai.as_rows()
            ), boundary
