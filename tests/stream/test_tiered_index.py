"""Tests for the time-decay tiered corpus index."""

import datetime as dt

import pytest

from repro.core.config import TargetApplication
from repro.social import ecm_reprogramming_corpus
from repro.social.index import CorpusIndex
from repro.social.post import Post
from repro.stream.checkpoint import (
    checkpoint_state,
    restore_runtime,
    save_checkpoint,
)
from repro.stream.feed import SyntheticFeed
from repro.stream.index import StreamingCorpusIndex
from repro.stream.runtime import StreamRuntime
from repro.stream.tiers import (
    DEFAULT_COLD_AGE_DAYS,
    DEFAULT_WARM_SPAN_DAYS,
    TieredCorpusIndex,
    build_stream_index,
)
from tests.conftest import build_ecm_database

ECM_TARGET = TargetApplication("car", "europe", "passenger")

KEYWORDS = ("dpfdelete", "egrremoval", "delet", "stolen", "nomatch")

TEXTS = (
    "my #dpfdelete kit arrived",
    "deleting the egr today",
    "stolen excavator warning",
    "dpf delete done at the workshop",
    "#egr_removal before and after",
)


def _daily_posts(days, *, start=dt.date(2020, 1, 1), step=1):
    """A date-ordered stream, one post every ``step`` days."""
    return [
        Post(
            post_id=f"p{i:04d}",
            text=TEXTS[i % len(TEXTS)],
            author=f"user{i % 3}",
            created_at=start + dt.timedelta(days=i * step),
        )
        for i in range(days)
    ]


def _assert_same_queries(tiered, rebuilt):
    assert [p.post_id for p in tiered.posts] == [
        p.post_id for p in rebuilt.posts
    ]
    got = tiered.search_many(KEYWORDS)
    want = rebuilt.search_many(KEYWORDS)
    for keyword in KEYWORDS:
        assert [p.post_id for p in got[keyword]] == [
            p.post_id for p in want[keyword]
        ], keyword


class TestTierLifecycle:
    def test_full_lifecycle_reaches_every_tier(self):
        posts = _daily_posts(500)
        tiered = TieredCorpusIndex(
            compact_threshold=1000, warm_span_days=30, cold_age_days=120
        )
        for i in range(0, len(posts), 40):
            tiered.append(posts[i : i + 40])
        stats = tiered.segment_stats
        assert stats["layout"] == "tiered"
        assert stats["hot_seals"] > 0
        assert stats["cold_seals"] > 0
        tiers = stats["tiers"]
        assert tiers["hot"]["posts"] > 0
        assert tiers["warm"]["posts"] > 0
        assert tiers["cold"]["posts"] > 0
        assert tiers["cold"]["sidecars"] == 0  # no sidecar keywords set
        _assert_same_queries(tiered, CorpusIndex(posts))

    def test_warm_consolidation_merges_chunks(self):
        # Many small appends inside one 90-day span: each hot seal adds
        # a chunk, every WARM_CONSOLIDATE_CHUNKS-th merges the span.
        posts = _daily_posts(80)
        tiered = TieredCorpusIndex(
            compact_threshold=5, warm_span_days=90, cold_age_days=3650
        )
        for i in range(0, len(posts), 5):
            tiered.append(posts[i : i + 5])
        stats = tiered.segment_stats
        assert stats["consolidations"] >= 2
        assert stats["tiers"]["warm"]["chunks"] < stats["hot_seals"]
        _assert_same_queries(tiered, CorpusIndex(posts))

    def test_seal_boundary_dates_route_to_their_span(self):
        # Posts exactly on span boundaries (ordinal % span == 0 and the
        # day before) must land in adjacent spans without loss.
        start = dt.date.fromordinal(
            (dt.date(2020, 1, 1).toordinal() // 30 + 1) * 30
        )
        posts = [
            Post(
                post_id=f"b{i}",
                text="dpf delete on the boundary",
                author="a",
                created_at=start + dt.timedelta(days=delta),
            )
            for i, delta in enumerate((-1, 0, 29, 30, 59, 60, 400))
        ]
        tiered = TieredCorpusIndex(
            compact_threshold=1, warm_span_days=30, cold_age_days=90
        )
        for post in posts:
            tiered.append([post])
        assert len(tiered) == len(posts)
        _assert_same_queries(tiered, CorpusIndex(posts))

    def test_duplicate_append_is_atomic(self):
        posts = _daily_posts(10)
        tiered = TieredCorpusIndex(posts, warm_span_days=30)
        before = tiered.segment_stats
        fresh = Post(
            post_id="new", text="dpf delete", author="a",
            created_at=dt.date(2020, 2, 1),
        )
        with pytest.raises(ValueError, match="duplicate post id 'p0003'"):
            tiered.append([fresh, posts[3]])
        assert tiered.segment_stats == before
        assert "new" not in tiered
        tiered.append([fresh])  # the batch was not partially applied
        assert "new" in tiered

    def test_windowed_queries_route_per_tier(self):
        posts = _daily_posts(400)
        tiered = TieredCorpusIndex(
            posts, compact_threshold=1000, warm_span_days=30,
            cold_age_days=120,
        )
        tiered.append(
            [
                Post(
                    post_id="tail", text="dpf delete fresh", author="a",
                    created_at=posts[-1].created_at,
                )
            ]
        )
        rebuilt = CorpusIndex(list(posts) + [tiered.posts[-1]])
        for since, until in (
            (None, posts[50].created_at),        # cold only
            (posts[380].created_at, None),       # warm + hot only
            (posts[100].created_at, posts[390].created_at),
            (dt.date(2030, 1, 1), None),         # empty
        ):
            got = tiered.search_many(KEYWORDS, since=since, until=until)
            want = rebuilt.search_many(KEYWORDS, since=since, until=until)
            for keyword in KEYWORDS:
                assert [p.post_id for p in got[keyword]] == [
                    p.post_id for p in want[keyword]
                ], (keyword, since, until)

    def test_interner_pruned_on_cold_seal(self):
        posts = [
            Post(
                post_id=f"p{i:04d}",
                text=f"unique dpf delete text number {i}",
                author="a",
                created_at=dt.date(2020, 1, 1) + dt.timedelta(days=i),
            )
            for i in range(300)
        ]
        tiered = TieredCorpusIndex(
            posts, compact_threshold=1000, warm_span_days=30,
            cold_age_days=60,
        )
        stats = tiered.segment_stats
        assert stats["interner_evicted"] > 0
        retained = set(tiered.retained_texts())
        # Hot posts intern lazily (on the first hot-segment build), so
        # the pool never exceeds the retained hot+warm texts...
        assert stats["interned_texts"] <= len(retained)
        # Cold history still materializes on demand.
        _assert_same_queries(tiered, CorpusIndex(posts))
        # ...and converges to exactly them once the hot tier is indexed.
        assert tiered.segment_stats["interned_texts"] == len(retained)


class TestStatsAndState:
    def test_segment_stats_keeps_flat_compatible_keys(self):
        flat = StreamingCorpusIndex(_daily_posts(5))
        tiered = TieredCorpusIndex(_daily_posts(5), warm_span_days=30)
        missing = set(flat.segment_stats) - set(tiered.segment_stats)
        assert not missing
        for key in (
            "layout", "warm_span_days", "cold_age_days", "hot_seals",
            "consolidations", "cold_seals", "interner_evicted", "tiers",
        ):
            assert key in tiered.segment_stats

    def test_state_dict_roundtrip_via_factory(self):
        posts = _daily_posts(200)
        tiered = build_stream_index(
            posts, warm_span_days=30, cold_age_days=90
        )
        assert isinstance(tiered, TieredCorpusIndex)
        restored = build_stream_index(warm_span_days=30, cold_age_days=90)
        restored.load_state(tiered.state_dict())
        assert restored.segment_stats == tiered.segment_stats
        _assert_same_queries(restored, CorpusIndex(posts))

    def test_restored_index_seals_on_the_next_span_crossing(self):
        # The seal check reads the hot tail's oldest date, which a
        # restore rebuilds: a batch wholly inside a newer span must
        # still seal the restored hot posts out of the older one.
        posts = _daily_posts(40)
        knobs = dict(
            compact_threshold=1000, warm_span_days=30, cold_age_days=3650
        )
        uninterrupted = TieredCorpusIndex(**knobs)
        uninterrupted.append(posts[:5])
        resumed = TieredCorpusIndex(**knobs)
        resumed.load_state(uninterrupted.state_dict())
        for index in (uninterrupted, resumed):
            index.append(posts[35:])
        assert uninterrupted.segment_stats["hot_seals"] == 1
        assert resumed.segment_stats == uninterrupted.segment_stats
        assert resumed.tier_stats["hot"] == {
            "posts": 5, "spans": 1, "indexed": False,
        }

    def test_factory_defaults(self):
        assert isinstance(build_stream_index(), StreamingCorpusIndex)
        only_warm = build_stream_index(warm_span_days=30)
        assert isinstance(only_warm, TieredCorpusIndex)
        assert only_warm.segment_stats["cold_age_days"] == (
            DEFAULT_COLD_AGE_DAYS
        )
        only_cold = build_stream_index(cold_age_days=120)
        assert only_cold.segment_stats["warm_span_days"] == (
            DEFAULT_WARM_SPAN_DAYS
        )

    def test_flat_index_rejects_tiered_snapshot(self):
        tiered = TieredCorpusIndex(_daily_posts(5), warm_span_days=30)
        flat = StreamingCorpusIndex()
        with pytest.raises(ValueError, match="tiered-index state_dict"):
            flat.load_state(tiered.state_dict())

    def test_tiered_index_rejects_flat_snapshot(self):
        flat = StreamingCorpusIndex(_daily_posts(5))
        tiered = TieredCorpusIndex(warm_span_days=30)
        with pytest.raises(ValueError):
            tiered.load_state(flat.state_dict())


class TestRuntimeIntegration:
    def _runtime(self, **kwargs):
        return StreamRuntime(
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            since_year=2015,
            batch_size=200,
            warm_span_days=60,
            cold_age_days=180,
            **kwargs,
        )

    def _alert_keys(self, runtime):
        return [
            (
                alert.upto_year,
                alert.changes,
                alert.result.insider_table.as_rows(),
            )
            for alert in runtime.alerts
        ]

    def test_runtime_seals_and_matches_flat_alerts(self):
        tiered = self._runtime()
        tiered.run()
        stats = tiered.stream_stats["index"]
        assert stats["layout"] == "tiered"
        assert stats["cold_seals"] > 0
        assert stats["tiers"]["cold"]["sidecars"] > 0

        flat = StreamRuntime(
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            since_year=2015,
            batch_size=200,
        )
        flat.run()
        assert self._alert_keys(tiered) == self._alert_keys(flat)

    def test_checkpoint_resume_across_a_tier_seal(self, tmp_path):
        reference = self._runtime()
        reference.run()

        interrupted = self._runtime()
        sealed_at = None
        while True:
            tick = interrupted.step()
            assert tick is not None, "feed drained before any cold seal"
            if interrupted.index.segment_stats["cold_seals"] > 0:
                sealed_at = tick.seq
                break
        path = save_checkpoint(interrupted, tmp_path / "seal.ckpt.json")
        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=200,
            warm_span_days=60,
            cold_age_days=180,
        )

        def stats_of(runtime):
            # Interning is lazy (hot posts join the pool when the hot
            # segment is first indexed) — query first so live and
            # restored pools are both fully materialized.
            runtime.index.search_many(("dpfdelete",))
            return runtime.index.segment_stats

        assert stats_of(resumed) == stats_of(interrupted)
        resumed.run()
        assert sealed_at is not None
        assert self._alert_keys(resumed) == self._alert_keys(reference)
        assert stats_of(resumed) == stats_of(reference)

    def test_checkpoint_metadata_carries_tier_stats(self):
        runtime = self._runtime()
        runtime.run()
        payload = checkpoint_state(runtime)
        assert payload["metadata"]["segment_stats"] == (
            runtime.index.segment_stats
        )
        assert "metadata" not in payload["runtime"]
