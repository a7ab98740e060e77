"""Streaming keyword learning: mid-stream adoption == from-scratch run.

The regression the backfill machinery must hold: a keyword learned (or
added) mid-stream, with all its history already ingested — some of it
sealed into cold segments — ends up with exactly the aggregates, votes
and SAI evidence of a run that tracked the keyword from the first post.
Integer fields (window counts, engagement sums, votes) match exactly;
float scores match to relative 1e-9 (summation-order tolerance).
"""

import datetime as dt
import json

import pytest

from repro.core.config import TargetApplication
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.iso21434.enums import AttackVector
from repro.social.post import Engagement, Post
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime
from repro.stream.sharding import ShardedStreamRuntime, shard_feeds

TARGET = TargetApplication("car", "europe", "passenger")

#: #stage1 co-occurs with the seed #dpfdelete in well over the default
#: learning support, so ``learn_keywords`` reliably mines it.
TEXT_CYCLE = (
    "did my #dpfdelete with #stage1 kit",
    "#dpfdelete plus #stage1 is the combo love it",
    "my mechanic hates the #dpfdelete",
    "#stage1 tune on the dyno today",
    "the dealer flagged a #dpfdelete van",
    "#dpfdelete and #stage1 back to back",
)

REGIONS = ("europe", "europe", "europe", "americas")


def _posts(count=240, start=dt.date(2019, 1, 3)):
    return [
        Post(
            post_id=f"p{i:04d}",
            text=TEXT_CYCLE[i % len(TEXT_CYCLE)],
            author=f"user{i % 5}",
            created_at=start + dt.timedelta(days=i * 3),
            region=REGIONS[i % len(REGIONS)],
            engagement=Engagement(
                views=10 * i, likes=i % 7, reposts=i % 3, replies=i % 5
            ),
        )
        for i in range(count)
    ]


def _database():
    return KeywordDatabase(
        [AttackKeyword(keyword="dpfdelete", vector=AttackVector.LOCAL)]
    )


def _database_with_learned():
    db = _database()
    db.add(AttackKeyword(keyword="stage1"))
    return db


def _assert_tracker_parity(streamed, scratch, keyword="stage1"):
    assert streamed.window_count(keyword) == scratch.window_count(keyword)
    assert streamed.votes(keyword) == scratch.votes(keyword)
    assert streamed.window_total() == scratch.window_total()
    got = streamed.signals()[keyword]
    want = scratch.signals()[keyword]
    assert got.post_count == want.post_count
    assert got.engagement == want.engagement
    assert got.mean_sentiment == pytest.approx(
        want.mean_sentiment, rel=1e-9, abs=1e-12
    )


def _runtime(posts, database, **kwargs):
    return StreamRuntime(
        SyntheticFeed(posts),
        database,
        target=TARGET,
        since_year=2019,
        batch_size=40,
        **kwargs,
    )


class TestMidStreamLearning:
    @pytest.mark.parametrize(
        "retention",
        [{}, {"warm_span_days": 45, "cold_age_days": 120}],
        ids=["flat", "tiered"],
    )
    def test_learned_keyword_matches_from_scratch(self, retention):
        posts = _posts()
        streamed = _runtime(posts, _database(), **retention)
        # Ingest two thirds of the stream, learn, then finish.
        for _ in range(4):
            assert streamed.step() is not None
        learned = streamed.learn_keywords()
        assert "stage1" in learned
        assert "stage1" in streamed.deltas.keywords
        streamed.run()

        scratch = _runtime(posts, _database_with_learned(), **retention)
        scratch.run()

        _assert_tracker_parity(streamed.deltas, scratch.deltas)
        counters = streamed.runtime_health()["counters"]
        assert counters["learned_keywords"] == ["stage1"]
        if retention:
            stats = streamed.index.segment_stats
            assert stats["cold_seals"] > 0, "learning never crossed a seal"

    def test_learned_keyword_sai_matches_from_scratch(self):
        posts = _posts()
        retention = {"warm_span_days": 45, "cold_age_days": 120}
        streamed = _runtime(posts, _database(), **retention)
        for _ in range(4):
            streamed.step()
        assert "stage1" in streamed.learn_keywords()
        streamed.run()

        scratch = _runtime(posts, _database_with_learned(), **retention)
        scratch.run()

        assert streamed.current_result is not None
        got = {
            row[0]: row[1:]
            for row in streamed.current_result.sai.as_rows()
        }
        want = {
            row[0]: row[1:] for row in scratch.current_result.sai.as_rows()
        }
        assert set(got) == set(want)
        for keyword, (score, probability, count) in want.items():
            assert got[keyword][2] == count
            assert got[keyword][0] == pytest.approx(
                score, rel=1e-9, abs=1e-12
            )
            assert got[keyword][1] == pytest.approx(
                probability, rel=1e-9, abs=1e-12
            )

    def test_learning_before_any_seal_still_matches(self):
        posts = _posts(count=30)
        streamed = _runtime(
            posts, _database(), warm_span_days=45, cold_age_days=120
        )
        streamed.step()
        assert "stage1" in streamed.learn_keywords()
        streamed.run()
        scratch = _runtime(
            posts, _database_with_learned(),
            warm_span_days=45, cold_age_days=120,
        )
        scratch.run()
        _assert_tracker_parity(streamed.deltas, scratch.deltas)


class TestShardedLearning:
    def test_sharded_learned_keyword_matches_from_scratch(self):
        posts = _posts()
        retention = dict(warm_span_days=45, cold_age_days=120)
        streamed = ShardedStreamRuntime(
            shard_feeds(posts, 2),
            _database(),
            target=TARGET,
            since_year=2019,
            batch_size=40,
            **retention,
        )
        for _ in range(2):
            assert streamed.tick() is not None
        learned = streamed.learn_keywords()
        assert "stage1" in learned
        streamed.run()

        scratch = ShardedStreamRuntime(
            shard_feeds(posts, 2),
            _database_with_learned(),
            target=TARGET,
            since_year=2019,
            batch_size=40,
            **retention,
        )
        scratch.run()

        _assert_tracker_parity(streamed.deltas, scratch.deltas)
        for shard_streamed, shard_scratch in zip(
            streamed.shard_deltas, scratch.shard_deltas
        ):
            _assert_tracker_parity(shard_streamed, shard_scratch)
        counters = streamed.runtime_health()["counters"]
        assert counters["learned_keywords"] == ["stage1"]
        streamed.close()
        scratch.close()


def _one_feed(posts, database):
    return _runtime(posts, database)


def _two_shards(posts, database):
    return ShardedStreamRuntime(
        shard_feeds(posts, 2),
        database,
        target=TARGET,
        since_year=2019,
        batch_size=40,
    )


class TestLearningCheckpoint:
    """A checkpoint taken between learning and the next tick keeps the
    learned keywords' pending dirty marks, so the resumed tick scores
    them exactly like the uninterrupted one."""

    @pytest.mark.parametrize(
        "build", [_one_feed, _two_shards], ids=["one-feed", "two-shards"]
    )
    def test_state_taken_after_learning_keeps_dirty_marks(self, build):
        posts = _posts()
        live = build(posts, _database())
        for until in (dt.date(2019, 6, 30), dt.date(2019, 12, 31)):
            live.advance_to(until)
        assert "stage1" in live.learn_keywords()
        state = json.loads(json.dumps(live.state_dict()))

        resumed = build(posts, _database_with_learned())
        resumed.load_state(state)
        until = dt.date(2019, 12, 31)
        assert resumed.advance_to(until).dirty == ("stage1",)
        assert live.advance_to(until).dirty == ("stage1",)
