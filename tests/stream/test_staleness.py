"""Tests for the outsider-chatter staleness retune policy.

The conditional-retune optimisation skips evaluation when no dirty
keyword is insider-relevant — correct for the renormalised insider
*table* (outsider volume cancels), but SAI *scores* are shares of
corpus-wide totals, so a long outsider-only quiet period lets the
cached scores drift arbitrarily far from a fresh batch run.  The
``stream_staleness_share`` policy bounds that drift: an outsider-only
tick that moves the in-window corpus volume past the threshold forces
a retune anyway.
"""

import datetime as dt

import pytest

from repro.core.config import PSPConfig
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.iso21434.enums import AttackVector
from repro.social.post import Post
from repro.stream.checkpoint import restore_runtime, save_checkpoint
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime


def _database() -> KeywordDatabase:
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
    return db


def _insider_posts(count, start=dt.date(2020, 1, 1)):
    return [
        Post(
            post_id=f"i{i:03d}",
            text="my #dpfdelete kit was worth it",
            author=f"mech{i:03d}",
            created_at=start + dt.timedelta(days=i),
        )
        for i in range(count)
    ]


def _outsider_posts(count, start=dt.date(2020, 6, 1), prefix="o"):
    return [
        Post(
            post_id=f"{prefix}{i:03d}",
            text="#relayattack thieves caught again",
            author=f"news{i:03d}",
            created_at=start + dt.timedelta(days=i),
        )
        for i in range(count)
    ]


def _dpf_probability(runtime) -> float:
    rows = runtime.current_result.sai.as_rows()
    return {row[0]: row[2] for row in rows}["dpfdelete"]


class TestConfigValidation:
    def test_nonpositive_share_rejected(self):
        with pytest.raises(ValueError):
            PSPConfig(stream_staleness_share=0.0)
        with pytest.raises(ValueError):
            PSPConfig(stream_staleness_share=-0.1)

    def test_none_disables_policy(self):
        assert PSPConfig(stream_staleness_share=None).stream_staleness_share is None

    def test_default_is_ten_percent(self):
        assert PSPConfig().stream_staleness_share == pytest.approx(0.10)


class TestInsiderScoreDrift:
    """The regression the policy exists for."""

    def test_outsider_flood_drifts_sai_without_policy(self):
        # 20 insider posts, then 10 outsider posts: the true dpfdelete
        # probability falls from 1.0 to 20/30, but with the policy off
        # the skipped tick leaves the cached 1.0 in place.
        posts = _insider_posts(20) + _outsider_posts(10)
        feed = SyntheticFeed(posts)
        runtime = StreamRuntime(
            feed, _database(),
            config=PSPConfig(stream_staleness_share=None),
        )
        runtime.ingest(feed.events_after(-1, limit=20))
        assert _dpf_probability(runtime) == pytest.approx(1.0)
        tick = runtime.ingest(feed.events_after(runtime.cursor))
        assert tick.dirty == ("relayattack",)
        assert not tick.retuned  # the PR4 skip, unbounded
        stale = _dpf_probability(runtime)
        assert stale == pytest.approx(1.0)
        # Ground truth: a fresh replay scoring all 30 posts at once.
        fresh_feed = SyntheticFeed(posts)
        fresh = StreamRuntime(fresh_feed, _database())
        fresh.ingest(fresh_feed.events_after(-1))
        assert stale - _dpf_probability(fresh) > 0.25  # the drift

    def test_outsider_flood_forces_retune_with_default_policy(self):
        posts = _insider_posts(20) + _outsider_posts(10)
        feed = SyntheticFeed(posts)
        runtime = StreamRuntime(feed, _database())
        runtime.ingest(feed.events_after(-1, limit=20))
        tick = runtime.ingest(feed.events_after(runtime.cursor))
        # 10 posts on a 20-post window is a 50% move > the 10% default.
        assert tick.dirty == ("relayattack",)
        assert tick.retuned
        assert tick.alert is None  # volume moved, ratings did not
        assert runtime.runtime_health()["counters"]["forced_retunes"] == 1
        # The forced retune lands exactly on the fresh-scoring truth.
        fresh_feed = SyntheticFeed(posts)
        fresh = StreamRuntime(fresh_feed, _database())
        fresh.ingest(fresh_feed.events_after(-1))
        assert _dpf_probability(runtime) == pytest.approx(
            _dpf_probability(fresh)
        )

    def test_below_threshold_drip_still_skips(self):
        posts = _insider_posts(40) + _outsider_posts(3)
        feed = SyntheticFeed(posts)
        runtime = StreamRuntime(feed, _database())
        runtime.ingest(feed.events_after(-1, limit=40))
        tick = runtime.ingest(feed.events_after(runtime.cursor))
        # 3 posts on a 40-post window is 7.5% < 10%: the cheap skip
        # survives, bounding the cost of the policy to one counter read.
        assert not tick.retuned
        assert runtime.runtime_health()["counters"]["forced_retunes"] == 0

    def test_reference_resets_on_each_retune(self):
        # After a forced retune the drift reference is the new window
        # total, so the same absolute drip no longer re-triggers: the
        # policy is amortised against the current corpus size.
        posts = (
            _insider_posts(20)
            + _outsider_posts(10)
            + _outsider_posts(2, start=dt.date(2020, 9, 1), prefix="p")
        )
        feed = SyntheticFeed(posts)
        runtime = StreamRuntime(feed, _database())
        runtime.ingest(feed.events_after(-1, limit=20))
        forced = runtime.ingest(feed.events_after(runtime.cursor, limit=10))
        assert forced.retuned
        drip = runtime.ingest(feed.events_after(runtime.cursor))
        # 2 posts on the refreshed 30-post reference is 6.7% < 10%.
        assert not drip.retuned
        assert runtime.runtime_health()["counters"]["forced_retunes"] == 1


class TestStalenessStatePersistence:
    def test_reference_and_counter_survive_checkpoint(self, tmp_path):
        posts = _insider_posts(20) + _outsider_posts(10)
        feed = SyntheticFeed(posts)
        runtime = StreamRuntime(feed, _database())
        runtime.ingest(feed.events_after(-1, limit=20))
        runtime.ingest(feed.events_after(runtime.cursor))
        assert runtime.evaluator.retune_window_posts == 30
        assert runtime.evaluator.forced_retunes == 1

        path = save_checkpoint(runtime, tmp_path / "staleness.ckpt.json")
        resumed = restore_runtime(path, SyntheticFeed(posts), _database())
        assert resumed.evaluator.retune_window_posts == 30
        assert resumed.evaluator.forced_retunes == 1

    def test_legacy_state_defaults_to_no_reference(self):
        # A pre-policy checkpoint has no retune_window_posts: the
        # restored evaluator starts without a reference and re-arms on
        # its next retune instead of guessing.
        runtime = StreamRuntime(SyntheticFeed([]), _database())
        state = runtime.state_dict()
        del state["retune_window_posts"]
        del state["forced_retunes"]
        fresh = StreamRuntime(SyntheticFeed([]), _database())
        fresh.load_state(state)
        assert fresh.evaluator.retune_window_posts is None
        assert fresh.evaluator.forced_retunes == 0
