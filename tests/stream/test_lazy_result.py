"""A tick's result objects are built only when an alert or a read needs them.

:class:`~repro.stream.runtime.TickEvaluator` retunes on flat numbers and
keeps what each retune read.  The SAI list, split, tuning outcome and
:class:`~repro.core.framework.PSPRunResult` are built from that record
on an alert tick or on the first read of ``current_result``, and they
describe the retune's own tick whatever ran since.  These tests drive a
2-shard runtime over the ECM corpus, whose insider share drifts enough
to fire alerts.
"""

import datetime as dt
import json

import pytest

from repro.core.config import PSPConfig, TargetApplication
from repro.core.framework import PSPRunResult
from repro.core.sai import SAIEntry
from repro.social import ecm_reprogramming_corpus
from repro.social.post import Post
from repro.stream.feed import PostEvent
from repro.stream.sharding import ShardedStreamRuntime, shard_feeds
from tests.conftest import build_ecm_database

ECM_TARGET = TargetApplication("car", "europe", "passenger")
#: No staleness-forced retunes: an outsider-only tick always skips.
CONFIG = PSPConfig(stream_staleness_share=None)


def _posts():
    return list(ecm_reprogramming_corpus().posts)


def _runtime(posts):
    return ShardedStreamRuntime(
        shard_feeds(posts, 2),
        build_ecm_database(),
        target=ECM_TARGET,
        config=CONFIG,
        since_year=2015,
    )


def _boundaries(posts):
    """Month ends from the first post's month to the last post's."""
    first = min(post.created_at for post in posts)
    last = max(post.created_at for post in posts)
    out = []
    year, month = first.year, first.month
    while (year, month) <= (last.year, last.month):
        year, month = (year, month + 1) if month < 12 else (year + 1, 1)
        out.append(dt.date(year, month, 1) - dt.timedelta(days=1))
    return out


@pytest.fixture()
def built(monkeypatch):
    """Counts of SAI entries and run results constructed so far."""
    counts = {"sai": 0, "results": 0}
    post_init = SAIEntry.__post_init__
    init = PSPRunResult.__init__

    def counting_post_init(self):
        counts["sai"] += 1
        post_init(self)

    def counting_init(self, *args, **kwargs):
        counts["results"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SAIEntry, "__post_init__", counting_post_init)
    monkeypatch.setattr(PSPRunResult, "__init__", counting_init)
    return counts


def _rows(runtime):
    return runtime.current_result.sai.as_rows()


class TestSteadyTicks:
    def test_only_alerts_and_reads_build_results(self, built):
        posts = _posts()
        runtime = _runtime(posts)
        keywords = len(build_ecm_database())
        steady = alerts = 0
        for boundary in _boundaries(posts):
            before = dict(built)
            tick = runtime.advance_to(boundary)
            sai = built["sai"] - before["sai"]
            results = built["results"] - before["results"]
            if tick.alert is None:
                assert (sai, results) == (0, 0), boundary
                steady += tick.retuned
            else:
                assert (sai, results) == (keywords, 1), boundary
                alerts += 1
        assert steady >= 50
        assert alerts >= 1

        # The first read builds the latest retune's result; later reads
        # return the same object.
        before = dict(built)
        result = runtime.current_result
        assert built["sai"] - before["sai"] == keywords
        assert built["results"] - before["results"] == 1
        assert runtime.current_result is result
        assert built["results"] - before["results"] == 1


class TestReadSeesItsOwnTick:
    def test_read_after_a_skipped_tick_returns_the_last_retune(self):
        posts = _posts()
        boundaries = _boundaries(posts)[:60]
        lazy = _runtime(posts)
        eager = _runtime(posts)
        for boundary in boundaries:
            lazy.advance_to(boundary)
            if eager.advance_to(boundary).retuned:
                want = _rows(eager)  # built at its own tick
        # An outsider-only tick: relay-attack chatter after the last
        # boundary, pushed to both shards.
        day = boundaries[-1] + dt.timedelta(days=1)
        outsider = [
            [
                PostEvent(
                    seq=10 ** 6 + index,
                    post=Post(
                        post_id=f"relay-{shard}-{index}",
                        text="#relayattack thieves caught again",
                        author=f"news{shard}{index}",
                        created_at=day,
                        region="europe",
                    ),
                )
                for index in range(5)
            ]
            for shard in range(2)
        ]
        counted = lazy.deltas.window_count("relayattack", since_year=2015)
        tick = lazy.ingest(outsider)
        assert tick.dirty == ("relayattack",)
        assert not tick.retuned
        assert (
            lazy.deltas.window_count("relayattack", since_year=2015)
            == counted + 10
        )
        # Nothing was read from ``lazy`` before: this read builds the
        # result of the retune before the skipped tick.
        assert _rows(lazy) == want
        assert {row[0]: row[3] for row in want}["relayattack"] == counted


class TestRestoreMidStream:
    def test_round_trip_ends_on_the_uninterrupted_run(self):
        posts = _posts()
        boundaries = _boundaries(posts)
        middle = len(boundaries) // 2
        whole = _runtime(posts)
        for boundary in boundaries:
            whole.advance_to(boundary)

        first = _runtime(posts)
        for boundary in boundaries[:middle]:
            first.advance_to(boundary)
        alerts_before = len(first.alerts)
        state = json.loads(json.dumps(first.state_dict()))
        resumed = _runtime(posts)
        resumed.load_state(state)
        for boundary in boundaries[middle:]:
            resumed.advance_to(boundary)

        assert resumed.current_table == whole.current_table
        assert resumed.current_table.note == whole.current_table.note
        assert (
            resumed.current_result.sai.entries
            == whole.current_result.sai.entries
        )
        assert (
            resumed.deltas.state_dict()["buckets"]
            == whole.deltas.state_dict()["buckets"]
        )
        assert _rows(resumed) == _rows(whole)
        assert (
            resumed.current_result.split.all_keywords()
            == whole.current_result.split.all_keywords()
        )
        assert [
            (alert.describe(), alert.result.sai.as_rows())
            for alert in resumed.alerts
        ] == [
            (alert.describe(), alert.result.sai.as_rows())
            for alert in whole.alerts[alerts_before:]
        ]
        assert len(resumed.alerts) >= 1
