"""Tests for the stream index without retention: appends, seals, queries."""

import datetime as dt

import pytest

from repro.social.index import CorpusIndex
from repro.social.post import Post
from repro.stream.tiers import TieredCorpusIndex


def _post(i, day, text, month=1):
    return Post(
        post_id=f"p{i:03d}",
        text=text,
        author="a",
        created_at=dt.date(2020, month, day),
    )


POSTS = [
    _post(0, 1, "my #dpfdelete kit arrived"),
    _post(1, 2, "deleting the egr today"),
    _post(2, 3, "stolen excavator warning"),
    _post(3, 4, "dpf delete done at the workshop"),
    _post(4, 5, "#egr_removal before and after"),
]

KEYWORDS = ("dpfdelete", "egrremoval", "delet", "stolen", "nomatch")


class TestAppendEquivalence:
    def test_appended_equals_rebuilt(self):
        streaming = TieredCorpusIndex(POSTS[:2])
        streaming.append(POSTS[2:4])
        streaming.append(POSTS[4:])
        rebuilt = CorpusIndex(POSTS)
        got = streaming.search_many(KEYWORDS)
        want = rebuilt.search_many(KEYWORDS)
        for keyword in KEYWORDS:
            assert [p.post_id for p in got[keyword]] == [
                p.post_id for p in want[keyword]
            ], keyword

    def test_out_of_order_appends_keep_global_sort(self):
        streaming = TieredCorpusIndex(POSTS[3:])
        streaming.append(POSTS[:3])  # older than the base segment
        assert [p.post_id for p in streaming.posts] == [
            p.post_id for p in CorpusIndex(POSTS).posts
        ]
        assert [p.post_id for p in streaming.matching("delet")] == [
            p.post_id for p in CorpusIndex(POSTS).matching("delet")
        ]

    def test_window_and_limit(self):
        streaming = TieredCorpusIndex(POSTS[:3])
        streaming.append(POSTS[3:])
        got = streaming.search_many(
            ("dpfdelete",), since=dt.date(2020, 1, 2), limit=1
        )
        assert [p.post_id for p in got["dpfdelete"]] == ["p003"]

    def test_empty_index_answers_empty(self):
        streaming = TieredCorpusIndex()
        assert len(streaming) == 0
        assert streaming.matching("dpfdelete") == []


class TestMaintenance:
    def test_duplicate_ids_rejected(self):
        streaming = TieredCorpusIndex(POSTS[:2])
        with pytest.raises(ValueError, match="duplicate post id"):
            streaming.append([POSTS[0]])
        assert "p000" in streaming
        assert "p004" not in streaming

    def test_rejected_append_is_atomic(self):
        streaming = TieredCorpusIndex(POSTS[:2])
        streaming.matching("dpfdelete")  # build the tail index
        with pytest.raises(ValueError, match="duplicate post id"):
            streaming.append([POSTS[2], POSTS[3], POSTS[0]])
        # nothing from the failed batch leaked in
        assert len(streaming) == 2
        assert "p002" not in streaming
        assert streaming.matching("stolen") == []
        # a corrected retry of the same posts succeeds
        assert streaming.append(POSTS[2:4]) == 2
        assert [p.post_id for p in streaming.matching("stolen")] == ["p002"]

    def test_intra_batch_duplicates_rejected(self):
        streaming = TieredCorpusIndex()
        with pytest.raises(ValueError, match="duplicate post id"):
            streaming.append([POSTS[0], POSTS[0]])
        assert len(streaming) == 0

    def test_compaction_triggers_at_threshold(self):
        # Initial posts enter the hot tail like any append.
        streaming = TieredCorpusIndex(POSTS[:1], compact_threshold=3)
        streaming.append(POSTS[1:2])
        assert streaming.segment_stats["hot_seals"] == 0
        streaming.append(POSTS[2:4])  # tail reaches 4 >= 3 -> seals
        stats = streaming.segment_stats
        assert stats["hot_seals"] == 1
        assert stats["tail_posts"] == 0
        assert stats["base_posts"] == 4
        # queries unaffected by segment layout
        assert [p.post_id for p in streaming.matching("delet")] == [
            p.post_id for p in CorpusIndex(POSTS[:4]).matching("delet")
        ]

    def test_as_corpus_index_snapshots(self):
        streaming = TieredCorpusIndex(POSTS[:2])
        streaming.append(POSTS[2:])
        snapshot = streaming.as_corpus_index()
        assert isinstance(snapshot, CorpusIndex)
        assert [p.post_id for p in snapshot.posts] == [
            p.post_id for p in CorpusIndex(POSTS).posts
        ]
        # A fresh snapshot: the index's own segments are left as they were.
        assert streaming.segment_stats["tail_posts"] == len(POSTS)

    def test_single_span_consolidates_the_whole_history(self):
        streaming = TieredCorpusIndex(compact_threshold=1)
        for post in POSTS:
            streaming.append([post])
        stats = streaming.segment_stats
        assert stats["hot_seals"] == len(POSTS)
        assert stats["consolidations"] == 1
        assert stats["cold_seals"] == 0
        assert stats["tiers"]["warm"]["spans"] == 1
        assert stats["tiers"]["warm"]["chunks"] == 2
        assert [p.post_id for p in streaming.posts] == [
            p.post_id for p in CorpusIndex(POSTS).posts
        ]

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            TieredCorpusIndex(compact_threshold=0)


class TestRatioCompaction:
    def test_ratio_triggers_before_threshold(self):
        streaming = TieredCorpusIndex(
            compact_threshold=1000, compact_ratio=0.25
        )
        streaming.append(POSTS[:4])  # empty sealed side: seals at once
        # tail 1 >= 0.25 * sealed 4 -> seals despite the huge threshold
        streaming.append(POSTS[4:])
        stats = streaming.segment_stats
        assert stats["hot_seals"] == 2
        assert stats["tail_posts"] == 0
        assert stats["base_posts"] == len(POSTS)

    def test_small_tail_rides_under_the_ratio(self):
        streaming = TieredCorpusIndex(
            compact_threshold=1000, compact_ratio=0.5
        )
        streaming.append(POSTS[:4])
        streaming.append(POSTS[4:])  # tail 1 < 0.5 * sealed 4
        stats = streaming.segment_stats
        assert stats["hot_seals"] == 1
        assert stats["tail_posts"] == 1

    def test_empty_base_compacts_immediately_under_ratio(self):
        streaming = TieredCorpusIndex(
            compact_threshold=1000, compact_ratio=0.5
        )
        streaming.append(POSTS[:1])
        assert streaming.segment_stats["base_posts"] == 1
        assert streaming.segment_stats["tail_posts"] == 0

    def test_ratio_bounds_tail_under_sustained_ingest(self):
        streaming = TieredCorpusIndex(
            compact_threshold=10_000, compact_ratio=0.5
        )
        for i, post in enumerate(
            _post(100 + i, (i % 27) + 1, f"dpf delete number {i}", month=2)
            for i in range(40)
        ):
            streaming.append([post])
            stats = streaming.segment_stats
            assert stats["tail_posts"] <= max(
                1, 0.5 * stats["base_posts"]
            )

    def test_queries_unaffected_by_ratio_policy(self):
        streaming = TieredCorpusIndex(compact_ratio=0.34)
        for post in POSTS:
            streaming.append([post])
        rebuilt = CorpusIndex(POSTS)
        got = streaming.search_many(KEYWORDS)
        want = rebuilt.search_many(KEYWORDS)
        for keyword in KEYWORDS:
            assert [p.post_id for p in got[keyword]] == [
                p.post_id for p in want[keyword]
            ]

    def test_stats_expose_both_policies(self):
        stats = TieredCorpusIndex(
            compact_threshold=77, compact_ratio=0.2
        ).segment_stats
        assert stats["compact_threshold"] == 77
        assert stats["compact_ratio"] == 0.2
        assert TieredCorpusIndex().segment_stats["compact_ratio"] is None

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            TieredCorpusIndex(compact_ratio=0.0)
        with pytest.raises(ValueError):
            TieredCorpusIndex(compact_ratio=-1.5)
