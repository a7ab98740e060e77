"""Property tests: tiered index == single-tier rebuild, sidecar == observe.

The contracts behind :class:`repro.stream.tiers.TieredCorpusIndex`:

* after any append sequence — out-of-order arrivals, random retention
  knobs, seal boundaries crossing mid-batch — ``posts`` and
  ``search_many`` answer post-for-post identically to a from-scratch
  :class:`repro.social.index.CorpusIndex` over the union of everything
  appended;
* a sealed segment's :class:`repro.stream.deltas.SegmentSidecar` holds
  exactly the aggregates a :class:`DeltaTracker` reaches by observing
  the segment's posts one at a time — window counts and votes
  bit-for-bit, the float sentiment sum included (one segment is one
  columnar sweep, which is the per-post fold);
* ``state_dict``/``load_state`` roundtrips the full tier layout, and an
  index restored mid-stream seals, consolidates and answers exactly like
  the uninterrupted one as appends continue;
* chunks built and folded at the door (``append`` with ``columns`` and
  ``runs``, as the stream runtime's shard job does) leave every cold
  sidecar bit-identical to a sweep of its segment, whether they arrive
  in order, out of order, across span boundaries, around a restore or
  around a keyword learned mid-stream — and the index is otherwise the
  one the same posts make without runs.
"""

import datetime as dt
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.iso21434.enums import AttackVector
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social.columnar import ColumnarCorpus
from repro.social.index import CorpusIndex
from repro.social.post import Engagement, Post
from repro.stream.deltas import (
    DeltaTracker,
    SegmentSidecar,
    compute_signal_delta_columnar,
)
from repro.stream.tiers import TieredCorpusIndex
from tests.stream.test_tiered_index import assert_same_sums

WORDS = (
    "dpf", "delete", "deleting", "egr", "removal", "kit", "install",
    "my", "the", "mechanic", "dealer", "stolen", "warranty", "love",
    "hate", "#dpfdelete", "#egr_removal", "superdpfdeletekit",
)

KEYWORDS = ("dpf delete", "egr removal", "delete", "kit", "nomatchxyz")

REGIONS = ("europe", "americas")

WINDOWS = (
    (None, None),
    (dt.date(2018, 1, 1), dt.date(2021, 12, 31)),
    (dt.date(2022, 6, 1), None),
    (dt.date(2030, 1, 1), dt.date(2030, 12, 31)),  # empty window
)


def _database():
    database = KeywordDatabase()
    for keyword in KEYWORDS:
        database.add(
            AttackKeyword(keyword=keyword, vector=AttackVector.LOCAL)
        )
    return database


@st.composite
def _stream(draw, ordered=False):
    """Posts in a jittered near-chronological arrival order, batched.

    Real feeds are mostly ordered with bounded disorder; fully random
    shuffles are legal but degenerate (every straggler lands in an
    already-cold span and seals a one-post segment), so the jitter is
    bounded to keep the generated layouts representative.  ``ordered``
    sorts the posts by date first, so a batch often lies wholly in a
    span newer than every hot post.
    """
    count = draw(st.integers(min_value=0, max_value=45))
    start = dt.date(2019, 1, 1).toordinal()
    posts = []
    for index in range(count):
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6))
        jitter = draw(st.integers(min_value=-20, max_value=20))
        ordinal = start + index * draw(st.integers(min_value=0, max_value=25))
        posts.append(
            Post(
                post_id=f"p{index:03d}",
                text=" ".join(words),
                author=draw(st.sampled_from(("a", "b", "c"))),
                created_at=dt.date.fromordinal(max(start, ordinal + jitter)),
                region=draw(st.sampled_from(REGIONS)),
                engagement=Engagement(
                    views=draw(st.integers(min_value=0, max_value=500)),
                    likes=draw(st.integers(min_value=0, max_value=50)),
                    reposts=draw(st.integers(min_value=0, max_value=20)),
                    replies=draw(st.integers(min_value=0, max_value=20)),
                ),
            )
        )
    if ordered:
        posts.sort(key=lambda post: (post.created_at, post.post_id))
    batches = []
    remaining = list(posts)
    while remaining:
        size = draw(st.integers(min_value=1, max_value=len(remaining)))
        batches.append(remaining[:size])
        remaining = remaining[size:]
    knobs = dict(
        compact_threshold=draw(st.integers(min_value=2, max_value=30)),
        warm_span_days=draw(st.integers(min_value=7, max_value=120)),
        cold_age_days=draw(st.integers(min_value=30, max_value=500)),
    )
    return posts, batches, knobs


class TestTieredEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=_stream())
    def test_tiered_equals_rebuilt_over_union(self, data):
        posts, batches, knobs = data
        tiered = TieredCorpusIndex(**knobs)
        for batch in batches:
            tiered.append(batch)
        rebuilt = CorpusIndex(posts)

        assert len(tiered) == len(rebuilt)
        assert [p.post_id for p in tiered.posts] == [
            p.post_id for p in rebuilt.posts
        ]
        for since, until in WINDOWS:
            routed = tiered.search_many(KEYWORDS, since=since, until=until)
            expected = rebuilt.search_many(KEYWORDS, since=since, until=until)
            for keyword in KEYWORDS:
                assert [p.post_id for p in routed[keyword]] == [
                    p.post_id for p in expected[keyword]
                ], (keyword, since, until)

    @settings(max_examples=25, deadline=None)
    @given(data=_stream())
    def test_state_roundtrip_preserves_layout_and_queries(self, data):
        posts, batches, knobs = data
        tiered = TieredCorpusIndex(**knobs)
        for batch in batches:
            tiered.append(batch)
        restored = TieredCorpusIndex(**knobs)
        restored.load_state(tiered.state_dict())

        assert restored.segment_stats == tiered.segment_stats
        original = tiered.search_many(KEYWORDS)
        roundtripped = restored.search_many(KEYWORDS)
        for keyword in KEYWORDS:
            assert [p.post_id for p in roundtripped[keyword]] == [
                p.post_id for p in original[keyword]
            ]

    @settings(max_examples=40, deadline=None)
    @given(data=st.one_of(_stream(), _stream(ordered=True)), draw=st.data())
    def test_resume_then_continue_matches_uninterrupted(self, data, draw):
        posts, batches, knobs = data
        cut = draw.draw(st.integers(min_value=0, max_value=len(batches)))
        uninterrupted = TieredCorpusIndex(**knobs)
        for batch in batches[:cut]:
            uninterrupted.append(batch)
        resumed = TieredCorpusIndex(**knobs)
        resumed.load_state(uninterrupted.state_dict())
        for batch in batches[cut:]:
            uninterrupted.append(batch)
            resumed.append(batch)
            assert resumed.segment_stats == uninterrupted.segment_stats
            # Each append seals every post of a completed span, so the
            # hot tail never holds more than the current span.
            assert resumed.tier_stats["hot"]["spans"] <= 1

        assert resumed.segment_stats == uninterrupted.segment_stats
        for since, until in WINDOWS:
            expected = uninterrupted.search_many(
                KEYWORDS, since=since, until=until
            )
            got = resumed.search_many(KEYWORDS, since=since, until=until)
            for keyword in KEYWORDS:
                assert [p.post_id for p in got[keyword]] == [
                    p.post_id for p in expected[keyword]
                ], (keyword, since, until)

    @settings(max_examples=30, deadline=None)
    @given(data=_stream(), region=st.sampled_from((None,) + REGIONS))
    def test_sidecar_matches_per_post_observe(self, data, region):
        posts, _, _ = data
        database = _database()
        observed = DeltaTracker(database, region=region)
        for post in posts:
            observed.observe(post)

        columns = ColumnarCorpus.from_posts(posts)
        sidecar = SegmentSidecar.build(
            observed.keywords, columns, region=region
        )
        from_sidecar = DeltaTracker(database, region=region)
        from_sidecar.apply_delta(sidecar.as_delta())

        # Integer aggregates — window counts, engagement sums, votes —
        # are exact regardless of arrival order.
        assert sidecar.posts == len(posts)
        assert from_sidecar.observed_posts == observed.observed_posts
        for keyword in observed.keywords:
            assert from_sidecar.votes(keyword) == observed.votes(keyword)
            assert from_sidecar.window_count(keyword) == observed.window_count(
                keyword
            )
        assert from_sidecar.window_total() == observed.window_total()
        arrival = observed.state_dict()
        pooled = from_sidecar.state_dict()
        assert pooled["votes"] == arrival["votes"]
        for keyword, years in arrival["buckets"].items():
            for year, values in years.items():
                got = pooled["buckets"][keyword][year]
                assert got[:5] == values[:5]
                # The float sentiment sum agrees up to summation order
                # (the segment sweeps in (date, id) order, the tracker
                # in arrival order).
                assert got[5] == pytest.approx(values[5], rel=1e-9, abs=1e-12)

        # Observed in the segment's own (date, id) order the fold is
        # the same float sequence, so the sums agree bit-for-bit.
        in_order = DeltaTracker(database, region=region)
        for post in sorted(posts, key=lambda p: (p.created_at, p.post_id)):
            in_order.observe(post)
        assert pooled["buckets"] == in_order.state_dict()["buckets"]


def _span_aligned(posts, batches, span_days):
    """``posts`` sorted, cut at the batch sizes and at span boundaries."""
    ordered = iter(sorted(posts, key=lambda post: (post.created_at, post.post_id)))
    aligned = []
    for batch in batches:
        chunk = [next(ordered) for _ in batch]
        aligned.extend(
            list(group)
            for _, group in groupby(
                chunk, key=lambda post: post.created_at.toordinal() // span_days
            )
        )
    return aligned


class TestDoorChunks:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.one_of(_stream(), _stream(ordered=True)),
        aligned=st.booleans(),
        region=st.sampled_from((None,) + REGIONS),
        draw=st.data(),
    )
    def test_folded_sidecars_equal_the_sweep(
        self, data, aligned, region, draw
    ):
        posts, batches, knobs = data
        if aligned:
            # In order and never across a span boundary: the chunks
            # whose runs every cold seal folds (or extends).
            batches = _span_aligned(posts, batches, knobs["warm_span_days"])
        learn_at = draw.draw(st.integers(min_value=0, max_value=len(batches)))
        restore_at = draw.draw(
            st.integers(min_value=0, max_value=len(batches))
        )
        analyzer = SentimentAnalyzer()
        canonical = _database().keywords
        keywords = canonical[:3]
        context = dict(sidecar_region=region, sidecar_analyzer=analyzer)

        def index():
            return TieredCorpusIndex(
                sidecar_keywords=keywords, **knobs, **context
            )

        door = index()
        today = index()
        for position, batch in enumerate(batches):
            if position == learn_at:
                keywords = canonical
                for target in (door, today):
                    target.adopt_sidecar_keywords(keywords)
            if position == restore_at:
                restored = index()
                restored.adopt_sidecar_keywords(keywords)
                restored.load_state(door.state_dict())
                door = restored
            columns = ColumnarCorpus.from_posts(batch)
            _, runs = compute_signal_delta_columnar(
                keywords, columns, region=region, analyzer=analyzer, runs=True
            )
            door.append(batch, columns=columns, runs=runs)
            today.append(batch, columns=ColumnarCorpus.from_posts(batch))

        for segment in door._cold:
            # A span sealed before the learning covers the keywords of
            # its seal (backfill extends it later).
            assert_same_sums(
                segment.sidecar,
                SegmentSidecar.build(
                    segment.sidecar.keywords,
                    door._materialize(segment),
                    region=region,
                    analyzer=analyzer,
                ),
            )
        assert door.segment_stats == today.segment_stats
        assert door.state_dict() == today.state_dict()
        for since, until in WINDOWS:
            got = door.search_many(KEYWORDS, since=since, until=until)
            want = today.search_many(KEYWORDS, since=since, until=until)
            for keyword in KEYWORDS:
                assert [p.post_id for p in got[keyword]] == [
                    p.post_id for p in want[keyword]
                ], (keyword, since, until)
