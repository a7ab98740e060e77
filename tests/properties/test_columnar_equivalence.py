"""Property tests: columnar arenas equal the per-object reference paths.

The contract of :class:`repro.social.columnar.ColumnarCorpus` is strict
equivalence with the pre-columnar per-object implementations:

* the arena-sweep matcher (`search_positions`) returns exactly the
  positions the naive per-post :func:`~repro.nlp.normalize.keyword_in_text`
  scan returns — keywords folding to the empty canonical match nothing,
  even on posts whose hashtags fold to the empty canonical too;
* window aggregates (`engagement_slice`, `sentiment_slice`,
  :func:`~repro.stream.deltas.compute_signal_delta_columnar`) are
  **bit-for-bit** equal to folding the same posts through
  :class:`~repro.stream.deltas.DeltaTracker.observe`, float sums
  included;
* lazily materialized `Post` objects equal the originals by value;
* the equivalences survive out-of-order streaming appends, compaction
  (array concatenation and the gather-merge fallback) and a
  ``state_dict``/``load_state`` round-trip.
"""

import datetime as dt
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.analysis import analyze_text
from repro.nlp.normalize import canonical_keyword, keyword_in_text
from repro.social.columnar import (
    ColumnarCorpus,
    TextInterner,
    columns_to_posts,
    posts_to_columns,
)
from repro.social.index import CorpusIndex
from repro.social.post import Engagement, Post
from repro.stream.deltas import DeltaTracker, compute_signal_delta_columnar
from repro.stream.tiers import TieredCorpusIndex

WORDS = (
    "dpf", "delete", "deleting", "deletes", "egr", "removal", "tuning",
    "remap", "chip", "stage", "kit", "install", "superdpfdeletekit",
    "adblue", "off", "my", "the", "police", "dp", "fdelete", "great",
    "terrible",
    # Voice markers in mixed case and glued by separators.
    "My", "POLICE", "thieves-gang", "got_it",
)
HASHTAGS = (
    "#dpfdelete", "#DPF_delete", "#egr_removal", "#stage2",
    "#_", "#ü",  # fold to the empty canonical
)
SEPARATORS = (" ", " - ", "_", " / ", ". ")

KEYWORDS = (
    "dpf delete",
    "#dpfdelete",
    "egr removal",
    "delete",
    "deleting",
    "stage2",
    "adblueoff",
    "kit",
    "nomatchxyz",
    "!!!",  # folds to the empty canonical
    "#ü",  # a hashtag keyword folding to the empty canonical
)

WINDOWS = (
    (None, None),
    (dt.date(2018, 1, 1), dt.date(2021, 12, 31)),
    (dt.date(2023, 6, 1), None),
    (None, dt.date(2017, 3, 31)),
    (dt.date(2030, 1, 1), dt.date(2030, 12, 31)),  # empty window
)


def reference_positions(posts, keyword, since, until):
    """The naive per-post matcher, position for position.

    Posts must be in global ``(created_at, post_id)`` order.  A window
    post matches when :func:`~repro.nlp.normalize.keyword_in_text`
    finds the keyword in its raw text.
    """
    return [
        position
        for position, post in enumerate(posts)
        if (since is None or post.created_at >= since)
        and (until is None or post.created_at <= until)
        and keyword_in_text(keyword, post.text)
    ]


@st.composite
def _post_lists(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    posts = []
    for i in range(n):
        tokens = draw(
            st.lists(st.sampled_from(WORDS + HASHTAGS), min_size=1, max_size=6)
        )
        seps = draw(
            st.lists(
                st.sampled_from(SEPARATORS),
                min_size=len(tokens),
                max_size=len(tokens),
            )
        )
        text = "".join(t + s for t, s in zip(tokens, seps)).strip() or tokens[0]
        posts.append(
            Post(
                post_id=f"p{i}",
                text=text,
                author=f"user{i % 4}",
                created_at=draw(
                    st.dates(
                        min_value=dt.date(2016, 1, 1),
                        max_value=dt.date(2023, 12, 31),
                    )
                ),
                region=draw(st.sampled_from(["europe", "america"])),
                engagement=Engagement(
                    views=draw(st.integers(min_value=0, max_value=5000)),
                    likes=draw(st.integers(min_value=0, max_value=300)),
                    reposts=draw(st.integers(min_value=0, max_value=100)),
                    replies=draw(st.integers(min_value=0, max_value=50)),
                ),
            )
        )
    return posts


def _sorted(posts):
    return sorted(posts, key=lambda p: (p.created_at, p.post_id))


class TestColumnarMatcherEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(posts=_post_lists())
    def test_search_positions_equal_reference(self, posts):
        ordered = _sorted(posts)
        columns = ColumnarCorpus.from_posts(posts)
        for since, until in WINDOWS:
            lo, hi = columns.window_bounds(since, until)
            for keyword in KEYWORDS:
                canonical = canonical_keyword(keyword)
                got = columns.search_positions(canonical, lo, hi)
                assert got == reference_positions(
                    ordered, keyword, since, until
                ), (keyword, since, until)

    @settings(max_examples=25, deadline=None)
    @given(posts=_post_lists())
    def test_materialized_posts_equal_originals(self, posts):
        columns = ColumnarCorpus.from_posts(posts)
        assert list(columns.all_posts()) == _sorted(posts)

    @settings(max_examples=25, deadline=None)
    @given(posts=_post_lists())
    def test_columns_state_round_trip(self, posts):
        columns = ColumnarCorpus.from_posts(posts)
        # Through JSON, like a real checkpoint file.
        state = json.loads(json.dumps(columns.state_dict()))
        restored = ColumnarCorpus.from_state(state)
        assert list(restored.all_posts()) == list(columns.all_posts())
        assert restored.arena_chars == columns.arena_chars
        # Arrival-order serialization helpers round-trip exactly too.
        assert columns_to_posts(posts_to_columns(posts)) == list(posts)


class TestColumnarAggregateEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(posts=_post_lists(), region=st.sampled_from([None, "europe"]))
    def test_columnar_delta_bit_for_bit_equals_tracker_fold(
        self, posts, region
    ):
        keywords = tuple(
            canonical_keyword(k) for k in KEYWORDS if canonical_keyword(k)
        )
        columns = ColumnarCorpus.from_posts(posts)
        for since, until in WINDOWS:
            lo, hi = columns.window_bounds(since, until)
            reference = DeltaTracker(keywords=keywords, region=region)
            reference.observe_batch(columns.all_posts()[lo:hi])
            streamed = DeltaTracker(keywords=keywords, region=region)
            streamed.apply_delta(
                compute_signal_delta_columnar(
                    keywords, columns, since=since, until=until, region=region
                )
            )
            # state_dict captures buckets (sentiment_sum floats included),
            # votes, observed and dirty — equality must be exact.
            assert streamed.state_dict() == reference.state_dict(), (
                since,
                until,
            )

    @settings(max_examples=30, deadline=None)
    @given(posts=_post_lists())
    def test_engagement_and_sentiment_slices_equal_per_post_fold(self, posts):
        from repro.nlp.sentiment import SentimentAnalyzer

        analyzer = SentimentAnalyzer()
        columns = ColumnarCorpus.from_posts(posts)
        ordered = columns.all_posts()
        for since, until in WINDOWS:
            lo, hi = columns.window_bounds(since, until)
            window = ordered[lo:hi]
            got = columns.engagement_slice(lo, hi)
            assert got.views == sum(p.engagement.views for p in window)
            assert got.likes == sum(p.engagement.likes for p in window)
            assert got.reposts == sum(p.engagement.reposts for p in window)
            assert got.replies == sum(p.engagement.replies for p in window)
            expected_sentiment = 0.0
            for post in window:
                expected_sentiment += analyzer.score_analysis(
                    analyze_text(post.text)
                ).score
            assert columns.sentiment_slice(analyzer, lo, hi) == (
                expected_sentiment
            )


class TestStreamingColumnarEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.integers(min_value=0, max_value=2**32 - 1),
        posts=_post_lists(),
        threshold=st.integers(min_value=1, max_value=8),
    )
    def test_out_of_order_appends_and_compaction(self, data, posts, threshold):
        import random

        arrival = list(posts)
        random.Random(data).shuffle(arrival)
        streaming = TieredCorpusIndex(compact_threshold=threshold)
        step = max(1, threshold - 1)
        for start in range(0, len(arrival), step):
            streaming.append(arrival[start : start + step])
        rebuilt = CorpusIndex(posts)
        for since, until in WINDOWS:
            got = streaming.search_many(KEYWORDS, since=since, until=until)
            expected = rebuilt.search_many(KEYWORDS, since=since, until=until)
            for keyword in KEYWORDS:
                assert [p.post_id for p in got[keyword]] == [
                    p.post_id for p in expected[keyword]
                ], (keyword, since, until)
        # Post-compaction state: force the terminal merge and re-check.
        streaming.compact()
        assert list(streaming.posts) == list(rebuilt.posts)
        assert streaming.matching("delete") == rebuilt.matching("delete")

    @settings(max_examples=20, deadline=None)
    @given(posts=_post_lists(), threshold=st.integers(min_value=1, max_value=6))
    def test_state_round_trip_preserves_segments_and_queries(
        self, posts, threshold
    ):
        streaming = TieredCorpusIndex(compact_threshold=threshold)
        for start in range(0, len(posts), 3):
            streaming.append(posts[start : start + 3])
        state = json.loads(json.dumps(streaming.state_dict()))
        restored = TieredCorpusIndex(compact_threshold=threshold)
        restored.load_state(state)
        assert restored.segment_stats == streaming.segment_stats
        assert list(restored.posts) == list(streaming.posts)
        for keyword in KEYWORDS:
            assert [p.post_id for p in restored.matching(keyword)] == [
                p.post_id for p in streaming.matching(keyword)
            ]
