"""Property tests: streamed index == from-scratch rebuild.

The contract of :class:`repro.stream.tiers.TieredCorpusIndex` without
retention: after any sequence of appends — random micro-batch sizes,
arbitrary arrival order, any seal cadence — ``search_many`` answers
post-for-post identically to a :class:`repro.social.index.CorpusIndex`
built from scratch over the union of everything appended.
"""

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.social.index import CorpusIndex
from repro.social.post import Post
from repro.stream.tiers import TieredCorpusIndex

#: Same edge-shape vocabulary as the batch index property tests:
#: stem collisions, mid-token carriers, phrase halves, boundary bait.
WORDS = (
    "dpf", "delete", "deleting", "deletes", "egr", "removal", "tuning",
    "kit", "install", "superdpfdeletekit", "adblue", "off", "my", "the",
    "police", "dp", "fdelete",
)
HASHTAGS = ("#dpfdelete", "#DPF_delete", "#egr_removal", "#AdBlue_off")
SEPARATORS = (" ", " - ", "_", " / ", ". ")

KEYWORDS = (
    "dpf delete",
    "#dpfdelete",
    "egr removal",
    "delete",
    "deleting",
    "adblueoff",
    "kit",
    "nomatchxyz",
)

WINDOWS = (
    (None, None),
    (dt.date(2018, 1, 1), dt.date(2021, 12, 31)),
    (dt.date(2023, 6, 1), None),
    (dt.date(2030, 1, 1), dt.date(2030, 12, 31)),  # empty window
)


@st.composite
def _posts_and_batches(draw):
    """A random post list plus a random micro-batch partition of it."""
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
            )
        )
    # random partition into micro-batches (order of arrival random too)
    shuffled = draw(st.permutations(posts))
    batches = []
    remaining = list(shuffled)
    while remaining:
        size = draw(st.integers(min_value=1, max_value=len(remaining)))
        batches.append(remaining[:size])
        remaining = remaining[size:]
    threshold = draw(st.integers(min_value=1, max_value=40))
    return posts, batches, threshold


class TestStreamedIndexEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=_posts_and_batches())
    def test_streamed_equals_rebuilt_over_union(self, data):
        posts, batches, threshold = data
        streaming = TieredCorpusIndex(compact_threshold=threshold)
        for batch in batches:
            streaming.append(batch)
        rebuilt = CorpusIndex(posts)

        assert len(streaming) == len(rebuilt)
        assert [p.post_id for p in streaming.posts] == [
            p.post_id for p in rebuilt.posts
        ]
        for since, until in WINDOWS:
            streamed = streaming.search_many(
                KEYWORDS, since=since, until=until
            )
            expected = rebuilt.search_many(KEYWORDS, since=since, until=until)
            for keyword in KEYWORDS:
                assert [p.post_id for p in streamed[keyword]] == [
                    p.post_id for p in expected[keyword]
                ], (keyword, since, until)

    @settings(max_examples=25, deadline=None)
    @given(data=_posts_and_batches(), limit=st.integers(min_value=1, max_value=4))
    def test_limit_matches_rebuilt(self, data, limit):
        posts, batches, threshold = data
        streaming = TieredCorpusIndex(compact_threshold=threshold)
        for batch in batches:
            streaming.append(batch)
        rebuilt = CorpusIndex(posts)
        streamed = streaming.search_many(KEYWORDS, limit=limit)
        expected = rebuilt.search_many(KEYWORDS, limit=limit)
        for keyword in KEYWORDS:
            assert [p.post_id for p in streamed[keyword]] == [
                p.post_id for p in expected[keyword]
            ]

    @settings(max_examples=20, deadline=None)
    @given(data=_posts_and_batches())
    def test_mid_stream_queries_match_prefix_rebuild(self, data):
        _, batches, threshold = data
        streaming = TieredCorpusIndex(compact_threshold=threshold)
        seen = []
        for batch in batches:
            streaming.append(batch)
            seen.extend(batch)
            prefix = CorpusIndex(seen)
            streamed = streaming.search_many(KEYWORDS)
            expected = prefix.search_many(KEYWORDS)
            for keyword in KEYWORDS:
                assert [p.post_id for p in streamed[keyword]] == [
                    p.post_id for p in expected[keyword]
                ]
