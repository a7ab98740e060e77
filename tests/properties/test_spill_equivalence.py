"""Property tests: a spilled tiered index == resident tiered == flat.

The contracts behind :class:`repro.stream.store.SegmentStore` and the
spill wiring in :class:`repro.stream.tiers.TieredCorpusIndex`:

* spilling cold segments to disk is *pure representation change* —
  after any append sequence (out-of-order arrivals, random retention
  knobs, seal boundaries crossing mid-batch) a spilled index answers
  ``posts`` and ``search_many`` post-for-post identically to a
  resident tiered index and to a from-scratch
  :class:`~repro.social.index.CorpusIndex` over the same posts;
* hydrate/evict churn is invisible: with ``max_resident_cold=1`` a
  query loop that forces every cold segment through the LRU repeatedly
  keeps returning the same answers;
* the on-disk codec round-trips column state exactly — rebuilding the
  layout from ``state_dict`` against the same store reproduces the
  queries and the tier layout;
* the batch prong: an :class:`~repro.core.sai.SAIComputer` over a
  :class:`~repro.core.cache.CachedClient` with
  :class:`~repro.core.cache.SidecarAggregates` attached scores the
  same SAI list as a plain post-scan over an
  :class:`~repro.social.api.InMemoryClient`, with per-year counts
  exact — served from cold sidecars, without hydrating columns.
"""

import datetime as dt
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CachedClient, SidecarAggregates
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.sai import SAIComputer
from repro.iso21434.enums import AttackVector
from repro.social.api import InMemoryClient, SearchQuery
from repro.social.corpus import Corpus
from repro.social.index import CorpusIndex
from repro.social.post import Engagement, Post
from repro.stream.store import SegmentStore
from repro.stream.tiers import TieredCorpusIndex

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


def _layout(stats):
    """``segment_stats`` minus the representation-only fields.

    The store block (absent on a resident index, counter-bearing on a
    spilled one) and the cold tier's spilled count describe *where*
    segments live, not the tier layout itself.
    """
    stats = dict(stats)
    stats.pop("store", None)
    tiers = {tier: dict(values) for tier, values in stats["tiers"].items()}
    tiers["cold"].pop("spilled", None)
    stats["tiers"] = tiers
    return stats


@st.composite
def _stream(draw):
    """Posts in a jittered near-chronological arrival order, batched.

    Mirrors the tiered-equivalence strategy; retention knobs are drawn
    tight (short warm span, low cold age) so most examples actually
    seal — and therefore spill — cold segments.
    """
    count = draw(st.integers(min_value=0, max_value=40))
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
    batches = []
    remaining = list(posts)
    while remaining:
        size = draw(st.integers(min_value=1, max_value=len(remaining)))
        batches.append(remaining[:size])
        remaining = remaining[size:]
    knobs = dict(
        compact_threshold=draw(st.integers(min_value=2, max_value=20)),
        warm_span_days=draw(st.integers(min_value=7, max_value=60)),
        cold_age_days=draw(st.integers(min_value=30, max_value=200)),
    )
    return posts, batches, knobs


def _store_index(directory, knobs, *, max_resident_cold=2, **extra):
    """A tiered index spilling into the store at ``directory``/store."""
    store = SegmentStore(
        Path(directory) / "store", max_resident_cold=max_resident_cold
    )
    return TieredCorpusIndex(
        store=store, max_resident_cold=max_resident_cold, **knobs, **extra
    )


def _spilled(batches, knobs, directory, *, max_resident_cold=2, **extra):
    index = _store_index(
        directory, knobs, max_resident_cold=max_resident_cold, **extra
    )
    for batch in batches:
        index.append(batch)
    return index


def _assert_queries_match(left, right, context=""):
    assert len(left) == len(right), context
    assert [p.post_id for p in left.posts] == [
        p.post_id for p in right.posts
    ], context
    for since, until in WINDOWS:
        got = left.search_many(KEYWORDS, since=since, until=until)
        expected = right.search_many(KEYWORDS, since=since, until=until)
        for keyword in KEYWORDS:
            assert [p.post_id for p in got[keyword]] == [
                p.post_id for p in expected[keyword]
            ], (context, keyword, since, until)


class TestSpillEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(data=_stream())
    def test_spilled_equals_resident_equals_flat(self, data):
        posts, batches, knobs = data
        resident = TieredCorpusIndex(**knobs)
        for batch in batches:
            resident.append(batch)
        with tempfile.TemporaryDirectory(prefix="spill-prop-") as tmp:
            spilled = _spilled(batches, knobs, tmp)
            _assert_queries_match(spilled, resident, "spilled-vs-resident")
            _assert_queries_match(spilled, CorpusIndex(posts), "spilled-vs-flat")
            # Spilling changed the representation, not the layout.
            tiers = spilled.segment_stats["tiers"]
            assert tiers["cold"]["spilled"] == tiers["cold"]["segments"]
            assert _layout(spilled.segment_stats) == _layout(
                resident.segment_stats
            )

    @settings(max_examples=15, deadline=None)
    @given(data=_stream())
    def test_hydrate_evict_churn_is_invisible(self, data):
        posts, batches, knobs = data
        with tempfile.TemporaryDirectory(prefix="spill-prop-") as tmp:
            spilled = _spilled(batches, knobs, tmp, max_resident_cold=1)
            flat = CorpusIndex(posts)
            expected = {
                keyword: [p.post_id for p in flat.search_many(KEYWORDS)[keyword]]
                for keyword in KEYWORDS
            }
            # Every pass forces all spilled segments through the 1-slot
            # LRU; answers must never drift.
            for _ in range(3):
                routed = spilled.search_many(KEYWORDS)
                for keyword in KEYWORDS:
                    assert [
                        p.post_id for p in routed[keyword]
                    ] == expected[keyword], keyword
                assert [p.post_id for p in spilled.posts] == [
                    p.post_id for p in flat.posts
                ]

    @settings(max_examples=15, deadline=None)
    @given(data=_stream())
    def test_state_roundtrip_through_store_is_exact(self, data):
        _, batches, knobs = data
        with tempfile.TemporaryDirectory(prefix="spill-prop-") as tmp:
            spilled = _spilled(batches, knobs, tmp)
            restored = _store_index(tmp, knobs)
            restored.load_state(spilled.state_dict())
            assert _layout(restored.segment_stats) == _layout(
                spilled.segment_stats
            )
            tiers = restored.segment_stats["tiers"]
            assert tiers["cold"]["spilled"] == tiers["cold"]["segments"]
            _assert_queries_match(restored, spilled, "restored-vs-original")


class TestBatchProngEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(data=_stream())
    def test_sidecar_served_sai_matches_post_scan(self, data):
        posts, batches, knobs = data
        database = _database()
        plain = SAIComputer(InMemoryClient(Corpus(posts)))
        reference = plain.compute(database, region="europe")
        with tempfile.TemporaryDirectory(prefix="spill-prop-") as tmp:
            # The runtime wires sidecar_keywords from database.keywords —
            # already canonical, so sidecar coverage matches the
            # aggregates' canonical requests and nothing rehydrates.
            spilled = _spilled(
                batches,
                knobs,
                tmp,
                sidecar_keywords=database.keywords,
                sidecar_region="europe",
            )
            store = spilled.store
            hydrations_before = store.hydrations
            aggregates = SidecarAggregates(spilled)
            cached = CachedClient(
                InMemoryClient(Corpus(posts)), aggregates=aggregates
            )
            served = SAIComputer(cached).compute(database, region="europe")

            assert aggregates.served_signals > 0
            # Cold aggregates came from sidecars, not rehydrated columns.
            assert store.hydrations == hydrations_before
            assert len(served.entries) == len(reference.entries)
            for got, expected in zip(served.entries, reference.entries):
                assert got.keyword == expected.keyword
                assert got.post_count == expected.post_count
                # Scores fold the same per-post values in a different
                # association (per-year partial sums vs one running sum).
                assert got.score == pytest.approx(
                    expected.score, rel=1e-9, abs=1e-12
                )
                assert got.probability == pytest.approx(
                    expected.probability, rel=1e-9, abs=1e-12
                )

    @settings(max_examples=15, deadline=None)
    @given(data=_stream())
    def test_sidecar_served_counts_are_exact(self, data):
        posts, batches, knobs = data
        inner = InMemoryClient(Corpus(posts))
        with tempfile.TemporaryDirectory(prefix="spill-prop-") as tmp:
            spilled = _spilled(
                batches,
                knobs,
                tmp,
                sidecar_keywords=_database().keywords,
                sidecar_region="europe",
            )
            aggregates = SidecarAggregates(spilled)
            cached = CachedClient(inner, aggregates=aggregates)
            for keyword in KEYWORDS:
                for since, until in (
                    (None, None),
                    (dt.date(2019, 1, 1), dt.date(2021, 12, 31)),
                ):
                    query = SearchQuery(
                        keyword=keyword,
                        region="europe",
                        since=since,
                        until=until,
                    )
                    assert cached.count_by_year(query) == inner.count_by_year(
                        query
                    ), (keyword, since, until)
            assert aggregates.served_counts > 0
