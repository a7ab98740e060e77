"""Cache layer: TTL store, cached client, SAI memoisation."""

import datetime as dt

import pytest

from repro import PSPFramework, TargetApplication, TimeWindow
from repro.core.cache import CachedClient, SAICache, SidecarAggregates, TTLCache
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.sai import SAIComputer
from repro.iso21434.enums import AttackVector
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social import InMemoryClient, excavator_corpus
from repro.social.api import BatchQuery, SearchQuery
from repro.social.corpus import Corpus
from repro.social.post import Engagement, Post
from repro.stream.tiers import TieredCorpusIndex
from tests.conftest import build_excavator_database


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class CountingClient(InMemoryClient):
    """InMemoryClient that counts backend operations."""

    def __init__(self, corpus) -> None:
        super().__init__(corpus)
        self.search_calls = 0
        self.batch_calls = 0

    def search(self, query):
        self.search_calls += 1
        return super().search(query)

    def search_many(self, batch):
        self.batch_calls += 1
        return super().search_many(batch)


class TestTTLCache:
    def test_miss_then_hit(self):
        cache = TTLCache()
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = TTLCache(ttl=10.0, clock=clock)
        cache.put("k", "v")
        clock.advance(9.9)
        assert cache.get("k") == "v"
        clock.advance(0.2)
        assert cache.get("k") is None
        assert cache.stats.expirations == 1

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = TTLCache(clock=clock)
        cache.put("k", "v")
        clock.advance(1e9)
        assert cache.get("k") == "v"

    def test_eviction_at_capacity(self):
        cache = TTLCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("c") == 3

    def test_invalidate_by_predicate(self):
        cache = TTLCache()
        cache.put(("x", 1), "a")
        cache.put(("x", 2), "b")
        cache.put(("y", 1), "c")
        removed = cache.invalidate(lambda key: key[0] == "x")
        assert removed == 2
        assert cache.stats.invalidations == 2
        assert cache.get(("y", 1)) == "c"

    def test_replacing_a_live_entry_keeps_its_age(self):
        clock = FakeClock()
        cache = TTLCache(ttl=10.0, clock=clock)
        cache.put("k", "old")
        clock.advance(6.0)
        cache.put("k", "new")
        clock.advance(3.0)
        assert cache.get("k") == "new"
        clock.advance(2.0)  # 11 s after the first put
        assert cache.get("k") is None
        assert cache.stats.expirations == 1

    def test_replacing_an_expired_entry_restarts_its_age(self):
        clock = FakeClock()
        cache = TTLCache(ttl=10.0, clock=clock)
        cache.put("k", "old")
        clock.advance(11.0)  # expired, not yet collected
        cache.put("k", "new")
        clock.advance(9.0)
        assert cache.get("k") == "new"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TTLCache(ttl=0)
        with pytest.raises(ValueError):
            TTLCache(max_entries=0)


class TestCachedClient:
    def test_search_equivalence(self, excavator_client):
        cached = CachedClient(excavator_client)
        for query in (
            SearchQuery(keyword="dpfdelete"),
            SearchQuery(keyword="dpfdelete", region="europe"),
            SearchQuery(
                keyword="dpfdelete",
                since=dt.date(2020, 1, 1),
                until=dt.date(2022, 12, 31),
            ),
            SearchQuery(keyword="dpfdelete", limit=5),
        ):
            assert cached.search(query) == excavator_client.search(query)
            # Second call is served from cache, still identical.
            assert cached.search(query) == excavator_client.search(query)
        assert cached.stats.hits > 0

    def test_count_by_year_cached(self, excavator_client):
        cached = CachedClient(excavator_client)
        query = SearchQuery(keyword="dpfdelete")
        first = cached.count_by_year(query)
        second = cached.count_by_year(query)
        assert first == second == excavator_client.count_by_year(query)
        assert cached.stats.hits == 1

    def test_overlapping_windows_share_year_segments(self):
        backend = CountingClient(excavator_corpus())
        cached = CachedClient(backend)

        def window_query(last_year):
            return SearchQuery(
                keyword="dpfdelete",
                since=dt.date(2018, 1, 1),
                until=dt.date(last_year, 12, 31),
            )

        cached.search(window_query(2021))   # mines 2018..2021
        mined_first = backend.search_calls
        assert mined_first == 4  # one backend call per year segment
        cached.search(window_query(2022))   # only 2022 is new
        assert backend.search_calls == mined_first + 1

    def test_batched_growing_window_fetches_only_new_year(self):
        backend = CountingClient(excavator_corpus())
        cached = CachedClient(backend)
        keywords = ("dpfdelete", "egrdelete", "chiptuning")

        def batch(last_year):
            return BatchQuery(
                keywords=keywords,
                since=dt.date(2020, 1, 1),
                until=dt.date(last_year, 12, 31),
            )

        first = cached.search_many(batch(2021))
        batches_after_first = backend.batch_calls
        second = cached.search_many(batch(2022))
        # One extra inner batch covering only the newly mined year.
        assert backend.batch_calls == batches_after_first + 1
        for keyword in keywords:
            assert [p.post_id for p in first.posts(keyword)] == [
                p.post_id
                for p in second.posts(keyword)
                if p.created_at <= dt.date(2021, 12, 31)
            ]

    def test_batch_results_match_uncached_client(self, excavator_client):
        cached = CachedClient(InMemoryClient(excavator_client.corpus))
        batch = BatchQuery(
            keywords=("dpfdelete", "egroff"),
            since=dt.date(2019, 1, 1),
            until=dt.date(2022, 12, 31),
            region="europe",
        )
        expected = excavator_client.search_many(batch)
        assert cached.search_many(batch).posts_by_keyword == (
            expected.posts_by_keyword
        )
        # Warm pass: identical again, now from cache.
        assert cached.search_many(batch).posts_by_keyword == (
            expected.posts_by_keyword
        )

    def test_extended_cell_expires_with_its_oldest_posts(self):
        clock = FakeClock()
        backend = CountingClient(excavator_corpus())
        cached = CachedClient(backend, cache=TTLCache(ttl=10.0, clock=clock))

        def window(month):
            return SearchQuery(
                keyword="dpfdelete",
                since=dt.date(2020, 1, 1),
                until=dt.date(2020, month, 28),
            )

        cached.search(window(3))
        clock.advance(8.0)
        cached.search(window(6))  # extends the cell with April-June
        fetches = backend.search_calls
        assert cached.search(window(6)) == InMemoryClient(
            backend.corpus
        ).search(window(6))
        assert backend.search_calls == fetches  # still fresh
        clock.advance(4.0)  # the January-March posts are now 12 s old
        assert cached.search(window(6)) == InMemoryClient(
            backend.corpus
        ).search(window(6))
        assert backend.search_calls == fetches + 1

    def test_cell_extended_beside_a_new_cell_keeps_its_age(self):
        clock = FakeClock()
        backend = CountingClient(excavator_corpus())
        cached = CachedClient(
            backend, cache=TTLCache(ttl=10.0, max_entries=2, clock=clock)
        )
        plain = InMemoryClient(backend.corpus)

        def batch(keywords, month):
            return BatchQuery(
                keywords=keywords,
                since=dt.date(2020, 1, 1),
                until=dt.date(2020, month, 28),
            )

        cached.search_many(batch(("dpfdelete", "egrdelete"), 3))
        clock.advance(8.0)
        # The new adbluedelete cell evicts to make room; the dpfdelete
        # extension must not come back as a fresh entry.
        cached.search_many(batch(("adbluedelete", "dpfdelete"), 6))
        clock.advance(7.0)  # dpfdelete's January-March posts are 15 s old
        fetches = backend.batch_calls
        window = batch(("dpfdelete",), 6)
        assert (
            cached.search_many(window).posts_by_keyword
            == plain.search_many(window).posts_by_keyword
        )
        assert backend.batch_calls == fetches + 1

    def test_read_only_probe_answers_only_from_filled_cells(self):
        from repro.core.sai import _gather_signals
        from repro.nlp.sentiment import SentimentAnalyzer

        backend = CountingClient(excavator_corpus())
        cached = CachedClient(backend)
        plain = InMemoryClient(backend.corpus)
        keywords = build_excavator_database().keywords
        analyzer = SentimentAnalyzer()
        since = dt.date(2019, 1, 1)

        def window(month):
            return BatchQuery(
                keywords=keywords,
                since=since,
                until=dt.date(2020, month, 28),
                region="europe",
            )

        def probe(month):
            return cached.window_signals(
                keywords,
                region="europe",
                since=since,
                until=dt.date(2020, month, 28),
                analyzer=analyzer,
                fill=False,
            )

        assert probe(3) is None
        cached.search_many(window(3))
        fetches, lookups = backend.batch_calls, cached.stats.lookups
        assert probe(6) is None  # the 2020 cells stop at March 28
        for month in (2, 3):  # an older window cuts the cells
            signals = probe(month)
            expected = plain.search_many(window(month))
            for keyword in keywords:
                posts = expected.posts(keyword)
                if not posts:
                    assert keyword not in signals
                    continue
                engagement, mean = _gather_signals(posts, analyzer)
                got = signals[keyword]
                assert (got.post_count, got.engagement) == (
                    len(posts), engagement
                )
                assert got.mean_sentiment.hex() == mean.hex()
        assert (backend.batch_calls, cached.stats.lookups) == (
            fetches, lookups
        )

    def test_invalidate_keyword(self, excavator_client):
        cached = CachedClient(excavator_client)
        cached.search(SearchQuery(keyword="dpfdelete"))
        cached.search(SearchQuery(keyword="egroff"))
        removed = cached.invalidate_keyword("dpfdelete")
        assert removed == 1
        cached.search(SearchQuery(keyword="egroff"))
        assert cached.stats.hits == 1


class TestSAICache:
    def test_hit_requires_same_version(self):
        cache = SAICache()
        cache.put(3, "result", region="europe")
        assert cache.get(3, region="europe") == "result"
        assert cache.get(4, region="europe") is None

    def test_put_garbage_collects_older_versions(self):
        cache = SAICache()
        cache.put(1, "old", region="europe")
        cache.put(2, "new", region="europe")
        assert cache.get(1, region="europe") is None
        assert cache.stats.invalidations == 1

    def test_windows_are_distinct(self):
        cache = SAICache()
        cache.put(1, "full", region="europe")
        assert cache.get(1, region="europe", since=dt.date(2022, 1, 1)) is None


class TestFrameworkCaching:
    def test_cached_run_matches_uncached(self, excavator_client):
        plain = PSPFramework(
            excavator_client,
            TargetApplication("excavator", "europe", "industrial"),
            database=build_excavator_database(),
        )
        cached = PSPFramework(
            InMemoryClient(excavator_client.corpus),
            TargetApplication("excavator", "europe", "industrial"),
            database=build_excavator_database(),
            cache=True,
        )
        window = TimeWindow.years(2019, 2022)
        expected = plain.run(window, learn=False)
        first = cached.run(window, learn=False)
        second = cached.run(window, learn=False)
        assert first.sai.as_rows() == expected.sai.as_rows()
        assert second.sai.as_rows() == expected.sai.as_rows()
        assert second.insider_table.as_rows() == expected.insider_table.as_rows()
        stats = cached.cache_stats
        assert stats is not None
        assert stats["sai"]["hits"] >= 1

    def test_learning_invalidates_sai_cache(self):
        corpus = excavator_corpus()
        # The paper seed database still has companion hashtags to learn.
        psp = PSPFramework(
            InMemoryClient(corpus),
            TargetApplication("excavator", "europe", "industrial"),
            cache=True,
        )
        before = psp.run(learn=False)
        version_before = psp.database.version
        learned = psp.learn_keywords()
        assert learned, "excavator corpus should yield learned keywords"
        assert psp.database.version > version_before
        after = psp.run(learn=False)
        # The learned keywords participate in the refreshed SAI list.
        assert len(after.sai) == len(before.sai) + len(learned)

    def test_compute_sai_served_from_cache(self):
        backend = CountingClient(excavator_corpus())
        psp = PSPFramework(
            backend,
            TargetApplication("excavator", "europe", "industrial"),
            database=build_excavator_database(),
            cache=True,
        )
        psp.compute_sai()
        calls = backend.batch_calls + backend.search_calls
        psp.compute_sai()
        assert backend.batch_calls + backend.search_calls == calls

    def test_cache_stats_none_when_disabled(self, excavator_framework):
        assert excavator_framework.cache_stats is None

    def test_passing_empty_ttlcache_enables_caching(self, excavator_client):
        # Regression: an empty TTLCache is falsy (it defines __len__);
        # the framework must still treat it as "caching on".
        store = TTLCache(ttl=300.0)
        psp = PSPFramework(
            excavator_client,
            TargetApplication("excavator", "europe", "industrial"),
            database=build_excavator_database(),
            cache=store,
        )
        assert isinstance(psp.client, CachedClient)
        assert psp.client.cache is store
        psp.compute_sai()
        psp.compute_sai()
        stats = psp.cache_stats
        assert stats is not None
        assert stats["sai"]["hits"] == 1

    def test_sibling_shares_policy_not_entries(self):
        clock = FakeClock()
        store = TTLCache(ttl=10.0, max_entries=5, clock=clock)
        store.put("k", "v")
        twin = store.sibling()
        assert len(twin) == 0
        twin.put("k", "w")
        assert store.get("k") == "v"
        clock.advance(11.0)
        assert twin.get("k") is None  # same TTL policy and clock


class TestPrewarmSegments:
    def _cached(self):
        return CachedClient(
            InMemoryClient(excavator_corpus()), cache=TTLCache()
        )

    def test_prewarm_then_windows_hit_entirely(self):
        client = self._cached()
        database = build_excavator_database()
        fetched = client.prewarm_segments(
            database.keywords, 2015, 2023, region="europe"
        )
        assert fetched == len(database.keywords) * 9
        computer = SAIComputer(client)
        for last in (2020, 2021, 2022, 2023):
            computer.compute(
                database,
                region="europe",
                since=dt.date(2015, 1, 1),
                until=dt.date(last, 12, 31),
            )
        assert client.stats.misses == 0
        assert client.stats.hit_rate == 1.0

    def test_prewarm_does_not_count_as_lookups(self):
        client = self._cached()
        client.prewarm_segments(("dpfdelete",), 2020, 2021)
        assert client.stats.lookups == 0

    def test_prewarm_is_idempotent(self):
        client = self._cached()
        first = client.prewarm_segments(("dpfdelete",), 2020, 2022)
        second = client.prewarm_segments(("dpfdelete",), 2020, 2022)
        assert first == 3
        assert second == 0

    def test_prewarmed_results_match_direct_queries(self):
        warmed = self._cached()
        warmed.prewarm_segments(("dpfdelete",), 2015, 2023, region="europe")
        cold = self._cached()
        query = SearchQuery(
            keyword="dpfdelete",
            since=dt.date(2015, 1, 1),
            until=dt.date(2023, 12, 31),
            region="europe",
        )
        assert [p.post_id for p in warmed.search(query)] == [
            p.post_id for p in cold.search(query)
        ]

    def test_prewarm_rejects_inverted_span(self):
        with pytest.raises(ValueError):
            self._cached().prewarm_segments(("dpfdelete",), 2023, 2020)


class TestSidecarAggregates:
    """Cold sidecars serve only an SAI computer that scores like them."""

    @staticmethod
    def _sai(analyzer):
        """(sidecar-served SAI, post-scan SAI, sidecar answers)."""
        start = dt.date(2019, 1, 1)
        posts = [
            Post(
                post_id=f"p{i}",
                text=f"dpf delete mightyboost worked {i}",
                author="a",
                created_at=start + dt.timedelta(days=2 * i),
                region="europe",
                engagement=Engagement(views=10, likes=1),
            )
            for i in range(400)
        ]
        database = KeywordDatabase()
        database.add(
            AttackKeyword(keyword="dpf delete", vector=AttackVector.LOCAL)
        )
        # The sidecars bake in the default analyzer's sentiment sums.
        index = TieredCorpusIndex(
            warm_span_days=30,
            cold_age_days=60,
            sidecar_keywords=database.keywords,
            sidecar_region="europe",
        )
        index.append(posts)
        aggregates = SidecarAggregates(index)
        cached = CachedClient(
            InMemoryClient(Corpus(posts)), aggregates=aggregates
        )
        served = SAIComputer(cached, analyzer=analyzer).compute(
            database, region="europe"
        )
        scanned = SAIComputer(
            InMemoryClient(Corpus(posts)), analyzer=analyzer
        ).compute(database, region="europe")
        return served, scanned, aggregates.served_signals

    def test_extended_lexicon_falls_back_to_post_scan(self):
        analyzer = SentimentAnalyzer()
        analyzer.extend_lexicon({"mightyboost": 2.5})
        served, scanned, served_signals = self._sai(analyzer)
        assert served_signals == 0
        assert served.entries == scanned.entries
        assert served.entries[0].score == pytest.approx(1.2712, abs=1e-4)

    def test_default_lexicon_is_served_from_sidecars(self):
        served, scanned, served_signals = self._sai(SentimentAnalyzer())
        assert served_signals > 0
        assert [e.keyword for e in served.entries] == ["dpfdelete"]
        # Per-year partial sums vs one running sum: equal up to rounding.
        assert served.entries[0].score == pytest.approx(
            scanned.entries[0].score, rel=1e-9
        )

    def test_compatibility_compares_type_and_fingerprint(self):
        aggregates = SidecarAggregates(TieredCorpusIndex())
        extended = SentimentAnalyzer()
        extended.extend_lexicon({"mightyboost": 2.5})

        class Subclassed(SentimentAnalyzer):
            pass

        assert aggregates.analyzer_compatible(None)
        assert aggregates.analyzer_compatible(SentimentAnalyzer())
        assert not aggregates.analyzer_compatible(extended)
        assert not aggregates.analyzer_compatible(
            SentimentAnalyzer(neutral_band=0.2)
        )
        assert not aggregates.analyzer_compatible(Subclassed())


class TestTTLCacheThreadSafety:
    def test_concurrent_expiry_never_raises(self):
        """Racing expiry deletes must not KeyError (parallel fleet tails)."""
        import threading

        clock = {"now": 0.0}
        cache = TTLCache(ttl=0.5, clock=lambda: clock["now"])
        for i in range(200):
            cache.put(("k", i), i)
        clock["now"] = 1.0  # everything expired
        errors = []

        def reader():
            try:
                for i in range(200):
                    cache.get(("k", i))
            except KeyError as exc:  # pragma: no cover - the bug
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) == 0

    def test_concurrent_eviction_never_raises(self):
        import threading

        cache = TTLCache(max_entries=8)
        errors = []

        def writer(base):
            try:
                for i in range(300):
                    cache.put((base, i), i)
            except (KeyError, StopIteration) as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 8


class TestCellThreadSafety:
    def test_racing_windows_stay_exact(self):
        """Threads growing, re-reading and extending shared cells race.

        Each thread walks the same month ends in its own rotation, so
        cells are extended, re-extended and cut back concurrently; a
        lost or misordered update would show as a wrong post list or
        wrong signals.
        """
        import sys
        import threading

        from repro.core.sai import _gather_signals
        from repro.nlp.sentiment import SentimentAnalyzer

        inner = InMemoryClient(excavator_corpus())
        cached = CachedClient(inner)
        keywords = build_excavator_database().keywords
        analyzer = SentimentAnalyzer()
        since = dt.date(2020, 1, 1)
        ends = [
            dt.date(year, month, 28)
            for year in (2020, 2021)
            for month in range(1, 13)
        ]
        errors = []

        def check(until):
            batch = BatchQuery(
                keywords=keywords, since=since, until=until, region="europe"
            )
            expected = inner.search_many(batch)
            if cached.search_many(batch).posts_by_keyword != (
                expected.posts_by_keyword
            ):
                errors.append(("posts", until))
            signals = cached.window_signals(
                keywords, region="europe", since=since, until=until,
                analyzer=analyzer,
            )
            for keyword in keywords:
                posts = expected.posts(keyword)
                if not posts:
                    continue
                engagement, mean = _gather_signals(posts, analyzer)
                got = signals[keyword]
                if (got.engagement, got.mean_sentiment.hex()) != (
                    engagement, mean.hex()
                ):
                    errors.append(("signals", until, keyword))

        def worker(offset):
            try:
                for until in ends[offset:] + ends[:offset]:
                    check(until)
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in (0, 5, 11, 17, 23, 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cached.cache) <= len(keywords) * 2
