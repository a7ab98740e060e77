"""Query and SAI result caching for high-throughput PSP runs.

The PSP pipeline re-asks the social platform the same questions over and
over: sliding-window monitoring (:class:`~repro.core.monitor.PSPMonitor`)
re-mines ``start..N`` then ``start..N+1``, ablation sweeps evaluate five
weight mixes over identical posts, and fleet runs repeat every query per
target.  This module makes those repeats free:

* :class:`TTLCache` — a small generic cache with per-entry TTL, an
  injectable clock (tests use a fake), bounded size with FIFO eviction,
  and hit/miss/eviction statistics.
* :class:`CachedClient` — a :class:`~repro.social.api.SocialMediaClient`
  decorator caching search results keyed on
  ``(platform, keyword, region, time-window)``.  Bounded windows that
  start on Jan 1 are served from grow-only per-(keyword, calendar-year)
  *cells*, each filled from Jan 1 up to a fill date, so *overlapping*
  windows share cache entries: after mining 2015-01-01..2022-05-31,
  mining 2015-01-01..2022-06-30 only touches the platform for June 2022.
  Cells also memoise their SAI evidence, so the SAI of a growing window
  scores only the posts it newly covers.
* :class:`SAICache` — memoises derived per-window results (SAI lists,
  full pipeline runs) keyed on the keyword-database
  :attr:`~repro.core.keywords.KeywordDatabase.version`, so keyword
  learning or re-annotation invalidates stale entries automatically.
* :class:`SidecarAggregates` — answers window-count and SAI-signal
  queries from a tiered index's cold-segment *sidecars* instead of post
  scans.  A spilled multi-year corpus then serves year-aligned
  ``count_by_year`` and whole-list SAI computations without hydrating a
  single cold segment from disk: the per-(keyword, year) bucket sums the
  sidecars already maintain are exactly the additive evidence
  :meth:`~repro.core.sai.SAIComputer.compute_from_signals` needs.

The decorator style follows :mod:`repro.social.resilience`: wrapping is
composable (``CachedClient(RetryingClient(platform))``) and the layers
above see the unchanged client interface.
"""

from __future__ import annotations

import datetime as dt
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.sai import KeywordSignals, SignalSums, combine_signals
from repro.nlp.analysis import analyze_text
from repro.nlp.normalize import canonical_keyword
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social.api import (
    BatchQuery,
    BatchResult,
    SearchQuery,
    SocialMediaClient,
)
from repro.social.post import Engagement, Post


def _warm_analyses(posts: Iterable[Post]) -> None:
    """Precompute the text analysis of freshly fetched posts.

    A cache miss is the one moment a post is guaranteed new to this
    process, so the one-time :func:`~repro.nlp.analysis.analyze_text`
    cost (normalize, stem, tokenize) is paid here — with the fetch —
    rather than inside whichever downstream consumer (SAI sentiment,
    classification, keyword learning) first touches the post.  Cache
    hits return already-analyzed posts and skip this entirely.
    """
    for post in posts:
        analyze_text(post.text)


@dataclass
class CacheStats:
    """Observable cache behaviour, for tests, benches and operators."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups answered (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot for JSON reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class TTLCache:
    """A bounded key→value cache with optional per-entry time-to-live.

    The store is safe under concurrent readers/writers (a parallel
    fleet's member tails classify through one shared cached client —
    see :func:`~repro.core.pipeline.run_fleet`): a lock serialises the
    expiry/eviction delete paths that would otherwise race.

    Args:
        ttl: seconds an entry stays valid; None means entries never
            expire by age.
        max_entries: size bound; the oldest entry is evicted when full
            (None = unbounded).
        clock: monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        ttl: Optional[float] = None,
        max_entries: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._ttl = ttl
        self._max_entries = max_entries
        self._clock = clock
        self._entries: Dict[Hashable, Tuple[float, Any]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def sibling(self) -> "TTLCache":
        """A fresh empty cache with the same TTL/size/clock policy.

        Lets one configured policy govern several stores (e.g. the query
        cache and the SAI cache of a framework) without them sharing
        entries or statistics.
        """
        return TTLCache(
            ttl=self._ttl, max_entries=self._max_entries, clock=self._clock
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return self.peek(key) is not _MISSING

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, counting the lookup; ``default`` on miss."""
        with self._lock:
            value = self._peek_locked(key)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self.stats.hits += 1
            return value

    def peek(self, key: Hashable) -> Any:
        """Like :meth:`get` but without touching hit/miss statistics."""
        with self._lock:
            return self._peek_locked(key)

    def record(self, *, hit: bool) -> None:
        """Count one lookup its caller judged after a :meth:`peek`."""
        with self._lock:
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1

    def _peek_locked(self, key: Hashable) -> Any:
        """The lookup core; the caller holds the lock."""
        entry = self._entries.get(key)
        if entry is None:
            return _MISSING
        stored_at, value = entry
        if self._ttl is not None and self._clock() - stored_at > self._ttl:
            del self._entries[key]
            self.stats.expirations += 1
            return _MISSING
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting the oldest entry when full.

        A value replacing a live entry keeps that entry's store time, so
        the TTL of a value grown from an older one still counts from
        when its oldest part was stored.
        """
        with self._lock:
            stored_at = self._clock()
            entry = self._entries.get(key)
            if entry is None:
                if (
                    self._max_entries is not None
                    and len(self._entries) >= self._max_entries
                ):
                    oldest = next(iter(self._entries))
                    del self._entries[oldest]
                    self.stats.evictions += 1
            elif self._ttl is None or stored_at - entry[0] <= self._ttl:
                stored_at = entry[0]
            self._entries[key] = (stored_at, value)

    def invalidate(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        """Drop everything; returns the number of entries removed."""
        return self.invalidate(lambda _key: True)


#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()


def _cell_window(
    since: Optional[dt.date], until: Optional[dt.date], limit: Optional[int]
) -> bool:
    """Whether a window is served from year cells.

    It must be bounded, start on Jan 1 and carry no limit (truncation
    does not distribute over cell concatenation).
    """
    return (
        limit is None
        and since is not None
        and until is not None
        and (since.month, since.day) == (1, 1)
    )


@dataclass(frozen=True)
class _CellKey:
    """Cache key of one (platform, keyword, region, calendar-year) cell."""

    platform: str
    keyword: str
    region: Optional[str]
    year: int


class _Cell:
    """One keyword's posts of one calendar year, Jan 1 through ``until``.

    Cells only grow: :meth:`extended` appends the posts of the days after
    ``until`` and hands the signal memos on, so they fold in just the
    appended posts on their next read.  Posts are oldest first.
    """

    __slots__ = ("until", "posts", "_signals")

    def __init__(
        self,
        until: dt.date,
        posts: Tuple[Post, ...],
        signals: Optional[Dict[Hashable, SignalSums]] = None,
    ) -> None:
        self.until = until
        self.posts = posts
        self._signals: Dict[Hashable, SignalSums] = (
            {} if signals is None else signals
        )

    def extended(self, until: dt.date, posts: Tuple[Post, ...]) -> "_Cell":
        """This cell filled on through ``until`` with ``posts``."""
        return _Cell(until, self.posts + posts, dict(self._signals))

    def cut(self, until: dt.date) -> "_Cell":
        """An unstored copy holding only the posts up to ``until``."""
        dates = [post.created_at for post in self.posts]
        return _Cell(until, self.posts[: bisect_right(dates, until)])

    def signals(self, analyzer: SentimentAnalyzer) -> SignalSums:
        """The memoised signals under ``analyzer``, folded up to date."""
        fingerprint = analyzer.fingerprint
        memo = self._signals.get(fingerprint, SignalSums())
        if memo.posts < len(self.posts):
            memo = memo.folded(self.posts[memo.posts :], analyzer)
            self._signals[fingerprint] = memo
        return memo


@dataclass(frozen=True)
class _WindowKey:
    """Cache key of one non-decomposable whole-window query."""

    platform: str
    keyword: str
    region: Optional[str]
    since: Optional[dt.date]
    until: Optional[dt.date]
    limit: Optional[int]
    operation: str = "search"


def _aligned_years(
    since: Optional[dt.date], until: Optional[dt.date]
) -> Optional[Tuple[Optional[int], Optional[int]]]:
    """The (since_year, until_year) bounds of a year-resolvable window.

    Sidecar buckets are per-calendar-year, so only windows whose bounds
    sit exactly on year edges (or are absent) can be answered from them.
    Returns ``None`` for an unanswerable window — distinct from
    ``(None, None)``, the fully unbounded (answerable) one.
    """
    if since is not None and (since.month, since.day) != (1, 1):
        return None
    if until is not None and (until.month, until.day) != (12, 31):
        return None
    return (
        None if since is None else since.year,
        None if until is None else until.year,
    )


class SidecarAggregates:
    """Cold-sidecar-served aggregates for the batch query path.

    Wraps a :class:`~repro.stream.tiers.TieredCorpusIndex` (duck-typed:
    anything with ``signal_backfill``, ``sidecar_region``,
    ``sidecar_analyzer`` and ``__len__``) and answers per-year counts and
    per-keyword :class:`~repro.core.sai.KeywordSignals` from its
    aggregate sums.  Cold segments answer from their sidecars — a
    spilled index serves these queries without hydrating column data
    from disk; only warm/hot tiers are scanned, and only when the index
    has grown since the last build.

    The backfilled :class:`~repro.stream.deltas.SignalDelta` is memoised
    against the index size (posts are append-only, so ``len(index)`` is
    a complete freshness token) and the keyword set grows by union, so a
    fleet of queries over one database costs a single backfill.

    Answers are scoped exactly like the sidecars themselves: bucket sums
    are in-region for the index's ``sidecar_region`` and sentiment comes
    from its ``sidecar_analyzer`` — callers must check :attr:`region`
    and :meth:`analyzer_compatible` (same analyzer type and fingerprint)
    before trusting an answer (:class:`CachedClient` does).
    """

    def __init__(self, index: Any) -> None:
        self._index = index
        self._keywords: Tuple[str, ...] = ()
        self._known: set = set()
        self._delta: Any = None
        self._built_size: Optional[int] = None
        self._served_counts = 0
        self._served_signals = 0

    @property
    def index(self) -> Any:
        """The wrapped tiered index."""
        return self._index

    @property
    def region(self) -> Optional[str]:
        """The region scope of every answer (the sidecars' region)."""
        return self._index.sidecar_region

    @property
    def served_counts(self) -> int:
        """How many ``count_by_year`` answers came from sidecars."""
        return self._served_counts

    @property
    def served_signals(self) -> int:
        """How many ``window_signals`` answers came from sidecars."""
        return self._served_signals

    def analyzer_compatible(self, analyzer: Optional[SentimentAnalyzer]) -> bool:
        """Whether ``analyzer`` would score posts like the sidecars did.

        Sentiment sums are baked into the sidecar buckets with the
        index's own analyzer, so an SAI computer is served only when its
        analyzer has the same type and the same
        :attr:`~repro.nlp.sentiment.SentimentAnalyzer.fingerprint`
        (lexicon and neutral band); any other analyzer, an extended
        lexicon included, falls back to post scans.  ``None`` on either
        side means a default
        :class:`~repro.nlp.sentiment.SentimentAnalyzer`.
        """
        mine = self._index.sidecar_analyzer or SentimentAnalyzer()
        theirs = analyzer or SentimentAnalyzer()
        return (
            type(mine) is type(theirs)
            and mine.fingerprint == theirs.fingerprint
        )

    def _buckets(
        self, keywords: Sequence[str]
    ) -> Dict[str, Dict[int, List[float]]]:
        # Backfill and answer on canonical forms — the corpus search the
        # inner client runs folds query keywords the same way, so two
        # spellings sharing a canonical form share one bucket.
        requested = dict.fromkeys(
            canonical_keyword(keyword) for keyword in keywords
        )
        missing = [k for k in requested if k and k not in self._known]
        size = len(self._index)
        if missing or self._delta is None or self._built_size != size:
            if missing:
                self._keywords = self._keywords + tuple(missing)
                self._known.update(missing)
            self._delta = self._index.signal_backfill(self._keywords)
            self._built_size = size
        return self._delta.buckets

    def ensure(self, keywords: Sequence[str]) -> None:
        """Make the sidecars cover ``keywords`` (the prewarm analogue).

        Triggers the one-off sidecar extension for keywords the cold
        segments have not met yet, so later queries are pure bucket
        reads.
        """
        self._buckets(keywords)

    def count_by_year(
        self,
        keyword: str,
        *,
        since_year: Optional[int] = None,
        until_year: Optional[int] = None,
    ) -> Dict[int, int]:
        """Per-year in-region post counts of one keyword.

        Mirrors :meth:`~repro.social.api.InMemoryClient.count_by_year`:
        only years with at least one matching post appear.
        """
        years = self._buckets((keyword,)).get(canonical_keyword(keyword), {})
        out: Dict[int, int] = {}
        for year in sorted(years):
            if since_year is not None and year < since_year:
                continue
            if until_year is not None and year > until_year:
                continue
            posts = int(years[year][4])
            if posts:
                out[year] = posts
        self._served_counts += 1
        return out

    def window_signals(
        self,
        keywords: Sequence[str],
        *,
        since_year: Optional[int] = None,
        until_year: Optional[int] = None,
    ) -> Dict[str, KeywordSignals]:
        """Per-keyword :class:`KeywordSignals` over a year window.

        Mirrors :meth:`~repro.stream.deltas.DeltaTracker.signals`:
        buckets are summed in ascending year order and keywords with no
        in-window posts are omitted
        (:meth:`~repro.core.sai.SAIComputer.compute_from_signals`
        treats them as empty).
        """
        buckets = self._buckets(keywords)
        out: Dict[str, KeywordSignals] = {}
        for keyword in dict.fromkeys(keywords):
            years = buckets.get(canonical_keyword(keyword), {})
            views = likes = reposts = replies = posts = 0
            sentiment_sum = 0.0
            for year in sorted(years):
                if since_year is not None and year < since_year:
                    continue
                if until_year is not None and year > until_year:
                    continue
                values = years[year]
                views += int(values[0])
                likes += int(values[1])
                reposts += int(values[2])
                replies += int(values[3])
                posts += int(values[4])
                sentiment_sum += float(values[5])
            if posts == 0:
                continue
            out[keyword] = KeywordSignals(
                engagement=Engagement(
                    views=views, likes=likes, reposts=reposts, replies=replies
                ),
                mean_sentiment=sentiment_sum / posts,
                post_count=posts,
            )
        self._served_signals += 1
        return out

    @property
    def stats(self) -> Dict[str, Any]:
        """Serve counters plus the memo's freshness token."""
        return {
            "served_counts": self._served_counts,
            "served_signals": self._served_signals,
            "keywords": len(self._keywords),
            "built_size": self._built_size,
        }


class CachedClient(SocialMediaClient):
    """Caching decorator over any :class:`SocialMediaClient`.

    Search results are cached per ``(platform, keyword, region,
    time-window)``.  A bounded window starting on Jan 1 is served from
    grow-only *cells*, one per (keyword, calendar year), each holding
    its year's posts from Jan 1 up to its fill date.  A cell filled
    short of the date a window needs fetches only the missing days, and
    an older window slices its cell, so a monitor ticking monthly over a
    growing window fetches only each tick's new month, and the cache
    holds at most keywords × years cells however many ticks run.  A
    growing cell keeps the store time of its first fetch, so a TTL
    counts from its oldest posts.  Cells also memoise their SAI evidence
    per sentiment analyzer (:meth:`window_signals`).  Other windows
    (mid-year start, unbounded, or with a ``limit``) are cached whole.

    Args:
        inner: the platform client actually hitting the backend.
        cache: the entry store; a fresh unbounded no-TTL
            :class:`TTLCache` by default.  Pass a shared instance to let
            several clients (or a client and its introspecting test)
            share entries and statistics.
        platform: label namespacing this client's keys inside a shared
            cache.
        aggregates: optional :class:`SidecarAggregates` over a tiered
            index holding the same corpus as ``inner``.  When attached,
            year-resolvable ``count_by_year`` queries and whole-list SAI
            signal requests (:meth:`window_signals`) are answered from
            cold-segment sidecars — no post fetch, no cold hydration —
            whenever the query's region matches the sidecars' region.
    """

    def __init__(
        self,
        inner: SocialMediaClient,
        *,
        cache: Optional[TTLCache] = None,
        platform: str = "default",
        aggregates: Optional[SidecarAggregates] = None,
    ) -> None:
        self._inner = inner
        self._cache = cache if cache is not None else TTLCache()
        self._platform = platform
        self._aggregates = aggregates

    @property
    def inner(self) -> SocialMediaClient:
        """The wrapped client."""
        return self._inner

    @property
    def aggregates(self) -> Optional[SidecarAggregates]:
        """The attached sidecar aggregates (None when post-scan only)."""
        return self._aggregates

    @property
    def cache(self) -> TTLCache:
        """The backing entry store (shared statistics live here)."""
        return self._cache

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the backing store."""
        return self._cache.stats

    def _window_key(self, query: SearchQuery, operation: str = "search") -> _WindowKey:
        return _WindowKey(
            platform=self._platform,
            keyword=query.keyword,
            region=query.region,
            since=query.since,
            until=query.until,
            limit=query.limit,
            operation=operation,
        )

    # -- cells ---------------------------------------------------------------

    def _plan(
        self,
        keywords: Sequence[str],
        region: Optional[str],
        first_year: int,
        until: dt.date,
    ) -> List[Tuple[_CellKey, dt.date]]:
        """The (cell key, fill date needed) pairs of a cell window.

        Earlier years need full-year cells and the last year a cell
        filled through ``until``; keywords first, years ascending.
        """
        return [
            (
                _CellKey(self._platform, keyword, region, year),
                until if year == until.year else dt.date(year, 12, 31),
            )
            for keyword in keywords
            for year in range(first_year, until.year + 1)
        ]

    def _cells(
        self,
        keywords: Sequence[str],
        region: Optional[str],
        first_year: int,
        until: dt.date,
        *,
        batched: bool = True,
        counted: bool = True,
    ) -> Tuple[Dict[str, List[_Cell]], int]:
        """Each keyword's cells covering Jan 1 of ``first_year`` to ``until``.

        The one cell resolver.  A cell filled short of its :meth:`_plan`
        date fetches only the days after its fill date; keywords needing
        the same days share one inner call (``search`` when not
        ``batched``).  A cell filled past its date is cut back to it.
        Each lookup counts once in :attr:`stats` unless ``counted`` is
        false, a lookup that fetches as a miss.  The fetched days
        continue exactly the prefix the lookup saw, so that cell is the
        one extended and stored: a racing writer or an eviction in
        between costs a refetch, never a wrong cell.  Extensions are
        stored before new cells, so a new cell evicting to make room
        cannot push out a cell this call extends and have its extension
        stored as new, with a fresh TTL.

        Returns the cells by keyword and the number of cells fetched.
        """
        plan = self._plan(keywords, region, first_year, until)
        seen: Dict[_CellKey, Optional[_Cell]] = {}
        missing: Dict[Tuple[dt.date, dt.date], List[_CellKey]] = {}
        for key, need in plan:
            cell = self._cache.peek(key)
            cell = None if cell is _MISSING else cell
            seen[key] = cell
            short = cell is None or cell.until < need
            if counted:
                self._cache.record(hit=not short)
            if short:
                start = (
                    dt.date(key.year, 1, 1)
                    if cell is None
                    else cell.until + dt.timedelta(days=1)
                )
                missing.setdefault((start, need), []).append(key)

        filled: Dict[_CellKey, _Cell] = {}
        for (start, end), keys in missing.items():
            fetched = self._fetch(
                tuple(key.keyword for key in keys), region, start, end, batched
            )
            for key in keys:
                posts = tuple(fetched[key.keyword])
                _warm_analyses(posts)
                cell = seen[key]
                filled[key] = (
                    _Cell(end, posts)
                    if cell is None
                    else cell.extended(end, posts)
                )
        for key in sorted(filled, key=lambda key: seen[key] is None):
            self._cache.put(key, filled[key])
        seen.update(filled)

        cells: Dict[str, List[_Cell]] = {keyword: [] for keyword in keywords}
        for key, need in plan:
            cell = seen[key]
            cells[key.keyword].append(
                cell if cell.until == need else cell.cut(need)
            )
        return cells, len(filled)

    def _filled_cells(
        self,
        keywords: Sequence[str],
        region: Optional[str],
        first_year: int,
        until: dt.date,
    ) -> Optional[Dict[str, List[_Cell]]]:
        """The cells of a window if all are cached and filled through it.

        A read-only probe: it fetches nothing and counts no lookup, and
        returns ``None`` as soon as one needed cell is missing or short.
        """
        cells: Dict[str, List[_Cell]] = {keyword: [] for keyword in keywords}
        for key, need in self._plan(keywords, region, first_year, until):
            cell = self._cache.peek(key)
            if cell is _MISSING or cell.until < need:
                return None
            cells[key.keyword].append(
                cell if cell.until == need else cell.cut(need)
            )
        return cells

    def _fetch(
        self,
        keywords: Tuple[str, ...],
        region: Optional[str],
        since: dt.date,
        until: dt.date,
        batched: bool,
    ) -> Mapping[str, Sequence[Post]]:
        """One inner call for the posts of ``keywords`` over the given days."""
        if batched:
            return self._inner.search_many(
                BatchQuery(
                    keywords=keywords, since=since, until=until, region=region
                )
            ).posts_by_keyword
        (keyword,) = keywords
        return {
            keyword: self._inner.search(
                SearchQuery(
                    keyword=keyword, since=since, until=until, region=region
                )
            )
        }

    # -- client interface ----------------------------------------------------

    def search(self, query: SearchQuery) -> List[Post]:
        """Cached search; only days no cell covers yet hit the platform."""
        if _cell_window(query.since, query.until, query.limit):
            cells, _ = self._cells(
                (query.keyword,),
                query.region,
                query.since.year,
                query.until,
                batched=False,
            )
            return list(
                chain.from_iterable(cell.posts for cell in cells[query.keyword])
            )
        key = self._window_key(query)
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            return list(cached)
        posts = tuple(self._inner.search(query))
        _warm_analyses(posts)
        self._cache.put(key, posts)
        return list(posts)

    def count_by_year(self, query: SearchQuery) -> Dict[int, int]:
        """Cached per-year counts (whole-window granularity).

        With :class:`SidecarAggregates` attached, year-resolvable
        windows in the sidecars' region are answered from bucket sums
        directly — always fresh against the index, so they bypass the
        TTL cache entirely.
        """
        aggregates = self._aggregates
        if (
            aggregates is not None
            and query.region == aggregates.region
            and query.limit is None
        ):
            span = _aligned_years(query.since, query.until)
            if span is not None:
                return aggregates.count_by_year(
                    query.keyword, since_year=span[0], until_year=span[1]
                )
        key = self._window_key(query, operation="count")
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            return dict(cached)
        counts = dict(self._inner.count_by_year(query))
        self._cache.put(key, counts)
        return dict(counts)

    def search_many(self, batch: BatchQuery) -> BatchResult:
        """Batched search fetching only the days no cell covers yet.

        A cell window is resolved as a keyword × year grid of cells; the
        missing days are fetched as one inner batch per distinct day
        range, so platform-side batching (shared corpus scope, bulk
        endpoints) still applies and a growing window re-mines only its
        newest days.  Other windows fall back to one whole-window inner
        batch over the missed keywords.
        """
        if not _cell_window(batch.since, batch.until, batch.limit):
            return self._search_many_whole_window(batch)
        cells, _ = self._cells(
            batch.keywords, batch.region, batch.since.year, batch.until
        )
        return BatchResult(
            posts_by_keyword={
                keyword: tuple(
                    chain.from_iterable(cell.posts for cell in cells[keyword])
                )
                for keyword in batch.keywords
            }
        )

    def _search_many_whole_window(self, batch: BatchQuery) -> BatchResult:
        """Fallback batch path caching at whole-window granularity."""
        results: Dict[str, Tuple[Post, ...]] = {}
        missing: List[str] = []
        for keyword in batch.keywords:
            cached = self._cache.get(
                self._window_key(batch.query_for(keyword)), _MISSING
            )
            if cached is _MISSING:
                missing.append(keyword)
            else:
                results[keyword] = tuple(cached)
        if missing:
            fetched = self._inner.search_many(batch.restricted_to(missing))
            for keyword in missing:
                posts = fetched.posts(keyword)
                _warm_analyses(posts)
                self._cache.put(self._window_key(batch.query_for(keyword)), posts)
                results[keyword] = posts
        # Preserve batch keyword order in the result mapping.
        return BatchResult(
            posts_by_keyword={k: results[k] for k in batch.keywords}
        )

    def window_signals(
        self,
        keywords: Sequence[str],
        *,
        region: Optional[str] = None,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
        analyzer: Optional[SentimentAnalyzer] = None,
        fill: bool = True,
    ) -> Optional[Dict[str, KeywordSignals]]:
        """Pre-aggregated SAI evidence for a keyword list, if possible.

        The batch-SAI fast path: :meth:`~repro.core.sai.SAIComputer.
        window_signals` probes this method before scanning posts.
        Attached sidecar aggregates answer when the window is
        year-resolvable, the region matches the sidecars' scope and
        ``analyzer`` is compatible with the one that built the sidecar
        sentiment sums.  Otherwise a cell window is answered from the
        cells' memoised signals through :func:`~repro.core.sai.
        combine_signals`, the same arithmetic as a post scan: its cells
        are resolved like :meth:`search_many` resolves them, or, when
        not ``fill``, read only if all are cached and filled through
        ``until`` — then nothing is fetched and no lookup counted.
        Returns ``None`` — "fall back to post scans" — for any other
        window.
        """
        aggregates = self._aggregates
        if (
            aggregates is not None
            and region == aggregates.region
            and aggregates.analyzer_compatible(analyzer)
        ):
            span = _aligned_years(since, until)
            if span is not None:
                return aggregates.window_signals(
                    keywords, since_year=span[0], until_year=span[1]
                )
        if not _cell_window(since, until, None):
            return None
        scorer = analyzer if analyzer is not None else SentimentAnalyzer()
        unique = tuple(dict.fromkeys(keywords))
        if fill:
            cells, _ = self._cells(unique, region, since.year, until)
        else:
            cells = self._filled_cells(unique, region, since.year, until)
            if cells is None:
                return None
        out: Dict[str, KeywordSignals] = {}
        for keyword in unique:
            signals = combine_signals(
                [cell.signals(scorer) for cell in cells[keyword]]
            )
            if signals.post_count:
                out[keyword] = signals
        return out

    def prewarm_segments(
        self,
        keywords: Sequence[str],
        first_year: int,
        last_year: int,
        *,
        region: Optional[str] = None,
    ) -> int:
        """Fill the (keyword × year) cell grid of a year span.

        Fleet and monitor cadences know their windows up front (every
        window of a growing-window sequence lives inside one known year
        span), so an operator can pay the whole span's platform cost in
        one batched pass per missing year — after which every
        overlapping window resolves entirely from cache.  Returns the
        number of cells fetched or filled up; full cells cost nothing.
        Warming is not a query: cache statistics (hits/misses) are
        untouched, so hit rates keep measuring real lookups.

        With :class:`SidecarAggregates` attached (and the region
        matching their scope), warming prepares *sidecar coverage*
        instead of cells: the one-off sidecar extension for any keyword
        the cold segments have not met yet is paid here, after which
        counts and SAI signals resolve from bucket sums without
        fetching a single post.  Returns 0 — no cells were fetched.
        """
        if first_year > last_year:
            raise ValueError(
                f"first_year {first_year} > last_year {last_year}"
            )
        aggregates = self._aggregates
        if aggregates is not None and region == aggregates.region:
            aggregates.ensure(keywords)
            return 0
        _, fetched = self._cells(
            tuple(dict.fromkeys(keywords)),
            region,
            first_year,
            dt.date(last_year, 12, 31),
            counted=False,
        )
        return fetched

    def invalidate_keyword(self, keyword: str) -> int:
        """Drop every cached entry for one keyword (any window/region)."""
        return self._cache.invalidate(
            lambda key: getattr(key, "keyword", None) == keyword
            and getattr(key, "platform", None) == self._platform
        )


@dataclass(frozen=True)
class _SAIKey:
    """Cache key for a derived per-window result."""

    database_version: int
    region: Optional[str]
    since: Optional[dt.date]
    until: Optional[dt.date]
    tag: str


class SAICache:
    """Memoises SAI lists (or whole pipeline runs) per analysis window.

    Keys embed the keyword database's
    :attr:`~repro.core.keywords.KeywordDatabase.version`, so any
    mutation — a learned hashtag, a new manual entry, a re-annotation —
    makes previous entries unreachable: invalidation-on-keyword-learning
    without the database knowing about its caches.  Unreachable stale
    entries are garbage-collected on the next :meth:`put`.
    """

    def __init__(self, cache: Optional[TTLCache] = None) -> None:
        self._cache = cache if cache is not None else TTLCache()

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the backing store."""
        return self._cache.stats

    @staticmethod
    def _key(
        database_version: int,
        *,
        region: Optional[str],
        since: Optional[dt.date],
        until: Optional[dt.date],
        tag: str,
    ) -> _SAIKey:
        return _SAIKey(
            database_version=database_version,
            region=region,
            since=since,
            until=until,
            tag=tag,
        )

    def get(
        self,
        database_version: int,
        *,
        region: Optional[str] = None,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
        tag: str = "sai",
    ) -> Any:
        """The cached result for this exact (version, window) or None."""
        key = self._key(
            database_version, region=region, since=since, until=until, tag=tag
        )
        value = self._cache.get(key, _MISSING)
        return None if value is _MISSING else value

    def put(
        self,
        database_version: int,
        value: Any,
        *,
        region: Optional[str] = None,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
        tag: str = "sai",
    ) -> None:
        """Store a derived result, dropping entries of older DB versions."""
        self._cache.invalidate(
            lambda key: isinstance(key, _SAIKey)
            and key.database_version < database_version
        )
        key = self._key(
            database_version, region=region, since=since, until=until, tag=tag
        )
        self._cache.put(key, value)

    def clear(self) -> int:
        """Drop everything; returns the number of entries removed."""
        return self._cache.clear()
