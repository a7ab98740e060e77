"""Time-decay tiered corpus index: hot / warm / cold segments.

The flat delta-segment index (:class:`~repro.stream.index.
StreamingCorpusIndex`) keeps one base+tail pair: every compaction
re-concatenates the *entire* base's columns (O(corpus) array work per
compaction) and the base's arena and interned analyses all stay
resident forever — RSS grows with retention.  At the paper's
multi-year horizons both costs dominate.  :class:`TieredCorpusIndex`
replaces the single base with a time-decay hierarchy:

* **hot** — the append-only tail of recent arrivals, kept as plain
  posts and indexed lazily, exactly like the flat index's tail;
* **warm** — date-bounded segments.  When arrivals cross a time
  boundary (every ``warm_span_days`` of post dates), the posts of
  completed spans seal out of the hot tail into per-span
  :class:`~repro.social.index.CorpusIndex` chunks.  Spans consolidate
  their chunks on their own cadence, so consolidation cost is bounded
  by a span's size — never by total retention;
* **cold** — once a span's entire date range is older than
  ``cold_age_days`` (measured against the newest post seen), the span
  seals immutably: its raw columns are demoted to compact plain
  arrays (arena, interned analyses and `Post` caches are all
  dropped) and a precomputed :class:`~repro.stream.deltas.
  SegmentSidecar` carries its per-``keyword × year`` aggregate sums, so
  tracker seeding and keyword backfill answer from sidecar lookups
  instead of re-scanning the segment.  Raw posts stay lazily
  materializable (replay parity, late keyword backfill) but are never
  cached — a cold segment costs its column data, nothing more.

Query routing bisects tiers by date range: a window query only sweeps
the hot tail, the warm chunks it overlaps, and materializes only the
cold segments it overlaps (a steady-state monitoring window overlaps
none).  Every segment answers with the same arena sweep
(:meth:`~repro.social.columnar.ColumnarCorpus.search_positions`), the
one keyword matcher, so sealing a segment builds no term index.
Results stay post-for-post identical to a from-scratch
:class:`~repro.social.index.CorpusIndex` over the same posts —
property-tested in ``tests/properties/test_tiered_equivalence.py``.

:func:`build_stream_index` is the runtime's factory: retention knobs
unset returns the flat index (every pre-existing behaviour, test and
checkpoint untouched); either knob set returns a tiered index.
"""

from __future__ import annotations

import datetime as dt
import itertools
from array import array
from heapq import merge as heap_merge
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs.registry import DEFAULT_SIZE_BUCKETS, ensure_registry
from repro.social.columnar import (
    ColumnarCorpus,
    TextInterner,
    columns_to_posts,
    posts_to_columns,
)
from repro.social.index import CorpusIndex
from repro.social.post import Post
from repro.stream.deltas import (
    SegmentSidecar,
    SignalDelta,
    compute_signal_delta,
    compute_signal_delta_columnar,
)
from repro.stream.index import DEFAULT_COMPACT_THRESHOLD, StreamingCorpusIndex
from repro.stream.store import (
    DEFAULT_MAX_RESIDENT_COLD,
    HydrationCache,
    SegmentStore,
    StoreError,
)

__all__ = [
    "DEFAULT_COLD_AGE_DAYS",
    "DEFAULT_WARM_SPAN_DAYS",
    "TieredCorpusIndex",
    "build_stream_index",
]

#: Resident cold segments get process-unique cache tokens (never
#: serialized; a restore mints fresh ones).
_RESIDENT_TOKENS = itertools.count()

#: Warm segments cover this many days of post dates by default (~one
#: quarter): long enough that steady monitoring windows stay out of
#: cold, short enough that a consolidation touches one season of posts.
DEFAULT_WARM_SPAN_DAYS = 90

#: A span seals cold once its whole date range is this much older than
#: the newest post seen (~one year: the monitor's widest default
#: staleness window stays warm).
DEFAULT_COLD_AGE_DAYS = 365

#: A warm span consolidates its chunks once it accumulates this many.
WARM_CONSOLIDATE_CHUNKS = 4

_SORT_KEY = lambda post: (post.created_at, post.post_id)  # noqa: E731


def _compact_columns(state: Mapping[str, object]) -> Dict[str, object]:
    """A cold segment's raw columns with numeric columns as arrays.

    The plain :meth:`~repro.social.columnar.ColumnarCorpus.state_dict`
    lists hold boxed Python ints (~28 bytes each); typed arrays hold the
    same values at machine width.  Strings are kept as-is — they are the
    irreducible cost of lazy materializability.
    """
    return {
        "post_ids": list(state["post_ids"]),
        "texts": list(state["texts"]),
        "authors": list(state["authors"]),
        "dates": array("l", state["dates"]),  # type: ignore[arg-type]
        "region_vocab": list(state["region_vocab"]),  # type: ignore[arg-type]
        "region_codes": array("H", state["region_codes"]),  # type: ignore[arg-type]
        "views": array("q", state["views"]),  # type: ignore[arg-type]
        "likes": array("q", state["likes"]),  # type: ignore[arg-type]
        "reposts": array("q", state["reposts"]),  # type: ignore[arg-type]
        "replies": array("q", state["replies"]),  # type: ignore[arg-type]
    }


def _oldest_ord(posts: Iterable[Post]) -> Optional[int]:
    """The oldest date ordinal among ``posts`` (None when empty)."""
    return min((post.created_at.toordinal() for post in posts), default=None)


def _plain_columns(compact: Mapping[str, object]) -> Dict[str, object]:
    """The JSON-serialisable form of a :func:`_compact_columns` dict."""
    return {key: list(value) for key, value in compact.items()}  # type: ignore[call-overload]


class _ColdSegment:
    """One immutable cold segment: sidecar plus columns or a store key.

    A resident segment keeps its compact raw ``columns_state`` in
    memory; a spilled segment keeps ``store_key`` instead and its
    columns live only in the owning index's :class:`SegmentStore`.
    """

    __slots__ = (
        "span",
        "columns_state",
        "sidecar",
        "count",
        "min_ord",
        "max_ord",
        "store_key",
        "token",
    )

    def __init__(
        self,
        *,
        span: int,
        columns_state: Optional[Dict[str, object]],
        sidecar: Optional[SegmentSidecar],
        count: int,
        min_ord: int,
        max_ord: int,
        store_key: Optional[str] = None,
    ) -> None:
        if columns_state is None and store_key is None:
            raise ValueError(
                "a cold segment needs either resident columns or a store key"
            )
        self.span = span
        self.columns_state = columns_state
        self.sidecar = sidecar
        self.count = count
        self.min_ord = min_ord
        self.max_ord = max_ord
        self.store_key = store_key
        self.token = f"resident-{next(_RESIDENT_TOKENS)}"

    def materialize(self) -> ColumnarCorpus:
        """Rebuild the raw columnar segment, into a throwaway pool.

        Cold analyses are deliberately *not* pooled in the index's
        shared interner — materialization is the rare path (replay
        parity, late keyword backfill) and re-pinning its analyses
        would undo the cold seal's memory reclaim.  Callers inside the
        index go through :meth:`TieredCorpusIndex._materialize`, which
        adds the LRU hydration cache (and the store read for spilled
        segments); this method is the uncached resident path only.
        """
        if self.columns_state is None:
            raise StoreError(
                f"cold segment for span {self.span} is spilled "
                f"(store key {self.store_key!r}); hydrate it through its "
                "segment store"
            )
        return ColumnarCorpus.from_state(self.columns_state)

    def overlaps(self, since_ord: Optional[int], until_ord: Optional[int]) -> bool:
        """Whether the segment's date range intersects a window."""
        if since_ord is not None and self.max_ord < since_ord:
            return False
        if until_ord is not None and self.min_ord > until_ord:
            return False
        return True


class TieredCorpusIndex:
    """An appendable index with per-tier compaction and decay.

    Duck-type compatible with :class:`~repro.stream.index.
    StreamingCorpusIndex` (appends, queries, stats, checkpoints), with
    the flat base+tail replaced by the hot/warm/cold hierarchy described
    in the module docstring.

    Args:
        posts: initial posts (run through the normal tier lifecycle).
        compact_threshold: hot-tail size that forces a full seal of the
            tail into warm segments (the flat index's threshold policy).
        compact_ratio: optional hot/retained ratio that also forces a
            full seal (the flat index's ratio policy).
        warm_span_days: days of post dates per warm span; arrivals
            crossing a span boundary seal the completed spans.
        cold_age_days: age horizon (vs the newest post date seen) past
            which a whole span seals cold.
        sidecar_keywords: keyword universe swept into cold sidecars at
            seal time (None = no sidecars; purely structural tiering).
        sidecar_region: SAI region scope of the sidecar bucket sums —
            must match the consuming tracker's.
        sidecar_analyzer: sentiment analyzer of the sidecar sums — must
            be the consuming tracker's instance for bit-parity.
        store: optional :class:`~repro.stream.store.SegmentStore`; when
            attached, cold seals spill their columns to it and keep only
            the store key in memory.  Several indexes (shards, a replay
            audit) may share one store instance.
        max_resident_cold: LRU capacity of the resident hydration cache
            (spilled segments additionally cache inside the store's own
            LRU); None takes the store default.
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`
            recording seal/consolidate/rematerialize events as counters
            + seal-size histograms, plus per-tier size gauges refreshed
            at export time; None wires the no-op path.
    """

    def __init__(
        self,
        posts: Iterable[Post] = (),
        *,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
        compact_ratio: Optional[float] = None,
        warm_span_days: int = DEFAULT_WARM_SPAN_DAYS,
        cold_age_days: int = DEFAULT_COLD_AGE_DAYS,
        sidecar_keywords: Optional[Sequence[str]] = None,
        sidecar_region: Optional[str] = None,
        sidecar_analyzer=None,
        store: Optional[SegmentStore] = None,
        max_resident_cold: Optional[int] = None,
        metrics=None,
    ) -> None:
        if compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {compact_threshold}"
            )
        if compact_ratio is not None and compact_ratio <= 0:
            raise ValueError(
                f"compact_ratio must be > 0, got {compact_ratio}"
            )
        if warm_span_days < 1:
            raise ValueError(
                f"warm_span_days must be >= 1, got {warm_span_days}"
            )
        if cold_age_days < 1:
            raise ValueError(
                f"cold_age_days must be >= 1, got {cold_age_days}"
            )
        self._compact_threshold = compact_threshold
        self._compact_ratio = compact_ratio
        self._warm_span_days = warm_span_days
        self._cold_age_days = cold_age_days
        self._sidecar_keywords = (
            tuple(sidecar_keywords) if sidecar_keywords is not None else None
        )
        self._sidecar_region = sidecar_region
        self._sidecar_analyzer = sidecar_analyzer
        self._store = store
        self._resident_cache = HydrationCache(
            DEFAULT_MAX_RESIDENT_COLD
            if max_resident_cold is None
            else max_resident_cold
        )
        self._interner = TextInterner()
        self._hot: List[Post] = []
        #: The hot tail's oldest date ordinal (None while it is empty):
        #: the seal check's O(1) answer to "does any hot post belong to
        #: a completed span?".  Derived state, rebuilt on restore.
        self._hot_min_ord: Optional[int] = None
        self._hot_index: Optional[CorpusIndex] = None
        self._warm: Dict[int, List[CorpusIndex]] = {}
        self._warm_count = 0
        self._cold: List[_ColdSegment] = []
        self._cold_count = 0
        self._ids: Set[str] = set()
        self._max_ord = -1
        self._appends = 0
        self._hot_seals = 0
        self._consolidations = 0
        self._cold_seals = 0
        self._interner_evicted = 0
        self._last_hot_seal_append: Optional[int] = None
        self._last_consolidation_append: Optional[int] = None
        self._last_cold_seal_append: Optional[int] = None
        self._metrics = ensure_registry(metrics)
        self._appends_total = self._metrics.counter(
            "psp_index_appends_total", "Micro-batch appends into the index"
        )
        self._hot_seals_total = self._metrics.counter(
            "psp_tier_hot_seals_total", "Hot-tail seals into warm segments"
        )
        self._consolidations_total = self._metrics.counter(
            "psp_tier_consolidations_total", "Warm-span chunk consolidations"
        )
        self._cold_seals_total = self._metrics.counter(
            "psp_tier_cold_seals_total", "Warm spans sealed into cold segments"
        )
        self._remat_total = self._metrics.counter(
            "psp_tier_rematerializations_total",
            "Cold segments re-materialized for a query or backfill",
        )
        self._evicted_total = self._metrics.counter(
            "psp_tier_interner_evicted_total",
            "Pooled analyses evicted by cold seals",
        )
        self._sealed_hist = self._metrics.histogram(
            "psp_tier_sealed_posts",
            "Posts moved per seal event, by destination tier",
            labelnames=("tier",),
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        if self._metrics.enabled:
            self._metrics.add_collector(self._refresh_gauges)
        initial = list(posts)
        if initial:
            seen: Set[str] = set()
            for post in initial:
                if post.post_id in seen:
                    raise ValueError("initial posts contain duplicate post ids")
                seen.add(post.post_id)
            self._ids.update(seen)
            self._hot.extend(initial)
            self._hot_min_ord = _oldest_ord(initial)
            self._max_ord = max(p.created_at.toordinal() for p in initial)
            self._maintain()

    def _refresh_gauges(self) -> None:
        """Per-tier size gauges, refreshed at export/snapshot time."""
        posts_gauge = self._metrics.gauge(
            "psp_index_posts", "Posts retained per index tier",
            labelnames=("tier",),
        )
        posts_gauge.set(len(self._hot), tier="hot")
        posts_gauge.set(self._warm_count, tier="warm")
        posts_gauge.set(self._cold_count, tier="cold")
        self._metrics.gauge(
            "psp_index_interned_texts", "Texts pinned in the interner pool"
        ).set(len(self._interner))

    # -- tier arithmetic ----------------------------------------------------

    def _span_of(self, ordinal: int) -> int:
        return ordinal // self._warm_span_days

    def _span_last_ord(self, span: int) -> int:
        return (span + 1) * self._warm_span_days - 1

    # -- ingestion ----------------------------------------------------------

    def append(self, posts: Iterable[Post]) -> int:
        """Append new posts; returns how many were added.

        Atomic like the flat index's append: ids are validated up
        front, so a duplicate rejects the whole batch and leaves every
        tier exactly as it was.
        """
        batch = list(posts)
        seen: Set[str] = set()
        for post in batch:
            if post.post_id in self._ids or post.post_id in seen:
                raise ValueError(f"duplicate post id {post.post_id!r}")
            seen.add(post.post_id)
        if not batch:
            return 0
        self._ids.update(seen)
        self._hot.extend(batch)
        self._hot_index = None
        self._appends += 1
        self._appends_total.inc()
        ordinals = [post.created_at.toordinal() for post in batch]
        batch_max = max(ordinals)
        if batch_max > self._max_ord:
            self._max_ord = batch_max
        batch_min = min(ordinals)
        if self._hot_min_ord is None or batch_min < self._hot_min_ord:
            self._hot_min_ord = batch_min
        self._maintain()
        return len(batch)

    def _maintain(self) -> None:
        """One round of per-tier maintenance after an append."""
        self._seal_hot()
        self._consolidate_warm()
        self._seal_cold()

    def _seal_hot(self) -> None:
        """Move completed-span (or policy-triggered) hot posts to warm.

        Without a policy trigger the check is O(1): no hot post can
        belong to a completed span while the oldest one is in the
        current span.
        """
        tail = len(self._hot)
        if tail == 0:
            return
        retained = self._warm_count + self._cold_count
        full = tail >= self._compact_threshold or (
            self._compact_ratio is not None
            and tail >= self._compact_ratio * max(1, retained)
        )
        if full:
            to_seal = self._hot
            remaining: List[Post] = []
        else:
            current_span = self._span_of(self._max_ord)
            if self._span_of(self._hot_min_ord) == current_span:  # type: ignore[arg-type]
                return
            to_seal = []
            remaining = []
            for post in self._hot:
                if self._span_of(post.created_at.toordinal()) < current_span:
                    to_seal.append(post)
                else:
                    remaining.append(post)
        by_span: Dict[int, List[Post]] = {}
        for post in to_seal:
            by_span.setdefault(
                self._span_of(post.created_at.toordinal()), []
            ).append(post)
        for span in sorted(by_span):
            chunk = CorpusIndex(by_span[span], interner=self._interner)
            self._warm.setdefault(span, []).append(chunk)
            self._warm_count += len(chunk)
        self._hot = remaining
        self._hot_min_ord = _oldest_ord(remaining)
        self._hot_index = None
        self._hot_seals += 1
        self._hot_seals_total.inc()
        self._sealed_hist.observe(len(to_seal), tier="warm")
        self._last_hot_seal_append = self._appends

    def _consolidate_warm(self) -> None:
        """Merge chunk chains of spans that accumulated too many."""
        for span, chunks in self._warm.items():
            if len(chunks) < WARM_CONSOLIDATE_CHUNKS:
                continue
            merged = chunks[0]
            for chunk in chunks[1:]:
                merged = merged.extended_with_index(chunk)
            self._warm[span] = [merged]
            self._consolidations += 1
            self._consolidations_total.inc()
            self._last_consolidation_append = self._appends

    def _seal_cold(self) -> None:
        """Demote warm spans entirely past the age horizon to cold."""
        if self._max_ord < 0 or not self._warm:
            return
        horizon = self._max_ord - self._cold_age_days
        expired = [
            span
            for span in sorted(self._warm)
            if self._span_last_ord(span) <= horizon
        ]
        if not expired:
            return
        for span in expired:
            chunks = self._warm.pop(span)
            merged = chunks[0]
            for chunk in chunks[1:]:
                merged = merged.extended_with_index(chunk)
            columns = merged.columns
            sidecar = None
            if self._sidecar_keywords is not None:
                sidecar = SegmentSidecar.build(
                    self._sidecar_keywords,
                    columns,
                    region=self._sidecar_region,
                    analyzer=self._sidecar_analyzer,
                )
            count = len(columns)
            columns_state: Optional[Dict[str, object]] = _compact_columns(
                columns.state_dict()
            )
            store_key: Optional[str] = None
            if self._store is not None:
                store_key = self._store.spill(columns_state, span=span)
                columns_state = None
            self._cold.append(
                _ColdSegment(
                    span=span,
                    columns_state=columns_state,
                    sidecar=sidecar,
                    count=count,
                    min_ord=columns.date_ordinal(0),
                    max_ord=columns.date_ordinal(count - 1),
                    store_key=store_key,
                )
            )
            self._warm_count -= count
            self._cold_count += count
            self._cold_seals += 1
            self._cold_seals_total.inc()
            self._sealed_hist.observe(count, tier="cold")
            self._last_cold_seal_append = self._appends
        self._cold.sort(key=lambda segment: (segment.min_ord, segment.span))
        self._prune_interner()

    def _prune_interner(self) -> None:
        """Drop pooled analyses only cold segments still reference."""
        keep: Set[str] = {post.text for post in self._hot}
        for chunks in self._warm.values():
            for chunk in chunks:
                keep.update(chunk.columns.iter_texts())
        evicted = self._interner.prune(keep)
        self._interner_evicted += evicted
        self._evicted_total.inc(evicted)

    def compact(self) -> None:
        """Force-seal the whole hot tail into warm segments."""
        if not self._hot:
            return
        sealed = len(self._hot)
        by_span: Dict[int, List[Post]] = {}
        for post in self._hot:
            by_span.setdefault(
                self._span_of(post.created_at.toordinal()), []
            ).append(post)
        for span in sorted(by_span):
            chunk = CorpusIndex(by_span[span], interner=self._interner)
            self._warm.setdefault(span, []).append(chunk)
            self._warm_count += len(chunk)
        self._hot = []
        self._hot_min_ord = None
        self._hot_index = None
        self._hot_seals += 1
        self._hot_seals_total.inc()
        self._sealed_hist.observe(sealed, tier="warm")
        self._last_hot_seal_append = self._appends
        self._consolidate_warm()
        self._seal_cold()

    # -- segment access -----------------------------------------------------

    @property
    def store(self) -> Optional[SegmentStore]:
        """The attached spill store (None when fully resident)."""
        return self._store

    @property
    def sidecar_region(self) -> Optional[str]:
        """The SAI region scope the cold sidecars were built with."""
        return self._sidecar_region

    @property
    def sidecar_analyzer(self):
        """The sentiment analyzer the cold sidecars were built with."""
        return self._sidecar_analyzer

    def _materialize(self, segment: _ColdSegment) -> ColumnarCorpus:
        """One cold segment's corpus, through the LRU hydration cache.

        Every rehydration in the index routes here: spilled segments
        read back via their store (which runs its own LRU keyed by
        store key), resident segments rebuild through the index-local
        cache — so back-to-back queries on the same cold window no
        longer re-parse the segment (or rebuild a throwaway interner)
        per call.  The rematerialization counter ticks only on cache
        misses — it counts actual column re-parses, not lookups.
        """
        if segment.store_key is not None:
            store = self._store
            if store is None:
                raise StoreError(
                    f"cold segment {segment.store_key!r} is spilled but the "
                    "index has no segment store attached; pass spill_dir "
                    "(or a store) when building the index"
                )
            hydrations_before = store.hydrations
            corpus = store.hydrate(segment.store_key)
            if store.hydrations != hydrations_before:
                self._remat_total.inc()
            return corpus
        cached = self._resident_cache.get(segment.token)
        if cached is not None:
            return cached
        corpus = segment.materialize()
        self._resident_cache.put(segment.token, corpus)
        self._remat_total.inc()
        return corpus

    def _hot_segment(self) -> CorpusIndex:
        """The hot tail's index, built lazily after each append."""
        if self._hot_index is None:
            self._hot_index = CorpusIndex(self._hot, interner=self._interner)
        return self._hot_index

    def _warm_chunks(self) -> List[CorpusIndex]:
        """Every warm chunk, oldest span first."""
        return [
            chunk
            for span in sorted(self._warm)
            for chunk in self._warm[span]
        ]

    @property
    def tier_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-tier posts/segments/footprint rows (see ``segment_stats``)."""
        warm_chunks = self._warm_chunks()
        return {
            "hot": {
                "posts": len(self._hot),
                "spans": len(
                    {
                        self._span_of(post.created_at.toordinal())
                        for post in self._hot
                    }
                ),
                "indexed": self._hot_index is not None,
            },
            "warm": {
                "posts": self._warm_count,
                "spans": len(self._warm),
                "chunks": len(warm_chunks),
                "arena_chars": sum(
                    chunk.columns.arena_chars for chunk in warm_chunks
                ),
                "last_seal_append": self._last_hot_seal_append,
                "last_consolidation_append": self._last_consolidation_append,
            },
            "cold": {
                "posts": self._cold_count,
                "segments": len(self._cold),
                "spilled": sum(
                    1 for segment in self._cold if segment.store_key is not None
                ),
                "sidecars": sum(
                    1 for segment in self._cold if segment.sidecar is not None
                ),
                "sidecar_entries": sum(
                    segment.sidecar.entries
                    for segment in self._cold
                    if segment.sidecar is not None
                ),
                "last_seal_append": self._last_cold_seal_append,
            },
        }

    @property
    def segment_stats(self) -> Dict[str, object]:
        """Flat-compatible counters plus the per-tier rows.

        ``base_posts``/``tail_posts``/``compactions`` keep the flat
        index's meaning (retained-sealed/hot/maintenance-events), so
        policy audits like the replay harness's bounded-memory check
        read tiered stats unchanged.  ``base_arena_chars`` counts only
        *warm* arenas — cold segments hold no arena, which is the
        memory reclaim this layout exists for.
        """
        warm_chunks = self._warm_chunks()
        return {
            "base_posts": self._warm_count + self._cold_count,
            "tail_posts": len(self._hot),
            "appends": self._appends,
            "compactions": self._hot_seals
            + self._consolidations
            + self._cold_seals,
            "compact_threshold": self._compact_threshold,
            "compact_ratio": self._compact_ratio,
            "base_arena_chars": sum(
                chunk.columns.arena_chars for chunk in warm_chunks
            ),
            "interned_texts": len(self._interner),
            "layout": "tiered",
            "warm_span_days": self._warm_span_days,
            "cold_age_days": self._cold_age_days,
            "hot_seals": self._hot_seals,
            "consolidations": self._consolidations,
            "cold_seals": self._cold_seals,
            "interner_evicted": self._interner_evicted,
            "store": self._store.stats if self._store is not None else None,
            "tiers": self.tier_stats,
        }

    def __len__(self) -> int:
        return len(self._hot) + self._warm_count + self._cold_count

    def __contains__(self, post_id: str) -> bool:
        return post_id in self._ids

    @property
    def posts(self) -> Tuple[Post, ...]:
        """All posts in global ``(created_at, post_id)`` order.

        Materializes every cold segment — the replay-parity path, not a
        monitoring-loop path.
        """
        lists: List[Sequence[Post]] = [
            tuple(self._materialize(segment).all_posts())
            for segment in self._cold
        ]
        lists.extend(chunk.posts for chunk in self._warm_chunks())
        lists.append(self._hot_segment().posts)
        return tuple(heap_merge(*lists, key=_SORT_KEY))

    # -- queries ------------------------------------------------------------

    def search_many(
        self,
        keywords: Sequence[str],
        *,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, List[Post]]:
        """Batch keyword search, identical to a from-scratch rebuild.

        The window routes to the tiers it overlaps: the hot tail always
        answers, warm chunks answer when their date range intersects,
        and cold segments materialize (into throwaway pools) only when
        the window actually reaches them.  Per keyword the per-segment
        result lists (each date-sorted) k-way merge on the global sort
        key and truncate to ``limit``.
        """
        since_ord = None if since is None else since.toordinal()
        until_ord = None if until is None else until.toordinal()
        segments: List[CorpusIndex] = []
        for segment in self._cold:
            if segment.overlaps(since_ord, until_ord):
                segments.append(CorpusIndex(columns=self._materialize(segment)))
        for chunk in self._warm_chunks():
            count = len(chunk)
            if count == 0:
                continue
            lo_ord = chunk.columns.date_ordinal(0)
            hi_ord = chunk.columns.date_ordinal(count - 1)
            if since_ord is not None and hi_ord < since_ord:
                continue
            if until_ord is not None and lo_ord > until_ord:
                continue
            segments.append(chunk)
        segments.append(self._hot_segment())
        per_segment = [
            segment.search_many(keywords, since=since, until=until)
            for segment in segments
        ]
        merged: Dict[str, List[Post]] = {}
        for keyword in per_segment[-1]:
            combined = list(
                heap_merge(
                    *(results[keyword] for results in per_segment),
                    key=_SORT_KEY,
                )
            )
            merged[keyword] = (
                combined[:limit] if limit is not None else combined
            )
        return merged

    def matching(self, keyword: str) -> List[Post]:
        """All posts matching one keyword (no window), oldest first."""
        return self.search_many((keyword,))[keyword]

    def as_corpus_index(self) -> CorpusIndex:
        """A from-scratch immutable snapshot of every retained post.

        Built into its own fresh pool — pinning cold analyses in the
        shared interner would undo the cold seals' reclaim.
        """
        return CorpusIndex(self.posts)

    # -- keyword backfill ---------------------------------------------------

    def retained_texts(self) -> List[str]:
        """Hot + warm post texts, for keyword learning.

        Cold segments are deliberately excluded: learning mines *recent*
        chatter for emerging hashtags, and sweeping frozen history would
        re-materialize every cold segment per retune.
        """
        texts: List[str] = []
        for chunk in self._warm_chunks():
            texts.extend(chunk.columns.iter_texts())
        texts.extend(post.text for post in self._hot)
        return texts

    def adopt_sidecar_keywords(self, keywords: Sequence[str]) -> None:
        """Grow the keyword universe future cold seals sweep."""
        self._sidecar_keywords = tuple(keywords)

    def signal_backfill(
        self,
        keywords: Sequence[str],
        *,
        region: Optional[str] = None,
        analyzer=None,
    ) -> SignalDelta:
        """The retained corpus's aggregate sums for ``keywords``.

        The streaming-learning backfill kernel: returns a
        :class:`SignalDelta` with ``observed == 0`` (the tracker already
        counted these posts) carrying the keywords' bucket sums and
        voice votes over *every* tier.  All tiers must contribute —
        voice votes are full-history and region-unscoped, so skipping a
        tier would misclassify the learned keyword.  Cold segments
        answer from their sidecars, extending them lazily (one
        materialization per segment missing the keyword) — the
        "rebuild the sidecar for the new keyword" path.  Sidecar
        extension always uses the index's own sidecar region/analyzer
        context so a sidecar stays internally consistent; the caller's
        ``region``/``analyzer`` must match it (the runtime constructs
        the index from the tracker's context, so they do).
        """
        deltas: List[SignalDelta] = []
        for segment in self._cold:
            sidecar = segment.sidecar
            if sidecar is not None:
                if sidecar.missing(keywords):
                    sidecar.extend(
                        keywords,
                        self._materialize(segment),
                        region=self._sidecar_region,
                        analyzer=self._sidecar_analyzer,
                    )
                deltas.append(
                    sidecar.as_delta(keywords, count_observed=False)
                )
            else:
                deltas.append(
                    compute_signal_delta_columnar(
                        keywords,
                        self._materialize(segment),
                        region=region,
                        analyzer=analyzer,
                    )
                )
        for chunk in self._warm_chunks():
            deltas.append(
                compute_signal_delta_columnar(
                    keywords, chunk.columns, region=region, analyzer=analyzer
                )
            )
        deltas.append(
            compute_signal_delta(
                keywords, self._hot, region=region, analyzer=analyzer
            )
        )
        merged = SignalDelta.merge(deltas)
        return SignalDelta(
            buckets=merged.buckets,
            votes=merged.votes,
            dirty=merged.dirty,
            observed=0,
        )

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot, tier structure preserved.

        Hot serialises in arrival order, warm chunks as their plain
        columnar dicts, cold segments from their already-compact raw
        columns plus sidecar state — serialising a cold tier is a
        list conversion, never a re-index or re-analysis.
        """
        # Warm-chunk texts are pooled deterministically (chunk builds
        # intern them; loads re-intern them), but a hot post's text is
        # pooled only once something analyzed it — a seal, a query.
        # Record which hot texts are pooled so a restore reproduces the
        # pool exactly instead of approximating it.
        pooled = set(self._interner.texts())
        interned_hot = sorted(
            {post.text for post in self._hot if post.text in pooled}
        )
        return {
            "layout": "tiered",
            "hot": posts_to_columns(self._hot),
            "interned_hot_texts": interned_hot,
            "warm": [
                {
                    "span": span,
                    "chunks": [
                        chunk.columns.state_dict()
                        for chunk in self._warm[span]
                    ],
                }
                for span in sorted(self._warm)
            ],
            "cold": [
                {
                    "span": segment.span,
                    "columns": (
                        None
                        if segment.columns_state is None
                        else _plain_columns(segment.columns_state)
                    ),
                    "store_key": segment.store_key,
                    "sidecar": (
                        segment.sidecar.state_dict()
                        if segment.sidecar is not None
                        else None
                    ),
                    "count": segment.count,
                    "min_ord": segment.min_ord,
                    "max_ord": segment.max_ord,
                }
                for segment in self._cold
            ],
            "appends": self._appends,
            "hot_seals": self._hot_seals,
            "consolidations": self._consolidations,
            "cold_seals": self._cold_seals,
            "interner_evicted": self._interner_evicted,
            "last_hot_seal_append": self._last_hot_seal_append,
            "last_consolidation_append": self._last_consolidation_append,
            "last_cold_seal_append": self._last_cold_seal_append,
            "max_ord": self._max_ord,
            "compact_threshold": self._compact_threshold,
            "compact_ratio": self._compact_ratio,
            "warm_span_days": self._warm_span_days,
            "cold_age_days": self._cold_age_days,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        The snapshot's retention policy and tier split are adopted
        wholesale — a resumed index must seal and consolidate at
        exactly the moments the uninterrupted run would.  The sidecar
        analyzer/region context is *not* part of the snapshot; the
        owning runtime re-supplies it at construction.
        """
        if state.get("layout") != "tiered":
            raise ValueError(
                "snapshot is not a tiered-index state_dict (missing "
                "layout='tiered'); use StreamingCorpusIndex.load_state"
            )
        self._compact_threshold = int(state["compact_threshold"])  # type: ignore[arg-type]
        ratio = state.get("compact_ratio")
        self._compact_ratio = None if ratio is None else float(ratio)  # type: ignore[arg-type]
        self._warm_span_days = int(state["warm_span_days"])  # type: ignore[arg-type]
        self._cold_age_days = int(state["cold_age_days"])  # type: ignore[arg-type]
        self._interner = TextInterner()
        self._hot = columns_to_posts(state["hot"])  # type: ignore[arg-type]
        self._hot_min_ord = _oldest_ord(self._hot)
        self._hot_index = None
        self._warm = {}
        self._warm_count = 0
        for entry in state["warm"]:  # type: ignore[union-attr]
            span = int(entry["span"])
            chunks = [
                CorpusIndex(
                    columns=ColumnarCorpus.from_state(
                        chunk_state, interner=self._interner
                    )
                )
                for chunk_state in entry["chunks"]
            ]
            self._warm[span] = chunks
            self._warm_count += sum(len(chunk) for chunk in chunks)
        # Re-pin the hot texts the snapshot recorded as pooled (idempotent
        # for texts the warm chunks above already interned).
        for text in state.get("interned_hot_texts", ()):
            self._interner.analysis(text)
        self._cold = []
        self._cold_count = 0
        self._resident_cache.clear()
        cold_ids: List[str] = []
        for entry in state["cold"]:  # type: ignore[union-attr]
            sidecar_state = entry.get("sidecar")
            store_key = entry.get("store_key")
            columns = entry.get("columns")
            columns_state: Optional[Dict[str, object]] = None
            if store_key is not None:
                # Spilled snapshot: the columns live only in the store.
                if self._store is None:
                    raise StoreError(
                        f"snapshot references spilled segment {store_key!r} "
                        "but the index has no segment store attached; "
                        "restore with the checkpoint's spill directory "
                        "(spill_dir / --spill-dir)"
                    )
                if store_key not in self._store:
                    raise StoreError(
                        f"snapshot references spilled segment {store_key!r} "
                        "missing from the store at "
                        f"{self._store.directory}"
                    )
                cold_ids.extend(self._store.load_post_ids(str(store_key)))
            else:
                compact = _compact_columns(columns)  # type: ignore[arg-type]
                cold_ids.extend(compact["post_ids"])  # type: ignore[arg-type]
                if self._store is not None:
                    # Resident snapshot restored onto a spilling index:
                    # re-spill so the restored run sheds the same memory.
                    store_key = self._store.spill(
                        compact, span=int(entry["span"])
                    )
                else:
                    columns_state = compact
            self._cold.append(
                _ColdSegment(
                    span=int(entry["span"]),
                    columns_state=columns_state,
                    sidecar=(
                        SegmentSidecar.from_state(sidecar_state)
                        if sidecar_state is not None
                        else None
                    ),
                    count=int(entry["count"]),
                    min_ord=int(entry["min_ord"]),
                    max_ord=int(entry["max_ord"]),
                    store_key=None if store_key is None else str(store_key),
                )
            )
            self._cold_count += int(entry["count"])
        self._ids = {post.post_id for post in self._hot}
        for chunks in self._warm.values():
            for chunk in chunks:
                self._ids.update(
                    chunk.columns.post_id(position)
                    for position in range(len(chunk))
                )
        self._ids.update(cold_ids)
        self._appends = int(state["appends"])  # type: ignore[arg-type]
        self._hot_seals = int(state["hot_seals"])  # type: ignore[arg-type]
        self._consolidations = int(state["consolidations"])  # type: ignore[arg-type]
        self._cold_seals = int(state["cold_seals"])  # type: ignore[arg-type]
        self._interner_evicted = int(state["interner_evicted"])  # type: ignore[arg-type]
        last_hot = state.get("last_hot_seal_append")
        last_cons = state.get("last_consolidation_append")
        last_cold = state.get("last_cold_seal_append")
        self._last_hot_seal_append = None if last_hot is None else int(last_hot)  # type: ignore[arg-type]
        self._last_consolidation_append = (
            None if last_cons is None else int(last_cons)  # type: ignore[arg-type]
        )
        self._last_cold_seal_append = (
            None if last_cold is None else int(last_cold)  # type: ignore[arg-type]
        )
        self._max_ord = int(state["max_ord"])  # type: ignore[arg-type]


def build_stream_index(
    posts: Iterable[Post] = (),
    *,
    compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
    compact_ratio: Optional[float] = None,
    warm_span_days: Optional[int] = None,
    cold_age_days: Optional[int] = None,
    sidecar_keywords: Optional[Sequence[str]] = None,
    sidecar_region: Optional[str] = None,
    sidecar_analyzer=None,
    store: Optional[SegmentStore] = None,
    spill_dir=None,
    max_resident_cold: Optional[int] = None,
    metrics=None,
):
    """The runtime's index factory: flat by default, tiered on request.

    With both retention knobs unset the flat
    :class:`~repro.stream.index.StreamingCorpusIndex` is returned —
    byte-identical behaviour and checkpoints to every prior release.
    Setting either knob returns a :class:`TieredCorpusIndex` (the unset
    knob takes its default).  ``spill_dir`` opens (or adopts) a
    :class:`~repro.stream.store.SegmentStore` there and attaches it so
    cold seals spill to disk; pass ``store`` instead to share one store
    instance across several indexes (sharded runtimes).  ``metrics``
    threads the owning runtime's telemetry registry into either index
    flavour (and a ``spill_dir``-opened store).
    """
    if warm_span_days is None and cold_age_days is None:
        if store is not None or spill_dir is not None or max_resident_cold is not None:
            raise ValueError(
                "spill-to-disk requires tiered retention: set warm_span_days "
                "or cold_age_days (--warm-span/--cold-age) alongside "
                "spill_dir/max_resident_cold"
            )
        return StreamingCorpusIndex(
            posts,
            compact_threshold=compact_threshold,
            compact_ratio=compact_ratio,
            metrics=metrics,
        )
    if store is None and spill_dir is not None:
        store = SegmentStore(
            spill_dir,
            max_resident_cold=(
                DEFAULT_MAX_RESIDENT_COLD
                if max_resident_cold is None
                else max_resident_cold
            ),
            metrics=metrics,
        )
    return TieredCorpusIndex(
        posts,
        compact_threshold=compact_threshold,
        compact_ratio=compact_ratio,
        warm_span_days=(
            DEFAULT_WARM_SPAN_DAYS if warm_span_days is None else warm_span_days
        ),
        cold_age_days=(
            DEFAULT_COLD_AGE_DAYS if cold_age_days is None else cold_age_days
        ),
        sidecar_keywords=sidecar_keywords,
        sidecar_region=sidecar_region,
        sidecar_analyzer=sidecar_analyzer,
        store=store,
        max_resident_cold=max_resident_cold,
        metrics=metrics,
    )
