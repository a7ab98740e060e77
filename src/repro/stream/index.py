"""Appendable corpus index: a delta-segment over :class:`CorpusIndex`.

:class:`~repro.social.index.CorpusIndex` is immutable by design — its
date-sorted columns and haystack arena are global, so a single appended
post would shift every position after it.  Instead of patching columns
in place, :class:`StreamingCorpusIndex` uses the classic delta-segment
layout of streaming search engines:

* an immutable **base segment** (a full :class:`CorpusIndex` over a
  :class:`~repro.social.columnar.ColumnarCorpus`);
* a mutable **tail segment** — the recently appended posts, indexed
  lazily as their own small :class:`CorpusIndex` on first query;
* periodic **compaction** — when the tail outgrows
  ``compact_threshold``, base and tail merge into a new base via
  :meth:`CorpusIndex.extended_with_index`: for in-order tails every
  column and the arena concatenate at C speed, so compaction is cheap
  array work, not a re-analysis of the base's texts.

Each segment answers keywords with its own arena sweep, the one
matcher (:meth:`~repro.social.columnar.ColumnarCorpus.search_positions`).

All segments share one :class:`~repro.social.columnar.TextInterner`, so
a text is analyzed exactly once per index lifetime no matter how many
compactions its post survives — the bounded global ``analyze_text``
memo cannot thrash the streaming hot path.

Appending a micro-batch is O(batch); queries pay one extra (small)
segment sweep plus an ordered merge.  Query results are post-for-post
identical to a :class:`CorpusIndex` built from scratch over the same
posts — property-tested in
``tests/properties/test_stream_index_equivalence.py`` — including
out-of-order arrivals: the merge keys on ``(created_at, post_id)``, the
global sort order, not on arrival order.

The index checkpoints: :meth:`state_dict` serialises both segments as
plain columnar dicts (tail in arrival order) plus the policy and
maintenance counters, and :meth:`load_state` restores the exact
base/tail split — a resumed index reports the same
:attr:`segment_stats` and answers queries identically to one that never
stopped.
"""

from __future__ import annotations

import datetime as dt
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs.registry import DEFAULT_SIZE_BUCKETS, ensure_registry
from repro.social.columnar import (
    TextInterner,
    columns_to_posts,
    posts_to_columns,
)
from repro.social.index import CorpusIndex
from repro.social.post import Post
from repro.stream.deltas import (
    SignalDelta,
    compute_signal_delta,
    compute_signal_delta_columnar,
)

#: Default tail size that triggers a base+tail compaction.
DEFAULT_COMPACT_THRESHOLD = 1024


def _merge_ordered(left: Sequence[Post], right: Sequence[Post]) -> List[Post]:
    """Merge two ``(created_at, post_id)``-sorted post lists."""
    merged: List[Post] = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if (a.created_at, a.post_id) <= (b.created_at, b.post_id):
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


class StreamingCorpusIndex:
    """An appendable index with :class:`CorpusIndex`-equivalent queries.

    Args:
        posts: initial posts (become the first base segment).
        compact_threshold: tail size at which base and tail are merged
            into a new base segment.  Small values exercise compaction;
            large values keep appends O(batch) for longer.
        compact_ratio: optional tail/base size ratio that *also*
            triggers compaction.  The fixed threshold alone lets a small
            base drag a comparatively huge tail (every query pays a
            second near-full sweep); a ratio of e.g. ``0.25`` bounds the
            tail at a quarter of the base under sustained ingest, which
            keeps the extra query cost proportional — and because each
            ratio compaction grows the base geometrically, the amortised
            append cost stays O(batch × (1 + 1/ratio)).  Whichever
            policy fires first wins; ``None`` keeps the pure-threshold
            behaviour.
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`
            recording append/compaction events and (at export time)
            per-segment size gauges; None wires the no-op path.
    """

    def __init__(
        self,
        posts: Iterable[Post] = (),
        *,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
        compact_ratio: Optional[float] = None,
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
        self._compact_threshold = compact_threshold
        self._compact_ratio = compact_ratio
        self._interner = TextInterner()
        self._base = CorpusIndex(posts, interner=self._interner)
        self._tail_posts: List[Post] = []
        self._tail_index: Optional[CorpusIndex] = None
        self._ids: Set[str] = {p.post_id for p in self._base.posts}
        if len(self._ids) != len(self._base):
            raise ValueError("initial posts contain duplicate post ids")
        self._appends = 0
        self._compactions = 0
        self._metrics = ensure_registry(metrics)
        self._appends_total = self._metrics.counter(
            "psp_index_appends_total", "Micro-batch appends into the index"
        )
        self._compactions_total = self._metrics.counter(
            "psp_index_compactions_total", "Base+tail segment compactions"
        )
        self._compacted_hist = self._metrics.histogram(
            "psp_index_compacted_posts",
            "Tail posts folded per compaction",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        if self._metrics.enabled:
            self._metrics.add_collector(self._refresh_gauges)

    def _refresh_gauges(self) -> None:
        """Per-segment size gauges, refreshed at export/snapshot time."""
        posts_gauge = self._metrics.gauge(
            "psp_index_posts", "Posts retained per index tier",
            labelnames=("tier",),
        )
        posts_gauge.set(len(self._base), tier="base")
        posts_gauge.set(len(self._tail_posts), tier="tail")
        self._metrics.gauge(
            "psp_index_interned_texts", "Texts pinned in the interner pool"
        ).set(len(self._interner))

    # -- ingestion ----------------------------------------------------------

    def append(self, posts: Iterable[Post]) -> int:
        """Append new posts; returns how many were added.

        The append is atomic: ids are validated up front, so a
        duplicate rejects the whole batch and leaves the index exactly
        as it was.

        Raises:
            ValueError: when a post id is already present, or repeated
                within the batch (feeds must not replay posts;
                authenticity filtering happens before the index, see
                the runtime).
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
        self._tail_posts.extend(batch)
        self._tail_index = None
        self._appends += 1
        self._appends_total.inc()
        if self._should_compact():
            self.compact()
        return len(batch)

    def _should_compact(self) -> bool:
        """Whether either compaction policy fires on the current tail."""
        tail = len(self._tail_posts)
        if tail >= self._compact_threshold:
            return True
        if self._compact_ratio is None:
            return False
        # max(1, base): an empty base compacts on the first append, so
        # the ratio policy governs from the very first posts onwards.
        return tail >= self._compact_ratio * max(1, len(self._base))

    def compact(self) -> None:
        """Merge the tail into the base segment (tail restarts empty)."""
        if not self._tail_posts:
            return
        self._compacted_hist.observe(len(self._tail_posts))
        self._base = self._base.extended_with_index(self._tail())
        self._tail_posts = []
        self._tail_index = None
        self._compactions += 1
        self._compactions_total.inc()

    # -- segment access -----------------------------------------------------

    def _tail(self) -> Optional[CorpusIndex]:
        """The tail segment's index, built lazily after each append."""
        if not self._tail_posts:
            return None
        if self._tail_index is None:
            self._tail_index = CorpusIndex(
                self._tail_posts, interner=self._interner
            )
        return self._tail_index

    @property
    def segment_stats(self) -> Dict[str, object]:
        """Base/tail sizes, columnar footprint, policy and counters."""
        return {
            "base_posts": len(self._base),
            "tail_posts": len(self._tail_posts),
            "appends": self._appends,
            "compactions": self._compactions,
            "compact_threshold": self._compact_threshold,
            "compact_ratio": self._compact_ratio,
            "base_arena_chars": self._base.columns.arena_chars,
            "interned_texts": len(self._interner),
        }

    def __len__(self) -> int:
        return len(self._base) + len(self._tail_posts)

    def __contains__(self, post_id: str) -> bool:
        return post_id in self._ids

    @property
    def posts(self) -> Tuple[Post, ...]:
        """All posts in global ``(created_at, post_id)`` order."""
        tail = self._tail()
        if tail is None:
            return self._base.posts
        return tuple(_merge_ordered(self._base.posts, tail.posts))

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

        Each segment answers with its own one-pass sweep; per keyword
        the two result lists (each already date-sorted) are merged on
        the global sort key and truncated to ``limit``.
        """
        base_results = self._base.search_many(
            keywords, since=since, until=until
        )
        tail = self._tail()
        if tail is None:
            if limit is None:
                return base_results
            return {k: v[:limit] for k, v in base_results.items()}
        tail_results = tail.search_many(keywords, since=since, until=until)
        merged: Dict[str, List[Post]] = {}
        for keyword, base_posts in base_results.items():
            combined = _merge_ordered(base_posts, tail_results[keyword])
            merged[keyword] = combined[:limit] if limit is not None else combined
        return merged

    def matching(self, keyword: str) -> List[Post]:
        """All posts matching one keyword (no window), oldest first."""
        return self.search_many((keyword,))[keyword]

    def as_corpus_index(self) -> CorpusIndex:
        """A compacted, immutable snapshot of the current state."""
        self.compact()
        return self._base

    # -- keyword backfill ---------------------------------------------------

    def retained_texts(self) -> List[str]:
        """Every retained post text (both segments), for keyword learning."""
        texts = list(self._base.columns.iter_texts())
        texts.extend(post.text for post in self._tail_posts)
        return texts

    def signal_backfill(
        self,
        keywords: Sequence[str],
        *,
        region: Optional[str] = None,
        analyzer=None,
    ) -> SignalDelta:
        """The indexed corpus's aggregate sums for ``keywords``.

        The streaming-learning backfill kernel: a
        :class:`~repro.stream.deltas.SignalDelta` with ``observed == 0``
        (the tracker already counted these posts) carrying the keywords'
        SAI bucket sums and voice votes over the *whole* retained corpus
        — votes are full-history, so the backfill must be too.  The base
        answers via the columnar kernel, the tail via the batch arena
        sweep.
        """
        merged = SignalDelta.merge(
            (
                compute_signal_delta_columnar(
                    keywords,
                    self._base.columns,
                    region=region,
                    analyzer=analyzer,
                ),
                compute_signal_delta(
                    keywords, self._tail_posts, region=region, analyzer=analyzer
                ),
            )
        )
        return SignalDelta(
            buckets=merged.buckets,
            votes=merged.votes,
            dirty=merged.dirty,
            observed=0,
        )

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of both segments, split preserved.

        The base serialises as the columnar segment's plain column dict;
        the tail serialises the same way but in **arrival order**, so a
        restore reproduces the exact base/tail split, compaction-policy
        state and maintenance counters — :attr:`segment_stats` of a
        resumed index equals the uninterrupted one's.
        """
        return {
            "base": self._base.columns.state_dict(),
            "tail": posts_to_columns(self._tail_posts),
            "appends": self._appends,
            "compactions": self._compactions,
            "compact_threshold": self._compact_threshold,
            "compact_ratio": self._compact_ratio,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        The snapshot's compaction policy is adopted wholesale — a
        resumed index must compact at exactly the moments the
        uninterrupted run would, or the segment split diverges.
        """
        if state.get("layout") == "tiered":
            raise ValueError(
                "snapshot is a tiered-index state_dict; restore it with "
                "a TieredCorpusIndex (retention knobs set)"
            )
        self._compact_threshold = int(state["compact_threshold"])  # type: ignore[arg-type]
        ratio = state.get("compact_ratio")
        self._compact_ratio = None if ratio is None else float(ratio)  # type: ignore[arg-type]
        self._interner = TextInterner()
        base_posts = columns_to_posts(state["base"])  # type: ignore[arg-type]
        self._base = CorpusIndex(base_posts, interner=self._interner)
        self._tail_posts = columns_to_posts(state["tail"])  # type: ignore[arg-type]
        self._tail_index = None
        self._ids = {p.post_id for p in base_posts}
        self._ids.update(p.post_id for p in self._tail_posts)
        self._appends = int(state["appends"])  # type: ignore[arg-type]
        self._compactions = int(state["compactions"])  # type: ignore[arg-type]
