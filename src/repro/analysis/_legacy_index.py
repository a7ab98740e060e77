"""Frozen replica of the pre-columnar per-object index (bench reference).

The S9 columnar bench (:func:`repro.analysis.benchkit.run_columnar_bench`)
measures ingest throughput of the columnar
:class:`~repro.stream.index.StreamingCorpusIndex` against the append
path it replaced: per-post ``Post``/``PostAnalysis`` object lists, three
``dict[str, list[int]]`` posting maps rebuilt from scratch on every
compaction, and the default fixed compaction threshold.  That code no
longer exists on the live path, so this module keeps a faithful private
copy — same sort keys, same posting construction, same sweep semantics,
same compaction policy — solely as the naive side of the benchmark.

Do not import this from production code; it is deliberately the slow
path.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.nlp.analysis import PostAnalysis, analyze_text
from repro.nlp.normalize import canonical_keyword
from repro.social.post import Post

#: The pre-columnar default tail size that triggered compaction.
LEGACY_COMPACT_THRESHOLD = 1024


class LegacyCorpusIndex:
    """The pre-columnar immutable index: per-post objects and dict postings."""

    def __init__(self, posts: Iterable[Post]) -> None:
        order = sorted(posts, key=lambda p: (p.created_at, p.post_id))
        self._order: Tuple[Post, ...] = tuple(order)
        self._dates: List[dt.date] = [p.created_at for p in order]
        self._analyses: List[PostAnalysis] = [
            analyze_text(p.text) for p in order
        ]
        self._haystacks: List[str] = [a.haystack for a in self._analyses]
        tag_postings: Dict[str, List[int]] = {}
        token_postings: Dict[str, List[int]] = {}
        stem_postings: Dict[str, List[int]] = {}
        for position, analysis in enumerate(self._analyses):
            for tag in set(analysis.hashtags):
                tag_postings.setdefault(tag, []).append(position)
            for word in analysis.word_set:
                token_postings.setdefault(word, []).append(position)
            for stemmed in set(analysis.stems):
                stem_postings.setdefault(stemmed, []).append(position)
        self._tag_postings = tag_postings
        self._token_postings = token_postings
        self._stem_postings = stem_postings

    def __len__(self) -> int:
        return len(self._order)

    @property
    def posts(self) -> Tuple[Post, ...]:
        return self._order

    def window_bounds(
        self,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
    ) -> Tuple[int, int]:
        lo = 0 if since is None else bisect_left(self._dates, since)
        hi = (
            len(self._dates)
            if until is None
            else bisect_right(self._dates, until)
        )
        return lo, max(lo, hi)

    def _confirmed_positions(
        self, canonical: str, lo: int, hi: int
    ) -> Set[int]:
        confirmed: Set[int] = set()
        for postings in (
            self._tag_postings,
            self._token_postings,
            self._stem_postings,
        ):
            positions = postings.get(canonical)
            if positions:
                start = bisect_left(positions, lo)
                stop = bisect_left(positions, hi)
                confirmed.update(positions[start:stop])
        return confirmed

    def search_many(
        self,
        keywords: Sequence[str],
        *,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, List[Post]]:
        lo, hi = self.window_bounds(since, until)
        groups: Dict[str, List[str]] = {}
        for keyword in dict.fromkeys(keywords):
            groups.setdefault(canonical_keyword(keyword), []).append(keyword)

        jobs: List[Tuple[str, Set[int], List[int]]] = [
            (canonical, self._confirmed_positions(canonical, lo, hi), [])
            for canonical in groups
        ]
        sweep_jobs = [job for job in jobs if job[0]]

        haystacks = self._haystacks
        for position in range(lo, hi):
            haystack = haystacks[position]
            for canonical, confirmed, matched in sweep_jobs:
                if position in confirmed or canonical in haystack:
                    matched.append(position)

        order = self._order
        results: Dict[str, List[Post]] = {}
        for canonical, confirmed, matched in jobs:
            if not canonical:
                matched = sorted(confirmed)
            if limit is not None:
                matched = matched[:limit]
            posts = [order[position] for position in matched]
            for keyword in groups[canonical]:
                results[keyword] = list(posts)
        return results

    def extended_with(self, posts: Iterable[Post]) -> "LegacyCorpusIndex":
        """Compaction primitive: full re-sort + re-index of the union."""
        return LegacyCorpusIndex(list(self._order) + list(posts))


def _merge_ordered(left: Sequence[Post], right: Sequence[Post]) -> List[Post]:
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


class LegacyStreamingCorpusIndex:
    """The pre-columnar delta-segment index: object lists plus dict postings."""

    def __init__(
        self,
        posts: Iterable[Post] = (),
        *,
        compact_threshold: int = LEGACY_COMPACT_THRESHOLD,
        compact_ratio: Optional[float] = None,
    ) -> None:
        self._compact_threshold = compact_threshold
        self._compact_ratio = compact_ratio
        self._base = LegacyCorpusIndex(posts)
        self._tail_posts: List[Post] = []
        self._tail_index: Optional[LegacyCorpusIndex] = None
        self._ids: Set[str] = {p.post_id for p in self._base.posts}
        self._appends = 0
        self._compactions = 0

    def append(self, posts: Iterable[Post]) -> int:
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
        if self._should_compact():
            self.compact()
        return len(batch)

    def _should_compact(self) -> bool:
        tail = len(self._tail_posts)
        if tail >= self._compact_threshold:
            return True
        if self._compact_ratio is None:
            return False
        return tail >= self._compact_ratio * max(1, len(self._base))

    def compact(self) -> None:
        if not self._tail_posts:
            return
        self._base = self._base.extended_with(self._tail_posts)
        self._tail_posts = []
        self._tail_index = None
        self._compactions += 1

    def _tail(self) -> Optional[LegacyCorpusIndex]:
        if not self._tail_posts:
            return None
        if self._tail_index is None:
            self._tail_index = LegacyCorpusIndex(self._tail_posts)
        return self._tail_index

    @property
    def segment_stats(self) -> Dict[str, object]:
        return {
            "base_posts": len(self._base),
            "tail_posts": len(self._tail_posts),
            "appends": self._appends,
            "compactions": self._compactions,
        }

    def __len__(self) -> int:
        return len(self._base) + len(self._tail_posts)

    @property
    def posts(self) -> Tuple[Post, ...]:
        tail = self._tail()
        if tail is None:
            return self._base.posts
        return tuple(_merge_ordered(self._base.posts, tail.posts))

    def search_many(
        self,
        keywords: Sequence[str],
        *,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, List[Post]]:
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
            merged[keyword] = (
                combined[:limit] if limit is not None else combined
            )
        return merged
