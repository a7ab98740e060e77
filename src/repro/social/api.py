"""Social-media client interface (the Twitter-API substitution layer).

The paper's proof of concept calls the Twitter search APIs.  Those APIs
are proprietary and no longer freely accessible, so this module defines
the narrow client interface PSP actually needs — recent-post search with
keyword, time and region filters, plus aggregate counts — and an
in-memory implementation backed by a :class:`~repro.social.corpus.Corpus`.

A production deployment would implement :class:`SocialMediaClient` against
a real platform API; everything above this layer is unchanged.  This is
the substitution documented in DESIGN.md.
"""

from __future__ import annotations

import abc
import datetime as dt
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.social.corpus import Corpus
from repro.social.post import Post


@dataclass(frozen=True)
class SearchQuery:
    """A search request against the platform.

    Attributes:
        keyword: attack keyword or hashtag (canonical folding applied).
        since: inclusive lower bound on posting date.
        until: inclusive upper bound on posting date.
        region: restrict to a geographic region, if given.
        limit: maximum number of posts to return (None = unlimited).
    """

    keyword: str
    since: Optional[dt.date] = None
    until: Optional[dt.date] = None
    region: Optional[str] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.keyword:
            raise ValueError("query keyword must be non-empty")
        if self.since and self.until and self.since > self.until:
            raise ValueError(f"empty window: since {self.since} > until {self.until}")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")


@dataclass(frozen=True)
class BatchQuery:
    """One request fanned out across many keywords (same window/region).

    The per-keyword :class:`SearchQuery` parameters (window, region,
    limit) are shared across the whole batch — the PSP pipeline always
    mines every keyword of the database over one analysis window, so a
    batch is "the same query, N keywords".

    Attributes:
        keywords: the attack keywords to search; duplicates are folded.
        since: inclusive lower bound on posting date.
        until: inclusive upper bound on posting date.
        region: restrict to a geographic region, if given.
        limit: per-keyword cap on returned posts (None = unlimited).
    """

    keywords: Tuple[str, ...]
    since: Optional[dt.date] = None
    until: Optional[dt.date] = None
    region: Optional[str] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.keywords))
        if not deduped:
            raise ValueError("batch needs at least one keyword")
        if any(not k for k in deduped):
            raise ValueError("batch keywords must be non-empty")
        if self.since and self.until and self.since > self.until:
            raise ValueError(f"empty window: since {self.since} > until {self.until}")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
        object.__setattr__(self, "keywords", deduped)

    def query_for(self, keyword: str) -> SearchQuery:
        """The equivalent single-keyword query for one batch member."""
        return SearchQuery(
            keyword=keyword,
            since=self.since,
            until=self.until,
            region=self.region,
            limit=self.limit,
        )

    def queries(self) -> Tuple[SearchQuery, ...]:
        """The equivalent per-keyword queries, in batch order."""
        return tuple(self.query_for(k) for k in self.keywords)

    def restricted_to(self, keywords: Sequence[str]) -> "BatchQuery":
        """A sub-batch covering only ``keywords`` (same window/region)."""
        return BatchQuery(
            keywords=tuple(keywords),
            since=self.since,
            until=self.until,
            region=self.region,
            limit=self.limit,
        )


@dataclass(frozen=True)
class BatchResult:
    """The posts a batch query matched, grouped per keyword.

    A post matching several keywords appears under each of them —
    per-keyword results are exactly what the equivalent sequence of
    :meth:`SocialMediaClient.search` calls would return — while
    :meth:`unique_posts` exposes the deduplicated union for corpus-wide
    consumers (keyword learning, fleet corpus sharing).
    """

    posts_by_keyword: Mapping[str, Tuple[Post, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "posts_by_keyword",
            {k: tuple(v) for k, v in self.posts_by_keyword.items()},
        )

    def posts(self, keyword: str) -> Tuple[Post, ...]:
        """Posts matching one keyword, oldest first."""
        try:
            return self.posts_by_keyword[keyword]
        except KeyError:
            raise KeyError(f"keyword {keyword!r} not in batch result") from None

    def keywords(self) -> Tuple[str, ...]:
        """Keywords covered by this result, in batch order."""
        return tuple(self.posts_by_keyword)

    def unique_posts(self) -> Tuple[Post, ...]:
        """Deduplicated union of all matched posts, oldest first."""
        seen: Dict[str, Post] = {}
        for posts in self.posts_by_keyword.values():
            for post in posts:
                seen.setdefault(post.post_id, post)
        return tuple(
            sorted(seen.values(), key=lambda p: (p.created_at, p.post_id))
        )

    @property
    def total_matches(self) -> int:
        """Total per-keyword matches (a shared post counts once per keyword)."""
        return sum(len(v) for v in self.posts_by_keyword.values())


class SocialMediaClient(abc.ABC):
    """The platform operations the PSP framework depends on."""

    @abc.abstractmethod
    def search(self, query: SearchQuery) -> List[Post]:
        """Posts matching the query, oldest first."""

    @abc.abstractmethod
    def count_by_year(self, query: SearchQuery) -> Dict[int, int]:
        """Number of matching posts per posting year."""

    def count(self, query: SearchQuery) -> int:
        """Total number of matching posts."""
        return sum(self.count_by_year(query).values())

    def search_many(self, batch: BatchQuery) -> BatchResult:
        """Run one batch query across all its keywords.

        The default implementation issues one :meth:`search` per keyword,
        so every client supports batching; implementations with a cheaper
        fan-out (shared corpus scope, platform bulk endpoints, caches)
        override this.  Per-keyword results are identical to sequential
        :meth:`search` calls — batch-vs-sequential equivalence is part of
        the interface contract and is asserted in the test suite.
        """
        return BatchResult(
            posts_by_keyword={
                keyword: tuple(self.search(batch.query_for(keyword)))
                for keyword in batch.keywords
            }
        )


class InMemoryClient(SocialMediaClient):
    """Corpus-backed client used throughout the reproduction.

    Every query path rides the corpus' keyword index
    (:class:`~repro.social.index.CorpusIndex`): region scopes are
    memoized sub-corpora sharing one index each, analysis windows are
    bisected out of the date-sorted index instead of materialised as
    throwaway sub-corpora, and a batch query is resolved in one sweep.
    """

    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus

    @property
    def corpus(self) -> Corpus:
        """The backing corpus."""
        return self._corpus

    def _scope(self, region: Optional[str]) -> Corpus:
        if region is None:
            return self._corpus
        return self._corpus.region_view(region)

    def search(self, query: SearchQuery) -> List[Post]:
        """Posts matching the query, oldest first, truncated to ``limit``."""
        return self._scope(query.region).search_many(
            (query.keyword,),
            since=query.since,
            until=query.until,
            limit=query.limit,
        )[query.keyword]

    def count_by_year(self, query: SearchQuery) -> Dict[int, int]:
        """Number of matching posts per posting year (limit ignored)."""
        matches = self._scope(query.region).search_many(
            (query.keyword,), since=query.since, until=query.until
        )[query.keyword]
        counts: Dict[int, int] = {}
        for post in matches:
            counts[post.year] = counts.get(post.year, 0) + 1
        return counts

    def search_many(self, batch: BatchQuery) -> BatchResult:
        """Batch search answered in one pass over the corpus index.

        The region scope (and its keyword index) is shared by every
        keyword of the batch, the window is a bisected slice, and all
        keywords are matched during a single sweep of that slice —
        instead of one corpus scan per keyword as the sequential path
        would issue.
        """
        per_keyword = self._scope(batch.region).search_many(
            batch.keywords,
            since=batch.since,
            until=batch.until,
            limit=batch.limit,
        )
        return BatchResult(
            posts_by_keyword={
                keyword: tuple(per_keyword[keyword])
                for keyword in batch.keywords
            }
        )


def search_texts(client: SocialMediaClient, query: SearchQuery) -> Sequence[str]:
    """Convenience: the texts of the posts matching ``query``."""
    return [post.text for post in client.search(query)]
