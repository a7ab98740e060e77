"""Post corpus: container and query engine.

:class:`Corpus` stores posts and answers the queries PSP issues: keyword
match (canonical-folded, hashtag or free text), time-window filters
("posts since 2022", paper Fig. 9-C) and region filters.  Keyword
matching is answered by a lazily built
:class:`~repro.social.index.CorpusIndex` — a columnar segment
(:mod:`repro.social.columnar`) whose joined haystack arena is swept
once per keyword — so a whole batch of keywords over any window is
resolved in one C-level ``str.find`` loop per keyword instead of one
per-post probe per keyword, and analysis windows are bisected instead
of materialised as sub-corpora.  Engagement totals fold straight over
the index's engagement columns, and memoized region views share the
parent index's text-analysis pool.
"""

from __future__ import annotations

import datetime as dt
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.nlp.normalize import canonical_keyword
from repro.social.index import CorpusIndex
from repro.social.post import Engagement, Post


class Corpus:
    """An immutable-by-convention collection of posts with query methods."""

    def __init__(self, posts: Iterable[Post] = ()) -> None:
        self._posts: List[Post] = list(posts)
        seen: Set[str] = set()
        for post in self._posts:
            if post.post_id in seen:
                raise ValueError(f"duplicate post id {post.post_id!r}")
            seen.add(post.post_id)
        self._ids: Set[str] = seen
        self._engine: Optional[CorpusIndex] = None
        self._region_views: Dict[str, "Corpus"] = {}

    def __len__(self) -> int:
        return len(self._posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self._posts)

    def __contains__(self, post_id: str) -> bool:
        return post_id in self._ids

    @property
    def posts(self) -> Sequence[Post]:
        """All posts, in insertion order."""
        return tuple(self._posts)

    def index(self) -> CorpusIndex:
        """The corpus' keyword index, built once on first use."""
        if self._engine is None:
            self._engine = CorpusIndex(self._posts)
        return self._engine

    def matching(self, keyword: str) -> List[Post]:
        """Posts matching ``keyword`` by hashtag or free text.

        The folded matcher sweeps the index's precomputed haystacks
        (squashed text plus stems), so hashtags, inflections and
        multi-word phrases all match: "my dpf delete kit" matches
        ``dpfdelete``.  Results are oldest first.
        """
        return self.index().matching(keyword)

    def search_many(
        self,
        keywords: Sequence[str],
        *,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, List[Post]]:
        """Per-keyword matches for a whole batch, in one corpus pass.

        The window is bisected out of the date-sorted index (no
        sub-corpus construction) and every keyword is resolved during a
        single sweep; see :meth:`CorpusIndex.search_many`.
        """
        return self.index().search_many(
            keywords, since=since, until=until, limit=limit
        )

    def in_window(
        self,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
    ) -> "Corpus":
        """Sub-corpus restricted to ``since <= created_at <= until``."""
        selected = [
            p
            for p in self._posts
            if (since is None or p.created_at >= since)
            and (until is None or p.created_at <= until)
        ]
        return Corpus(selected)

    def since_year(self, year: int) -> "Corpus":
        """Sub-corpus of posts from 1 January ``year`` onwards."""
        return self.in_window(since=dt.date(year, 1, 1))

    def in_region(self, region: str) -> "Corpus":
        """Sub-corpus of posts from the given region (case-insensitive)."""
        wanted = region.strip().lower()
        return Corpus(p for p in self._posts if p.region.lower() == wanted)

    def region_view(self, region: str) -> "Corpus":
        """Like :meth:`in_region`, but memoized on this corpus.

        Queries scoped to a region reuse one sub-corpus — and therefore
        one keyword index — per distinct region instead of rebuilding
        both on every call.
        """
        key = region.strip().lower()
        view = self._region_views.get(key)
        if view is None:
            view = self.in_region(region)
            if self._engine is not None:
                # The parent index already analyzed every text; the
                # view's index reuses that pool instead of re-analyzing
                # its subset.
                view._engine = CorpusIndex(
                    view._posts, interner=self._engine.columns.interner
                )
            self._region_views[key] = view
        return view

    def merged_with(self, other: "Corpus") -> "Corpus":
        """Union of two corpora (post ids must not collide)."""
        return Corpus(list(self._posts) + list(other.posts))

    def total_engagement(self, keyword: str) -> Engagement:
        """Summed engagement over all posts matching ``keyword``.

        Folded over the index's engagement columns — integer sums over
        the match positions, no ``Post`` materialization.
        """
        columns = self.index().columns
        lo, hi = columns.window_bounds()
        positions = columns.search_positions(
            canonical_keyword(keyword), lo, hi
        )
        views = likes = reposts = replies = 0
        for position in positions:
            v, l, r, p = columns.engagement_values(position)
            views += v
            likes += l
            reposts += r
            replies += p
        return Engagement(
            views=views, likes=likes, reposts=reposts, replies=replies
        )

    def years(self) -> List[int]:
        """Sorted distinct posting years present in the corpus."""
        return sorted({p.year for p in self._posts})

    def texts(self) -> List[str]:
        """All post texts, in insertion order."""
        return [p.text for p in self._posts]
