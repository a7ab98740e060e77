"""Corpus index: one-pass multi-keyword matching.

The PSP loop mines every attack keyword of the database over every
analysis window, so corpus matching is the innermost hot path of the
whole framework.  :class:`CorpusIndex` answers an entire batch of
keywords in one pass over the corpus.  Since the columnar rework the
index is a thin query surface over
:class:`~repro.social.columnar.ColumnarCorpus`:

* posts are held **date-sorted** in flat columns, so any analysis window
  is a contiguous slice found by bisecting an int array — no per-window
  sub-corpus construction;
* the one matcher is the **arena sweep**: one C-level ``str.find`` loop
  per keyword over the window's slice of the shared haystack arena
  (hashtags, tokens, stems, multi-word phrases, mid-token and
  cross-boundary occurrences alike), instead of one substring probe
  per ``(keyword, post)`` pair over per-post strings;
* `Post` objects materialize lazily, only for positions that appear in
  a result set.

Result sets are post-for-post identical to the naive per-keyword
:func:`~repro.nlp.normalize.keyword_in_text` scan; the equivalence is
property-tested in ``tests/properties/test_index_equivalence.py`` and
``tests/properties/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import datetime as dt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.nlp.normalize import canonical_keyword
from repro.social.columnar import ColumnarCorpus, TextInterner
from repro.social.post import Post


class CorpusIndex:
    """Immutable keyword index over one set of posts.

    Built once per :class:`~repro.social.corpus.Corpus` (lazily, on the
    first keyword query) and reused by every subsequent query — any
    keywords, any window.
    """

    def __init__(
        self,
        posts: Iterable[Post] = (),
        *,
        interner: Optional[TextInterner] = None,
        columns: Optional[ColumnarCorpus] = None,
    ) -> None:
        if columns is not None:
            self._columns = columns
        else:
            self._columns = ColumnarCorpus.from_posts(posts, interner=interner)

    def __len__(self) -> int:
        return len(self._columns)

    @property
    def columns(self) -> ColumnarCorpus:
        """The columnar segment backing this index."""
        return self._columns

    @property
    def posts(self) -> Tuple[Post, ...]:
        """All posts in (created_at, post_id) order (materialized lazily)."""
        return self._columns.all_posts()

    def window_bounds(
        self,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
    ) -> Tuple[int, int]:
        """The [lo, hi) position slice covering ``since <= date <= until``."""
        return self._columns.window_bounds(since, until)

    def search_many(
        self,
        keywords: Sequence[str],
        *,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, List[Post]]:
        """Resolve every keyword of a batch in one arena sweep each.

        Returns a mapping from each input keyword (duplicates folded,
        order preserved) to its matching posts, oldest first, truncated
        to ``limit`` per keyword.  Keywords sharing a canonical form are
        matched once and share the result list.
        """
        columns = self._columns
        lo, hi = columns.window_bounds(since, until)

        # Group keywords by canonical form; each group is matched once.
        groups: Dict[str, List[str]] = {}
        for keyword in dict.fromkeys(keywords):
            groups.setdefault(canonical_keyword(keyword), []).append(keyword)

        results: Dict[str, List[Post]] = {}
        for canonical, originals in groups.items():
            matched = columns.search_positions(canonical, lo, hi)
            if limit is not None:
                matched = matched[:limit]
            posts = columns.posts_at(matched)
            for keyword in originals:
                results[keyword] = list(posts)
        return results

    def matching(self, keyword: str) -> List[Post]:
        """All posts matching one keyword (no window), oldest first."""
        return self.search_many((keyword,))[keyword]

    def extended_with(self, posts: Iterable[Post]) -> "CorpusIndex":
        """A new index over this one's posts plus ``posts``.

        This is the seal and consolidation primitive of the stream
        index (:class:`~repro.stream.tiers.TieredCorpusIndex`).  In-order
        extensions — the streaming common case — concatenate every
        column and the arena at C speed instead of re-indexing;
        out-of-order extensions gather-merge on the global
        sort key.  Either way the per-text analyses come from the shared
        interner, so the dominant analysis cost is never paid twice.
        """
        batch = ColumnarCorpus.from_posts(
            posts, interner=self._columns.interner
        )
        return CorpusIndex(columns=self._columns.extended_with(batch))

    def extended_with_index(self, other: Optional["CorpusIndex"]) -> "CorpusIndex":
        """Like :meth:`extended_with`, reusing an already-built index."""
        if other is None or len(other) == 0:
            return self
        return CorpusIndex(columns=self._columns.extended_with(other._columns))
