"""Columnar corpus arenas: flat-array storage for 10M+ post corpora.

At millions of posts the indexing layers stop being algorithm-bound and
become *object*-bound: every `Post`, `PostAnalysis` sidecar and per-post
haystack `str` costs Python object headers, pointer chasing and GC
pressure.  :class:`ColumnarCorpus` stores one corpus segment column-wise
instead:

* **scalar columns** are stdlib :mod:`array` arrays — date ordinals
  (``'l'``, ascending, so window resolution is a bisect over a flat int
  buffer), the four engagement counters (``'q'``), and lazily built
  per-analyzer sentiment columns (``'d'``);
* **one haystack arena**: every post's folded match haystack joined into
  a single ``str`` with an ``'Q'`` offsets array.  The arena sweep is
  the one keyword matcher: one C-level ``str.find`` loop over the arena
  per keyword, hits mapped back to posts by bisecting the offsets — no
  per-post string objects and no term postings to build or re-base;
* **a text interner**: per distinct text the
  :class:`~repro.nlp.analysis.PostAnalysis` is computed exactly once per
  corpus lineage (streaming appends at 10M+ posts overflow the bounded
  :func:`~repro.nlp.analysis.analyze_text` memo; the interner pins the
  analyses the corpus actually references).

`Post` objects do **not** exist inside the store; they materialize
lazily — and are cached per position — only on result/report paths.
Two segments concatenate by array extension (in-order appends, the
streaming common case) or by a gather merge keyed on
``(created_at, post_id)`` (out-of-order arrivals), which is exactly the
semantics of re-sorting the concatenated post lists.  Equivalence with
the per-object reference implementation is property-tested in
``tests/properties/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import datetime as dt
import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.nlp.analysis import PostAnalysis, analyze_text
from repro.social.post import Engagement, Post

__all__ = ["ARENA_SEPARATOR", "ColumnarCorpus", "TextInterner"]

#: Separator between per-post haystacks in the arena.  The same
#: character :mod:`repro.nlp.analysis` uses inside a haystack — canonical
#: keywords are alphanumeric-only, so no keyword can straddle two posts'
#: segments.
ARENA_SEPARATOR = "\n"

#: Ordinal -> calendar year memo (distinct dates are few; `dt.date`
#: objects never materialize on the aggregate paths).
_YEAR_BY_ORDINAL: Dict[int, int] = {}


def year_of_ordinal(ordinal: int) -> int:
    """The calendar year of a date ordinal, without a `date` object hop."""
    year = _YEAR_BY_ORDINAL.get(ordinal)
    if year is None:
        year = dt.date.fromordinal(ordinal).year
        _YEAR_BY_ORDINAL[ordinal] = year
    return year


class TextInterner:
    """Unbounded ``text -> PostAnalysis`` pool for one corpus lineage.

    :func:`~repro.nlp.analysis.analyze_text` memoizes globally but with a
    bounded LRU; past ~32k distinct texts a streaming corpus would
    re-analyze evicted texts on every compaction.  The interner pins a
    strong reference per distinct text the corpus references, so analysis
    is paid exactly once per distinct text per lineage — and identical
    texts share one pooled ``str``/analysis across every segment.
    """

    __slots__ = ("_pool",)

    def __init__(self) -> None:
        self._pool: Dict[str, PostAnalysis] = {}

    def analysis(self, text: str) -> PostAnalysis:
        """The pooled analysis of ``text`` (computed on first sight)."""
        analysis = self._pool.get(text)
        if analysis is None:
            analysis = analyze_text(text)
            self._pool[text] = analysis
        return analysis

    def prune(self, keep_texts: Iterable[str]) -> int:
        """Drop pooled analyses whose text is not in ``keep_texts``.

        The tiered index calls this after a cold seal: texts that only
        survive inside immutable cold segments no longer need a pinned
        analysis (cold materialization re-analyzes into a throwaway
        pool).  Returns the number of evicted entries.
        """
        keep = keep_texts if isinstance(keep_texts, set) else set(keep_texts)
        stale = [text for text in self._pool if text not in keep]
        for text in stale:
            del self._pool[text]
        return len(stale)

    def __len__(self) -> int:
        return len(self._pool)

    def texts(self) -> Iterable[str]:
        """The distinct texts currently pinned in the pool."""
        return self._pool.keys()


class ColumnarCorpus:
    """One immutable, date-sorted corpus segment in columnar layout.

    Build with :meth:`from_posts`; grow with :meth:`extended_with`.  All
    columns are parallel and ordered by the global ``(created_at,
    post_id)`` sort key.  Instances share pooled analyses with the
    segments they were derived from — nothing here is ever mutated
    after construction (the per-position `Post` cache and lazy
    sentiment columns are memos, not state).
    """

    __slots__ = (
        "_interner",
        "_dates",
        "_post_ids",
        "_texts",
        "_authors",
        "_region_codes",
        "_region_vocab",
        "_region_map",
        "_views",
        "_likes",
        "_reposts",
        "_replies",
        "_arena",
        "_offsets",
        "_sentiments",
        "_post_cache",
        "_posts_tuple",
    )

    def __init__(
        self,
        *,
        interner: TextInterner,
        dates: array,
        post_ids: List[str],
        texts: List[str],
        authors: List[str],
        region_codes: array,
        region_vocab: List[str],
        views: array,
        likes: array,
        reposts: array,
        replies: array,
        arena: str,
        offsets: array,
        sentiments: Optional[Dict[object, array]] = None,
    ) -> None:
        self._interner = interner
        self._dates = dates
        self._post_ids = post_ids
        self._texts = texts
        self._authors = authors
        self._region_codes = region_codes
        self._region_vocab = region_vocab
        self._region_map = {region: code for code, region in enumerate(region_vocab)}
        self._views = views
        self._likes = likes
        self._reposts = reposts
        self._replies = replies
        self._arena = arena
        self._offsets = offsets
        self._sentiments: Dict[object, array] = sentiments or {}
        self._post_cache: Dict[int, Post] = {}
        self._posts_tuple: Optional[Tuple[Post, ...]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_posts(
        cls,
        posts: Iterable[Post] = (),
        *,
        interner: Optional[TextInterner] = None,
    ) -> "ColumnarCorpus":
        """Columnarize ``posts`` (stable-sorted by the global key)."""
        if interner is None:  # empty pools are falsy — test identity
            interner = TextInterner()
        ordered = sorted(posts, key=lambda p: (p.created_at, p.post_id))
        dates = array("l")
        post_ids: List[str] = []
        texts: List[str] = []
        authors: List[str] = []
        region_vocab: List[str] = []
        region_map: Dict[str, int] = {}
        region_codes = array("H")
        views = array("q")
        likes = array("q")
        reposts = array("q")
        replies = array("q")
        parts: List[str] = []
        offsets = array("Q", (0,))
        end = 0
        intern = sys.intern
        for post in ordered:
            analysis = interner.analysis(post.text)
            dates.append(post.created_at.toordinal())
            post_ids.append(post.post_id)
            texts.append(analysis.text)
            authors.append(intern(post.author))
            code = region_map.get(post.region)
            if code is None:
                code = len(region_vocab)
                region_map[post.region] = code
                region_vocab.append(post.region)
            region_codes.append(code)
            engagement = post.engagement
            views.append(engagement.views)
            likes.append(engagement.likes)
            reposts.append(engagement.reposts)
            replies.append(engagement.replies)
            parts.append(analysis.haystack)
            end += len(analysis.haystack) + 1
            offsets.append(end)
        return cls(
            interner=interner,
            dates=dates,
            post_ids=post_ids,
            texts=texts,
            authors=authors,
            region_codes=region_codes,
            region_vocab=region_vocab,
            views=views,
            likes=likes,
            reposts=reposts,
            replies=replies,
            arena=ARENA_SEPARATOR.join(parts),
            offsets=offsets,
        )

    # -- basic shape --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._dates)

    @property
    def interner(self) -> TextInterner:
        """The text-interning pool shared across this corpus lineage."""
        return self._interner

    @property
    def arena_chars(self) -> int:
        """Size of the joined haystack arena, in characters."""
        return len(self._arena)

    def date_ordinal(self, position: int) -> int:
        """The date ordinal of one post position."""
        return self._dates[position]

    @property
    def region_vocab(self) -> Tuple[str, ...]:
        """The distinct regions, in first-appearance order."""
        return tuple(self._region_vocab)

    def region_code(self, position: int) -> int:
        """Index into :attr:`region_vocab` for one post position."""
        return self._region_codes[position]

    def engagement_values(self, position: int) -> Tuple[int, int, int, int]:
        """``(views, likes, reposts, replies)`` at one position — four
        flat-array reads, no `Engagement` object."""
        return (
            self._views[position],
            self._likes[position],
            self._reposts[position],
            self._replies[position],
        )

    def post_id(self, position: int) -> str:
        """The post id at one position."""
        return self._post_ids[position]

    def haystack(self, position: int) -> str:
        """One post's folded match haystack, sliced out of the arena."""
        start = self._offsets[position]
        return self._arena[start : self._offsets[position + 1] - 1]

    # -- window resolution --------------------------------------------------

    def window_bounds(
        self,
        since: Optional[dt.date] = None,
        until: Optional[dt.date] = None,
    ) -> Tuple[int, int]:
        """The [lo, hi) position slice covering ``since <= date <= until``."""
        dates = self._dates
        lo = 0 if since is None else bisect_left(dates, since.toordinal())
        hi = (
            len(dates)
            if until is None
            else bisect_right(dates, until.toordinal())
        )
        return lo, max(lo, hi)

    # -- matching -----------------------------------------------------------

    def search_positions(self, canonical: str, lo: int, hi: int) -> List[int]:
        """Ascending window positions whose haystack contains ``canonical``.

        One C-level ``str.find`` loop over the arena slice covering the
        window; a hit maps back to its post by bisecting the offsets and
        the scan resumes at the next post, so every position is reported
        at most once, ascending.  Exactly
        :meth:`~repro.nlp.analysis.PostAnalysis.matches_keyword` per
        post — the separator guarantees no cross-post match — so
        keywords folding to the empty canonical match nothing.
        """
        hits: List[int] = []
        if not canonical or lo >= hi:
            return hits
        arena = self._arena
        offsets = self._offsets
        # The window's last haystack ends one short of the next offset.
        stop = offsets[hi] - 1
        find = arena.find
        found = find(canonical, offsets[lo])
        while -1 < found < stop:
            position = bisect_right(offsets, found) - 1
            hits.append(position)
            found = find(canonical, offsets[position + 1])
        return hits

    # -- aggregate slices ---------------------------------------------------

    def engagement_slice(self, lo: int, hi: int) -> Engagement:
        """Summed engagement of the [lo, hi) slice — pure array sums."""
        return Engagement(
            views=sum(self._views[lo:hi]),
            likes=sum(self._likes[lo:hi]),
            reposts=sum(self._reposts[lo:hi]),
            replies=sum(self._replies[lo:hi]),
        )

    def sentiment_column(self, analyzer) -> array:
        """The per-post sentiment column for one analyzer (memoized).

        Scores come from the interned analyses (one scoring per distinct
        text per analyzer fingerprint), so building the column is a
        gather, not an analysis pass.
        """
        fingerprint = analyzer.fingerprint
        column = self._sentiments.get(fingerprint)
        if column is None:
            interner = self._interner
            column = array(
                "d",
                (
                    analyzer.score_analysis(interner.analysis(text)).score
                    for text in self._texts
                ),
            )
            self._sentiments[fingerprint] = column
        return column

    def sentiment_slice(self, analyzer, lo: int, hi: int) -> float:
        """Summed sentiment of the [lo, hi) slice (ascending-position
        accumulation order, matching the per-post fold)."""
        return sum(self.sentiment_column(analyzer)[lo:hi], 0.0)

    # -- lazy materialization -----------------------------------------------

    def analysis_at(self, position: int) -> PostAnalysis:
        """The pooled analysis of the post at ``position``."""
        return self._interner.analysis(self._texts[position])

    def iter_texts(self) -> Iterable[str]:
        """The stored (pooled) post texts, in position order."""
        return iter(self._texts)

    def post(self, position: int) -> Post:
        """Materialize (and cache) the `Post` at one position."""
        cached = self._post_cache.get(position)
        if cached is None:
            cached = Post(
                post_id=self._post_ids[position],
                text=self._texts[position],
                author=self._authors[position],
                created_at=dt.date.fromordinal(self._dates[position]),
                region=self._region_vocab[self._region_codes[position]],
                engagement=Engagement(
                    views=self._views[position],
                    likes=self._likes[position],
                    reposts=self._reposts[position],
                    replies=self._replies[position],
                ),
            )
            self._post_cache[position] = cached
        return cached

    def posts_at(self, positions: Iterable[int]) -> List[Post]:
        """Materialize the posts at ``positions`` (order preserved)."""
        return [self.post(position) for position in positions]

    def all_posts(self) -> Tuple[Post, ...]:
        """Every post, materialized once and cached as a tuple."""
        if self._posts_tuple is None:
            self._posts_tuple = tuple(
                self.post(position) for position in range(len(self._dates))
            )
        return self._posts_tuple

    # -- growth -------------------------------------------------------------

    def extended_with(self, tail: "ColumnarCorpus") -> "ColumnarCorpus":
        """A new segment holding this one's posts plus ``tail``'s.

        Semantically identical to re-sorting the concatenated post lists
        and columnarizing from scratch.  When ``tail`` starts at or
        after this segment's last sort key — the streaming common case —
        every scalar column concatenates at C speed and the arena is one
        string join.  Out-of-order tails fall back to a full gather
        rebuild.
        """
        if len(tail) == 0:
            return self
        if len(self) == 0:
            return tail
        if tail._interner is not self._interner:
            raise ValueError(
                "cannot extend across corpus lineages: segments must "
                "share one TextInterner"
            )
        last = (self._dates[-1], self._post_ids[-1])
        first = (tail._dates[0], tail._post_ids[0])
        if last <= first:
            return self._concatenated(tail)
        # Rare out-of-order arrival: gather-merge by rebuilding from the
        # materialized union (analyses are pooled, so no re-analysis).
        return ColumnarCorpus.from_posts(
            list(self.all_posts()) + list(tail.all_posts()),
            interner=self._interner,
        )

    def _concatenated(self, tail: "ColumnarCorpus") -> "ColumnarCorpus":
        shift = self._offsets[len(self)]  # == len(arena) + 1
        offsets = array("Q", self._offsets)
        offsets.pop()
        offsets.extend(offset + shift for offset in tail._offsets)
        if tail._region_vocab == self._region_vocab:
            region_vocab = self._region_vocab
            region_codes = self._region_codes + tail._region_codes
        else:
            region_vocab = list(self._region_vocab)
            region_map = dict(self._region_map)
            remap: List[int] = []
            for region in tail._region_vocab:
                code = region_map.get(region)
                if code is None:
                    code = len(region_vocab)
                    region_map[region] = code
                    region_vocab.append(region)
                remap.append(code)
            region_codes = self._region_codes + array(
                "H", (remap[code] for code in tail._region_codes)
            )
        sentiments = {
            fingerprint: column + tail_column
            for fingerprint, column in self._sentiments.items()
            if (tail_column := tail._sentiments.get(fingerprint)) is not None
        }
        return ColumnarCorpus(
            interner=self._interner,
            dates=self._dates + tail._dates,
            post_ids=self._post_ids + tail._post_ids,
            texts=self._texts + tail._texts,
            authors=self._authors + tail._authors,
            region_codes=region_codes,
            region_vocab=region_vocab,
            views=self._views + tail._views,
            likes=self._likes + tail._likes,
            reposts=self._reposts + tail._reposts,
            replies=self._replies + tail._replies,
            arena=self._arena + ARENA_SEPARATOR + tail._arena,
            offsets=offsets,
            sentiments=sentiments,
        )

    # -- compact serialization ----------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable columnar snapshot.

        Plain parallel columns — no per-post dicts, no pickled objects.
        The arena and sentiment memos are *derived* state and
        are rebuilt on :meth:`from_state` (analysis is pure), which keeps
        checkpoints small and forward-compatible.
        """
        return {
            "post_ids": list(self._post_ids),
            "texts": list(self._texts),
            "authors": list(self._authors),
            "dates": list(self._dates),
            "region_vocab": list(self._region_vocab),
            "region_codes": list(self._region_codes),
            "views": list(self._views),
            "likes": list(self._likes),
            "reposts": list(self._reposts),
            "replies": list(self._replies),
        }

    @classmethod
    def from_state(
        cls,
        state: Mapping[str, object],
        *,
        interner: Optional[TextInterner] = None,
    ) -> "ColumnarCorpus":
        """Rebuild a segment from a :meth:`state_dict` snapshot."""
        return cls.from_posts(columns_to_posts(state), interner=interner)


def posts_to_columns(posts: Sequence[Post]) -> Dict[str, object]:
    """Plain columnar dict of a post sequence, order preserved.

    The serialization helper behind tail-segment and columnar-corpus
    checkpoints: parallel lists, dates as ordinals, regions coded
    against a vocabulary.
    """
    region_vocab: List[str] = []
    region_map: Dict[str, int] = {}
    region_codes: List[int] = []
    for post in posts:
        code = region_map.get(post.region)
        if code is None:
            code = len(region_vocab)
            region_map[post.region] = code
            region_vocab.append(post.region)
        region_codes.append(code)
    return {
        "post_ids": [post.post_id for post in posts],
        "texts": [post.text for post in posts],
        "authors": [post.author for post in posts],
        "dates": [post.created_at.toordinal() for post in posts],
        "region_vocab": region_vocab,
        "region_codes": region_codes,
        "views": [post.engagement.views for post in posts],
        "likes": [post.engagement.likes for post in posts],
        "reposts": [post.engagement.reposts for post in posts],
        "replies": [post.engagement.replies for post in posts],
    }


def columns_to_posts(state: Mapping[str, object]) -> List[Post]:
    """Materialize the posts of a :func:`posts_to_columns` snapshot."""
    vocab: List[str] = list(state["region_vocab"])  # type: ignore[arg-type]
    return [
        Post(
            post_id=post_id,
            text=text,
            author=author,
            created_at=dt.date.fromordinal(int(ordinal)),
            region=vocab[int(code)],
            engagement=Engagement(
                views=int(views),
                likes=int(likes),
                reposts=int(reposts),
                replies=int(replies),
            ),
        )
        for post_id, text, author, ordinal, code, views, likes, reposts, replies in zip(
            state["post_ids"],  # type: ignore[arg-type]
            state["texts"],  # type: ignore[arg-type]
            state["authors"],  # type: ignore[arg-type]
            state["dates"],  # type: ignore[arg-type]
            state["region_codes"],  # type: ignore[arg-type]
            state["views"],  # type: ignore[arg-type]
            state["likes"],  # type: ignore[arg-type]
            state["reposts"],  # type: ignore[arg-type]
            state["replies"],  # type: ignore[arg-type]
        )
    ]
