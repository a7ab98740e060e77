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
The one exception is a segment built with
:meth:`ColumnarCorpus.holding_posts` for a caller that holds the posts
anyway: it hands out those objects instead.
Segments concatenate in one pass by array extension (in-order parts,
the streaming common case) or by a gather merge keyed on
``(created_at, post_id)`` (out-of-order arrivals), which is exactly the
semantics of re-sorting the concatenated post lists.  A segment
pickles as its plain columns (the copy starts an interner of its own).
Equivalence with the per-object reference implementation is
property-tested in ``tests/properties/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import datetime as dt
import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate, chain
from operator import add, attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.nlp.analysis import PostAnalysis, analyze_text
from repro.social.post import Engagement, Post

__all__ = ["ARENA_SEPARATOR", "ColumnarCorpus", "TextInterner", "in_sort_order"]

#: Separator between per-post haystacks in the arena.  The same
#: character :mod:`repro.nlp.analysis` uses inside a haystack — canonical
#: keywords are alphanumeric-only, so no keyword can straddle two posts'
#: segments.
ARENA_SEPARATOR = "\n"

#: The global sort key of posts.
_SORT_KEY = attrgetter("created_at", "post_id")


def _segment_length(haystack: str) -> int:
    return len(haystack) + 1


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

    @property
    def lookup(self) -> Callable[[str], PostAnalysis]:
        """The pool's own ``text -> analysis`` getter, at C speed.

        Every text of a segment is pooled in its interner, so kernels
        sweeping a segment's texts read their analyses through this.
        """
        return self._pool.__getitem__

    def pooled(self, texts: Iterable[str], source: "TextInterner") -> List[str]:
        """``texts`` pooled here, adopting the analyses ``source`` holds.

        How a segment built in another pool joins this one: each text is
        analyzed at most once, by whichever pool saw it first.
        """
        pool = self._pool
        known = source._pool
        out: List[str] = []
        for text in texts:
            analysis = pool.get(text)
            if analysis is None:
                analysis = known.get(text)
                if analysis is None:
                    analysis = analyze_text(text)
                pool[text] = analysis
            out.append(analysis.text)
        return out

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
        pool = interner._pool
        dates = array("l")
        post_ids: List[str] = []
        texts: List[str] = []
        authors: List[str] = []
        region_map: Dict[str, int] = {}
        region_codes = array("H")
        views = array("q")
        likes = array("q")
        reposts = array("q")
        replies = array("q")
        haystacks: List[str] = []
        intern = sys.intern
        for post in sorted(posts, key=_SORT_KEY):
            text = post.text
            analysis = pool.get(text)
            if analysis is None:
                analysis = pool[text] = analyze_text(text)
            dates.append(post.created_at.toordinal())
            post_ids.append(post.post_id)
            texts.append(analysis.text)
            authors.append(intern(post.author))
            code = region_map.get(post.region)
            if code is None:
                code = region_map[post.region] = len(region_map)
            region_codes.append(code)
            engagement = post.engagement
            views.append(engagement.views)
            likes.append(engagement.likes)
            reposts.append(engagement.reposts)
            replies.append(engagement.replies)
            haystacks.append(analysis.haystack)
        return cls(
            interner=interner,
            dates=dates,
            post_ids=post_ids,
            texts=texts,
            authors=authors,
            region_codes=region_codes,
            region_vocab=list(region_map),
            views=views,
            likes=likes,
            reposts=reposts,
            replies=replies,
            arena=ARENA_SEPARATOR.join(haystacks),
            offsets=array(
                "Q", accumulate(map(_segment_length, haystacks), initial=0)
            ),
        )

    @classmethod
    def holding_posts(
        cls,
        posts: Iterable[Post] = (),
        *,
        interner: Optional[TextInterner] = None,
    ) -> "ColumnarCorpus":
        """Like :meth:`from_posts`, but the segment keeps the sorted
        posts: :meth:`post` and :meth:`all_posts` hand out these very
        objects instead of materializing copies.

        For a caller that holds the posts anyway (a batch corpus): the
        segment then costs one tuple of references instead of a second
        set of `Post` objects.
        """
        ordered = tuple(sorted(posts, key=_SORT_KEY))
        # Re-sorting sorted input is one linear pass; building through
        # from_posts keeps one columnarization code path.
        segment = cls.from_posts(ordered, interner=interner)
        segment._posts_tuple = ordered
        return segment

    @classmethod
    def concat(
        cls, parts: Sequence["ColumnarCorpus"], *, interner: TextInterner
    ) -> "ColumnarCorpus":
        """One segment holding every part's posts, built in one pass.

        Equal to :meth:`from_posts` over the parts' posts into
        ``interner``; texts of parts from another pool are pooled there
        with the analyses those parts already hold.  When the parts are
        in global sort-key order (:func:`in_sort_order`), every column
        is extended once per part and the arena is one join.  Otherwise
        the parts gather-merge by rebuilding from their posts.
        """
        parts = [part for part in parts if len(part)]
        if len(parts) == 1 and parts[0]._interner is interner:
            return parts[0]
        if not in_sort_order(parts):
            for part in parts:
                if part._interner is not interner:
                    interner.pooled(part._texts, part._interner)
            return cls.from_posts(
                chain.from_iterable(part.all_posts() for part in parts),
                interner=interner,
            )
        texts: List[str] = []
        region_map: Dict[str, int] = {}
        region_codes = array("H")
        offsets = array("Q", (0,))
        for part in parts:
            if part._interner is interner:
                texts.extend(part._texts)
            else:
                texts.extend(interner.pooled(part._texts, part._interner))
            remap = [
                region_map.setdefault(region, len(region_map))
                for region in part._region_vocab
            ]
            if remap == list(range(len(remap))):
                region_codes.extend(part._region_codes)
            else:
                region_codes.extend(remap[code] for code in part._region_codes)
            shift = offsets.pop()
            offsets.extend([offset + shift for offset in part._offsets])
        fingerprints = set(parts[0]._sentiments) if parts else set()
        for part in parts[1:]:
            fingerprints.intersection_update(part._sentiments)
        return cls(
            interner=interner,
            dates=_joined("l", (part._dates for part in parts)),
            post_ids=list(chain.from_iterable(part._post_ids for part in parts)),
            texts=texts,
            authors=list(chain.from_iterable(part._authors for part in parts)),
            region_codes=region_codes,
            region_vocab=list(region_map),
            views=_joined("q", (part._views for part in parts)),
            likes=_joined("q", (part._likes for part in parts)),
            reposts=_joined("q", (part._reposts for part in parts)),
            replies=_joined("q", (part._replies for part in parts)),
            arena=ARENA_SEPARATOR.join(part._arena for part in parts),
            offsets=offsets,
            sentiments={
                fingerprint: _joined(
                    "d", (part._sentiments[fingerprint] for part in parts)
                )
                for fingerprint in fingerprints
            },
        )

    def sliced(self, lo: int, hi: int) -> "ColumnarCorpus":
        """Positions ``[lo, hi)`` as a segment of their own, in this pool.

        Equal to :meth:`from_posts` over those positions' posts: the
        region vocabulary keeps only the regions the slice uses, in
        order of first appearance.
        """
        codes = self._region_codes[lo:hi]
        used = list(dict.fromkeys(codes))
        vocab = list(self._region_vocab)
        if used != list(range(len(vocab))):
            remap = {code: new for new, code in enumerate(used)}
            codes = array("H", [remap[code] for code in codes])
            vocab = [vocab[code] for code in used]
        offsets = self._offsets
        start = offsets[lo]
        return ColumnarCorpus(
            interner=self._interner,
            dates=self._dates[lo:hi],
            post_ids=self._post_ids[lo:hi],
            texts=self._texts[lo:hi],
            authors=self._authors[lo:hi],
            region_codes=codes,
            region_vocab=vocab,
            views=self._views[lo:hi],
            likes=self._likes[lo:hi],
            reposts=self._reposts[lo:hi],
            replies=self._replies[lo:hi],
            arena=self._arena[start : offsets[hi] - 1],
            offsets=array("Q", [offset - start for offset in offsets[lo : hi + 1]]),
            sentiments={
                fingerprint: column[lo:hi]
                for fingerprint, column in self._sentiments.items()
            },
        )

    def __reduce__(self):
        # Plain columns only: the interner pool, the post caches and the
        # sentiment memos stay behind (a process executor ships chunks
        # back as data, not as the worker's analyses).
        return (
            _from_plain_columns,
            (
                self._dates,
                self._post_ids,
                self._texts,
                self._authors,
                self._region_codes,
                self._region_vocab,
                self._views,
                self._likes,
                self._reposts,
                self._replies,
                self._arena,
                self._offsets,
            ),
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

    # The raw columns, for kernels that index them directly.  They are
    # shared, not copied: callers must not mutate them.

    @property
    def dates(self) -> array:
        """The date-ordinal column (ascending)."""
        return self._dates

    @property
    def post_ids(self) -> List[str]:
        """The post-id column."""
        return self._post_ids

    @property
    def texts(self) -> List[str]:
        """The pooled post-text column."""
        return self._texts

    @property
    def region_codes(self) -> array:
        """The region column, as indexes into :attr:`region_vocab`."""
        return self._region_codes

    @property
    def engagement(self) -> Tuple[array, array, array, array]:
        """The ``(views, likes, reposts, replies)`` columns."""
        return (self._views, self._likes, self._reposts, self._replies)

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
        offsets = self._offsets
        # The window's last haystack ends one short of the next offset.
        stop = offsets[hi] - 1
        find = self._arena.find
        found = find(canonical, offsets[lo], stop)
        while found != -1:
            position = bisect_right(offsets, found) - 1
            hits.append(position)
            found = find(canonical, offsets[position + 1], stop)
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
        accumulation order, matching the per-post fold).

        An explicit left fold: since Python 3.12 ``sum()`` of floats
        compensates, which no ``+=`` fold reproduces.
        """
        return reduce(add, self.sentiment_column(analyzer)[lo:hi], 0.0)

    # -- lazy materialization -----------------------------------------------

    def analysis_at(self, position: int) -> PostAnalysis:
        """The pooled analysis of the post at ``position``."""
        return self._interner.analysis(self._texts[position])

    def post(self, position: int) -> Post:
        """The `Post` at one position: a held post, or one materialized
        (and cached) from the columns."""
        if self._posts_tuple is not None:
            return self._posts_tuple[position]
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
        """The posts at ``positions`` (order preserved), as :meth:`post`."""
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
        and columnarizing from scratch (see :meth:`concat`).
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
        return ColumnarCorpus.concat((self, tail), interner=self._interner)

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


def _joined(typecode: str, columns: Iterable[array]) -> array:
    joined = array(typecode)
    for column in columns:
        joined.extend(column)
    return joined


def _from_plain_columns(
    dates, post_ids, texts, authors, region_codes, region_vocab,
    views, likes, reposts, replies, arena, offsets,
) -> ColumnarCorpus:
    """Unpickle a :class:`ColumnarCorpus` into a pool of its own."""
    interner = TextInterner()
    interner.pooled(texts, interner)
    return ColumnarCorpus(
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
        arena=arena,
        offsets=offsets,
    )


def in_sort_order(parts: Sequence[ColumnarCorpus]) -> bool:
    """Whether each part starts at or after the previous one's last
    ``(created_at, post_id)`` key (empty parts are skipped)."""
    last = None
    for part in parts:
        if not len(part):
            continue
        first = (part.date_ordinal(0), part.post_id(0))
        if last is not None and first < last:
            return False
        end = len(part) - 1
        last = (part.date_ordinal(end), part.post_id(end))
    return True


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
