"""Dirty-keyword tracking and running SAI aggregates.

The batch SAI pass is O(corpus): every keyword's posts are re-fetched
and re-condensed per analysis window.  Every signal the scorer needs is
*additive over posts* (engagement counters, post volume, summed
sentiment), so a streaming consumer only has to know, per arriving
post, **which keywords it affects** — then bump those keywords' running
sums.  :class:`DeltaTracker` does exactly that:

* an arriving post's haystack is probed against every database keyword
  with the same folded-match predicate the corpus index's arena sweep
  uses (:meth:`~repro.nlp.analysis.PostAnalysis.matches_keyword`), so
  "affects keyword K" here means precisely "would appear in K's search
  results";
* affected keywords become **dirty** until the runtime processes them;
* per ``keyword × year`` buckets accumulate views/likes/reposts/replies,
  post counts and summed sentiment — any ``since_year..`` analysis
  window is a sum over year buckets, O(years) per keyword;
* per-keyword insider/outsider **voice votes** (the classifier's text
  signals) accumulate over *all* arriving posts, mirroring the batch
  classifier's full-history, region-unscoped evidence search.  The
  batch kernels read the voice bits
  :class:`~repro.nlp.analysis.PostAnalysis` stores once per text;
  :meth:`DeltaTracker.observe` re-derives them from the word set, so it
  stays an independent oracle for the kernels.

The stream folds each micro-batch exactly once, in its shard job:
:func:`compute_signal_delta_columnar`, the one delta kernel, folds the
batch's column chunk into the tracker's :class:`SignalDelta` plus the
chunk's :class:`ChunkRuns`, from which the index later folds the
chunk's span into a cold :class:`SegmentSidecar` without sweeping it
again.  The same kernel sweeps segments whose runs are missing.  The
per-post paths — :meth:`DeltaTracker.observe` and the Post kernel
:func:`compute_signal_delta` — are the test oracles.

One deliberate semantic difference from the batch path: the batch
classifier searches the whole corpus — including posts *newer than the
analysis window*, an artifact of replaying history against a static
store.  A streaming tracker can only vote with evidence seen so far;
the two converge once the feed catches up.  (Keywords carrying an
``owner_approved`` annotation — all scenario keywords — classify
identically on both paths.)
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.keywords import KeywordDatabase
from repro.core.sai import KeywordSignals, WindowSums
from repro.nlp.analysis import INSIDER_MARKERS, OUTSIDER_MARKERS, analyze_text
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social.columnar import ColumnarCorpus, year_of_ordinal
from repro.social.post import Post

#: re-exported for convenience of streaming consumers.
__all__ = [
    "ChunkRuns",
    "DeltaTracker",
    "KeywordSignals",
    "SegmentSidecar",
    "SignalDelta",
    "WindowSums",
    "compute_signal_delta",
    "compute_signal_delta_columnar",
    "signals_from_sums",
]

#: Separator between per-post haystacks in the batch match arena.  The
#: same character :mod:`repro.nlp.analysis` uses inside a haystack —
#: canonical keywords are alphanumeric-only, so no keyword can straddle
#: two posts' segments.
_ARENA_SEPARATOR = "\n"


def signals_from_sums(
    sums: Mapping[str, WindowSums],
) -> Dict[str, KeywordSignals]:
    """:meth:`DeltaTracker.window_sums` as :class:`KeywordSignals`."""
    return {
        keyword: KeywordSignals.from_sums(row) for keyword, row in sums.items()
    }


@dataclass
class _Bucket:
    """Additive signals of one (keyword, year) cell."""

    views: int = 0
    likes: int = 0
    reposts: int = 0
    replies: int = 0
    posts: int = 0
    sentiment_sum: float = 0.0

    def add(self, post: Post, sentiment: float) -> None:
        engagement = post.engagement
        self.views += engagement.views
        self.likes += engagement.likes
        self.reposts += engagement.reposts
        self.replies += engagement.replies
        self.posts += 1
        self.sentiment_sum += sentiment

    def as_list(self) -> List[float]:
        return [
            self.views,
            self.likes,
            self.reposts,
            self.replies,
            self.posts,
            self.sentiment_sum,
        ]

    @classmethod
    def from_list(cls, values: List[float]) -> "_Bucket":
        views, likes, reposts, replies, posts, sentiment_sum = values
        return cls(
            views=int(views),
            likes=int(likes),
            reposts=int(reposts),
            replies=int(replies),
            posts=int(posts),
            sentiment_sum=float(sentiment_sum),
        )


@dataclass
class _Votes:
    """Running classifier voice votes for one keyword."""

    insider: int = 0
    outsider: int = 0


@dataclass(frozen=True)
class SignalDelta:
    """One micro-batch's additive contribution to the running aggregates.

    Every field is a pure sum over the batch's posts, so deltas are
    *mergeable*: :meth:`merge` of any grouping/ordering of deltas equals
    the delta of the concatenated batch (integer fields exactly, the
    float ``sentiment_sum`` up to summation order — property-tested in
    ``tests/properties/test_shard_merge_equivalence.py``).  The payload
    is plain data (dicts, tuples, ints, floats), so a delta pickles
    cheaply across a :class:`~repro.core.executor.ProcessExecutor`
    boundary — it is the return value of a sharded runtime's per-shard
    ingest job.

    Attributes:
        buckets: ``keyword -> year -> [views, likes, reposts, replies,
            posts, sentiment_sum]`` — the in-region SAI bucket sums.
        votes: ``keyword -> (insider, outsider)`` voice-vote increments
            (region-unscoped, like the batch classifier's evidence).
        dirty: keywords affected by the batch, sorted.
        observed: how many posts the batch contained (matched or not).
    """

    buckets: Dict[str, Dict[int, List[float]]]
    votes: Dict[str, Tuple[int, int]]
    dirty: Tuple[str, ...]
    observed: int

    @classmethod
    def empty(cls) -> "SignalDelta":
        """The additive identity."""
        return cls(buckets={}, votes={}, dirty=(), observed=0)

    @classmethod
    def merge(cls, deltas: Iterable["SignalDelta"]) -> "SignalDelta":
        """The pure-sum combination of several deltas.

        Associative and commutative (exactly on every integer field;
        ``sentiment_sum`` commutes up to float summation order), so
        deltas can be combined in any grouping — the index's keyword
        backfill combines its per-segment deltas this way.
        """
        buckets: Dict[str, Dict[int, List[float]]] = {}
        votes: Dict[str, Tuple[int, int]] = {}
        dirty: set = set()
        observed = 0
        for delta in deltas:
            observed += delta.observed
            dirty.update(delta.dirty)
            for keyword, pair in delta.votes.items():
                known = votes.get(keyword, (0, 0))
                votes[keyword] = (known[0] + pair[0], known[1] + pair[1])
            for keyword, years in delta.buckets.items():
                target_years = buckets.setdefault(keyword, {})
                for year, values in years.items():
                    known_values = target_years.get(year)
                    if known_values is None:
                        target_years[year] = list(values)
                    else:
                        target_years[year] = [
                            a + b for a, b in zip(known_values, values)
                        ]
        return cls(
            buckets=buckets,
            votes=votes,
            dirty=tuple(sorted(dirty)),
            observed=observed,
        )


def _match_batch(
    keywords: Sequence[str], haystacks: Sequence[str]
) -> List[List[str]]:
    """Per-post matched keywords via one arena sweep per keyword.

    The per-post haystacks are joined into one *arena* string and each
    canonical keyword is resolved with a single C-level ``str.find``
    loop over it, instead of one substring probe per ``(post, keyword)``
    pair.  A hit is mapped back to its post by bisecting the segment
    end-offsets, and the scan resumes at the next segment, so a post is
    reported at most once per keyword.  Results are exactly
    :meth:`~repro.nlp.analysis.PostAnalysis.matches_keyword` — the
    separator guarantees no cross-post match — and per post the
    keywords come back in ``keywords`` order, which keeps downstream
    float accumulation identical to the per-post probe loop.
    """
    matched_per_post: List[List[str]] = [[] for _ in haystacks]
    if not haystacks:
        return matched_per_post
    arena = _ARENA_SEPARATOR.join(haystacks)
    ends: List[int] = []
    position = 0
    for haystack in haystacks:
        position += len(haystack) + 1
        ends.append(position)
    hits: List[List[int]] = [[] for _ in keywords]
    for slot, keyword in enumerate(keywords):
        if not keyword:
            continue  # empty canonicals never free-text match
        found = arena.find(keyword)
        while found != -1:
            post = bisect_right(ends, found)
            hits[slot].append(post)
            found = arena.find(keyword, ends[post])
    # Slot-ordered fold: per post the matched keywords come out in
    # ``keywords`` order, exactly like the per-post probe loop's.
    for slot, keyword in enumerate(keywords):
        for post in hits[slot]:
            matched_per_post[post].append(keyword)
    return matched_per_post


def compute_signal_delta(
    keywords: Sequence[str],
    posts: Sequence[Post],
    *,
    region: Optional[str] = None,
    analyzer: Optional[SentimentAnalyzer] = None,
) -> SignalDelta:
    """The :class:`SignalDelta` of a list of posts, in arrival order.

    Semantically identical to folding the batch through
    :meth:`DeltaTracker.observe` post by post (same buckets, same votes,
    same dirty set, bit-for-bit identical float sums), but the keyword
    matching runs as one arena sweep per keyword
    (:func:`_match_batch`) instead of ``len(posts) x len(keywords)``
    substring probes.  The stream folds column chunks with
    :func:`compute_signal_delta_columnar` instead; this Post kernel is
    the oracle the kernel tests (and :meth:`DeltaTracker.ingest_batch`)
    compare against.
    """
    scorer = analyzer or SentimentAnalyzer()
    region_scope = region.strip().lower() if region else None
    analyses = [analyze_text(post.text) for post in posts]
    matched_per_post = _match_batch(
        list(keywords), [analysis.haystack for analysis in analyses]
    )

    buckets: Dict[str, Dict[int, _Bucket]] = {}
    votes: Dict[str, List[int]] = {}
    dirty: set = set()
    for post, analysis, matched in zip(posts, analyses, matched_per_post):
        if not matched:
            continue
        insider_vote = analysis.insider_voice
        outsider_vote = analysis.outsider_voice
        in_region = (
            region_scope is None or post.region.lower() == region_scope
        )
        sentiment = (
            scorer.score_analysis(analysis).score if in_region else 0.0
        )
        for keyword in matched:
            pair = votes.setdefault(keyword, [0, 0])
            if insider_vote:
                pair[0] += 1
            if outsider_vote:
                pair[1] += 1
            if in_region:
                years = buckets.setdefault(keyword, {})
                bucket = years.setdefault(post.year, _Bucket())
                bucket.add(post, sentiment)
        dirty.update(matched)
    return SignalDelta(
        buckets={
            keyword: {year: bucket.as_list() for year, bucket in years.items()}
            for keyword, years in buckets.items()
        },
        votes={
            keyword: (pair[0], pair[1]) for keyword, pair in votes.items()
        },
        dirty=tuple(sorted(dirty)),
        observed=len(posts),
    )


class ChunkRuns(NamedTuple):
    """What one column chunk's fold leaves for its span's cold sidecar.

    ``buckets`` maps keyword -> year -> ``[views, likes, reposts,
    replies, scores]``: the in-region engagement sums plus each matched
    post's sentiment score in position order (the :class:`~repro.core.
    sai.SignalSums` shape, kept as the fold's own lists).  ``votes``
    holds the voice votes of every matched keyword and ``keywords`` the
    universe the chunk was folded over.  :meth:`SegmentSidecar.fold`
    adds the runs of a span's chunks left to right, score by score, so
    the sums equal one sweep of the whole span bit for bit.
    """

    keywords: Tuple[str, ...]
    buckets: Dict[str, Dict[int, list]]
    votes: Dict[str, Tuple[int, int]]


def compute_signal_delta_columnar(
    keywords: Sequence[str],
    columns: ColumnarCorpus,
    *,
    since=None,
    until=None,
    region: Optional[str] = None,
    analyzer: Optional[SentimentAnalyzer] = None,
    runs: bool = False,
):
    """The :class:`SignalDelta` of one columnar window — no `Post` hops.

    Bit-for-bit identical (float sums included) to folding the window's
    posts through :meth:`DeltaTracker.observe` in position order, but
    computed straight from a :class:`~repro.social.columnar.
    ColumnarCorpus` segment in one flat fold:

    * the window resolves to a position slice by bisecting the flat
      date-ordinal column (``observed`` is pure slice arithmetic);
    * keyword matching probes the shared haystack arena
      (:meth:`~repro.social.columnar.ColumnarCorpus.search_positions`),
      one C-level scan per keyword;
    * engagement, region and year are indexed straight out of the
      column arrays, sentiment and voice bits come from the corpus's
      interned per-distinct-text analyses.

    This is the one delta kernel: the stream's shard job folds each
    batch's chunk here (with ``runs=True`` it returns ``(delta,
    runs)``, the :class:`ChunkRuns` its span's cold sidecar is folded
    from), and sidecar builds and backfills sweep segments here.
    """
    scorer = analyzer or SentimentAnalyzer()
    region_scope = region.strip().lower() if region else None
    lo, hi = columns.window_bounds(since, until)
    in_region = [
        region_scope is None or vocab_region.lower() == region_scope
        for vocab_region in columns.region_vocab
    ]
    region_codes = columns.region_codes
    dates = columns.dates
    texts = columns.texts
    views, likes, reposts, replies = columns.engagement
    analysis_of = columns.interner.lookup
    score = scorer.score_analysis
    # keyword -> year -> [views, likes, reposts, replies, scores]; each
    # keyword's positions come ascending, so every cell's scores are in
    # position order, as the per-post fold adds them.
    cells: Dict[str, Dict[int, list]] = {}
    votes: Dict[str, Tuple[int, int]] = {}
    for keyword in keywords:
        positions = columns.search_positions(keyword, lo, hi)
        if not positions:
            continue
        insider, outsider = votes.get(keyword, (0, 0))
        years = cells.get(keyword)
        for position in positions:
            analysis = analysis_of(texts[position])
            insider += analysis.insider_voice
            outsider += analysis.outsider_voice
            if not in_region[region_codes[position]]:
                continue
            sentiment = score(analysis).score
            year = year_of_ordinal(dates[position])
            if years is None:
                years = cells[keyword] = {}
            cell = years.get(year)
            if cell is None:
                years[year] = [
                    views[position], likes[position], reposts[position],
                    replies[position], [sentiment],
                ]
            else:
                cell[0] += views[position]
                cell[1] += likes[position]
                cell[2] += reposts[position]
                cell[3] += replies[position]
                cell[4].append(sentiment)
        votes[keyword] = (insider, outsider)
    delta = SignalDelta(
        buckets={
            keyword: {
                year: [
                    cell[0], cell[1], cell[2], cell[3], len(cell[4]),
                    reduce(add, cell[4], 0.0),
                ]
                for year, cell in years.items()
            }
            for keyword, years in cells.items()
        },
        votes=votes,
        dirty=tuple(sorted(votes)),
        observed=hi - lo,
    )
    if not runs:
        return delta
    return delta, ChunkRuns(tuple(keywords), cells, delta.votes)


class SegmentSidecar:
    """Precomputed per-``keyword × year`` aggregates of one sealed segment.

    A cold tier segment never changes, so its contribution to the
    running SAI aggregates can be computed once at seal time and then
    answered as a dictionary lookup — window counts, engagement and
    sentiment bucket sums and voice votes, exactly the fields a
    :class:`SignalDelta` carries.  :meth:`build` sweeps the segment with
    :func:`compute_signal_delta_columnar`, so every stored sum is
    bit-for-bit identical to folding the segment's posts through
    :meth:`DeltaTracker.observe`.  A stream index instead starts an
    empty sidecar per warm span and adds the :class:`ChunkRuns` of each
    chunk the span receives with :meth:`fold`, which gives the same sums
    without sweeping the segment again.

    The keyword universe is pinned at build time; when the database
    learns a new keyword later, :meth:`extend` materializes the raw
    columns once, sweeps only the *missing* keywords and folds the
    result in — the lazy per-keyword rebuild the streaming learning
    backfill relies on.
    """

    __slots__ = ("_keywords", "_buckets", "_votes", "_posts")

    def __init__(
        self,
        *,
        keywords: Sequence[str],
        buckets: Dict[str, Dict[int, List[float]]],
        votes: Dict[str, Tuple[int, int]],
        posts: int,
    ) -> None:
        self._keywords: Tuple[str, ...] = tuple(keywords)
        self._buckets = buckets
        self._votes = votes
        self._posts = posts

    @classmethod
    def build(
        cls,
        keywords: Sequence[str],
        columns: ColumnarCorpus,
        *,
        region: Optional[str] = None,
        analyzer: Optional[SentimentAnalyzer] = None,
    ) -> "SegmentSidecar":
        """Sweep one sealed segment into its aggregate sidecar."""
        delta = compute_signal_delta_columnar(
            keywords, columns, region=region, analyzer=analyzer
        )
        return cls(
            keywords=keywords,
            buckets={
                keyword: {int(year): list(values) for year, values in years.items()}
                for keyword, years in delta.buckets.items()
            },
            votes=dict(delta.votes),
            posts=delta.observed,
        )

    def fold(self, runs: ChunkRuns, posts: int) -> None:
        """Add the segment's next chunk of ``posts`` posts from its runs.

        The chunk must follow every post folded so far in sort-key
        order.  Each score is added with ``+=`` after those of earlier
        chunks, so the sums equal :meth:`build` over the concatenated
        chunks bit for bit.  Keywords the chunk was not folded over
        leave the universe; :meth:`extend` sweeps them back in.
        """
        if runs.keywords != self._keywords:
            folded = set(runs.keywords)
            self._keywords = tuple(k for k in self._keywords if k in folded)
            for table in (self._buckets, self._votes):
                for keyword in [k for k in table if k not in folded]:
                    del table[keyword]
        universe = set(self._keywords)
        for keyword, pair in runs.votes.items():
            if keyword in universe:
                known = self._votes.get(keyword, (0, 0))
                self._votes[keyword] = (known[0] + pair[0], known[1] + pair[1])
        for keyword, years in runs.buckets.items():
            if keyword not in universe:
                continue
            cells = self._buckets.setdefault(keyword, {})
            for year, (views, likes, reposts, replies, scores) in years.items():
                cell = cells.get(year)
                if cell is None:
                    cells[year] = [
                        views, likes, reposts, replies, len(scores),
                        reduce(add, scores, 0.0),
                    ]
                else:
                    cell[0] += views
                    cell[1] += likes
                    cell[2] += reposts
                    cell[3] += replies
                    cell[4] += len(scores)
                    cell[5] = reduce(add, scores, cell[5])
        self._posts += posts

    # -- shape ---------------------------------------------------------------

    @property
    def keywords(self) -> Tuple[str, ...]:
        """The keyword universe this sidecar has swept."""
        return self._keywords

    @property
    def posts(self) -> int:
        """How many posts the sealed segment holds."""
        return self._posts

    @property
    def entries(self) -> int:
        """Populated ``(keyword, year)`` aggregate cells."""
        return sum(len(years) for years in self._buckets.values())

    def covers(self, keywords: Sequence[str]) -> bool:
        """Whether every keyword in ``keywords`` has been swept."""
        known = set(self._keywords)
        return all(keyword in known for keyword in keywords)

    def missing(self, keywords: Sequence[str]) -> Tuple[str, ...]:
        """The subset of ``keywords`` this sidecar has not swept yet."""
        known = set(self._keywords)
        return tuple(k for k in keywords if k not in known)

    # -- lazy per-keyword rebuild --------------------------------------------

    def extend(
        self,
        keywords: Sequence[str],
        columns: ColumnarCorpus,
        *,
        region: Optional[str] = None,
        analyzer: Optional[SentimentAnalyzer] = None,
    ) -> Tuple[str, ...]:
        """Sweep the keywords of ``keywords`` not covered yet.

        ``columns`` must be the (re-materialized) sealed segment this
        sidecar was built from.  Only the missing keywords are swept;
        returns them.  ``posts`` is unchanged — the segment itself did
        not grow.
        """
        missing = self.missing(keywords)
        if not missing:
            return ()
        delta = compute_signal_delta_columnar(
            missing, columns, region=region, analyzer=analyzer
        )
        for keyword, years in delta.buckets.items():
            self._buckets[keyword] = {
                int(year): list(values) for year, values in years.items()
            }
        for keyword, pair in delta.votes.items():
            self._votes[keyword] = (pair[0], pair[1])
        self._keywords = self._keywords + missing
        return missing

    # -- lookup --------------------------------------------------------------

    def as_delta(
        self,
        keywords: Optional[Sequence[str]] = None,
        *,
        count_observed: bool = True,
    ) -> SignalDelta:
        """The segment's aggregate contribution as a :class:`SignalDelta`.

        Restricted to ``keywords`` when given (each must already be
        covered).  With ``count_observed=False`` the delta carries zero
        observed posts — the backfill form, which adds a late-learned
        keyword's sums without double-counting segment volume a tracker
        has already observed.
        """
        if keywords is None:
            selected: Sequence[str] = self._keywords
        else:
            missing = self.missing(keywords)
            if missing:
                raise ValueError(
                    f"sidecar has not swept keywords: {sorted(missing)}"
                )
            selected = keywords
        buckets = {
            keyword: {
                year: list(values)
                for year, values in self._buckets[keyword].items()
            }
            for keyword in selected
            if keyword in self._buckets
        }
        votes = {
            keyword: self._votes[keyword]
            for keyword in selected
            if keyword in self._votes
        }
        dirty = tuple(sorted(set(buckets) | set(votes)))
        return SignalDelta(
            buckets=buckets,
            votes=votes,
            dirty=dirty,
            observed=self._posts if count_observed else 0,
        )

    # -- serialization -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable sidecar snapshot (pure plain data)."""
        return {
            "keywords": list(self._keywords),
            "posts": self._posts,
            "buckets": {
                keyword: {
                    str(year): list(values)
                    for year, values in sorted(years.items())
                }
                for keyword, years in sorted(self._buckets.items())
            },
            "votes": {
                keyword: [pair[0], pair[1]]
                for keyword, pair in sorted(self._votes.items())
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "SegmentSidecar":
        """Rebuild a sidecar from a :meth:`state_dict` snapshot."""
        return cls(
            keywords=tuple(state["keywords"]),  # type: ignore[arg-type]
            buckets={
                keyword: {
                    int(year): list(values)
                    for year, values in years.items()  # type: ignore[union-attr]
                }
                for keyword, years in state["buckets"].items()  # type: ignore[union-attr]
            },
            votes={
                keyword: (int(pair[0]), int(pair[1]))
                for keyword, pair in state["votes"].items()  # type: ignore[union-attr]
            },
            posts=int(state["posts"]),  # type: ignore[arg-type]
        )


class DeltaTracker:
    """Maps arriving posts to affected keywords and keeps running sums.

    Args:
        database: the attack-keyword database; its keywords define the
            tracked universe.  The tracker snapshots the keyword set;
            mid-stream learning *adds* keywords via
            :meth:`adopt_keywords` (removals still require a restart).
        region: when given, only posts of this region feed the SAI
            buckets (the batch pipeline's region-scoped query).  Voice
            votes are intentionally region-unscoped, mirroring the
            batch classifier's evidence search.
        analyzer: sentiment analyzer; shares the per-text memo with
            every other consumer via :func:`analyze_text`.
    """

    def __init__(
        self,
        database: Optional[KeywordDatabase] = None,
        *,
        region: Optional[str] = None,
        analyzer: Optional[SentimentAnalyzer] = None,
        keywords: Optional[Sequence[str]] = None,
    ) -> None:
        if database is None and keywords is None:
            raise ValueError("DeltaTracker needs a database or keywords")
        self._keywords: Tuple[str, ...] = (
            tuple(keywords) if keywords is not None else database.keywords  # type: ignore[union-attr]
        )
        self._region = region.strip().lower() if region else None
        self._analyzer = analyzer or SentimentAnalyzer()
        self._buckets: Dict[str, Dict[int, _Bucket]] = {}
        self._votes: Dict[str, _Votes] = {}
        self._dirty: set = set()
        self._dirty_since_snapshot: set = set()
        self._observed = 0

    # -- ingestion ----------------------------------------------------------

    @property
    def keywords(self) -> Tuple[str, ...]:
        """The tracked (canonical) keywords."""
        return self._keywords

    @property
    def region(self) -> Optional[str]:
        """The SAI region scope (None = unscoped)."""
        return self._region

    @property
    def analyzer(self) -> SentimentAnalyzer:
        """The sentiment analyzer scoring this tracker's buckets.

        Sidecar builds must share it so sealed-segment sums stay
        bit-identical to the tracker's own accumulation.
        """
        return self._analyzer

    def adopt_keywords(self, keywords: Sequence[str]) -> Tuple[str, ...]:
        """Grow the tracked universe to ``keywords``; returns the added.

        Mid-stream keyword learning only ever *adds* keywords (the
        database appends learned entries), so the new tuple must contain
        every currently tracked keyword — anything else is a different
        monitor, not a retune, and raises ``ValueError``.  Aggregates
        for the added keywords start empty; the caller backfills them
        from the index (see ``signal_backfill``) and marks them dirty.
        """
        adopted = tuple(keywords)
        current = set(self._keywords)
        removed = current - set(adopted)
        if removed:
            raise ValueError(
                "cannot drop tracked keywords mid-stream: "
                f"{sorted(removed)}"
            )
        added = tuple(k for k in adopted if k not in current)
        self._keywords = adopted
        return added

    def mark_dirty(self, keywords: Iterable[str]) -> None:
        """Force keywords into the dirty sets (backfilled aggregates)."""
        marked = set(keywords)
        self._dirty.update(marked)
        self._dirty_since_snapshot.update(marked)

    @property
    def observed_posts(self) -> int:
        """How many posts have been observed so far."""
        return self._observed

    def observe(self, post: Post) -> FrozenSet[str]:
        """Fold one arriving post into the running aggregates.

        Returns the keywords the post affects (its *dirty set*
        contribution).  Affection is exact: a keyword is returned iff
        the post would appear in that keyword's indexed search results.
        Voice votes come from the word set, not the stored voice bits,
        so this per-post fold is an independent oracle for the batch
        kernels.
        """
        analysis = analyze_text(post.text)
        matched = [
            keyword
            for keyword in self._keywords
            if analysis.matches_keyword(keyword)
        ]
        self._observed += 1
        if not matched:
            return frozenset()

        insider_vote = bool(analysis.word_set & INSIDER_MARKERS)
        outsider_vote = bool(analysis.word_set & OUTSIDER_MARKERS)
        in_region = (
            self._region is None or post.region.lower() == self._region
        )
        sentiment = (
            self._analyzer.score_analysis(analysis).score if in_region else 0.0
        )
        for keyword in matched:
            votes = self._votes.setdefault(keyword, _Votes())
            if insider_vote:
                votes.insider += 1
            if outsider_vote:
                votes.outsider += 1
            if in_region:
                years = self._buckets.setdefault(keyword, {})
                bucket = years.setdefault(post.year, _Bucket())
                bucket.add(post, sentiment)
        self._dirty.update(matched)
        self._dirty_since_snapshot.update(matched)
        return frozenset(matched)

    def observe_batch(self, posts: Iterable[Post]) -> FrozenSet[str]:
        """Observe a micro-batch; returns the union of affected keywords."""
        touched: set = set()
        for post in posts:
            touched.update(self.observe(post))
        return frozenset(touched)

    def ingest_batch(self, posts: Sequence[Post]) -> FrozenSet[str]:
        """Fold a micro-batch in via the arena-sweep batch kernel.

        Result-identical to :meth:`observe_batch` (bit-for-bit, float
        sums included) but the keyword matching runs as one arena sweep
        per keyword instead of per-``(post, keyword)`` substring probes
        — the fast path for micro-batch consumers like the sharded
        runtime.
        """
        delta = compute_signal_delta(
            self._keywords, posts, region=self._region, analyzer=self._analyzer
        )
        self.apply_delta(delta)
        return frozenset(delta.dirty)

    def apply_delta(self, delta: SignalDelta) -> None:
        """Fold one :class:`SignalDelta` into the running aggregates.

        The additive counterpart of :meth:`observe_batch` for deltas
        computed elsewhere — typically by
        :func:`compute_signal_delta_columnar` inside a shard job.
        """
        self._observed += delta.observed
        self._dirty.update(delta.dirty)
        self._dirty_since_snapshot.update(delta.dirty)
        for keyword, (insider, outsider) in delta.votes.items():
            votes = self._votes.get(keyword)
            if votes is None:
                self._votes[keyword] = _Votes(insider, outsider)
            else:
                votes.insider += insider
                votes.outsider += outsider
        for keyword, years in delta.buckets.items():
            target_years = self._buckets.get(keyword)
            if target_years is None:
                target_years = self._buckets[keyword] = {}
            for year, values in years.items():
                bucket = target_years.get(year)
                if bucket is None:
                    target_years[year] = _Bucket.from_list(list(values))
                else:
                    views, likes, reposts, replies, posts, sentiment = values
                    bucket.views += int(views)
                    bucket.likes += int(likes)
                    bucket.reposts += int(reposts)
                    bucket.replies += int(replies)
                    bucket.posts += int(posts)
                    bucket.sentiment_sum += sentiment

    # -- dirty bookkeeping --------------------------------------------------

    @property
    def dirty(self) -> FrozenSet[str]:
        """Keywords affected since the last :meth:`take_dirty`."""
        return frozenset(self._dirty)

    def take_dirty(self) -> FrozenSet[str]:
        """Return and clear the dirty set (one runtime tick's worth)."""
        dirty = frozenset(self._dirty)
        self._dirty.clear()
        return dirty

    # -- aggregate views ----------------------------------------------------

    def window_count(
        self,
        keyword: str,
        *,
        since_year: Optional[int] = None,
        until_year: Optional[int] = None,
    ) -> int:
        """In-region post count of one keyword within a year window."""
        years = self._buckets.get(keyword)
        if not years:
            return 0
        return sum(
            bucket.posts
            for year, bucket in years.items()
            if (since_year is None or year >= since_year)
            and (until_year is None or year <= until_year)
        )

    def window_total(
        self,
        *,
        since_year: Optional[int] = None,
        until_year: Optional[int] = None,
    ) -> int:
        """In-region post count over *all* keywords within a year window.

        The corpus-volume measure of the staleness-window retune policy:
        SAI probabilities are shares of corpus-wide totals, so a shift in
        this sum (even from outsider-only chatter) drifts every cached
        score.  O(keywords × years) — the bucket map is tiny compared to
        the corpus.
        """
        total = 0
        for years in self._buckets.values():
            for year, bucket in years.items():
                if since_year is not None and year < since_year:
                    continue
                if until_year is not None and year > until_year:
                    continue
                total += bucket.posts
        return total

    def votes(self, keyword: str) -> Tuple[int, int]:
        """(insider, outsider) voice votes accumulated for one keyword."""
        votes = self._votes.get(keyword)
        if votes is None:
            return (0, 0)
        return (votes.insider, votes.outsider)

    def window_sums(
        self,
        *,
        since_year: Optional[int] = None,
        until_year: Optional[int] = None,
    ) -> Dict[str, WindowSums]:
        """Per-keyword flat :data:`WindowSums` over a year window.

        Buckets are summed in ascending year order (deterministic float
        accumulation).  Keywords with no in-window posts are omitted.
        The stream's per-tick retune reads these plain tuples;
        :meth:`signals` wraps the same numbers in objects.
        """
        out: Dict[str, WindowSums] = {}
        for keyword, years in self._buckets.items():
            views = likes = reposts = replies = posts = 0
            sentiment_sum = 0.0
            for year in sorted(years):
                if since_year is not None and year < since_year:
                    continue
                if until_year is not None and year > until_year:
                    continue
                bucket = years[year]
                views += bucket.views
                likes += bucket.likes
                reposts += bucket.reposts
                replies += bucket.replies
                posts += bucket.posts
                sentiment_sum += bucket.sentiment_sum
            if posts == 0:
                continue
            out[keyword] = (
                views, likes, reposts, replies, posts, sentiment_sum / posts
            )
        return out

    def signals(
        self,
        *,
        since_year: Optional[int] = None,
        until_year: Optional[int] = None,
    ) -> Dict[str, KeywordSignals]:
        """Per-keyword :class:`KeywordSignals` over a year window.

        The :meth:`window_sums` as objects.  Keywords with no in-window
        posts are omitted —
        :meth:`~repro.core.sai.SAIComputer.compute_from_signals` treats
        them as empty.
        """
        return signals_from_sums(
            self.window_sums(since_year=since_year, until_year=until_year)
        )

    # -- checkpoint support -------------------------------------------------

    @property
    def dirty_since_snapshot(self) -> FrozenSet[str]:
        """Keywords whose aggregates changed since :meth:`mark_snapshot`.

        Unlike :attr:`dirty` (cleared every runtime tick), this set
        accumulates until a base checkpoint is taken — it is what a
        *delta* checkpoint has to persist.
        """
        return frozenset(self._dirty_since_snapshot)

    def mark_snapshot(self) -> None:
        """Declare the current state fully persisted (base checkpoint)."""
        self._dirty_since_snapshot.clear()

    def delta_state(self) -> Dict[str, object]:
        """The aggregates changed since the last snapshot, O(changed).

        Returns the full current per-keyword buckets/votes of every
        keyword in :attr:`dirty_since_snapshot` (replay is replace, not
        add, so repeated delta saves stay idempotent), plus the scalar
        fields a resume needs.  Keywords untouched since the base
        snapshot are omitted — the save cost long-running monitors care
        about.
        """
        changed = {}
        for keyword in sorted(self._dirty_since_snapshot):
            years = self._buckets.get(keyword, {})
            votes = self._votes.get(keyword)
            changed[keyword] = {
                "buckets": {
                    str(year): bucket.as_list()
                    for year, bucket in sorted(years.items())
                },
                "votes": [votes.insider, votes.outsider] if votes else [0, 0],
            }
        return {
            "observed": self._observed,
            "dirty": sorted(self._dirty),
            "changed": changed,
        }

    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the running aggregates."""
        return {
            "keywords": list(self._keywords),
            "region": self._region,
            "observed": self._observed,
            "buckets": {
                keyword: {
                    str(year): bucket.as_list()
                    for year, bucket in sorted(years.items())
                }
                for keyword, years in sorted(self._buckets.items())
            },
            "votes": {
                keyword: [votes.insider, votes.outsider]
                for keyword, votes in sorted(self._votes.items())
            },
            "dirty": sorted(self._dirty),
            "dirty_since_snapshot": sorted(self._dirty_since_snapshot),
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (keyword set must match)."""
        keywords = tuple(state["keywords"])  # type: ignore[arg-type]
        if keywords != self._keywords:
            raise ValueError(
                "checkpoint keyword set does not match the database: "
                f"{keywords} != {self._keywords}"
            )
        self._observed = int(state["observed"])  # type: ignore[arg-type]
        self._buckets = {
            keyword: {
                int(year): _Bucket.from_list(values)
                for year, values in years.items()  # type: ignore[union-attr]
            }
            for keyword, years in state["buckets"].items()  # type: ignore[union-attr]
        }
        self._votes = {
            keyword: _Votes(insider=int(pair[0]), outsider=int(pair[1]))
            for keyword, pair in state["votes"].items()  # type: ignore[union-attr]
        }
        self._dirty = set(state["dirty"])  # type: ignore[arg-type]
        if "dirty_since_snapshot" in state:
            self._dirty_since_snapshot = set(state["dirty_since_snapshot"])  # type: ignore[arg-type]
        else:
            # Pre-delta-checkpoint snapshot: conservatively treat every
            # keyword with any aggregate as unsnapshotted, so a later
            # delta save never under-saves.
            self._dirty_since_snapshot = set(self._buckets) | set(self._votes)
