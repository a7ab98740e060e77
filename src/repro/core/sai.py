"""Social Attraction Index (SAI) computation (paper Fig. 7, blocks 6-7).

For every keyword in the attack database, the PSP NLP component queries
the social platform for matching posts and condenses them into one SAI
entry: a non-negative *score* built from views, interactions and post
volume (the paper's "views, interactions, and popularity"), amplified by
positive sentiment (enthusiastic posts signal attack demand).  Scores are
normalised across the list into the per-entry *attack probability
estimation* the paper describes.

Score definition (monotone in every own signal, property-tested)::

    share_x(k) = signal_x(k) / sum_j signal_x(j)      x in {views, inter, vol}
    base(k)    = (w_views * share_views(k)
                + w_inter * share_inter(k)
                + w_vol   * share_vol(k)) / (w_views + w_inter + w_vol)
    score(k)   = base(k) * (1 + gain * max(0, mean_sentiment(k)))

Each engagement signal is normalised to its *share* across the keyword
list before weighting, so the score measures how much of the scene's
total attention an attack topic holds — exactly the "popularity" reading
of the paper.  The sentiment factor only amplifies (never suppresses):
deterrence-heavy topics still register, because they are real attacks
being discussed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import PSPConfig
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.iso21434.enums import AttackVector
from repro.nlp.analysis import analyze_text
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social.api import BatchQuery, SocialMediaClient
from repro.social.post import Engagement, Post, total_interactions


@dataclass(frozen=True)
class SAIEntry:
    """One attack keyword's Social Attraction Index record."""

    keyword: str
    vector: Optional[AttackVector]
    owner_approved: Optional[bool]
    score: float
    probability: float
    post_count: int
    engagement: Engagement
    mean_sentiment: float

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValueError("SAI score must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.post_count < 0:
            raise ValueError("post_count must be >= 0")


def rank_key(score: float, keyword: str) -> Tuple[float, str]:
    """The SAI list's order: descending score, then keyword."""
    return (-score, keyword)


class SAIList:
    """The sorted SAI list (descending score) with normalised probabilities."""

    def __init__(self, entries: Sequence[SAIEntry]) -> None:
        self._entries: Tuple[SAIEntry, ...] = tuple(
            sorted(entries, key=lambda e: rank_key(e.score, e.keyword))
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, index: int) -> SAIEntry:
        return self._entries[index]

    @property
    def entries(self) -> Tuple[SAIEntry, ...]:
        """Entries in descending score order."""
        return self._entries

    def entry(self, keyword: str) -> SAIEntry:
        """Look up an entry by keyword."""
        for candidate in self._entries:
            if candidate.keyword == keyword:
                return candidate
        raise KeyError(f"no SAI entry for keyword {keyword!r}")

    def top(self, n: int = 5) -> Tuple[SAIEntry, ...]:
        """The ``n`` highest-scoring entries."""
        return self._entries[:n]

    def ranking(self) -> Tuple[str, ...]:
        """Keywords in descending score order."""
        return tuple(e.keyword for e in self._entries)

    def probability_by_vector(self) -> Dict[AttackVector, float]:
        """Total attack-probability mass per annotated attack vector.

        Entries without a vector annotation are excluded; the remaining
        mass is re-normalised so the shares sum to 1 (unless no entry is
        annotated, in which case the result is empty).
        """
        return vector_shares((e.vector, e.probability) for e in self._entries)

    def as_rows(self) -> Tuple[Tuple[str, float, float, int], ...]:
        """(keyword, score, probability, posts) rows for reports."""
        return tuple(
            (e.keyword, round(e.score, 3), round(e.probability, 4), e.post_count)
            for e in self._entries
        )


def vector_shares(
    pairs: Iterable[Tuple[Optional[AttackVector], float]],
) -> Dict[AttackVector, float]:
    """Re-normalised probability mass per attack vector.

    ``pairs`` are ``(vector, probability)`` in SAI rank order; pairs
    without a vector are skipped.  The mass is added in the order given,
    so the same pairs in the same order give bit-identical shares.
    Empty when no pair has a vector or their mass is zero.
    """
    mass: Dict[AttackVector, float] = {}
    total = 0.0
    for vector, probability in pairs:
        if vector is None:
            continue
        mass[vector] = mass.get(vector, 0.0) + probability
        total += probability
    if total <= 0:
        return {}
    return {vector: share / total for vector, share in mass.items()}


def ranked_vector_shares(
    entries: Sequence[AttackKeyword],
    scores: Sequence[float],
    probabilities: Sequence[float],
    keep: Sequence[bool],
) -> Dict[AttackVector, float]:
    """:func:`vector_shares` of the kept entries, added in SAI rank order.

    ``scores`` and ``probabilities`` are :meth:`SAIComputer.score_sums`'s
    for ``entries``, and ``keep`` flags the entries whose mass counts
    (the insider ones).  The shares equal, bit for bit, those of the
    kept entries' :class:`SAIEntry` objects in :class:`SAIList` order,
    without building either.
    """
    # Keywords are unique, so the sort never compares vectors.
    ranked = sorted(
        (rank_key(score, entry.keyword), entry.vector, probability)
        for entry, score, probability, kept in zip(
            entries, scores, probabilities, keep
        )
        if kept
    )
    return vector_shares(
        (vector, probability) for _, vector, probability in ranked
    )


#: One keyword's signals over a window, flat:
#: ``(views, likes, reposts, replies, posts, mean_sentiment)``.
WindowSums = Tuple[int, int, int, int, int, float]

#: The window sums of a keyword without posts.
_NO_POSTS: WindowSums = (0, 0, 0, 0, 0, 0.0)


@dataclass(frozen=True)
class KeywordSignals:
    """One keyword's condensed SAI evidence (the additive signals).

    Everything the scorer needs about a keyword is additive over its
    posts — engagement counters, post count, summed sentiment — so a
    streaming consumer can maintain these as running aggregates
    (:class:`~repro.stream.deltas.DeltaTracker`) and hand them straight
    to :meth:`SAIComputer.compute_from_signals` without touching a
    single historical post.
    """

    engagement: Engagement
    mean_sentiment: float
    post_count: int

    def __post_init__(self) -> None:
        if self.post_count < 0:
            raise ValueError("post_count must be >= 0")

    @classmethod
    def from_sums(cls, sums: WindowSums) -> "KeywordSignals":
        """The signals of one keyword's flat :data:`WindowSums`."""
        views, likes, reposts, replies, posts, mean_sentiment = sums
        return cls(
            engagement=Engagement(
                views=views, likes=likes, reposts=reposts, replies=replies
            ),
            mean_sentiment=mean_sentiment,
            post_count=posts,
        )


#: The signals of a keyword without posts.
_NO_SIGNALS = KeywordSignals.from_sums(_NO_POSTS)


class SignalSums(NamedTuple):
    """The additive SAI evidence of a run of one keyword's posts.

    Engagement counters and the post count add across runs.  ``scores``
    keeps each post's sentiment score in post order, so
    :func:`combine_signals` re-adds the scores of consecutive runs in
    exactly the order one scan over all their posts would.
    """

    posts: int = 0
    views: int = 0
    likes: int = 0
    reposts: int = 0
    replies: int = 0
    scores: Tuple[float, ...] = ()

    def folded(
        self, posts: Sequence[Post], analyzer: SentimentAnalyzer
    ) -> "SignalSums":
        """These sums with ``posts`` appended.

        Sentiment is read through the shared
        :func:`~repro.nlp.analysis.analyze_text` sidecar and the
        analyzer's per-fingerprint memo, so each distinct post text is
        tokenized and scored at most once per corpus lifetime — however
        many windows, weight mixes or fleet members revisit it.
        """
        views, likes = self.views, self.likes
        reposts, replies = self.reposts, self.replies
        for post in posts:
            engagement = post.engagement
            views += engagement.views
            likes += engagement.likes
            reposts += engagement.reposts
            replies += engagement.replies
        return SignalSums(
            self.posts + len(posts),
            views,
            likes,
            reposts,
            replies,
            self.scores
            + tuple(
                analyzer.score_analysis(analyze_text(post.text)).score
                for post in posts
            ),
        )


def combine_signals(runs: Sequence[SignalSums]) -> KeywordSignals:
    """One keyword's signals over consecutive runs of its posts.

    The one place the mean sentiment is taken: the post scan and the
    year cells of :class:`~repro.core.cache.CachedClient` both end here,
    so the same posts give bit-identical means however they are split
    into runs.
    """
    posts = sum(run.posts for run in runs)
    return KeywordSignals(
        engagement=Engagement(
            views=sum(run.views for run in runs),
            likes=sum(run.likes for run in runs),
            reposts=sum(run.reposts for run in runs),
            replies=sum(run.replies for run in runs),
        ),
        mean_sentiment=(
            sum(chain.from_iterable(run.scores for run in runs)) / posts
            if posts
            else 0.0
        ),
        post_count=posts,
    )


#: One keyword's evidence: ``(entry, engagement, mean_sentiment, posts)``.
Gathered = Tuple[AttackKeyword, Engagement, float, int]


def _gather_signals(
    posts: Sequence[Post], analyzer: SentimentAnalyzer
) -> Tuple[Engagement, float]:
    """Total engagement and mean sentiment of one keyword's posts."""
    signals = combine_signals((SignalSums().folded(posts, analyzer),))
    return signals.engagement, signals.mean_sentiment


class SAIComputer:
    """Computes SAI lists from a social client and keyword database."""

    def __init__(
        self,
        client: SocialMediaClient,
        *,
        config: Optional[PSPConfig] = None,
        analyzer: Optional[SentimentAnalyzer] = None,
    ) -> None:
        self._client = client
        self._config = config or PSPConfig()
        self._analyzer = analyzer or SentimentAnalyzer()

    def compute(
        self,
        database: KeywordDatabase,
        *,
        region: Optional[str] = None,
        since=None,
        until=None,
    ) -> SAIList:
        """Compute the SAI list over every keyword in ``database``.

        Posts are fetched with one batched
        :meth:`~repro.social.api.SocialMediaClient.search_many` call —
        identical per-keyword results to sequential searches, one
        platform round-trip.  Keywords with zero matching posts are
        retained with score 0 — an absent topic is itself a (negative)
        finding.

        The client is probed first (:meth:`window_signals`): when it
        can supply pre-aggregated :class:`KeywordSignals` for this exact
        window/region/analyzer, the list is scored through
        :meth:`compute_from_signals` without scanning a single post.  A
        ``None`` probe result falls back to the post-scan path unchanged.
        """
        if not len(database):
            return SAIList([])
        signals = self.window_signals(
            database, region=region, since=since, until=until
        )
        if signals is not None:
            return self.compute_from_signals(database, signals)
        batch = BatchQuery(
            keywords=database.keywords, region=region, since=since, until=until
        )
        result = self._client.search_many(batch)
        return self.compute_from_posts(database, result.posts_by_keyword)

    def window_signals(
        self,
        database: KeywordDatabase,
        *,
        region: Optional[str] = None,
        since=None,
        until=None,
        fill: bool = True,
    ) -> Optional[Mapping[str, KeywordSignals]]:
        """The client's pre-aggregated evidence for this window, if any.

        Clients exposing a ``window_signals`` method (a
        :class:`~repro.core.cache.CachedClient`) answer from the
        sidecars of a spilled corpus or from their year cells, scored
        with this computer's analyzer.  Without ``fill`` the client
        answers only from cells it already holds, fetching nothing and
        counting no cache lookup: the SAI stage's mode, re-reading the
        cells its query stage has just filled.  ``None`` means "scan the
        posts": the client has no such method or cannot answer this
        window.
        """
        probe = getattr(self._client, "window_signals", None)
        if not callable(probe):
            return None
        return probe(
            database.keywords,
            region=region,
            since=since,
            until=until,
            analyzer=self._analyzer,
            fill=fill,
        )

    def compute_from_posts(
        self,
        database: KeywordDatabase,
        posts_by_keyword: Mapping[str, Sequence[Post]],
    ) -> SAIList:
        """Score a SAI list from already-fetched posts.

        This is the pure scoring half of :meth:`compute`: callers that
        batch-fetch once and evaluate many times — weight-mix ablation
        sweeps, fleet runs sharing one corpus, cached pipelines — feed
        the same ``posts_by_keyword`` mapping through different
        computers without touching the platform again.  Keywords missing
        from the mapping are treated as having no matching posts.
        """
        gathered: List[Gathered] = []
        for entry in database:
            posts = list(posts_by_keyword.get(entry.keyword, ()))
            engagement, sentiment = _gather_signals(posts, self._analyzer)
            gathered.append((entry, engagement, sentiment, len(posts)))
        return self._score_gathered(gathered)

    def compute_from_signals(
        self,
        database: KeywordDatabase,
        signals: Mapping[str, KeywordSignals],
    ) -> SAIList:
        """Score a SAI list from pre-aggregated per-keyword signals.

        The streaming counterpart of :meth:`compute_from_posts`: callers
        that maintain running per-keyword aggregates (the dirty-keyword
        tracker of :mod:`repro.stream.deltas`) re-score the whole list in
        O(keywords) — no post fetch, no sentiment pass.  Keywords missing
        from ``signals`` are treated as having no matching posts.  The
        share/score/probability arithmetic is the same code path as the
        post-fed variant.
        """
        return self._score_gathered(gather_signals(database, signals))

    def score_rows(
        self, rows: Sequence[Tuple[int, int, int, float]]
    ) -> Tuple[List[float], List[float]]:
        """The flat scorer: per-keyword rows in, scores and probabilities out.

        Each row is ``(views, interactions, posts, mean_sentiment)``;
        the two returned lists follow the rows' order.  Every SAI score
        is computed here, whether the caller then builds
        :class:`SAIEntry` objects (:meth:`compute_from_signals`) or
        only needs the numbers (the stream's per-tick retune).
        """
        weights = self._config.sai_weights
        gain = self._config.sentiment_gain
        w_views, w_inter, w_volume = (
            weights.views, weights.interactions, weights.volume
        )
        weight_sum = w_views + w_inter + w_volume
        total_views = sum(row[0] for row in rows)
        total_inter = sum(row[1] for row in rows)
        total_posts = sum(row[2] for row in rows)

        # A share of a zero total is 0 (the empty scene); sentiment only
        # amplifies, never suppresses.
        scores: List[float] = []
        for views, interactions, count, sentiment in rows:
            base = (
                w_views * (views / total_views if total_views > 0 else 0.0)
                + w_inter
                * (interactions / total_inter if total_inter > 0 else 0.0)
                + w_volume * (count / total_posts if total_posts > 0 else 0.0)
            ) / weight_sum
            scores.append(
                base * (1.0 + gain * (sentiment if sentiment > 0.0 else 0.0))
            )

        total_score = sum(scores)
        probabilities = [
            score / total_score if total_score > 0 else 0.0 for score in scores
        ]
        return scores, probabilities

    def score_sums(
        self,
        entries: Sequence[AttackKeyword],
        sums: Mapping[str, WindowSums],
    ) -> Tuple[List[float], List[float]]:
        """:meth:`score_rows` of each entry's flat window sums.

        Entries missing from ``sums`` have no posts.  The numbers equal
        those :meth:`compute_from_signals` gives the same sums as
        :class:`KeywordSignals`, without building an object.
        """
        rows = []
        for entry in entries:
            views, likes, reposts, replies, posts, sentiment = sums.get(
                entry.keyword, _NO_POSTS
            )
            rows.append(
                (
                    views,
                    total_interactions(likes, reposts, replies),
                    posts,
                    sentiment,
                )
            )
        return self.score_rows(rows)

    def _score_gathered(self, gathered: Sequence[Gathered]) -> SAIList:
        """The shared scoring core: signals in, sorted SAI list out."""
        scores, probabilities = self.score_rows(
            [
                (engagement.views, engagement.interactions, count, sentiment)
                for _, engagement, sentiment, count in gathered
            ]
        )
        return sai_list(gathered, scores, probabilities)


def gather_signals(
    database: Iterable[AttackKeyword],
    signals: Mapping[str, KeywordSignals],
) -> List[Gathered]:
    """Each entry's evidence; keywords missing from ``signals`` have none."""
    gathered: List[Gathered] = []
    for entry in database:
        signal = signals.get(entry.keyword, _NO_SIGNALS)
        gathered.append(
            (entry, signal.engagement, signal.mean_sentiment, signal.post_count)
        )
    return gathered


def sai_list(
    gathered: Sequence[Gathered],
    scores: Sequence[float],
    probabilities: Sequence[float],
) -> SAIList:
    """The SAI list of gathered evidence and its flat scores.

    ``scores`` and ``probabilities`` are what
    :meth:`SAIComputer.score_rows` returned for the same rows, in the
    same order.
    """
    return SAIList(
        [
            SAIEntry(
                keyword=entry.keyword,
                vector=entry.vector,
                owner_approved=entry.owner_approved,
                score=score,
                probability=probability,
                post_count=count,
                engagement=engagement,
                mean_sentiment=sentiment,
            )
            for (entry, engagement, sentiment, count), score, probability in zip(
                gathered, scores, probabilities
            )
        ]
    )
