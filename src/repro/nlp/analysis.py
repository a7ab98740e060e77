"""Precomputed per-post text analysis shared across the PSP hot paths.

Keyword matching, SAI sentiment scoring and keyword auto-learning all
start from the same derived views of a post's text: the normalized form,
the space-squashed form the folded matcher searches, the stemmed token
stream and the canonical hashtags.  The seed implementation recomputed
each view at every consumer — once per ``(keyword, post)`` pair in the
worst case.  This module computes them exactly once per distinct text
and hands every consumer the same :class:`PostAnalysis` sidecar:

* :class:`~repro.social.index.CorpusIndex` matches keywords against the
  precomputed :attr:`~PostAnalysis.haystack`,
* :class:`~repro.core.sai.SAIComputer` scores sentiment through
  :meth:`~repro.nlp.sentiment.SentimentAnalyzer.score_analysis`, which
  memoizes the result per analyzer fingerprint (a short digest string),
  so a post is scored once per corpus lifetime.  Scoring reads
  :attr:`~PostAnalysis.text` as its lowered words
  (:func:`~repro.nlp.tokenizer.lowered_words`: one translate and a
  split) unless the text may hold an emoticon or a price, which take
  the capture-only :func:`~repro.nlp.tokenizer.sentiment_pairs` scan;
  each analyzer memoizes every word's valence,
* keyword learning and :attr:`~repro.social.post.Post.hashtags` read the
  canonical :attr:`~PostAnalysis.hashtags`, found by
  :func:`~repro.nlp.tokenizer.hashtags`,
* insider/outsider classification and both streaming delta kernels read
  the voice bits :attr:`~PostAnalysis.insider_voice` and
  :attr:`~PostAnalysis.outsider_voice`, set once per text from
  :data:`INSIDER_MARKERS` / :data:`OUTSIDER_MARKERS`.

The words behind the haystack and the voice bits come from
:func:`~repro.nlp.normalize.folded_words`, one ``str.translate`` pass
and a ``split`` equal to the words of ``normalize_text``.

Analyses are keyed by the text itself (every derived view is a pure
function of the text), so identical posts across sub-corpora, region
views and cache layers share one analysis object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, Optional, Tuple

from repro.nlp.normalize import (
    canonical_keyword,
    folded_words,
    normalize_text,
    stem,
)
from repro.nlp.tokenizer import hashtags as raw_hashtags

#: Separator between the squashed and stemmed halves of the match
#: haystack.  Canonical keywords are alphanumeric-only, so no keyword can
#: straddle it.
_HAYSTACK_SEPARATOR = "\n"

#: First-person owner-voice markers (insider vote).
INSIDER_MARKERS = frozenset(
    {"my", "mine", "got", "installed", "did", "bought", "paid", "worth",
     "recommend", "mechanic", "workshop", "saved", "finally"}
)

#: Third-person crime-voice markers (outsider vote).
OUTSIDER_MARKERS = frozenset(
    {"stolen", "steal", "thieves", "theft", "police", "arrested", "gang",
     "criminals", "warning", "insurance", "investigators", "taken"}
)


@dataclass(frozen=True)
class PostAnalysis:
    """Every derived view of one post text, behind one object.

    Only the views the hot paths probe *repeatedly* are stored —
    matching reads :attr:`haystack` per keyword, keyword learning reads
    :attr:`hashtags`, every delta-kernel and classifier pass over a
    matched post reads the two voice bits — plus the per-analyzer
    sentiment memo.  The remaining views (the word set, the
    normalized/stemmed intermediates) are recomputed on access: none is
    read on a hot path more than once per analysis, while *retaining* them
    would dominate resident memory on long-horizon streams, where one
    analysis per warm text stays alive for days of stream time.  Every
    view is a pure function of ``text``, so lazy and stored views are
    interchangeable by value.

    Attributes:
        text: the original post text.
        haystack: the space-squashed normalized text and the
            concatenated stems joined by a non-keyword separator, so
            one substring probe answers the whole folded-match
            question (catching inflected variants, "deleting" →
            "delet").
        hashtags: canonical hashtags in order of appearance, duplicates
            preserved (they signal emphasis and count for frequency).
        insider_voice: whether a normalized word is an
            :data:`INSIDER_MARKERS` owner-voice marker.
        outsider_voice: whether a normalized word is an
            :data:`OUTSIDER_MARKERS` crime-voice marker.
    """

    text: str
    haystack: str
    hashtags: Tuple[str, ...]
    insider_voice: bool
    outsider_voice: bool
    #: Per-analyzer-fingerprint sentiment memo; a mutable cache, not part
    #: of the analysis value (excluded from equality and hashing).
    _sentiment: Dict[Hashable, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def normalized(self) -> str:
        """Lower-cased, separator-folded text, word boundaries kept."""
        return normalize_text(self.text)

    @property
    def squashed(self) -> str:
        """``normalized`` with the spaces removed — the folded-match
        haystack's first half."""
        return self.normalized.replace(" ", "")

    @property
    def words(self) -> Tuple[str, ...]:
        """The normalized words, in order."""
        return tuple(self.normalized.split())

    @property
    def word_set(self) -> FrozenSet[str]:
        """The distinct normalized words (the per-post voice oracle)."""
        return frozenset(self.normalized.split())

    @property
    def stems(self) -> Tuple[str, ...]:
        """The stemmed words, in order."""
        return tuple(stem(word) for word in self.words)

    @property
    def stemmed_joined(self) -> str:
        """The stems concatenated — the haystack's second half."""
        return "".join(self.stems)

    def matches_keyword(self, canonical: str) -> bool:
        """Whether the canonical keyword occurs under folded matching.

        Equivalent to :func:`~repro.nlp.normalize.keyword_in_text` on the
        original text, but answered with one substring probe over the
        precomputed haystack instead of re-normalizing and re-stemming.
        """
        return bool(canonical) and canonical in self.haystack

    def cached_sentiment(self, fingerprint: Hashable) -> Optional[object]:
        """The memoized sentiment result for one analyzer fingerprint."""
        return self._sentiment.get(fingerprint)

    def remember_sentiment(self, fingerprint: Hashable, result: object) -> None:
        """Memoize a sentiment result under the analyzer's fingerprint."""
        self._sentiment[fingerprint] = result


@lru_cache(maxsize=32768)
def analyze_text(text: str) -> PostAnalysis:
    """The :class:`PostAnalysis` of ``text``, computed at most once.

    The cache is keyed by the text itself: analyses are pure, so posts
    sharing a text — across corpora, region views and cached query
    layers — share one analysis object (and its sentiment memo).
    """
    words = folded_words(text)
    # A HASHTAG token starts with a literal "#": a text without one has
    # no hashtags and skips the token scan.
    hashtags = (
        tuple(canonical_keyword(tag) for tag in raw_hashtags(text))
        if "#" in text
        else ()
    )
    return PostAnalysis(
        text=text,
        haystack=(
            "".join(words) + _HAYSTACK_SEPARATOR + "".join(map(stem, words))
        ),
        hashtags=hashtags,
        insider_voice=not INSIDER_MARKERS.isdisjoint(words),
        outsider_voice=not OUTSIDER_MARKERS.isdisjoint(words),
    )
