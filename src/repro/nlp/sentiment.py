"""Lexicon-based sentiment classification for tuning-scene posts.

The PSP paper uses "social sentiment analysis to evaluate the real threat
risk levels": a post praising a DPF delete signals attack demand, a post
complaining about fines or failed inspections signals deterrence.  This
module implements a deterministic lexicon scorer in the VADER style —
signed word valences, a negation flip, intensity boosters and an emoji
table — with a lexicon curated for the aftermarket-tuning domain.

Scores are normalised to [-1, +1]; :func:`classify` buckets them into
POSITIVE / NEUTRAL / NEGATIVE with a symmetric neutral band.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nlp.normalize import stem
from repro.nlp.tokenizer import lowered_words, sentiment_pairs

#: Signed valence lexicon (stemmed form -> valence).  Positive valence on
#: an attack-related post means *enthusiasm for the attack* — the signal
#: PSP interprets as social attraction.
DEFAULT_LEXICON: Dict[str, float] = {
    # enthusiasm / success
    "love": 2.0, "awesome": 2.5, "great": 1.8, "best": 2.0, "perfect": 2.2,
    "happy": 1.7, "recommend": 1.5, "easy": 1.2, "cheap": 1.0, "win": 1.6,
    "gain": 1.4, "power": 1.0, "boost": 1.3, "smooth": 1.1, "works": 1.2,
    "amazing": 2.4, "excellent": 2.3, "good": 1.5, "nice": 1.3, "fast": 1.0,
    "strong": 1.1, "improv": 1.4, "success": 1.8, "worth": 1.4, "save": 1.2,
    "proud": 1.5, "finally": 0.8, "legal": 0.5, "clean": 0.6,
    # deterrence / failure
    "hate": -2.0, "terrible": -2.4, "worst": -2.2, "awful": -2.3,
    "broke": -1.8, "broken": -1.8, "fail": -1.9, "failed": -1.9,
    "fine": -1.5, "fined": -2.0, "caught": -1.7, "bust": -1.9,
    "illegal": -1.2, "risk": -0.8, "danger": -1.4, "expensive": -1.0,
    "scam": -2.2, "regret": -1.9, "problem": -1.3, "issue": -1.1,
    "warranty": -0.6, "void": -1.0, "inspect": -0.7, "reject": -1.6,
    "limp": -1.4, "stall": -1.5, "smoke": -0.9, "bad": -1.5,
    "avoid": -1.3, "never": -0.8, "crash": -1.8, "costly": -1.1,
}

#: Words that flip the sign of the following valence word.
NEGATIONS = frozenset({"not", "no", "never", "dont", "don't", "cant", "can't",
                       "wont", "won't", "isnt", "isn't", "without"})

#: Intensity multipliers applied to the following valence word.
BOOSTERS: Dict[str, float] = {
    "very": 1.3, "really": 1.3, "so": 1.2, "super": 1.4, "extremely": 1.5,
    "totally": 1.3, "absolutely": 1.5, "slightly": 0.7, "somewhat": 0.8,
    "barely": 0.6, "kinda": 0.8,
}

#: Emoji-ish sentiment tokens recognised by the tokenizer.
EMOJI_VALENCE: Dict[str, float] = {
    ":)": 1.5, ":-)": 1.5, ":D": 2.0, ":-D": 2.0,
    ":(": -1.5, ":-(": -1.5, ":/": -0.8, ":-/": -0.8, ":|": -0.2,
}

#: How many tokens back a negation/booster remains in scope.
_SCOPE = 3

#: Bound of an analyzer's word -> valence memo: the size of the
#: :func:`~repro.nlp.normalize.stem` cache it stands in front of.
_VALENCE_MEMO_SIZE = stem.cache_parameters()["maxsize"]


class SentimentLabel(enum.Enum):
    """Three-way sentiment classification."""

    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"


@dataclass(frozen=True)
class SentimentResult:
    """Outcome of scoring one text."""

    score: float
    label: SentimentLabel
    hits: int

    def __post_init__(self) -> None:
        if not -1.0 <= self.score <= 1.0:
            raise ValueError(f"normalised score must be in [-1, 1], got {self.score}")
        if self.hits < 0:
            raise ValueError("hits must be >= 0")


def _normalise(raw: float, hits: int) -> float:
    """Squash a raw valence sum into [-1, 1] (VADER-style alpha norm)."""
    if hits == 0:
        return 0.0
    alpha = 15.0
    return raw / math.sqrt(raw * raw + alpha)


def _multiplier(priors: Sequence[str]) -> float:
    """The negation flips and booster factors of the words in scope."""
    multiplier = 1.0
    for prior in priors:
        if prior in NEGATIONS:
            multiplier *= -1.0
        elif prior in BOOSTERS:
            multiplier *= BOOSTERS[prior]
    return multiplier


class _ValenceMemo(dict):
    """Lowered word -> lexicon valence (``None`` for no entry).

    Filled on first lookup by the stem-then-word probe, and emptied
    when it reaches :data:`_VALENCE_MEMO_SIZE` words.
    """

    def __init__(self, lexicon: Dict[str, float]) -> None:
        super().__init__()
        self._lexicon = lexicon

    def __missing__(self, word: str) -> Optional[float]:
        if len(self) >= _VALENCE_MEMO_SIZE:
            self.clear()
        lexicon = self._lexicon
        valence = self[word] = lexicon.get(stem(word), lexicon.get(word))
        return valence


class SentimentAnalyzer:
    """Deterministic lexicon sentiment scorer.

    Args:
        lexicon: stemmed-word -> valence map; defaults to the tuning-domain
            lexicon.
        neutral_band: |score| below this classifies as NEUTRAL.
    """

    def __init__(
        self,
        lexicon: Optional[Dict[str, float]] = None,
        *,
        neutral_band: float = 0.1,
    ) -> None:
        if not 0.0 <= neutral_band < 1.0:
            raise ValueError(f"neutral_band must be in [0, 1), got {neutral_band}")
        source = DEFAULT_LEXICON if lexicon is None else lexicon
        self._lexicon = {word: float(valence) for word, valence in source.items()}
        self._neutral_band = float(neutral_band)
        self._refresh_fingerprint()

    def _refresh_fingerprint(self) -> None:
        key = repr((self._neutral_band, sorted(self._lexicon.items())))
        self._fingerprint = hashlib.blake2b(
            key.encode(), digest_size=16
        ).hexdigest()
        self._valences = _ValenceMemo(self._lexicon)

    def __getstate__(self) -> Dict[str, object]:
        # The valence memo stays out of the pickle: every shard job
        # ships the analyzer, whose lexicon and band alone define it.
        return {k: v for k, v in self.__dict__.items() if k != "_valences"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._valences = _ValenceMemo(self._lexicon)

    @property
    def fingerprint(self) -> str:
        """Value-based identity of this analyzer's scoring behaviour.

        A 32-character digest of the neutral band and the sorted
        lexicon items.  Two analyzers with the same lexicon and neutral
        band produce the same fingerprint, in any process (a pickled
        analyzer keeps it), so per-post sentiment memos
        (:meth:`score_analysis`) are shared across analyzer instances and
        invalidated when :meth:`extend_lexicon` changes the behaviour.
        A memo hit is one probe on a short string, which caches its hash.
        """
        return self._fingerprint

    def score(self, text: str) -> SentimentResult:
        """Score ``text`` and return the normalised sentiment result.

        The one scoring seam: :meth:`score_analysis` scores through it.
        A text that cannot hold an EMOJI_SENTIMENT or PRICE token is
        read as its :func:`~repro.nlp.tokenizer.lowered_words`; any
        other takes the :func:`~repro.nlp.tokenizer.sentiment_pairs`
        scan.  Both give the same token stream, so the same floats.
        """
        words = lowered_words(text)
        if words is None:
            raw, hits = self._raw_score(sentiment_pairs(text))
        else:
            raw, hits = self._raw_score_words(words)
        normalised = _normalise(raw, hits)
        return SentimentResult(
            score=normalised, label=self._label(normalised), hits=hits
        )

    def score_analysis(self, analysis) -> SentimentResult:
        """Score a precomputed :class:`~repro.nlp.analysis.PostAnalysis`.

        Scores the analysis' text with :meth:`score` and memoizes the
        result on the analysis keyed by this analyzer's
        :attr:`fingerprint` — so each distinct post text is scored at
        most once per scoring behaviour, however many SAI windows,
        weight-mix sweeps or fleet members revisit it.
        """
        cached = analysis.cached_sentiment(self._fingerprint)
        if cached is not None:
            return cached
        result = self.score(analysis.text)
        analysis.remember_sentiment(self._fingerprint, result)
        return result

    def score_many(self, texts: Sequence[str]) -> List[SentimentResult]:
        """Score several texts."""
        return [self.score(t) for t in texts]

    def mean_score(self, texts: Sequence[str]) -> float:
        """Mean normalised score over ``texts`` (0.0 for an empty input)."""
        if not texts:
            return 0.0
        return sum(r.score for r in self.score_many(texts)) / len(texts)

    def _raw_score(self, pairs: Sequence[Tuple[str, str]]) -> tuple:
        """Raw valence sum and hit count over
        :func:`~repro.nlp.tokenizer.sentiment_pairs` captures."""
        valences = self._valences
        raw = 0.0
        hits = 0
        window: List[str] = []
        for emoji, word in pairs:
            if emoji:
                valence = EMOJI_VALENCE.get(emoji)
                if valence is not None:
                    raw += valence
                    hits += 1
                continue
            if not word:
                continue
            lowered = word.lower()
            valence = valences[lowered]
            if valence is not None:
                raw += valence * _multiplier(window[-_SCOPE:])
                hits += 1
            window.append(lowered)
        return raw, hits

    def _raw_score_words(self, words: Sequence[str]) -> tuple:
        """:meth:`_raw_score` of a text whose tokens are the lowered
        ``words`` and no emoticon: every word is in the window."""
        valences = self._valences
        raw = 0.0
        hits = 0
        for position, word in enumerate(words):
            valence = valences[word]
            if valence is not None:
                raw += valence * _multiplier(
                    words[max(0, position - _SCOPE) : position]
                )
                hits += 1
        return raw, hits

    def _label(self, score: float) -> SentimentLabel:
        if score > self._neutral_band:
            return SentimentLabel.POSITIVE
        if score < -self._neutral_band:
            return SentimentLabel.NEGATIVE
        return SentimentLabel.NEUTRAL

    def extend_lexicon(self, entries: Dict[str, float]) -> None:
        """Add or override lexicon entries (keys are stemmed internally)."""
        for word, valence in entries.items():
            self._lexicon[stem(word.lower())] = float(valence)
        self._refresh_fingerprint()
