"""Property tests: the token-pair scan == the Token-object tokenizer.

Hashtag extraction and sentiment scoring read :func:`repro.nlp.tokenizer.
scan`'s ``(type, text)`` pairs, and ``analyze_text`` skips the scan for a
text without ``#``.  Over texts dense in token boundaries (hashtags,
mentions, URLs, prices in every currency form, emoticons, apostrophes,
hyphens, underscores, non-ASCII letters):

* ``analyze_text(text).hashtags`` are the canonical HASHTAG texts of
  ``tokenize(text)``;
* ``score(text)`` and ``score_analysis(analyze_text(text))`` equal the
  Token-based scoring loop kept below as the reference, floats bit for
  bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.analysis import analyze_text
from repro.nlp.normalize import canonical_keyword, stem
from repro.nlp.sentiment import (
    BOOSTERS,
    EMOJI_VALENCE,
    NEGATIONS,
    SentimentAnalyzer,
    _normalise,
)
from repro.nlp.tokenizer import TokenType, scan, tokenize

#: Fragments glued with no separator between them, so every token
#: pattern meets every neighbour at a boundary.
FRAGMENTS = (
    " ", " ", "\n", "#", "#", "@", "http://", "https://x.io/#a?b=1",
    "0", "7", "12", ",", ".", "€", "$", "£", "EUR", "eur", "USD", "gbp",
    ":)", ";-(", ":-D", ":/", ":|", ";", ":", "-", "'", "_",
    "ü", "é", "ß", "Ω", "dpf", "delete", "love", "great", "not",
    "never", "very", "slightly", "fined", "can't", "won't", "best-value",
    "Awesome", "FAIL", "ing", "s",
)

TEXTS = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet="#@:;()-_'.,€$£/|Dab1 ü", max_size=40),
)

ANALYZERS = (
    SentimentAnalyzer(),
    SentimentAnalyzer(
        lexicon={"eur": 1.5, "dpf": -0.5, "won't": 0.25, "delet": 2.0},
        neutral_band=0.3,
    ),
)


def _token_raw_score(lexicon, tokens):
    """The Token-based scoring loop the pair scan replaced."""
    raw = 0.0
    hits = 0
    window = []
    for token in tokens:
        if token.type is TokenType.EMOJI_SENTIMENT:
            valence = EMOJI_VALENCE.get(token.text)
            if valence is not None:
                raw += valence
                hits += 1
            continue
        if token.type is not TokenType.WORD:
            continue
        lowered = token.text.lower()
        stemmed = stem(lowered)
        valence = lexicon.get(stemmed, lexicon.get(lowered))
        if valence is not None:
            multiplier = 1.0
            for prior in window[-3:]:
                if prior in NEGATIONS:
                    multiplier *= -1.0
                elif prior in BOOSTERS:
                    multiplier *= BOOSTERS[prior]
            raw += valence * multiplier
            hits += 1
        window.append(lowered)
    return raw, hits


class TestScanEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(text=TEXTS)
    def test_scan_is_tokenize_without_objects(self, text):
        assert scan(text) == [(tok.type, tok.text) for tok in tokenize(text)]

    @settings(max_examples=300, deadline=None)
    @given(text=TEXTS)
    def test_hashtags_match_tokenized_hashtags(self, text):
        expected = tuple(
            canonical_keyword(tok.text)
            for tok in tokenize(text)
            if tok.type is TokenType.HASHTAG
        )
        assert analyze_text(text).hashtags == expected

    @pytest.mark.parametrize("analyzer", ANALYZERS, ids=("default", "custom"))
    @settings(max_examples=300, deadline=None)
    @given(text=TEXTS)
    def test_scores_match_token_loop_bit_for_bit(self, analyzer, text):
        raw, hits = _token_raw_score(analyzer._lexicon, tokenize(text))
        pair_raw, pair_hits = analyzer._raw_score(scan(text))
        assert (pair_raw.hex(), pair_hits) == (raw.hex(), hits)
        expected = _normalise(raw, hits).hex()
        for result in (
            analyzer.score(text),
            analyzer.score_analysis(analyze_text(text)),
        ):
            assert (result.score.hex(), result.hits) == (expected, hits)
