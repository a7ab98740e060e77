"""Property tests: the token scans == the Token-object tokenizer.

Hashtag extraction and sentiment scoring read capture-only scans
(:func:`repro.nlp.tokenizer.hashtags` and :func:`~repro.nlp.tokenizer.
sentiment_pairs`), and ``analyze_text`` skips the hashtag scan for a
text without ``#``.  Over texts dense in token boundaries (hashtags,
mentions, URLs, prices in every currency form, emoticons, apostrophes,
hyphens, underscores, non-ASCII letters):

* ``scan(text)`` is ``tokenize(text)`` as ``(type, text)`` pairs;
* ``sentiment_pairs(text)`` has one ``(emoji, word)`` pair per token of
  ``tokenize(text)``, filled only for EMOJI_SENTIMENT and WORD tokens,
  and ``hashtags(text)`` are its HASHTAG texts;
* ``analyze_text(text).hashtags`` are the canonical HASHTAG texts of
  ``tokenize(text)``;
* ``score(text)`` and ``score_analysis(analyze_text(text))`` equal the
  Token-based scoring loop kept below as the reference, floats bit for
  bit.

The one-pass kernels equal the regex paths they replace, also over
Unicode-dense text (NBSP, EM SPACE, ``\x1c``, the Kelvin sign and
``İ``, whose lower-casing leaves two code points):

* ``folded_words(text)`` is ``normalize_text(text).split()``;
* ``lowered_words(text)``, whenever it answers, is the lowered WORD
  texts of ``tokenize(text)``.

Over random lexicons and neutral bands, the analyzer fingerprint is a
value identity: equal exactly when the lexicon items and band are, kept
by a pickle round trip, and changed by ``extend_lexicon`` exactly when a
valence changes.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.analysis import analyze_text
from repro.nlp.normalize import (
    canonical_keyword,
    folded_words,
    normalize_text,
    stem,
)
from repro.nlp.sentiment import (
    BOOSTERS,
    EMOJI_VALENCE,
    NEGATIONS,
    SentimentAnalyzer,
    _normalise,
)
from repro.nlp.tokenizer import (
    TokenType,
    hashtags,
    lowered_words,
    scan,
    sentiment_pairs,
    tokenize,
)

#: Fragments glued with no separator between them, so every token
#: pattern meets every neighbour at a boundary.
FRAGMENTS = (
    " ", " ", "\n", "#", "#", "@", "http://", "https://x.io/#a?b=1",
    "0", "7", "12", ",", ".", "€", "$", "£", "EUR", "eur", "USD", "gbp",
    ":)", ";-(", ":-D", ":/", ":|", ";", ":", "-", "'", "_",
    "ü", "é", "ß", "Ω", "dpf", "delete", "love", "great", "not",
    "never", "very", "slightly", "fined", "can't", "won't", "best-value",
    "Awesome", "FAIL", "ing", "s", "EURO", "300EUR", "eur5", "'-", "-'",
)

TEXTS = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet="#@:;()-_'.,€$£/|Dab1 ü", max_size=40),
)

#: Any text, and text dense in the characters where case folding and
#: the whitespace class are subtle.
UNICODE_TEXTS = st.one_of(
    TEXTS,
    st.text(max_size=40),
    st.text(
        alphabet="\u00a0\u2003\x1c\u212a\u0130 \t-_/.'#@:;)KkIiZz9é",
        max_size=40,
    ),
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
    def test_capture_only_scans_keep_the_tokens(self, text):
        tokens = tokenize(text)
        assert sentiment_pairs(text) == [
            (
                tok.text if tok.type is TokenType.EMOJI_SENTIMENT else "",
                tok.text if tok.type is TokenType.WORD else "",
            )
            for tok in tokens
        ]
        assert hashtags(text) == [
            tok.text for tok in tokens if tok.type is TokenType.HASHTAG
        ]

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
        pair_raw, pair_hits = analyzer._raw_score(sentiment_pairs(text))
        assert (pair_raw.hex(), pair_hits) == (raw.hex(), hits)
        expected = _normalise(raw, hits).hex()
        for result in (
            analyzer.score(text),
            analyzer.score_analysis(analyze_text(text)),
        ):
            assert (result.score.hex(), result.hits) == (expected, hits)


class TestOnePassKernels:
    @settings(max_examples=500, deadline=None)
    @given(text=UNICODE_TEXTS)
    def test_folded_words_are_the_normalized_words(self, text):
        assert folded_words(text) == normalize_text(text).split()

    @settings(max_examples=500, deadline=None)
    @given(text=UNICODE_TEXTS)
    def test_lowered_words_are_the_word_tokens_when_answered(self, text):
        words = lowered_words(text)
        if words is not None:
            assert words == [
                tok.text.lower()
                for tok in tokenize(text)
                if tok.type is TokenType.WORD
            ]


#: Finite valences; adding 0.0 turns -0.0 into 0.0, which compares equal
#: but has another repr.
VALENCES = st.one_of(
    st.sampled_from((1.0, -1.5, 2.5)),
    st.floats(allow_nan=False, allow_infinity=False),
).map(lambda valence: valence + 0.0)

#: Small key and band pools, so equal lexicons and bands are common.
LEXICONS = st.dictionaries(
    st.sampled_from(("dpf", "delet", "love", "fine", "won't")),
    VALENCES,
    max_size=4,
)

BANDS = st.sampled_from((0.0, 0.1, 0.3))


class TestFingerprint:
    @settings(max_examples=300, deadline=None)
    @given(first=LEXICONS, second=LEXICONS, bands=st.tuples(BANDS, BANDS))
    def test_equal_exactly_when_lexicon_and_band_are(
        self, first, second, bands
    ):
        a = SentimentAnalyzer(first, neutral_band=bands[0])
        # Insertion order is not part of the value.
        b = SentimentAnalyzer(
            dict(reversed(list(second.items()))), neutral_band=bands[1]
        )
        same = first == second and bands[0] == bands[1]
        assert (a.fingerprint == b.fingerprint) == same
        assert len(a.fingerprint) == 32

    @settings(max_examples=200, deadline=None)
    @given(lexicon=LEXICONS, band=BANDS)
    def test_pickle_keeps_the_fingerprint(self, lexicon, band):
        analyzer = SentimentAnalyzer(lexicon, neutral_band=band)
        copy = pickle.loads(pickle.dumps(analyzer))
        assert copy.fingerprint == analyzer.fingerprint

    @settings(max_examples=300, deadline=None)
    @given(
        lexicon=LEXICONS,
        band=BANDS,
        word=st.sampled_from(("DPF", "delete", "love", "mightyboost")),
        valence=VALENCES,
    )
    def test_extend_lexicon_changes_it_exactly_when_a_valence_does(
        self, lexicon, band, word, valence
    ):
        analyzer = SentimentAnalyzer(lexicon, neutral_band=band)
        before = analyzer.fingerprint
        key = stem(word.lower())
        analyzer.extend_lexicon({word: valence})
        assert (analyzer.fingerprint != before) == (
            lexicon.get(key) != valence
        )
        assert analyzer.fingerprint == SentimentAnalyzer(
            {**lexicon, key: valence}, neutral_band=band
        ).fingerprint
