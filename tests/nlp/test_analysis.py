"""Tests for the shared per-post text analysis sidecar."""

import pickle

from repro.nlp import sentiment
from repro.nlp.analysis import INSIDER_MARKERS, OUTSIDER_MARKERS, analyze_text
from repro.nlp.hashtags import extract_hashtags
from repro.nlp.normalize import (
    canonical_keyword,
    keyword_in_text,
    normalize_text,
    stem,
)
from repro.nlp.sentiment import DEFAULT_LEXICON, SentimentAnalyzer
from repro.nlp.tokenizer import scan, tokenize


class TestAnalyzeText:
    def test_views_match_primitives(self):
        text = "Just did my #DPF_delete — deleting smoke, great gains!"
        analysis = analyze_text(text)
        normalized = normalize_text(text)
        assert analysis.normalized == normalized
        assert analysis.squashed == normalized.replace(" ", "")
        assert analysis.words == tuple(normalized.split())
        assert analysis.stems == tuple(stem(w) for w in analysis.words)
        assert analysis.stemmed_joined == "".join(analysis.stems)
        assert analysis.hashtags == tuple(extract_hashtags(text))
        assert scan(text) == [(tok.type, tok.text) for tok in tokenize(text)]
        assert analysis.word_set == frozenset(analysis.words)
        assert analysis.insider_voice == bool(
            analysis.word_set & INSIDER_MARKERS
        )
        assert analysis.outsider_voice == bool(
            analysis.word_set & OUTSIDER_MARKERS
        )

    def test_shared_object_per_distinct_text(self):
        assert analyze_text("same #dpfdelete text") is analyze_text(
            "same #dpfdelete text"
        )

    def test_matches_keyword_equals_keyword_in_text(self):
        texts = (
            "my dpf-delete kit",
            "#dpfdelete rocks",
            "superdpfdeletekit pro",
            "deleting the filter",
            "nothing relevant",
        )
        keywords = ("dpf delete", "dpfdelete", "deleting", "delet", "missing")
        for text in texts:
            analysis = analyze_text(text)
            for keyword in keywords:
                folded = canonical_keyword(keyword)
                assert analysis.matches_keyword(folded) == keyword_in_text(
                    keyword, text
                ), (keyword, text)

    def test_empty_canonical_never_matches(self):
        assert not analyze_text("some text").matches_keyword("")


class _CountingAnalyzer(SentimentAnalyzer):
    """Counts texts scored through ``score``, the one scoring seam."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.raw_calls = 0

    def score(self, text):
        self.raw_calls += 1
        return super().score(text)


class TestSentimentMemo:
    def test_scored_once_per_text_per_fingerprint(self):
        analyzer = _CountingAnalyzer()
        analysis = analyze_text("love the power gains, works great")
        first = analyzer.score_analysis(analysis)
        second = analyzer.score_analysis(analysis)
        assert first is second
        assert analyzer.raw_calls == 1
        assert first.score == analyzer.score(analysis.text).score

    def test_memo_shared_across_equal_analyzers(self):
        analysis = analyze_text("terrible fail, fined and caught")
        a = _CountingAnalyzer()
        b = _CountingAnalyzer()
        assert a.fingerprint == b.fingerprint
        a.score_analysis(analysis)
        b.score_analysis(analysis)
        assert (a.raw_calls, b.raw_calls) == (1, 0)

    def test_extend_lexicon_invalidates_memo(self):
        analyzer = _CountingAnalyzer()
        analysis = analyze_text("the mightyboost worked")
        before = analyzer.score_analysis(analysis)
        analyzer.extend_lexicon({"mightyboost": 2.5})
        after = analyzer.score_analysis(analysis)
        assert analyzer.raw_calls == 2
        assert after.score > before.score

    def test_extend_lexicon_resets_the_valence_memo(self):
        analyzer = SentimentAnalyzer()
        assert analyzer.score("the hyperboost worked").hits == 0
        analyzer.extend_lexicon({"hyperboost": 2.5})
        # A text never scored before: no result memo can answer, only
        # the word -> valence memo, which must have forgotten the word.
        fresh = analyzer.score_analysis(analyze_text("one hyperboost later"))
        assert fresh.hits == 1
        assert fresh == SentimentAnalyzer(
            {**DEFAULT_LEXICON, "hyperboost": 2.5}
        ).score("one hyperboost later")

    def test_valence_memo_stays_out_of_the_pickle(self):
        analyzer = SentimentAnalyzer()
        analyzer.score("love the power gains, works great, no regret")
        assert pickle.dumps(analyzer) == pickle.dumps(SentimentAnalyzer())
        copy = pickle.loads(pickle.dumps(analyzer))
        assert copy.score("works great") == analyzer.score("works great")

    def test_valence_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(sentiment, "_VALENCE_MEMO_SIZE", 3)
        analyzer = SentimentAnalyzer()
        text = "love hate great awful fine cheap risk"
        result = analyzer.score(text)
        assert len(analyzer._valences) <= 3
        assert result == SentimentAnalyzer().score(text)
