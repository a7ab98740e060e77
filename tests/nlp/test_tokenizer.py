"""Tests for the social-media tokenizer."""

import pytest

from repro.nlp.tokenizer import (
    Token,
    TokenType,
    hashtags,
    lowered_words,
    prices,
    tokenize,
    words,
)


class TestTokenTypes:
    def test_hashtag(self):
        tokens = tokenize("just did my #dpfdelete today")
        tags = [t for t in tokens if t.type is TokenType.HASHTAG]
        assert [t.text for t in tags] == ["#dpfdelete"]

    def test_mention(self):
        tokens = tokenize("thanks @tuningshop for the install")
        mentions = [t for t in tokens if t.type is TokenType.MENTION]
        assert [t.text for t in mentions] == ["@tuningshop"]

    def test_url(self):
        tokens = tokenize("bought it at https://example.com/kit?x=1 yesterday")
        urls = [t for t in tokens if t.type is TokenType.URL]
        assert len(urls) == 1
        assert urls[0].text.startswith("https://")

    @pytest.mark.parametrize(
        "text",
        ["paid €360 for it", "paid 360€ for it", "paid 360 EUR for it",
         "paid EUR 360 for it", "paid $1,200.50 for it"],
    )
    def test_price_forms(self, text):
        found = prices(text)
        assert len(found) == 1

    def test_plain_number(self):
        tokens = tokenize("my 2019 model")
        numbers = [t for t in tokens if t.type is TokenType.NUMBER]
        assert [t.text for t in numbers] == ["2019"]

    def test_emoticon(self):
        tokens = tokenize("works great :)")
        emoji = [t for t in tokens if t.type is TokenType.EMOJI_SENTIMENT]
        assert [t.text for t in emoji] == [":)"]

    def test_words_preserve_case(self):
        assert words("DPF Delete kit") == ["DPF", "Delete", "kit"]

    def test_hyphenated_word_is_one_token(self):
        assert "best-value" in words("a best-value kit")


class TestTokenStructure:
    def test_positions_are_sequential(self):
        tokens = tokenize("one two three")
        assert [t.position for t in tokens] == [0, 1, 2]

    def test_empty_text_yields_nothing(self):
        assert tokenize("") == []

    def test_token_requires_text(self):
        with pytest.raises(ValueError):
            Token(text="", type=TokenType.WORD, position=0)

    def test_hashtags_helper(self):
        assert hashtags("#a then #b") == ["#a", "#b"]

    def test_price_not_double_counted_as_number(self):
        tokens = tokenize("paid 360 EUR")
        types = [t.type for t in tokens]
        assert TokenType.PRICE in types
        assert TokenType.NUMBER not in types


class TestLoweredWords:
    def test_plain_text_answers_with_the_lowered_word_tokens(self):
        text = "Don't-stop #DPF_delete @shop 12,5 café -'ok' x2y"
        assert lowered_words(text) == ["don't-stop", "caf", "ok'", "x", "y"]
        assert lowered_words(text) == [w.lower() for w in words(text)]

    @pytest.mark.parametrize(
        "text",
        ["works great :)", "meh :-D", "see https://x.io/kit",
         "paid 300 EUR", "paid 5eur", "EUR5 deal", "€360", "$1,200",
         "costs £9"],
    )
    def test_texts_that_may_hold_emoji_url_or_price_need_the_scan(self, text):
        assert lowered_words(text) is None
