"""Social-media-aware tokenizer.

Splits post text into typed tokens, preserving the entities PSP consumes:
hashtags (``#dpfdelete``), mentions (``@workshop``), URLs, prices
(``360 EUR``, ``€360``), plain numbers and words.  The tokenizer is
regex-based and deterministic; it performs no normalization beyond
classification (see :mod:`repro.nlp.normalize` for lower-casing etc.).

The per-post hot paths read narrower views that equal the full scan's
tokens:

* :func:`lowered_words` — the lowered WORD tokens in one translate pass
  and a ``split``, after a guard: a text that may hold an emoticon, a
  URL or a price (the other tokens that can consume an ASCII letter)
  answers ``None`` and takes :func:`sentiment_pairs`, the capture-only
  master scan;
* :func:`hashtags` — a plain ``#\\w+`` findall when the text has no
  ``://`` (only a URL can swallow a ``#``), else the capture-only scan.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.nlp.normalize import TranslateTable


class TokenType(enum.Enum):
    """Classification of a token produced by :func:`tokenize`."""

    WORD = "word"
    HASHTAG = "hashtag"
    MENTION = "mention"
    URL = "url"
    PRICE = "price"
    NUMBER = "number"
    EMOJI_SENTIMENT = "emoji_sentiment"


@dataclass(frozen=True)
class Token:
    """A typed token with its source text and position."""

    text: str
    type: TokenType
    position: int

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("token text must be non-empty")


#: Token patterns tried in priority order (first match wins).
_TOKEN_PATTERNS: Tuple[Tuple[TokenType, str], ...] = (
    (TokenType.URL, r"https?://\S+"),
    (TokenType.HASHTAG, r"#\w+"),
    (TokenType.MENTION, r"@\w+"),
    # "€360", "360€", "360 EUR", "EUR 360", "$1,200.50"
    (TokenType.PRICE, r"[€$£]\s?\d[\d,]*(?:\.\d+)?"),
    (TokenType.PRICE, r"\d[\d,]*(?:\.\d+)?\s?[€$£]"),
    (TokenType.PRICE, r"\d[\d,]*(?:\.\d+)?\s?(?:EUR|USD|GBP|eur|usd|gbp)\b"),
    (TokenType.PRICE, r"(?:EUR|USD|GBP)\s?\d[\d,]*(?:\.\d+)?"),
    (TokenType.NUMBER, r"\d[\d,]*(?:\.\d+)?"),
    (TokenType.EMOJI_SENTIMENT, r"[:;]-?[)(D/|]"),
    (TokenType.WORD, r"[A-Za-z][A-Za-z'\-]*"),
)

_MASTER_RE = re.compile(
    "|".join(f"(?P<g{i}>{pattern})" for i, (_, pattern) in enumerate(_TOKEN_PATTERNS))
)
_GROUP_TYPES = {f"g{i}": tt for i, (tt, _) in enumerate(_TOKEN_PATTERNS)}


def _capture_only(*captured: TokenType) -> "re.Pattern[str]":
    """The master alternation capturing only the ``captured`` types.

    Every alternative keeps its place, so the pattern matches exactly
    the tokens :func:`scan` does; the other alternatives are wrapped in
    ``(?:...)``, so the engine marks no group for them.  ``findall``
    yields one capture per captured alternative, in pattern order, each
    empty unless that alternative matched the token.
    """
    return re.compile(
        "|".join(
            f"({pattern})" if token_type in captured else f"(?:{pattern})"
            for token_type, pattern in _TOKEN_PATTERNS
        )
    )


_SENTIMENT_RE = _capture_only(TokenType.EMOJI_SENTIMENT, TokenType.WORD)
_HASHTAG_RE = _capture_only(TokenType.HASHTAG)


def _alternative(token_type: TokenType) -> str:
    """The first pattern of ``token_type`` in :data:`_TOKEN_PATTERNS`."""
    return next(
        pattern for kind, pattern in _TOKEN_PATTERNS if kind is token_type
    )


_PLAIN_HASHTAG_RE = re.compile(_alternative(TokenType.HASHTAG))
_TAG_RE = re.compile(
    f"{_alternative(TokenType.HASHTAG)}|{_alternative(TokenType.MENTION)}"
)
_EMOJI_RE = re.compile(_alternative(TokenType.EMOJI_SENTIMENT))

#: Every PRICE token holds one of these; the full scan takes such texts.
_PRICE_MARKS = ("€", "$", "£", "EUR", "USD", "GBP", "eur", "usd", "gbp")


def _word_char(char: str) -> str:
    # A WORD token's characters survive, ASCII letters lowered (the
    # pattern's ``[A-Za-z]`` is ASCII only); anything else splits.
    if "A" <= char <= "Z":
        return char.lower()
    if "a" <= char <= "z" or char in "'-":
        return char
    return " "


_WORD_TABLE = TranslateTable(_word_char)


def scan(text: str) -> List[Tuple[TokenType, str]]:
    """The ``(type, text)`` pair of every token of ``text``, in order.

    One regex pass and no :class:`Token` objects, from which
    :func:`iter_tokens` and :func:`tokenize` build their tokens.  The
    hot paths read narrower scans: :func:`lowered_words`,
    :func:`sentiment_pairs` and :func:`hashtags`.
    """
    return [
        (_GROUP_TYPES[match.lastgroup], match.group())
        for match in _MASTER_RE.finditer(text)
    ]


def iter_tokens(text: str) -> Iterator[Token]:
    """Yield typed tokens from ``text`` in order of appearance."""
    for position, (token_type, token_text) in enumerate(scan(text)):
        yield Token(text=token_text, type=token_type, position=position)


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into a list of typed tokens."""
    return list(iter_tokens(text))


def words(text: str) -> List[str]:
    """Just the WORD token texts of ``text`` (original casing)."""
    return [s for t, s in scan(text) if t is TokenType.WORD]


def sentiment_pairs(text: str) -> List[Tuple[str, str]]:
    """The ``(emoji, word)`` capture of every token of ``text``, in order.

    An EMOJI_SENTIMENT token fills ``emoji``, a WORD token fills
    ``word``, and any other token yields ``("", "")``: the token stream
    sentiment scoring reads, in one capture-only regex pass.
    """
    return _SENTIMENT_RE.findall(text)


def lowered_words(text: str) -> Optional[List[str]]:
    """The lower-cased WORD token texts of ``text``, or ``None``.

    Equals ``[s.lower() for t, s in scan(text) if t is TokenType.WORD]``
    whenever it answers.  Only URL, HASHTAG, MENTION, PRICE and
    EMOJI_SENTIMENT tokens can consume an ASCII letter.  ``None`` asks
    for the full :func:`sentiment_pairs` scan of a text that may hold an
    EMOJI_SENTIMENT or PRICE token; a URL holds ``://``, hence the
    ``:/`` emoticon, so such texts answer ``None`` too.  Otherwise the
    ``#``/``@`` tags are blanked, and a WORD token is a maximal run of
    ``[A-Za-z'-]`` with its leading ``'``/``-`` stripped: one translate
    and one ``split``.
    """
    if (":" in text or ";" in text) and _EMOJI_RE.search(text):
        return None
    for mark in _PRICE_MARKS:
        if mark in text:
            return None
    if "#" in text or "@" in text:
        text = _TAG_RE.sub(" ", text)
    runs = text.translate(_WORD_TABLE).split()
    if "'" in text or "-" in text:
        runs = [word for word in (run.lstrip("'-") for run in runs) if word]
    return runs


def hashtags(text: str) -> List[str]:
    """Just the HASHTAG token texts of ``text`` (including ``#``).

    Of the other tokens only a URL can hold a ``#``, so a text without
    ``://`` reads them with a plain ``#\\w+`` findall.
    """
    if "://" not in text:
        return _PLAIN_HASHTAG_RE.findall(text)
    return [tag for tag in _HASHTAG_RE.findall(text) if tag]


def prices(text: str) -> List[str]:
    """Just the PRICE token texts of ``text`` (raw, unparsed)."""
    return [s for t, s in scan(text) if t is TokenType.PRICE]
