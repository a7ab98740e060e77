"""Text normalization for matching attack keywords against posts.

Social-media attack keywords appear in many surface forms: ``#dpfdelete``,
``DPF delete``, ``dpf-delete``, ``dpf_delete``.  PSP's keyword database
stores one canonical form and this module folds every surface form onto
it: lower-case, strip the hashtag sigil, collapse separators, and apply a
light suffix stemmer for plural/gerund variants ("deletes", "deleting" →
"delete").

The per-post hot path reads :func:`folded_words`: the words of
:func:`normalize_text` from one ``str.translate`` pass and a ``split``,
with no regex.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Iterable, List, Optional

_SEPARATORS = re.compile(r"[\s\-_/.]+")
_NON_ALNUM = re.compile(r"[^a-z0-9 ]+")


class TranslateTable(dict):
    """A ``str.translate`` table that maps each code point on first use.

    ``classify`` turns a one-character string into its replacement
    (``None`` deletes it); each code point is classified once and then
    read from the dict, so the table holds only code points seen.
    """

    def __init__(self, classify: Callable[[str], Optional[str]]) -> None:
        super().__init__()
        self._classify = classify

    def __missing__(self, code: int) -> Optional[str]:
        replacement = self[code] = self._classify(chr(code))
        return replacement


def _fold_char(char: str) -> Optional[str]:
    # The two substitutions of ``normalize_text`` for one lower-cased
    # character: ``str.isspace`` is the ``\s`` class of a ``str`` regex.
    if char.isspace() or char in "-_/.":
        return " "
    if "a" <= char <= "z" or "0" <= char <= "9":
        return char
    return None


_FOLD_TABLE = TranslateTable(_fold_char)


@functools.lru_cache(maxsize=8192)
def canonical_keyword(raw: str) -> str:
    """Fold a keyword or hashtag onto its canonical form.

    ``"#DPF_Delete"`` → ``"dpfdelete"``; ``"egr removal"`` → ``"egrremoval"``.
    The canonical form is the lower-cased concatenation with separators
    removed, which makes hashtag and free-text forms collide as intended.
    """
    lowered = raw.strip().lower().lstrip("#@")
    collapsed = _SEPARATORS.sub("", lowered)
    return _NON_ALNUM.sub("", collapsed.replace(" ", ""))


def normalize_text(text: str) -> str:
    """Normalize free post text for matching: lower-case, fold separators.

    Unlike :func:`canonical_keyword`, word boundaries are preserved as
    single spaces so that multi-word phrase matching still works.
    """
    lowered = text.strip().lower()
    spaced = _SEPARATORS.sub(" ", lowered)
    return _NON_ALNUM.sub("", spaced).strip()


def folded_words(text: str) -> List[str]:
    """``normalize_text(text).split()``, in one translate pass.

    Lower-casing first and then mapping every character on its own
    (whitespace and ``-_/.`` to a space, ``[a-z0-9]`` kept, the rest
    deleted) yields the normalized text up to runs of spaces, which
    ``split`` drops.  :func:`normalize_text` itself stays: the
    authenticity filter fingerprints its exact string.
    """
    return text.lower().translate(_FOLD_TABLE).split()


_SUFFIXES = ("ing", "ers", "ies", "ed", "er", "es", "s")


@functools.lru_cache(maxsize=65536)
def stem(word: str) -> str:
    """Light suffix stemmer for keyword variants.

    Handles the inflections observed in tuning-scene posts ("deleting",
    "deletes", "tuners") without the complexity of a full Porter stemmer.
    Words of four characters or fewer are returned untouched.

    Both :func:`stem` and :func:`canonical_keyword` are pure and called
    millions of times over a small distinct-input set (post vocabulary,
    keyword database), so they are memoized with
    :func:`functools.lru_cache`; the bounds cap memory on adversarial
    vocabularies while keeping real workloads entirely cached.
    """
    lowered = word.lower()
    if len(lowered) <= 4:
        return lowered
    for suffix in _SUFFIXES:
        if lowered.endswith(suffix) and len(lowered) - len(suffix) >= 3:
            stemmed = lowered[: -len(suffix)]
            if suffix == "ies":
                return stemmed + "y"
            return stemmed
    # Final-e stripping makes "delete" collide with "deleting"/"deletes".
    if lowered.endswith("e") and len(lowered) - 1 >= 4:
        return lowered[:-1]
    return lowered


def stem_all(tokens: Iterable[str]) -> List[str]:
    """Stem every token in ``tokens`` (order preserved)."""
    return [stem(t) for t in tokens]


def keyword_in_text(keyword: str, text: str) -> bool:
    """Whether ``keyword`` occurs in ``text`` under canonical folding.

    Matches both hashtag-style occurrences (``#dpfdelete``) and free-text
    phrase occurrences ("my dpf delete kit") by comparing canonical forms
    over a sliding window of words.
    """
    target = canonical_keyword(keyword)
    if not target:
        return False
    normalized = normalize_text(text)
    if target in normalized.replace(" ", ""):
        return True
    word_list = normalized.split()
    stemmed = stem_all(word_list)
    joined = "".join(stemmed)
    return target in joined
