"""Insider/outsider classification of SAI entries (paper Fig. 7, blocks 8-9).

The paper defines *insider* attacks as "all attacks that the owner is
aware of and approves, even if the attack comes from third parties (e.g.,
an untrusted service, a racing workshop)", and *outsider* attacks as those
"conducted by a third party only, where the owner is oblivious (e.g.,
criminal attacks, thefts, black hat attacks)".

Classification strategy, in priority order:

1. **Database annotation** — when the keyword entry carries an
   ``owner_approved`` flag, use it (the product security team knows its
   attacks).
2. **Text signals** — otherwise scan the matched posts: owner-voice
   markers ("my", "got", "installed", "worth it") vote insider;
   crime-voice markers ("stolen", "thieves", "police", "arrested") vote
   outsider.  Ties and empty evidence default to **outsider**, the
   conservative choice: outsider entries keep the standard's weights, so
   a mis-default can never inflate a rating.  The marker sets live in
   :mod:`repro.nlp.analysis`, which records each text's two voice bits
   once per analysis.

The result is a partition: every entry lands in exactly one class
(property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.sai import SAIEntry, SAIList
from repro.nlp.analysis import analyze_text
from repro.social.api import SearchQuery, SocialMediaClient


@dataclass(frozen=True)
class ClassifiedEntry:
    """A SAI entry with its insider/outsider verdict and evidence."""

    entry: SAIEntry
    insider: bool
    from_annotation: bool
    insider_votes: int
    outsider_votes: int


@dataclass(frozen=True)
class InsiderOutsiderSplit:
    """The partition of a SAI list into insider and outsider entries."""

    insider: Tuple[ClassifiedEntry, ...]
    outsider: Tuple[ClassifiedEntry, ...]

    @property
    def insider_entries(self) -> Tuple[SAIEntry, ...]:
        """The raw SAI entries classified insider."""
        return tuple(c.entry for c in self.insider)

    @property
    def outsider_entries(self) -> Tuple[SAIEntry, ...]:
        """The raw SAI entries classified outsider."""
        return tuple(c.entry for c in self.outsider)

    @property
    def insider_probability_mass(self) -> float:
        """Total SAI probability mass held by insider entries."""
        return sum(e.probability for e in self.insider_entries)

    def all_keywords(self) -> Tuple[str, ...]:
        """Keywords of both classes (insider first), for partition checks."""
        return tuple(c.entry.keyword for c in self.insider + self.outsider)


def _text_votes(texts: Sequence[str]) -> Tuple[int, int]:
    """Count insider vs outsider marker votes over post texts.

    Reads the voice bits the shared
    :func:`~repro.nlp.analysis.analyze_text` sidecar computed once per
    text instead of re-normalizing each text.
    """
    insider_votes = 0
    outsider_votes = 0
    for text in texts:
        analysis = analyze_text(text)
        insider_votes += analysis.insider_voice
        outsider_votes += analysis.outsider_voice
    return insider_votes, outsider_votes


class InsiderOutsiderClassifier:
    """Classifies SAI entries using annotations, then text signals."""

    def __init__(self, client: Optional[SocialMediaClient] = None) -> None:
        self._client = client

    def classify_entry(self, entry: SAIEntry) -> ClassifiedEntry:
        """Classify one entry."""
        if entry.owner_approved is not None:
            return ClassifiedEntry(
                entry=entry,
                insider=entry.owner_approved,
                from_annotation=True,
                insider_votes=0,
                outsider_votes=0,
            )
        texts: Sequence[str] = ()
        if self._client is not None and entry.post_count > 0:
            posts = self._client.search(SearchQuery(keyword=entry.keyword))
            texts = [p.text for p in posts]
        insider_votes, outsider_votes = _text_votes(texts)
        return ClassifiedEntry(
            entry=entry,
            insider=insider_votes > outsider_votes,
            from_annotation=False,
            insider_votes=insider_votes,
            outsider_votes=outsider_votes,
        )

    def split(self, sai: SAIList) -> InsiderOutsiderSplit:
        """Partition a full SAI list."""
        insider = []
        outsider = []
        for entry in sai:
            classified = self.classify_entry(entry)
            if classified.insider:
                insider.append(classified)
            else:
                outsider.append(classified)
        return InsiderOutsiderSplit(
            insider=tuple(insider), outsider=tuple(outsider)
        )
