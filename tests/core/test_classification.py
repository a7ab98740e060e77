"""Tests for insider/outsider classification."""

import datetime as dt

import pytest

from repro.core.classification import (
    InsiderOutsiderClassifier,
    InsiderOutsiderSplit,
    _text_votes,
)
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.sai import SAIComputer, SAIEntry
from repro.iso21434.enums import AttackVector
from repro.social.api import InMemoryClient
from repro.social.corpus import Corpus
from repro.social.post import Engagement, Post


def entry(keyword, owner_approved=None, probability=0.5, posts=1) -> SAIEntry:
    return SAIEntry(
        keyword=keyword, vector=AttackVector.PHYSICAL,
        owner_approved=owner_approved, score=1.0, probability=probability,
        post_count=posts, engagement=Engagement(views=10), mean_sentiment=0.0,
    )


def post(pid, text) -> Post:
    return Post(
        post_id=pid, text=text, author="u", created_at=dt.date(2022, 1, 1),
        engagement=Engagement(views=10),
    )


class TestAnnotationPath:
    def test_annotation_wins(self):
        classifier = InsiderOutsiderClassifier()
        classified = classifier.classify_entry(entry("x", owner_approved=True))
        assert classified.insider
        assert classified.from_annotation

    def test_annotation_false_is_outsider(self):
        classifier = InsiderOutsiderClassifier()
        classified = classifier.classify_entry(entry("x", owner_approved=False))
        assert not classified.insider


class TestTextSignalPath:
    def test_owner_voice_classifies_insider(self):
        corpus = Corpus(
            [
                post("p1", "got my #mystery done, worth every cent #mystery"),
                post("p2", "my mechanic installed the #mystery kit"),
            ]
        )
        classifier = InsiderOutsiderClassifier(InMemoryClient(corpus))
        classified = classifier.classify_entry(entry("mystery", posts=2))
        assert classified.insider
        assert not classified.from_annotation
        assert classified.insider_votes > classified.outsider_votes

    def test_crime_voice_classifies_outsider(self):
        corpus = Corpus(
            [
                post("p1", "thieves used #mystery to steal a van, police alerted"),
                post("p2", "another theft with #mystery, gang arrested"),
            ]
        )
        classifier = InsiderOutsiderClassifier(InMemoryClient(corpus))
        classified = classifier.classify_entry(entry("mystery", posts=2))
        assert not classified.insider

    def test_no_evidence_defaults_outsider(self):
        classifier = InsiderOutsiderClassifier()
        classified = classifier.classify_entry(entry("mystery"))
        assert not classified.insider  # conservative default

    def test_text_votes_count_each_voice_once_per_text(self):
        texts = [
            "My mechanic did it",  # insider, three markers
            "POLICE: thieves-gang arrested",  # outsider
            "got_it, then the police came",  # both voices
            "finally SAVED the van",  # insider
            "nothing to see",  # neither
        ]
        assert _text_votes(texts) == (3, 2)


class TestSplit:
    def _split(self, ecm_client) -> InsiderOutsiderSplit:
        db = KeywordDatabase(
            [
                AttackKeyword(keyword="ecmreprogramming",
                              vector=AttackVector.PHYSICAL, owner_approved=True),
                AttackKeyword(keyword="relayattack",
                              vector=AttackVector.ADJACENT, owner_approved=False),
            ]
        )
        sai = SAIComputer(ecm_client).compute(db)
        return InsiderOutsiderClassifier(ecm_client).split(sai)

    def test_partition(self, ecm_client):
        split = self._split(ecm_client)
        keywords = split.all_keywords()
        assert sorted(keywords) == ["ecmreprogramming", "relayattack"]
        assert len(split.insider) + len(split.outsider) == 2

    def test_classes_correct(self, ecm_client):
        split = self._split(ecm_client)
        assert [c.entry.keyword for c in split.insider] == ["ecmreprogramming"]
        assert [c.entry.keyword for c in split.outsider] == ["relayattack"]

    def test_probability_mass(self, ecm_client):
        split = self._split(ecm_client)
        total = split.insider_probability_mass + sum(
            e.probability for e in split.outsider_entries
        )
        assert total == pytest.approx(1.0)

    def test_unannotated_outsider_topic_split_by_text(self, ecm_client):
        # relayattack posts use crime voice; without annotation the text
        # classifier must still put it in the outsider class.
        db = KeywordDatabase([AttackKeyword(keyword="relayattack")])
        sai = SAIComputer(ecm_client).compute(db)
        split = InsiderOutsiderClassifier(ecm_client).split(sai)
        assert [c.entry.keyword for c in split.outsider] == ["relayattack"]

    def test_unannotated_insider_topic_split_by_text(self, ecm_client):
        db = KeywordDatabase([AttackKeyword(keyword="obdtuning")])
        sai = SAIComputer(ecm_client).compute(db)
        split = InsiderOutsiderClassifier(ecm_client).split(sai)
        assert [c.entry.keyword for c in split.insider] == ["obdtuning"]
