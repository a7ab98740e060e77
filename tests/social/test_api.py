"""Tests for the social client interface."""

import datetime as dt

import pytest

from repro.nlp.normalize import keyword_in_text
from repro.social.api import InMemoryClient, SearchQuery, search_texts
from repro.social.corpus import Corpus
from repro.social.post import Post
from repro.stream.deltas import compute_signal_delta


def post(pid, text, year, region="europe") -> Post:
    return Post(
        post_id=pid, text=text, author="u",
        created_at=dt.date(year, 3, 1), region=region,
    )


@pytest.fixture()
def client() -> InMemoryClient:
    return InMemoryClient(
        Corpus(
            [
                post("p1", "#dpfdelete 2019", 2019),
                post("p2", "#dpfdelete 2021", 2021),
                post("p3", "#dpfdelete 2022", 2022),
                post("p4", "#dpfdelete US", 2022, region="north_america"),
                post("p5", "#egroff", 2022),
            ]
        )
    )


class TestSearchQuery:
    def test_requires_keyword(self):
        with pytest.raises(ValueError):
            SearchQuery(keyword="")

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="empty window"):
            SearchQuery(
                keyword="x",
                since=dt.date(2023, 1, 1),
                until=dt.date(2022, 1, 1),
            )

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            SearchQuery(keyword="x", limit=0)


class TestSearch:
    def test_keyword_filter(self, client):
        posts = client.search(SearchQuery(keyword="dpfdelete"))
        assert len(posts) == 4

    def test_time_filter(self, client):
        posts = client.search(
            SearchQuery(keyword="dpfdelete", since=dt.date(2022, 1, 1))
        )
        assert {p.post_id for p in posts} == {"p3", "p4"}

    def test_region_filter(self, client):
        posts = client.search(
            SearchQuery(keyword="dpfdelete", region="europe")
        )
        assert {p.post_id for p in posts} == {"p1", "p2", "p3"}

    def test_limit(self, client):
        posts = client.search(SearchQuery(keyword="dpfdelete", limit=2))
        assert len(posts) == 2

    def test_oldest_first(self, client):
        posts = client.search(SearchQuery(keyword="dpfdelete"))
        dates = [p.created_at for p in posts]
        assert dates == sorted(dates)


class TestCounts:
    def test_count_by_year(self, client):
        counts = client.count_by_year(SearchQuery(keyword="dpfdelete"))
        assert counts == {2019: 1, 2021: 1, 2022: 2}

    def test_count_total(self, client):
        assert client.count(SearchQuery(keyword="dpfdelete")) == 4

    def test_count_ignores_limit(self, client):
        assert client.count(SearchQuery(keyword="dpfdelete", limit=1)) == 4


class TestEmptyCanonical:
    def test_empty_folding_keyword_matches_no_empty_folding_hashtag(self):
        # "!!!" and "#_" both fold to the empty canonical; batch search
        # must agree with keyword_in_text and the stream kernels, which
        # never match an empty canonical.
        tagged = post("p1", "stage 2 tune #_ done", 2020)
        query = SearchQuery(keyword="!!!")
        client = InMemoryClient(Corpus([tagged]))
        assert not keyword_in_text("!!!", tagged.text)
        assert client.search(query) == []
        assert client.count_by_year(query) == {}
        assert compute_signal_delta(("",), [tagged]).dirty == ()


class TestHelpers:
    def test_search_texts(self, client):
        texts = search_texts(client, SearchQuery(keyword="egroff"))
        assert texts == ["#egroff"]

    def test_corpus_accessor(self, client):
        assert len(client.corpus) == 5
