"""Tests for the post corpus and its query surface."""

import datetime as dt

import pytest

from repro.social.corpus import Corpus
from repro.social.post import Engagement, Post


def post(pid, text, year=2022, region="europe", views=100) -> Post:
    return Post(
        post_id=pid,
        text=text,
        author="u",
        created_at=dt.date(year, 6, 15),
        region=region,
        engagement=Engagement(views=views, likes=views // 10),
    )


@pytest.fixture()
def corpus() -> Corpus:
    return Corpus(
        [
            post("p1", "did my #dpfdelete", year=2019),
            post("p2", "another dpf delete story", year=2021),
            post("p3", "#egroff went fine", year=2022),
            post("p4", "#dpfdelete in the US", year=2022, region="north_america"),
            post("p5", "nothing relevant", year=2022),
        ]
    )


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Corpus([post("p1", "a"), post("p1", "b")])

    def test_len_iter_contains(self, corpus):
        assert len(corpus) == 5
        assert "p1" in corpus
        assert "nope" not in corpus
        assert len(list(corpus)) == 5


class TestMatching:
    def test_hashtag_match(self, corpus):
        ids = [p.post_id for p in corpus.matching("dpfdelete")]
        assert "p1" in ids and "p4" in ids

    def test_free_text_match(self, corpus):
        ids = [p.post_id for p in corpus.matching("dpfdelete")]
        assert "p2" in ids  # "dpf delete" free text folds onto the keyword

    def test_no_match(self, corpus):
        assert corpus.matching("adbluedelete") == []

    def test_results_sorted_by_date(self, corpus):
        matches = corpus.matching("dpfdelete")
        dates = [p.created_at for p in matches]
        assert dates == sorted(dates)

    def test_total_engagement(self, corpus):
        total = corpus.total_engagement("egroff")
        assert total.views == 100


class TestFilters:
    def test_window(self, corpus):
        recent = corpus.in_window(since=dt.date(2022, 1, 1))
        assert len(recent) == 3

    def test_window_both_bounds(self, corpus):
        mid = corpus.in_window(
            since=dt.date(2020, 1, 1), until=dt.date(2021, 12, 31)
        )
        assert [p.post_id for p in mid] == ["p2"]

    def test_since_year(self, corpus):
        assert len(corpus.since_year(2022)) == 3

    def test_region_case_insensitive(self, corpus):
        assert len(corpus.in_region("Europe")) == 4
        assert len(corpus.in_region("north_america")) == 1

    def test_years(self, corpus):
        assert corpus.years() == [2019, 2021, 2022]

    def test_merged(self, corpus):
        extra = Corpus([post("p9", "extra")])
        assert len(corpus.merged_with(extra)) == 6

    def test_merged_rejects_id_collision(self, corpus):
        extra = Corpus([post("p1", "collision")])
        with pytest.raises(ValueError):
            corpus.merged_with(extra)

    def test_texts(self, corpus):
        assert len(corpus.texts()) == 5


class TestContains:
    def test_membership_uses_id_set(self, corpus):
        # __contains__ answers from the id set built at construction —
        # no linear scan of the posts.
        assert "p3" in corpus
        assert "p9" not in corpus
        assert corpus._ids == {"p1", "p2", "p3", "p4", "p5"}

    def test_merged_corpus_contains_both_sides(self, corpus):
        merged = corpus.merged_with(Corpus([post("p9", "extra")]))
        assert "p9" in merged and "p1" in merged


class TestIndexedEngine:
    def test_index_built_once_and_reused(self, corpus):
        engine = corpus.index()
        corpus.matching("dpfdelete")
        corpus.search_many(("dpfdelete", "egroff"))
        assert corpus.index() is engine

    def test_search_many_equals_per_keyword_matching(self, corpus):
        keywords = ("dpfdelete", "egroff", "nothing", "missingkw")
        batch = corpus.search_many(keywords)
        for keyword in keywords:
            assert [p.post_id for p in batch[keyword]] == [
                p.post_id for p in corpus.matching(keyword)
            ]

    def test_search_many_window_is_bisected_slice(self, corpus):
        batch = corpus.search_many(
            ("dpfdelete",),
            since=dt.date(2021, 1, 1),
            until=dt.date(2021, 12, 31),
        )
        assert [p.post_id for p in batch["dpfdelete"]] == ["p2"]

    def test_search_many_limit(self, corpus):
        batch = corpus.search_many(("dpfdelete",), limit=2)
        assert [p.post_id for p in batch["dpfdelete"]] == ["p1", "p2"]

    def test_region_view_memoized_case_insensitively(self, corpus):
        view = corpus.region_view("Europe")
        assert corpus.region_view("  EUROPE ") is view
        assert len(view) == 4
        assert [p.post_id for p in view.matching("dpfdelete")] == ["p1", "p2"]

    def test_results_are_the_corpus_own_posts_in_date_order(self, corpus):
        # Inserted newest first, so date order is not insertion order.
        newest_first = list(reversed(corpus.posts))
        own = {p.post_id: p for p in newest_first}

        def assert_own(results, ids):
            assert [p.post_id for p in results] == ids
            assert all(p is own[p.post_id] for p in results)

        unindexed = Corpus(newest_first)
        view_before_index = unindexed.region_view("europe")
        assert_own(view_before_index.matching("dpfdelete"), ["p1", "p2"])

        shuffled = Corpus(newest_first)
        assert_own(shuffled.index().posts, ["p1", "p2", "p3", "p4", "p5"])
        assert_own(shuffled.matching("dpfdelete"), ["p1", "p2", "p4"])
        batch = shuffled.search_many(
            ("dpfdelete", "egroff"), since=dt.date(2021, 1, 1)
        )
        assert_own(batch["dpfdelete"], ["p2", "p4"])
        assert_own(batch["egroff"], ["p3"])
        view = shuffled.region_view("europe")
        assert_own(view.search_many(("dpfdelete",))["dpfdelete"], ["p1", "p2"])
        assert_own(view.index().posts, ["p1", "p2", "p3", "p5"])
