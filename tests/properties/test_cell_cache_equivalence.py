"""Property tests: year-cell caching equals the uncached client.

:class:`~repro.core.cache.CachedClient` serves bounded windows that start
on Jan 1 from grow-only per-(keyword, year) cells: a cell filled short of
the date a window needs fetches only the missing days, an older window
slices its cell, and cells memoise their SAI evidence per analyzer.
These tests drive random window sequences — growing, older, mid-year,
unbounded and limited — through a cached two-platform, two-region client
under tight cache bounds and random invalidations, and require:

* ``search`` and ``search_many`` to return exactly the inner client's
  posts;
* every non-None ``window_signals`` to equal
  :func:`~repro.core.sai._gather_signals` over the inner client's posts,
  bit for bit (the post scan is the oracle);
* a ``window_signals`` probe without ``fill`` to fetch nothing and count
  no lookup, and to answer once a fill has cached every cell it needs.
"""

import datetime as dt
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CachedClient, TTLCache
from repro.core.sai import _gather_signals
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social.api import BatchQuery, InMemoryClient, SearchQuery
from repro.social.corpus import Corpus
from repro.social.multiplatform import MultiPlatformClient, PlatformSource
from repro.social.post import Engagement, Post

KEYWORDS = ("dpfdelete", "egroff", "chiptuning")
REGIONS = ("europe", "asia")
WORDS = (
    "great", "terrible", "love", "scam", "works", "fined", "easy",
    "regret", "power", "the", "my", "truck", "today",
)
YEARS = (2019, 2020, 2021)
FIRST = dt.date(2019, 1, 1)
LAST = dt.date(2021, 12, 31)
#: Dates the cells must split cleanly at: year edges and a leap day.
EDGES = (
    dt.date(2019, 1, 1), dt.date(2019, 12, 31), dt.date(2020, 1, 1),
    dt.date(2020, 2, 29), dt.date(2020, 12, 31), dt.date(2021, 1, 1),
)


def _platform_corpus(name: str, seed: int) -> Corpus:
    rng = random.Random(seed)
    days = (LAST - FIRST).days
    posts = []
    for number in range(160):
        created = (
            rng.choice(EDGES)
            if number % 8 == 0
            else FIRST + dt.timedelta(days=rng.randrange(days + 1))
        )
        words = [rng.choice(WORDS) for _ in range(rng.randrange(2, 6))]
        words.insert(rng.randrange(len(words) + 1), f"#{rng.choice(KEYWORDS)}")
        if rng.random() < 0.3:
            words.append(f"#{rng.choice(KEYWORDS)}")
        posts.append(
            Post(
                post_id=f"{name}{number:03d}",
                text=" ".join(words),
                author=f"user{rng.randrange(12)}",
                created_at=created,
                region=rng.choice(REGIONS),
                engagement=Engagement(
                    views=rng.randrange(5000),
                    likes=rng.randrange(300),
                    reposts=rng.randrange(80),
                    replies=rng.randrange(40),
                ),
            )
        )
    return Corpus(posts)


class _CountingClient(MultiPlatformClient):
    """The two-platform client, counting the calls that reach it."""

    calls = 0

    def search(self, query):
        self.calls += 1
        return super().search(query)

    def search_many(self, batch):
        self.calls += 1
        return super().search_many(batch)


def _inner() -> MultiPlatformClient:
    return _CountingClient(
        [
            PlatformSource("forum", InMemoryClient(_platform_corpus("f", 1))),
            PlatformSource(
                "video", InMemoryClient(_platform_corpus("v", 2)), trust=0.6
            ),
        ]
    )


INNER = _inner()
ANALYZERS = (
    SentimentAnalyzer(),
    SentimentAnalyzer({"truck": 0.9, "scam": -3.0}),
)

_dates = st.dates(min_value=FIRST, max_value=LAST)


@st.composite
def _windows(draw):
    """A (since, until) pair: Jan-1 starts dominate, the rest fall back."""
    since = draw(
        st.one_of(
            st.sampled_from((None,) + tuple(dt.date(y, 1, 1) for y in YEARS)),
            _dates,
        )
    )
    until = draw(st.one_of(st.none(), _dates, st.sampled_from(EDGES)))
    if since is not None and until is not None and until < since:
        since, until = until, since
        if (since.month, since.day) != (1, 1) and draw(st.booleans()):
            since = dt.date(since.year, 1, 1)
    return since, until


_keyword_sets = st.lists(
    st.sampled_from(KEYWORDS), min_size=1, max_size=3, unique=True
).map(tuple)

_steps = st.one_of(
    st.tuples(
        st.just("search"),
        _keyword_sets,
        _windows(),
        st.sampled_from((None,) + REGIONS),
        st.one_of(st.none(), st.integers(1, 4)),
    ),
    st.tuples(
        st.just("search_many"),
        _keyword_sets,
        _windows(),
        st.sampled_from((None,) + REGIONS),
        st.one_of(st.none(), st.integers(1, 4)),
    ),
    st.tuples(
        st.just("signals"),
        _keyword_sets,
        _windows(),
        st.sampled_from((None,) + REGIONS),
        st.sampled_from(range(len(ANALYZERS))),
    ),
    st.tuples(st.just("invalidate"), st.sampled_from(KEYWORDS)),
)


def _is_cell_window(since, until) -> bool:
    return (
        since is not None
        and until is not None
        and (since.month, since.day) == (1, 1)
    )


def _check_signals(cached, keywords, since, until, region, analyzer):
    window = (keywords, since, until, region)
    probes = {}
    for fill in (False, True, False):
        calls, lookups = INNER.calls, cached.stats.lookups
        probes[fill] = cached.window_signals(
            keywords, region=region, since=since, until=until,
            analyzer=analyzer, fill=fill,
        )
        if not fill:
            assert (INNER.calls, cached.stats.lookups) == (calls, lookups)
        _assert_exact(probes[fill], keywords, since, until, region, analyzer)
    assert (probes[True] is not None) == _is_cell_window(since, until), window
    return probes[False]


def _assert_exact(signals, keywords, since, until, region, analyzer):
    if signals is None:
        return
    window = (keywords, since, until, region)
    expected = INNER.search_many(
        BatchQuery(keywords=keywords, since=since, until=until, region=region)
    )
    for keyword in keywords:
        posts = expected.posts(keyword)
        if not posts:
            assert keyword not in signals, window
            continue
        engagement, mean = _gather_signals(posts, analyzer)
        got = signals[keyword]
        assert got.post_count == len(posts), window
        assert got.engagement == engagement, window
        assert got.mean_sentiment.hex() == mean.hex(), window


@settings(max_examples=40, deadline=None)
@given(
    max_entries=st.sampled_from((None, 1, 3)),
    steps=st.lists(_steps, min_size=1, max_size=25),
)
def test_cells_answer_like_the_inner_client(max_entries, steps):
    cached = CachedClient(INNER, cache=TTLCache(max_entries=max_entries))
    for step in steps:
        kind = step[0]
        if kind == "invalidate":
            cached.invalidate_keyword(step[1])
            continue
        _, keywords, (since, until), region, extra = step
        if kind == "search":
            query = SearchQuery(
                keyword=keywords[0], since=since, until=until, region=region,
                limit=extra,
            )
            assert cached.search(query) == INNER.search(query), step
        elif kind == "search_many":
            batch = BatchQuery(
                keywords=keywords, since=since, until=until, region=region,
                limit=extra,
            )
            assert (
                cached.search_many(batch).posts_by_keyword
                == INNER.search_many(batch).posts_by_keyword
            ), step
        else:
            # Both analyzers read the same cells, the drawn one first:
            # each must get its own memo.
            for analyzer in (ANALYZERS[extra], ANALYZERS[1 - extra]):
                held = _check_signals(
                    cached, keywords, since, until, region, analyzer
                )
                if max_entries is None and _is_cell_window(since, until):
                    assert held is not None, step
    if max_entries is not None:
        assert len(cached.cache) <= max_entries
