"""Property tests: shard deltas on one tracker == unsharded tracking.

The contracts behind :class:`repro.stream.sharding.ShardedStreamRuntime`:

* :func:`repro.stream.deltas.compute_signal_delta` (the arena-sweep
  batch kernel) folds to exactly the same aggregates as observing the
  posts one by one;
* :meth:`SignalDelta.merge` is commutative and associative — integer
  fields exactly, the float sentiment sum up to summation order;
* every shard's per-tick deltas applied to one :class:`DeltaTracker`,
  in either shard order, equal one unsharded tracker fed the
  concatenated feed, for *any* partition of the posts — including
  partitions that scatter timestamps out of order across shards (year
  buckets are keyed by date, not arrival order).
"""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.iso21434.enums import AttackVector
from repro.social.columnar import ColumnarCorpus
from repro.social.post import Engagement, Post
from repro.stream.deltas import (
    DeltaTracker,
    SignalDelta,
    compute_signal_delta,
    compute_signal_delta_columnar,
)

#: Vocabulary with insider/outsider voice markers, stem collisions and
#: phrase halves, so matching, voting and sentiment all get exercised.
WORDS = (
    "dpf", "delete", "deleting", "egr", "removal", "kit", "install",
    "my", "the", "mechanic", "dealer", "stolen", "warranty", "love",
    "hate", "#dpfdelete", "#egr_removal", "superdpfdeletekit",
    # Voice markers in mixed case and glued by separators.
    "My", "POLICE", "thieves-gang", "got_it",
)

KEYWORDS = ("dpfdelete", "egrremoval", "delet", "kit", "nomatchxyz")

REGIONS = ("europe", "americas")


def _database():
    database = KeywordDatabase()
    for keyword in KEYWORDS:
        database.add(
            AttackKeyword(keyword=keyword, vector=AttackVector.LOCAL)
        )
    return database


@st.composite
def _posts(draw, min_size=0, max_size=40):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    posts = []
    for index in range(count):
        words = draw(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=8)
        )
        posts.append(
            Post(
                post_id=f"p{index:03d}",
                text=" ".join(words),
                author=draw(st.sampled_from(("a", "b", "c"))),
                created_at=dt.date(
                    draw(st.integers(min_value=2015, max_value=2023)),
                    draw(st.integers(min_value=1, max_value=12)),
                    draw(st.integers(min_value=1, max_value=28)),
                ),
                region=draw(st.sampled_from(REGIONS)),
                engagement=Engagement(
                    views=draw(st.integers(min_value=0, max_value=500)),
                    likes=draw(st.integers(min_value=0, max_value=50)),
                    reposts=draw(st.integers(min_value=0, max_value=20)),
                    replies=draw(st.integers(min_value=0, max_value=20)),
                ),
            )
        )
    return posts


@st.composite
def _sharded_posts(draw):
    """Posts plus a random shard assignment (timestamps land anywhere)."""
    posts = draw(_posts(min_size=1))
    shards = draw(st.integers(min_value=1, max_value=4))
    assignment = [
        draw(st.integers(min_value=0, max_value=shards - 1)) for _ in posts
    ]
    partitions = [[] for _ in range(shards)]
    for post, shard in zip(posts, assignment):
        partitions[shard].append(post)
    return posts, partitions


def _assert_states_equal(left, right):
    """Tracker states equal: ints exactly, sentiment sums approximately."""
    assert left["votes"] == right["votes"]
    assert left["observed"] == right["observed"]
    assert set(left["buckets"]) == set(right["buckets"])
    for keyword, years in left["buckets"].items():
        other_years = right["buckets"][keyword]
        assert set(years) == set(other_years)
        for year, values in years.items():
            other = other_years[year]
            assert values[:5] == other[:5]
            assert values[5] == pytest.approx(other[5], abs=1e-9)


def _tracker(posts, region="europe"):
    tracker = DeltaTracker(_database(), region=region)
    tracker.observe_batch(posts)
    return tracker


@given(_posts())
@settings(max_examples=40, deadline=None)
def test_batch_kernel_equals_per_post_observe(posts):
    probe = DeltaTracker(_database(), region="europe")
    probe.observe_batch(posts)
    swept = DeltaTracker(_database(), region="europe")
    swept.ingest_batch(posts)
    # Bit-for-bit: the sweep folds post-major in keyword order, exactly
    # like the per-post probe loop, so even float sums agree.
    assert probe.state_dict() == swept.state_dict()


def _runtime_tracker(partitions):
    """The runtime's model: one tracker, each shard's delta per tick.

    Every shard's posts arrive over two ticks; each tick folds each
    shard batch with the runtime's kernel and applies the deltas to the
    one tracker in the order given.
    """
    tracker = DeltaTracker(_database(), region="europe")
    for tick in (0, 1):
        for part in partitions:
            half = len(part) // 2
            batch = part[:half] if tick == 0 else part[half:]
            if batch:
                tracker.apply_delta(
                    compute_signal_delta_columnar(
                        tracker.keywords,
                        ColumnarCorpus.from_posts(batch),
                        region=tracker.region,
                        analyzer=tracker.analyzer,
                    )
                )
    return tracker


@given(_sharded_posts())
@settings(max_examples=40, deadline=None)
def test_merged_shards_equal_unsharded_tracker(posts_and_partitions):
    posts, partitions = posts_and_partitions
    unsharded = _tracker(posts).state_dict()
    forward = _runtime_tracker(partitions).state_dict()
    backward = _runtime_tracker(list(reversed(partitions))).state_dict()
    _assert_states_equal(forward, unsharded)
    _assert_states_equal(backward, unsharded)
    assert forward["dirty"] == unsharded["dirty"]


@given(_sharded_posts())
@settings(max_examples=40, deadline=None)
def test_signal_delta_merge_commutes_and_associates(posts_and_partitions):
    _, partitions = posts_and_partitions
    deltas = [
        compute_signal_delta(KEYWORDS, part, region="europe")
        for part in partitions
    ]
    flat = SignalDelta.merge(deltas)
    reversed_merge = SignalDelta.merge(list(reversed(deltas)))
    nested = deltas[0]
    for delta in deltas[1:]:
        nested = SignalDelta.merge([nested, delta])

    for other in (reversed_merge, nested):
        assert other.votes == flat.votes
        assert other.dirty == flat.dirty
        assert other.observed == flat.observed
        assert set(other.buckets) == set(flat.buckets)
        for keyword, years in flat.buckets.items():
            for year, values in years.items():
                got = other.buckets[keyword][year]
                assert got[:5] == values[:5]
                assert got[5] == pytest.approx(values[5], abs=1e-9)


@given(_posts(min_size=1))
@settings(max_examples=20, deadline=None)
def test_out_of_order_arrival_within_a_shard_is_harmless(posts):
    in_order = _tracker(
        sorted(posts, key=lambda p: (p.created_at, p.post_id))
    )
    shuffled = _tracker(list(reversed(posts)))
    _assert_states_equal(in_order.state_dict(), shuffled.state_dict())
