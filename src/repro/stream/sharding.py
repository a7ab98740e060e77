"""Feed sharding: N feeds, one evaluation.

Platform-scale monitoring wants N region- or platform-sharded feeds.
The runtime (:class:`~repro.stream.runtime.ShardedStreamRuntime`,
re-exported here) gives each shard its own index and reduces each
shard's micro-batch to an additive
:class:`~repro.stream.deltas.SignalDelta`; every delta is applied once
to the runtime's one tracker, which feeds one shared evaluation per
tick, so the retune and rescore cost stops scaling with the number of
feeds.  The keyword×year buckets and voice votes are additive, so
shard deltas applied in either order equal one unsharded tracker
(integers exactly, sentiment up to float association; property-tested
in ``tests/properties/test_shard_merge_equivalence.py``).  This module
holds the routing helpers, :func:`partition_posts` and
:func:`shard_feeds`: deterministic, disjoint routing of one post
collection into N replayable feeds.

Alerts are identical to a single-feed run over the union of the shards'
posts (``benchmarks/bench_shard.py`` gates it).
"""

from __future__ import annotations

import zlib
from typing import Callable, Hashable, Iterable, List, Optional, Tuple

from repro.social.post import Post
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import ShardedStreamRuntime

__all__ = [
    "ShardedStreamRuntime",
    "partition_posts",
    "shard_feeds",
]


# -- feed sharding helpers ----------------------------------------------------


def _stable_bucket(value: Hashable, shards: int) -> int:
    """A deterministic shard slot for one routing key (crc32-based).

    ``hash()`` is process-salted for strings, so it cannot route posts —
    two runs of the same monitor would shard the same feed differently.
    """
    return zlib.crc32(str(value).encode("utf-8")) % shards


def partition_posts(
    posts: Iterable[Post],
    shards: int,
    *,
    key: Optional[Callable[[Post], Hashable]] = None,
) -> List[List[Post]]:
    """Split posts into ``shards`` deterministic, disjoint partitions.

    Args:
        posts: the posts to route.
        shards: how many partitions to produce (>= 1).
        key: routing key per post — e.g. ``lambda p: p.region`` for
            region sharding or a platform label for platform sharding.
            Defaults to the post id, which spreads volume evenly.

    Within each partition the posts keep their input order, so feeding
    the partitions through :class:`SyntheticFeed` preserves per-shard
    timestamp ordering.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    route = key or (lambda post: post.post_id)
    partitions: List[List[Post]] = [[] for _ in range(shards)]
    for post in posts:
        partitions[_stable_bucket(route(post), shards)].append(post)
    return partitions


def shard_feeds(
    posts: Iterable[Post],
    shards: int,
    *,
    key: Optional[Callable[[Post], Hashable]] = None,
) -> Tuple[SyntheticFeed, ...]:
    """``shards`` replayable feeds over one post collection.

    The convenience constructor for synthetic/sharded deployments: the
    union of the returned feeds is exactly ``posts``, partitioned by
    :func:`partition_posts`.
    """
    return tuple(
        SyntheticFeed(partition)
        for partition in partition_posts(posts, shards, key=key)
    )

