"""Multi-platform aggregation (paper §IV future work).

The paper's roadmap: "we plan to expand the support of our framework to
other social media platforms like Instagram", and "a feature allowing us
to access the deep web level to improve outsider attack analysis".

:class:`MultiPlatformClient` aggregates any number of named
:class:`~repro.social.api.SocialMediaClient` instances behind the single
client interface the PSP pipeline consumes, so adding a platform is one
constructor argument, not a pipeline change.  Per-platform *trust
weights* scale the engagement signals (a deep-web forum hit counts
differently than a mainstream post) without touching post volume — a
post is a post, but bought-reach platforms should not dominate the view
signal.

Post ids are namespaced with the platform name so ids never collide
across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.social.api import BatchQuery, BatchResult, SearchQuery, SocialMediaClient
from repro.social.post import Engagement, Post


@dataclass(frozen=True)
class PlatformSource:
    """One platform feeding the aggregator.

    Attributes:
        name: platform label, e.g. ``"twitter"``, ``"instagram"``,
            ``"deepweb"``; used to namespace post ids.
        client: the platform's client.
        trust: engagement scale factor in (0, 1]; 1.0 = full trust.
    """

    name: str
    client: SocialMediaClient
    trust: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("platform name must be non-empty")
        if not 0.0 < self.trust <= 1.0:
            raise ValueError(f"trust must be in (0, 1], got {self.trust}")


def _scaled(engagement: Engagement, trust: float) -> Engagement:
    """Scale engagement counters by the platform trust weight."""
    if trust == 1.0:
        return engagement
    return Engagement(
        views=int(engagement.views * trust),
        likes=int(engagement.likes * trust),
        reposts=int(engagement.reposts * trust),
        replies=int(engagement.replies * trust),
    )


def branded_post(source: PlatformSource, post: Post) -> Post:
    """One platform's post as the aggregator surfaces it.

    The post id is namespaced ``<platform>:<original id>`` and the
    engagement is scaled by the platform trust weight.  This is the
    single branding rule shared by :class:`MultiPlatformClient` searches
    and by offline corpus materialisation (the scenario registry builds
    merged corpora with exactly the posts a live aggregator would
    return).
    """
    return Post(
        post_id=f"{source.name}:{post.post_id}",
        text=post.text,
        author=post.author,
        created_at=post.created_at,
        region=post.region,
        engagement=_scaled(post.engagement, source.trust),
    )


class MultiPlatformClient(SocialMediaClient):
    """Aggregates several platform clients behind one search surface."""

    def __init__(self, sources: List[PlatformSource]) -> None:
        if not sources:
            raise ValueError("need at least one platform source")
        names = [s.name for s in sources]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate platform names: {names}")
        self._sources = list(sources)

    @property
    def platforms(self) -> Tuple[str, ...]:
        """Names of the aggregated platforms."""
        return tuple(s.name for s in self._sources)

    def search(self, query: SearchQuery) -> List[Post]:
        """Search every platform and merge, oldest first.

        Post ids are rewritten to ``<platform>:<original id>`` and the
        engagement is trust-scaled; everything else passes through.
        """
        merged: List[Post] = []
        for source in self._sources:
            for post in source.client.search(query):
                merged.append(branded_post(source, post))
        merged.sort(key=lambda p: (p.created_at, p.post_id))
        return merged

    def search_many(self, batch: BatchQuery) -> BatchResult:
        """Fan one batch out per platform and merge per keyword.

        Each platform client receives a single :meth:`search_many` call
        (so platform-side batching — shared corpus scopes, bulk
        endpoints, caches — is preserved across the fan-out), and the
        per-keyword merge applies the same id-namespacing and
        trust-scaling as :meth:`search`.  Because post ids are
        platform-namespaced, :meth:`~repro.social.api.BatchResult.unique_posts`
        deduplication works across the whole fleet of platforms.
        """
        per_platform = [
            (source, source.client.search_many(batch)) for source in self._sources
        ]
        merged: Dict[str, List[Post]] = {}
        for keyword in batch.keywords:
            posts: List[Post] = []
            for source, result in per_platform:
                posts.extend(branded_post(source, p) for p in result.posts(keyword))
            posts.sort(key=lambda p: (p.created_at, p.post_id))
            merged[keyword] = posts
        return BatchResult(
            posts_by_keyword={k: tuple(v) for k, v in merged.items()}
        )

    def count_by_year(self, query: SearchQuery) -> Dict[int, int]:
        """Summed per-year counts across all platforms."""
        totals: Dict[int, int] = {}
        for source in self._sources:
            for year, count in source.client.count_by_year(query).items():
                totals[year] = totals.get(year, 0) + count
        return totals

    def count_by_platform(self, query: SearchQuery) -> Dict[str, int]:
        """Matching-post counts broken down by platform."""
        return {
            source.name: source.client.count(query) for source in self._sources
        }

    def source(self, name: str) -> PlatformSource:
        """Look up one platform source by name."""
        for candidate in self._sources:
            if candidate.name == name:
                return candidate
        raise KeyError(f"unknown platform {name!r}")
