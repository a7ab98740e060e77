"""Social-media post data model.

The PSP framework consumes only a narrow slice of what a social platform
exposes: post text, hashtags, a timestamp, geographic region and the
engagement counters that feed the Social Attraction Index ("the number of
views, interactions, and popularity of the identified posts", paper §III).
:class:`Post` models exactly that slice, platform-agnostically.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Tuple

from repro.nlp.hashtags import extract_hashtags


def total_interactions(likes: int, reposts: int, replies: int) -> int:
    """Active interactions of engagement counters (likes + reposts + replies)."""
    return likes + reposts + replies


@dataclass(frozen=True)
class Engagement:
    """Engagement counters of one post."""

    views: int = 0
    likes: int = 0
    reposts: int = 0
    replies: int = 0

    def __post_init__(self) -> None:
        for name in ("views", "likes", "reposts", "replies"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def interactions(self) -> int:
        """Total active interactions (likes + reposts + replies)."""
        return total_interactions(self.likes, self.reposts, self.replies)

    def combined(self, other: "Engagement") -> "Engagement":
        """Element-wise sum of two engagement records."""
        return Engagement(
            views=self.views + other.views,
            likes=self.likes + other.likes,
            reposts=self.reposts + other.reposts,
            replies=self.replies + other.replies,
        )


@dataclass(frozen=True)
class Post:
    """One social-media post.

    Attributes:
        post_id: platform-unique identifier.
        text: full post text (hashtags inline).
        author: author handle.
        created_at: posting date (date precision is enough for PSP's
            time-window analysis).
        region: coarse geographic region, e.g. ``"europe"``.
        engagement: view/interaction counters.
    """

    post_id: str
    text: str
    author: str
    created_at: dt.date
    region: str = "europe"
    engagement: Engagement = field(default_factory=Engagement)

    def __post_init__(self) -> None:
        if not self.post_id:
            raise ValueError("post_id must be non-empty")
        if not self.text:
            raise ValueError("post text must be non-empty")

    @property
    def hashtags(self) -> Tuple[str, ...]:
        """Canonical hashtags appearing in the post text."""
        return tuple(extract_hashtags(self.text))

    @property
    def year(self) -> int:
        """Posting year, used by time-window filters."""
        return self.created_at.year
