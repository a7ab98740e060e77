"""Seeded post streams for the stream workloads, with their ground truth.

Each stream is a day-by-day sequence of posts.  Every post carries at
most one planted attack keyword, so the generator knows, without asking
the system under test, how many in-region posts mention each keyword in
each year: that tally is the ground truth the workload checks the
runtime's window counts against.  Only the generated ``Post`` objects
reach the system; the plan that produced them stays here.

Two shapes:

* ``TIERED`` draws texts from a small pool (a few thousand distinct
  strings), so the text-analysis memo serves almost every post and the
  index, delta and evaluator layers do the work.  Its keyword mix spans
  all four attack vectors, carries owner-voice and crime-voice markers,
  and drifts by year, so the insider table changes and alerts fire.
* ``SPILL`` gives every post a distinct text padded to 360 characters,
  so text analysis and columnar builds run on every post.  One keyword
  (``LATE_KEYWORD``) is planted from the first day but only added to the
  keyword database partway through the run.
"""

from __future__ import annotations

import datetime as dt
import random
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.social.post import Engagement, Post

START = dt.date(2019, 1, 1)
TARGET_REGION = "europe"
#: Three in five posts come from the target region; the rest are
#: outside the SAI region scope but still vote on classification.
REGIONS = ("europe", "europe", "europe", "america", "asia")

OWNER_TEMPLATES = (
    "finally got my {p} done, worth every cent",
    "installed the {p} on mine last weekend",
    "my mechanic did a {p} and I paid less than expected",
    "bought a {p} kit and would recommend it #{k}",
)
CRIME_TEMPLATES = (
    "police warning: thieves used {p} on parked vans",
    "gang arrested after a string of {p} thefts #{k}",
    "insurance investigators track {p} criminals",
    "van taken overnight, suspects relied on {p}",
)
NEUTRAL_TEMPLATES = (
    "anyone tried {p} on the newer models",
    "forum thread about {p} prices this year",
    "question about {p} and emissions rules #{k}",
)
CHATTER = (
    "routine telematics mileage log",
    "dealer service inspection note",
    "depot fuel consumption summary",
    "tyre rotation schedule reminder",
    "driver shift handover checklist",
    "winter coolant level audit",
    "trailer brake wear measurement",
)
#: Neutral padding for distinct texts: no voice markers, no keywords.
FILLER = (
    "field report logged for the audit trail with torque specs and "
    "harness pinouts attached for later review "
)


@dataclass(frozen=True)
class Topic:
    """One planted keyword and how its chatter evolves year by year.

    ``volume`` is the relative weight of the topic among keyword posts
    in each year; ``owner`` and ``crime`` are the shares of its posts in
    owner voice and crime voice (the rest are neutral).
    """

    keyword: str
    phrase: str
    vector: str
    owner_approved: Optional[bool]
    volume: Tuple[int, ...]
    owner: Tuple[float, ...]
    crime: Tuple[float, ...]


@dataclass(frozen=True)
class StreamShape:
    """The dimensions of one generated stream; each day is one tick."""

    name: str
    years: int
    posts_per_day: int
    keyword_share: float
    topics: Tuple[Topic, ...]
    pool_variants: int = 0
    text_chars: int = 0

    @property
    def days(self) -> int:
        end = dt.date(START.year + self.years, 1, 1)
        return (end - START).days


def _flat(value, years: int) -> Tuple:
    return (value,) * years


TIERED = StreamShape(
    name="tiered",
    years=5,
    # S10's cadence (one tick a day, 1,826 ticks) at 48 posts a day, not
    # S10's ~256: at 256 one iteration runs 40 s on a 2-vCPU VM, and a
    # run needs three iterations within its 30 s (perfbench/LEDGER.md).
    posts_per_day=48,
    keyword_share=0.6,
    pool_variants=160,
    topics=(
        Topic("dpfdelete", "dpf delete", "PHYSICAL", True,
              (40, 30, 18, 10, 6), _flat(0.6, 5), _flat(0.05, 5)),
        Topic("ecuremap", "ecu remap", "LOCAL", True,
              (6, 16, 30, 44, 56), _flat(0.6, 5), _flat(0.05, 5)),
        Topic("keyfobrelay", "key fob relay", "ADJACENT", None,
              (14, 14, 16, 18, 20), (0.1, 0.3, 0.5, 0.7, 0.8),
              (0.6, 0.4, 0.2, 0.1, 0.05)),
        Topic("canspoof", "can spoof", "NETWORK", None,
              (8, 10, 12, 16, 20), (0.05, 0.1, 0.4, 0.6, 0.8),
              (0.5, 0.4, 0.2, 0.1, 0.05)),
        Topic("obdclone", "obd clone", "LOCAL", None,
              (10, 12, 12, 12, 12), (0.7, 0.6, 0.3, 0.1, 0.05),
              (0.1, 0.2, 0.5, 0.7, 0.8)),
        Topic("gpsjammer", "gps jammer", "ADJACENT", False,
              _flat(12, 5), _flat(0.1, 5), _flat(0.6, 5)),
        Topic("immobypass", "immo bypass", "PHYSICAL", True,
              (12, 10, 8, 6, 4), _flat(0.5, 5), _flat(0.2, 5)),
        Topic("telematicsexploit", "telematics exploit", "NETWORK", True,
              (2, 4, 8, 14, 22), _flat(0.5, 5), _flat(0.1, 5)),
    ),
)

#: Planted from the first day, added to the database mid-run.
LATE_KEYWORD = "chiptuning"

SPILL = StreamShape(
    name="spill",
    years=3,
    posts_per_day=12,
    keyword_share=0.5,
    text_chars=360,
    topics=(
        Topic("dpfdelete", "dpf delete", "PHYSICAL", True,
              (30, 20, 10), _flat(0.6, 3), _flat(0.05, 3)),
        Topic("ecuremap", "ecu remap", "LOCAL", True,
              (10, 20, 30), _flat(0.6, 3), _flat(0.05, 3)),
        Topic("keyfobrelay", "key fob relay", "ADJACENT", None,
              (12, 14, 16), (0.2, 0.5, 0.8), (0.6, 0.3, 0.1)),
        Topic("canspoof", "can spoof", "NETWORK", None,
              (8, 10, 12), (0.1, 0.4, 0.7), (0.5, 0.3, 0.1)),
        Topic(LATE_KEYWORD, "chip tuning", "LOCAL", True,
              (6, 10, 14), _flat(0.6, 3), _flat(0.05, 3)),
    ),
)

@dataclass
class Planted:
    """One generated post and the keyword planted in it (None: chatter)."""

    post: Post
    keyword: Optional[str]


class StreamGenerator:
    """Yields one day of posts at a time and tallies the ground truth.

    The same ``(shape, seed)`` always yields the same posts.  ``truth``
    counts in-region posts per ``(keyword, year)`` over the days
    generated so far.
    """

    def __init__(self, shape: StreamShape, seed: int) -> None:
        self.shape = shape
        self.seed = seed
        self.truth: Counter = Counter()
        self.posts = 0
        self._rng = random.Random(f"{shape.name}:{seed}")
        self._day = 0

    def keywords(self) -> Tuple[str, ...]:
        return tuple(topic.keyword for topic in self.shape.topics)

    def _text(self, topic: Optional[Topic], year: int, serial: int) -> str:
        rng = self._rng
        shape = self.shape
        if topic is None:
            stem = rng.choice(CHATTER)
        else:
            roll = rng.random()
            if roll < topic.owner[year]:
                templates = OWNER_TEMPLATES
            elif roll < topic.owner[year] + topic.crime[year]:
                templates = CRIME_TEMPLATES
            else:
                templates = NEUTRAL_TEMPLATES
            stem = rng.choice(templates).format(p=topic.phrase, k=topic.keyword)
        if shape.text_chars:
            head = f"{stem} post{serial:07d} "
            need = max(0, shape.text_chars - len(head))
            return head + (FILLER * (need // len(FILLER) + 1))[:need]
        return f"{stem} ref{rng.randrange(shape.pool_variants):03d}"

    def next_day(self) -> Tuple[dt.date, List[Planted]]:
        """The next day's posts, oldest day first."""
        shape = self.shape
        rng = self._rng
        day = START + dt.timedelta(days=self._day)
        self._day += 1
        year = day.year - START.year
        weights = [topic.volume[year] for topic in shape.topics]
        out: List[Planted] = []
        for _ in range(shape.posts_per_day):
            serial = self.posts
            self.posts += 1
            topic = (
                rng.choices(shape.topics, weights)[0]
                if rng.random() < shape.keyword_share
                else None
            )
            region = rng.choice(REGIONS)
            post = Post(
                post_id=f"{shape.name[0]}{self.seed}x{serial:08d}",
                text=self._text(topic, year, serial),
                author=f"user{rng.randrange(997)}",
                created_at=day,
                region=region,
                engagement=Engagement(
                    views=rng.randrange(20, 4000),
                    likes=rng.randrange(0, 400),
                    reposts=rng.randrange(0, 60),
                    replies=rng.randrange(0, 30),
                ),
            )
            keyword = topic.keyword if topic is not None else None
            if keyword is not None and region == TARGET_REGION:
                self.truth[(keyword, day.year)] += 1
            out.append(Planted(post, keyword))
        return day, out


def tick_batches(planted: Sequence[Planted], shards: int, seqs: List[int]):
    """One day's posts as one tick of per-shard event batches.

    Posts go round robin to the shards; ``seqs`` holds each shard's next
    feed sequence number and advances.
    """
    from repro.stream.feed import PostEvent

    batches: List[List[object]] = [[] for _ in range(shards)]
    for position, item in enumerate(planted):
        shard = position % shards
        batches[shard].append(PostEvent(seq=seqs[shard], post=item.post))
        seqs[shard] += 1
    return batches

