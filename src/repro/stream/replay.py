"""Long-horizon scenario replay with batch-parity and resume audits.

The streaming runtimes (PR 4/5) claim three invariants the unit tests
only probe pointwise:

1. **Alert parity** — months of incremental ticks raise exactly the
   trend alerts a growing-window batch :class:`~repro.core.monitor.
   PSPMonitor` raises at the same boundaries;
2. **Checkpoint parity** — stopping mid-run, persisting (file base +
   cumulative delta chain for the single runtime, ``state_dict`` for the
   sharded one) and resuming yields the same remaining alerts and the
   same final table as the uninterrupted run;
3. **Bounded memory** — the appendable index's tail segment stays under
   its compaction policy no matter how long the replay runs.

This module drives any registered :class:`~repro.social.registry.
ScenarioSpec` through a month-by-month (or quarter/year) replay and
audits all three invariants in one pass, producing a
:class:`ReplayReport`.  Adversarial overlays are honoured: platform
outage windows delay arrivals (parity is asserted outside the outage
shadow and re-asserted at the catch-up boundary), and poisoning bursts
are audited by :func:`replay_poison_defence` — the default authenticity
filter must reject every injected post and leave the alert stream
untouched.

The harness is what the CLI's ``repro replay`` runs and what the
acceptance tests in ``tests/stream/test_replay.py`` assert over the
whole registry.
"""

from __future__ import annotations

import calendar
import datetime as dt
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import PSPConfig
from repro.core.timewindow import TimeWindow
from repro.core.framework import PSPFramework
from repro.core.monitor import PSPMonitor, TrendAlert
from repro.core.poisoning import PostAuthenticityFilter
from repro.obs import views as obs_views
from repro.obs.registry import ensure_registry
from repro.social.post import Post
from repro.social.registry import ScenarioSpec, get_scenario
from repro.social.resilience import TransientPlatformError
from repro.stream.checkpoint import CheckpointRotation, restore_runtime
from repro.stream.feed import PostEvent, SyntheticFeed
from repro.stream.runtime import StreamRuntime
from repro.stream.sharding import (
    ShardedStreamRuntime,
    _stable_bucket,
    shard_feeds,
)

__all__ = [
    "BestEffortFeed",
    "DelayedFeed",
    "FlakyFeed",
    "PoisonDefenceReport",
    "ReplayReport",
    "RetryingFeed",
    "month_boundaries",
    "replay_poison_defence",
    "replay_scenario",
]

#: Default compaction policy for replay runtimes — deliberately tight so
#: the bounded-memory invariant is exercised (and checked) every run.
REPLAY_COMPACT_THRESHOLD = 64
REPLAY_COMPACT_RATIO = 0.5


def _month_end(year: int, month: int) -> dt.date:
    return dt.date(year, month, calendar.monthrange(year, month)[1])


def month_boundaries(
    start_year: int,
    end_year: int,
    *,
    months: Optional[int] = None,
    cadence: str = "monthly",
) -> List[dt.date]:
    """Tick boundaries for a replay: period-end dates, oldest first.

    Args:
        start_year: first covered year (boundaries start at its January).
        end_year: last covered year (boundaries end at its December).
        months: cap on the number of boundaries (None = full span).
        cadence: ``monthly`` (every month end), ``quarterly``
            (Mar/Jun/Sep/Dec) or ``yearly`` (Dec 31).
    """
    if end_year < start_year:
        raise ValueError(
            f"end_year {end_year} precedes start_year {start_year}"
        )
    if months is not None and months < 1:
        raise ValueError(f"months must be >= 1, got {months}")
    step = {"monthly": 1, "quarterly": 3, "yearly": 12}.get(cadence)
    if step is None:
        raise ValueError(f"unknown cadence {cadence!r}")
    boundaries = [
        _month_end(year, month)
        for year in range(start_year, end_year + 1)
        for month in range(step, 13, step)
    ]
    if months is not None:
        boundaries = boundaries[:months]
    return boundaries


# -- arrival-delaying and failure-injecting feeds -----------------------------


class DelayedFeed:
    """A feed whose events *arrive* later than their posts were created.

    Models platform outages: a post created during an
    :class:`~repro.social.registry.OutageWindow` on its platform is
    withheld until the day after the outage ends, then delivered in the
    backfill together with everything else the outage queued.  Events
    are ordered by ``(arrival, created_at, post_id)`` and
    ``events_after(until=...)`` filters on *arrival*, so a runtime
    driven by boundary dates sees exactly what a live consumer riding
    out the outage would have seen.

    Args:
        posts: the scenario posts (branded ids — the platform prefix
            identifies which outages apply).
        outages: the outage windows to honour.
        platform_of: post → platform name; defaults to the branded-id
            prefix decode.
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`;
            every outage-delayed event increments
            ``feed_delayed_events_total`` once, here at construction
            (``partition`` children deliberately do *not* re-count).
    """

    def __init__(
        self,
        posts: Sequence[Post],
        outages: Sequence[object] = (),
        *,
        platform_of=None,
        metrics=None,
    ) -> None:
        decode = platform_of or (
            lambda post: post.post_id.partition(":")[0]
        )
        delayed = 0
        entries = []
        for post in posts:
            arrival = post.created_at
            platform = decode(post)
            for outage in outages:
                if outage.platform == platform and outage.covers(
                    post.created_at
                ):
                    backfill = outage.end + dt.timedelta(days=1)
                    if backfill > arrival:
                        arrival = backfill
            if arrival != post.created_at:
                delayed += 1
            entries.append((arrival, post))
        ensure_registry(metrics).counter(
            "feed_delayed_events_total",
            "Events withheld past their creation date by outage windows.",
        ).inc(delayed)
        entries.sort(key=lambda pair: (pair[0], pair[1].created_at,
                                       pair[1].post_id))
        self._arrivals: Tuple[dt.date, ...] = tuple(a for a, _ in entries)
        self._events: Tuple[PostEvent, ...] = tuple(
            PostEvent(seq=position, post=post)
            for position, (_, post) in enumerate(entries)
        )

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> Tuple[PostEvent, ...]:
        """All events, in arrival order."""
        return self._events

    def arrival_of(self, seq: int) -> dt.date:
        """The arrival date of one event."""
        return self._arrivals[seq]

    def events_after(
        self,
        cursor: int,
        *,
        until: Optional[dt.date] = None,
        limit: Optional[int] = None,
    ) -> Tuple[PostEvent, ...]:
        """Events with ``seq > cursor`` whose *arrival* is ``<= until``."""
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        start = max(cursor + 1, 0)
        selected = []
        for event in self._events[start:]:
            if until is not None and self._arrivals[event.seq] > until:
                # Arrival-ordered, so nothing later qualifies either.
                break
            selected.append(event)
            if limit is not None and len(selected) >= limit:
                break
        return tuple(selected)

    def partition(self, shards: int) -> Tuple["DelayedFeed", ...]:
        """Hash-partition into per-shard delayed feeds.

        Routing matches :func:`~repro.stream.sharding.shard_feeds`'s
        default (stable bucket of the post id), so a no-outage scenario
        shards identically whether it goes through this class or the
        plain synthetic feeds.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        buckets: List[List[Tuple[dt.date, Post]]] = [
            [] for _ in range(shards)
        ]
        for event in self._events:
            buckets[_stable_bucket(event.post.post_id, shards)].append(
                (self._arrivals[event.seq], event.post)
            )
        return tuple(
            DelayedFeed._from_entries(bucket) for bucket in buckets
        )

    @classmethod
    def _from_entries(
        cls, entries: Sequence[Tuple[dt.date, Post]]
    ) -> "DelayedFeed":
        feed = cls.__new__(cls)
        feed._arrivals = tuple(arrival for arrival, _ in entries)
        feed._events = tuple(
            PostEvent(seq=position, post=post)
            for position, (_, post) in enumerate(entries)
        )
        return feed


class FlakyFeed:
    """Failure injector: the first ``failures`` polls raise.

    The streaming analogue of :class:`~repro.social.resilience.
    FlakyClient` — used by the resilience tests to prove retry wrappers
    and per-shard degradation around the runtimes.  Injected failures
    increment ``feed_failures_total`` so a degraded replay is visible in
    the telemetry, not just in the wrapper's attributes.
    """

    def __init__(self, inner, *, failures: int = 1, metrics=None) -> None:
        if failures < 0:
            raise ValueError(f"failures must be >= 0, got {failures}")
        self._inner = inner
        self._remaining = failures
        self.polls = 0
        self._failures_total = ensure_registry(metrics).counter(
            "feed_failures_total",
            "Feed polls that raised a transient platform error.",
        )

    def events_after(self, cursor, *, until=None, limit=None):
        self.polls += 1
        if self._remaining > 0:
            self._remaining -= 1
            self._failures_total.inc()
            raise TransientPlatformError(
                f"injected feed outage ({self._remaining} more)"
            )
        return self._inner.events_after(cursor, until=until, limit=limit)


class RetryingFeed:
    """Retry wrapper: re-polls through transient errors, then raises.

    Mirrors :class:`~repro.social.resilience.RetryingClient` for feeds:
    ``max_attempts`` tries per poll, re-raising the last
    :class:`~repro.social.resilience.TransientPlatformError` when the
    budget is exhausted.  Every re-poll increments
    ``feed_retries_total`` — retries used to vanish into the wrapper's
    instance attributes, invisible to anything downstream.
    """

    def __init__(self, inner, *, max_attempts: int = 3, metrics=None) -> None:
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self._inner = inner
        self._max_attempts = max_attempts
        self.attempts = 0
        self.retries = 0
        self._retries_total = ensure_registry(metrics).counter(
            "feed_retries_total",
            "Feed re-polls after a transient platform error.",
        )

    def events_after(self, cursor, *, until=None, limit=None):
        last: Optional[Exception] = None
        for attempt in range(self._max_attempts):
            self.attempts += 1
            if attempt:
                self.retries += 1
                self._retries_total.inc()
            try:
                return self._inner.events_after(
                    cursor, until=until, limit=limit
                )
            except TransientPlatformError as error:
                last = error
        raise last  # type: ignore[misc]


class BestEffortFeed:
    """Degradation wrapper: a failing poll yields an empty batch.

    Mirrors :class:`~repro.social.resilience.BestEffortClient`: one
    platform's persistent outage must not stall the other shards — the
    failing feed simply contributes nothing this tick and the stable
    feed cursor re-offers the missed events next poll.  Each swallowed
    batch increments ``feed_dropped_batches_total``; silent degradation
    was exactly the failure mode the telemetry layer exists to surface.
    """

    def __init__(self, inner, *, metrics=None) -> None:
        self._inner = inner
        self.degraded_polls = 0
        self._dropped_total = ensure_registry(metrics).counter(
            "feed_dropped_batches_total",
            "Feed polls degraded to an empty batch by a platform error.",
        )

    def events_after(self, cursor, *, until=None, limit=None):
        try:
            return self._inner.events_after(cursor, until=until, limit=limit)
        except TransientPlatformError:
            self.degraded_polls += 1
            self._dropped_total.inc()
            return ()


# -- the replay audit ---------------------------------------------------------


def _table_rows(table) -> Optional[Tuple]:
    return table.as_rows() if table is not None else None


def _alert_key(alert: Optional[TrendAlert]):
    if alert is None:
        return None
    return (
        alert.upto_year,
        tuple(
            (change.vector, change.before, change.after)
            for change in alert.changes
        ),
    )


def _segments_bounded(
    stats: Dict[str, object],
    *,
    threshold: int,
    ratio: Optional[float],
) -> bool:
    """Whether one index's tail respects the compaction policy."""
    tail = int(stats["tail_posts"])  # type: ignore[arg-type]
    base = int(stats["base_posts"])  # type: ignore[arg-type]
    if tail >= threshold:
        return False
    if ratio is not None and tail >= ratio * max(1, base):
        return False
    return True


@dataclass
class ReplayReport:
    """Outcome of one long-horizon replay audit."""

    scenario: str
    shards: int
    boundaries: int
    posts: int
    stream_alerts: int
    batch_alerts: int
    retunes: int
    forced_retunes: int
    excluded_boundaries: int
    alert_parity: bool
    table_parity: bool
    sai_parity: bool
    checkpoint_parity: bool
    memory_bounded: bool
    mismatches: List[str] = field(default_factory=list)
    #: Per-stage tick latency rollup (stage → count/total_seconds/mean_ms)
    #: of this replay's spans in its metrics registry (a shared
    #: registry's earlier spans are left out); empty on the NullRegistry
    #: path.
    stage_latencies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ``feed_*`` counter counts (retries, dropped batches, delays) the
    #: wrapped feeds recorded during this replay; empty on the
    #: NullRegistry path.
    feed_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every audited invariant held."""
        return (
            self.alert_parity
            and self.table_parity
            and self.sai_parity
            and self.checkpoint_parity
            and self.memory_bounded
        )

    def describe(self) -> str:
        """Multi-line human-readable audit summary."""
        def flag(value: bool) -> str:
            return "ok" if value else "FAIL"

        lines = [
            f"replay {self.scenario}: {self.boundaries} boundaries, "
            f"{self.posts} posts, {self.shards} shard(s)",
            f"  alerts: stream {self.stream_alerts} / batch "
            f"{self.batch_alerts}; retunes {self.retunes} "
            f"({self.forced_retunes} staleness-forced)",
            f"  alert parity      {flag(self.alert_parity)}"
            + (
                f" ({self.excluded_boundaries} outage-shadow boundaries "
                "excluded)"
                if self.excluded_boundaries
                else ""
            ),
            f"  table parity      {flag(self.table_parity)}",
            f"  sai parity        {flag(self.sai_parity)}",
            f"  checkpoint parity {flag(self.checkpoint_parity)}",
            f"  bounded memory    {flag(self.memory_bounded)}",
        ]
        if self.feed_counters:
            rendered = ", ".join(
                f"{name}={value}"
                for name, value in sorted(self.feed_counters.items())
            )
            lines.append(f"  feed: {rendered}")
        for stage, row in sorted(self.stage_latencies.items()):
            lines.append(
                f"  stage {stage:<12} {row['count']:>6.0f} spans, "
                f"mean {row['mean_ms']:.3f} ms"
            )
        for mismatch in self.mismatches:
            lines.append(f"  ! {mismatch}")
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _resolve(scenario: Union[str, ScenarioSpec]) -> ScenarioSpec:
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return get_scenario(scenario)


def _build_stream(
    spec: ScenarioSpec,
    posts: Sequence[Post],
    *,
    shards: int,
    workers: Optional[int],
    config: Optional[PSPConfig],
    post_filter: Optional[PostAuthenticityFilter] = None,
    warm_span_days: Optional[int] = None,
    cold_age_days: Optional[int] = None,
    spill_dir=None,
    max_resident_cold: Optional[int] = None,
    metrics=None,
):
    """A fresh replay runtime (single or sharded) plus fresh feeds.

    Spill keys are content-addressed, so every sub-run of one replay
    (the uninterrupted reference, the SAI recompute, the checkpoint
    resume) can share one ``spill_dir`` without collisions.
    """
    database = spec.database()
    kwargs = dict(
        target=spec.target,
        config=config,
        since_year=spec.start_year,
        post_filter=post_filter,
        compact_threshold=REPLAY_COMPACT_THRESHOLD,
        compact_ratio=REPLAY_COMPACT_RATIO,
        warm_span_days=warm_span_days,
        cold_age_days=cold_age_days,
        spill_dir=spill_dir,
        max_resident_cold=max_resident_cold,
        metrics=metrics,
    )
    if spec.outages:
        merged = DelayedFeed(posts, spec.outages, metrics=metrics)
        feeds = merged.partition(shards) if shards > 1 else (merged,)
    elif shards > 1:
        feeds = shard_feeds(posts, shards)
    else:
        feeds = (SyntheticFeed(posts),)
    if shards > 1:
        runtime = ShardedStreamRuntime(
            feeds, database, workers=workers, **kwargs
        )
    else:
        runtime = StreamRuntime(feeds[0], database, **kwargs)
    return runtime, feeds, database


def replay_scenario(
    scenario: Union[str, ScenarioSpec],
    *,
    months: Optional[int] = None,
    shards: int = 2,
    workers: Optional[int] = None,
    config: Optional[PSPConfig] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    warm_span_days: Optional[int] = None,
    cold_age_days: Optional[int] = None,
    spill_dir=None,
    max_resident_cold: Optional[int] = None,
    metrics=None,
) -> ReplayReport:
    """Drive one scenario through the full three-invariant audit.

    Args:
        scenario: a registered scenario name or an explicit spec.
        months: number of tick boundaries to replay (None = the
            scenario's full span).
        shards: feed shards for the streaming side (1 = single
            runtime with file-based checkpoints; >1 = sharded runtime
            with ``state_dict`` checkpoints).
        workers: executor parallelism for shard ingest.
        config: pipeline tunables shared by both sides.
        checkpoint_dir: where mid-run checkpoints are written
            (``shards == 1`` only); a temp directory by default.
        warm_span_days / cold_age_days: retention knobs, passed to the
            runtimes' indexes (unset: no retention; either set: hot,
            warm and cold tiers with sidecars), with every audit —
            parity, checkpoint resume, bounded memory — unchanged.
        spill_dir / max_resident_cold: when ``spill_dir`` is set (tiered
            retention required), cold seals spill their columns into a
            :class:`~repro.stream.store.SegmentStore` there; every
            sub-run of the audit (reference, SAI recompute, checkpoint
            resume) shares the directory — spill keys are
            content-addressed, so the runs are collision-free and the
            resumed runtime re-attaches the very segments the
            uninterrupted run spilled.
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`
            instrumenting the *uninterrupted* streaming run (the
            checkpoint-resume and SAI-recompute side runs stay
            uninstrumented so counters aren't double-counted).  Audit
            verdicts land in ``replay_audit_outcomes_total`` and the
            report carries this replay's per-stage latencies and
            ``feed_*`` counts; the registry itself keeps accumulating
            across replays that share it.

    The batch side is a cached :class:`~repro.core.framework.
    PSPFramework` driven by :meth:`~repro.core.monitor.PSPMonitor.
    tick_date` at the same boundaries — the reference the paper's batch
    pipeline defines.  Outage shadows are excluded from per-boundary
    parity and convergence is re-asserted at the catch-up boundary.
    """
    spec = _resolve(scenario)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    boundaries = month_boundaries(
        spec.start_year,
        spec.end_year,
        months=months,
        cadence=spec.arrival_cadence,
    )
    posts = list(spec.corpus().posts)
    mismatches: List[str] = []

    # Outage shadow: boundaries inside any outage window see fewer
    # arrivals than the batch reference; the first boundary after an
    # outage (the catch-up) sees everything again, but its *alert* may
    # merge changes the batch raised during the shadow.
    shadow = {
        boundary
        for boundary in boundaries
        for outage in spec.outages
        if outage.start <= boundary <= outage.end
    }
    catchup = set()
    for outage in spec.outages:
        for boundary in boundaries:
            if boundary > outage.end:
                catchup.add(boundary)
                break

    # -- batch reference ----------------------------------------------------
    framework = PSPFramework(
        spec.client(),
        spec.target,
        database=spec.database(),
        config=config,
        cache=True,
    )
    monitor = PSPMonitor(framework, start_year=spec.start_year)
    batch_alerts: Dict[dt.date, Optional[TrendAlert]] = {}
    batch_tables: Dict[dt.date, Optional[Tuple]] = {}
    for boundary in boundaries:
        batch_alerts[boundary] = monitor.tick_date(boundary)
        batch_tables[boundary] = _table_rows(monitor.current_table)

    # -- streaming run (uninterrupted reference + mid-run checkpoints) ------
    registry = ensure_registry(metrics)
    # A shared registry may already hold earlier replays' spans and feed
    # counts: the report shows only this run's share of them.
    stages_before = obs_views.stage_latencies(registry)
    feeds_before = _feed_totals(registry)
    runtime, _, _ = _build_stream(
        spec, posts, shards=shards, workers=workers, config=config,
        warm_span_days=warm_span_days, cold_age_days=cold_age_days,
        spill_dir=spill_dir, max_resident_cold=max_resident_cold,
        metrics=metrics,
    )
    count = len(boundaries)
    base_at = count // 3 if count >= 3 else None
    delta_at = (2 * count) // 3 if count >= 3 else None
    owns_tmp = checkpoint_dir is None and shards == 1
    tmp = tempfile.TemporaryDirectory() if owns_tmp else None
    rotation: Optional[CheckpointRotation] = None
    sharded_state: Optional[str] = None

    stream_alerts: Dict[dt.date, Optional[TrendAlert]] = {}
    stream_tables: Dict[dt.date, Optional[Tuple]] = {}
    memory_bounded = True
    last_retuned: Optional[dt.date] = None
    try:
        for position, boundary in enumerate(boundaries):
            tick = runtime.advance_to(boundary, upto_year=boundary.year)
            stream_alerts[boundary] = tick.alert
            stream_tables[boundary] = _table_rows(runtime.current_table)
            if tick.retuned and boundary not in shadow:
                last_retuned = boundary
            for index in runtime.shard_indexes:
                index_stats = index.segment_stats
                if not _segments_bounded(
                    index_stats,
                    threshold=REPLAY_COMPACT_THRESHOLD,
                    ratio=REPLAY_COMPACT_RATIO,
                ):
                    memory_bounded = False
                    mismatches.append(
                        f"{boundary}: index tail outgrew the compaction "
                        f"policy: {index_stats}"
                    )
            if position == base_at:
                if shards == 1:
                    directory = Path(
                        checkpoint_dir if checkpoint_dir is not None
                        else tmp.name  # type: ignore[union-attr]
                    )
                    # Generous ratio: months of arrivals dirty most
                    # keywords, and the audit wants the restore to go
                    # through the base+delta chain, not a rotated base.
                    rotation = CheckpointRotation(
                        runtime, directory, max_delta_ratio=10.0
                    )
                    rotation.save()
            elif position == delta_at:
                if shards == 1 and rotation is not None:
                    rotation.save()
                else:
                    sharded_state = json.dumps(runtime.state_dict())
        final_table = _table_rows(runtime.current_table)
        final_sai = (
            runtime.current_result.sai.as_rows()
            if runtime.current_result is not None
            else None
        )
        counters = runtime.runtime_health()["counters"]
    finally:
        runtime.close()

    # -- alert + table parity ----------------------------------------------
    alert_parity = True
    table_parity = True
    for boundary in boundaries:
        if boundary not in shadow:
            if batch_tables[boundary] != stream_tables[boundary]:
                table_parity = False
                mismatches.append(
                    f"{boundary}: insider table diverged from batch"
                )
        if boundary in shadow or boundary in catchup:
            continue
        if _alert_key(batch_alerts[boundary]) != _alert_key(
            stream_alerts[boundary]
        ):
            alert_parity = False
            mismatches.append(
                f"{boundary}: alert mismatch (batch "
                f"{_alert_key(batch_alerts[boundary])!r} vs stream "
                f"{_alert_key(stream_alerts[boundary])!r})"
            )
    if spec.outages and boundaries:
        # Convergence: once every queued arrival has landed the stream
        # must agree with the batch reference again.
        final_boundary = boundaries[-1]
        if final_boundary not in shadow and (
            batch_tables[final_boundary] != stream_tables[final_boundary]
        ):
            table_parity = False
            mismatches.append("final boundary never converged to batch")

    # -- SAI parity at the last (non-shadow) retuned boundary ---------------
    sai_parity = True
    if last_retuned is not None and final_sai is not None:
        window = TimeWindow(
            since=dt.date(spec.start_year, 1, 1),
            until=last_retuned,
            label=f"replay..{last_retuned.isoformat()}",
        )
        batch_sai = framework.run(window, learn=False).sai.as_rows()
        # The stream's current result is from its last retune; compare
        # against the batch pipeline run over the same window.
        stream_sai = final_sai
        if last_retuned == boundaries[-1] and batch_sai != stream_sai:
            sai_parity = False
            mismatches.append(
                f"{last_retuned}: SAI rows diverged from a fresh batch run"
            )
        elif last_retuned != boundaries[-1]:
            # The final ticks skipped retuning (clean-table quiet tail);
            # the staleness policy bounds how far the cached SAI may lag,
            # and the insider-table parity above already pinned the
            # rating outcome, so only audit when the last retune is
            # final.  Recompute at the retune boundary for the record.
            if batch_sai != _sai_at(
                spec, posts, last_retuned, shards=shards, workers=workers,
                config=config, warm_span_days=warm_span_days,
                cold_age_days=cold_age_days, spill_dir=spill_dir,
                max_resident_cold=max_resident_cold,
            ):
                sai_parity = False
                mismatches.append(
                    f"{last_retuned}: SAI rows diverged at last retune"
                )

    # -- checkpoint parity --------------------------------------------------
    checkpoint_parity = True
    resume_from = delta_at
    try:
        if resume_from is not None and (
            rotation is not None or sharded_state is not None
        ):
            resumed, _, _ = _restore_stream(
                spec,
                posts,
                shards=shards,
                workers=workers,
                config=config,
                rotation=rotation,
                sharded_state=sharded_state,
                warm_span_days=warm_span_days,
                cold_age_days=cold_age_days,
                spill_dir=spill_dir,
                max_resident_cold=max_resident_cold,
            )
            try:
                for boundary in boundaries[resume_from + 1 :]:
                    tick = resumed.advance_to(
                        boundary, upto_year=boundary.year
                    )
                    expected = _alert_key(stream_alerts[boundary])
                    actual = _alert_key(tick.alert)
                    if expected != actual:
                        checkpoint_parity = False
                        mismatches.append(
                            f"{boundary}: resumed run raised "
                            f"{actual!r}, uninterrupted raised "
                            f"{expected!r}"
                        )
                if _table_rows(resumed.current_table) != final_table:
                    checkpoint_parity = False
                    mismatches.append(
                        "resumed run's final table diverged from the "
                        "uninterrupted run"
                    )
            finally:
                resumed.close()
    finally:
        if tmp is not None:
            tmp.cleanup()

    stream_alert_count = sum(
        1 for alert in stream_alerts.values() if alert is not None
    )
    batch_alert_count = sum(
        1 for alert in batch_alerts.values() if alert is not None
    )

    # -- audit outcomes as metrics ------------------------------------------
    audit_counter = registry.counter(
        "replay_audit_outcomes_total",
        "Replay invariant audits by verdict.",
        labelnames=("invariant", "outcome"),
    )
    for invariant, held in (
        ("alert_parity", alert_parity),
        ("table_parity", table_parity),
        ("sai_parity", sai_parity),
        ("checkpoint_parity", checkpoint_parity),
        ("memory_bounded", memory_bounded),
    ):
        audit_counter.inc(
            invariant=invariant, outcome="pass" if held else "fail"
        )
    registry.counter(
        "replay_boundaries_total", "Tick boundaries replayed."
    ).inc(len(boundaries))
    stage_latencies = _stages_since(
        stages_before, obs_views.stage_latencies(registry)
    )
    feed_counters = {
        name: total - feeds_before.get(name, 0)
        for name, total in _feed_totals(registry).items()
    }
    return ReplayReport(
        scenario=spec.name,
        shards=shards,
        boundaries=len(boundaries),
        posts=len(posts),
        stream_alerts=stream_alert_count,
        batch_alerts=batch_alert_count,
        retunes=int(counters["retunes"]),  # type: ignore[index]
        forced_retunes=int(counters["forced_retunes"]),  # type: ignore[index]
        excluded_boundaries=len(shadow | catchup),
        alert_parity=alert_parity,
        table_parity=table_parity,
        sai_parity=sai_parity,
        checkpoint_parity=checkpoint_parity,
        memory_bounded=memory_bounded,
        mismatches=mismatches,
        stage_latencies=stage_latencies,
        feed_counters=feed_counters,
    )


def _feed_totals(registry) -> Dict[str, int]:
    """Totals of the registry's ``feed_*`` counters (empty when disabled)."""
    return {
        name: int(sum(instrument.samples().values()))
        for name, instrument in registry.collect().items()
        if name.startswith("feed_") and instrument.kind == "counter"
    }


def _stages_since(
    before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """The stage rows of the spans recorded between two snapshots."""
    out: Dict[str, Dict[str, float]] = {}
    for stage, row in after.items():
        prior = before.get(stage, {"count": 0, "total_seconds": 0.0})
        count = row["count"] - prior["count"]
        if not count:
            continue
        total = row["total_seconds"] - prior["total_seconds"]
        out[stage] = {
            "count": count,
            "total_seconds": total,
            "mean_ms": total / count * 1e3,
        }
    return out


def _sai_at(
    spec: ScenarioSpec,
    posts: Sequence[Post],
    boundary: dt.date,
    *,
    shards: int,
    workers: Optional[int],
    config: Optional[PSPConfig],
    warm_span_days: Optional[int] = None,
    cold_age_days: Optional[int] = None,
    spill_dir=None,
    max_resident_cold: Optional[int] = None,
):
    """The stream's SAI rows when replayed fresh up to one boundary."""
    runtime, _, _ = _build_stream(
        spec, posts, shards=shards, workers=workers, config=config,
        warm_span_days=warm_span_days, cold_age_days=cold_age_days,
        spill_dir=spill_dir, max_resident_cold=max_resident_cold,
    )
    try:
        runtime.advance_to(boundary, upto_year=boundary.year)
        result = runtime.current_result
        return result.sai.as_rows() if result is not None else None
    finally:
        runtime.close()


def _restore_stream(
    spec: ScenarioSpec,
    posts: Sequence[Post],
    *,
    shards: int,
    workers: Optional[int],
    config: Optional[PSPConfig],
    rotation: Optional[CheckpointRotation],
    sharded_state: Optional[str],
    warm_span_days: Optional[int] = None,
    cold_age_days: Optional[int] = None,
    spill_dir=None,
    max_resident_cold: Optional[int] = None,
):
    """Rebuild a runtime from the mid-run checkpoint artifacts."""
    if shards == 1:
        assert rotation is not None
        source, base = rotation.restore_sources()
        database = spec.database()
        if spec.outages:
            feed = DelayedFeed(posts, spec.outages)
        else:
            feed = SyntheticFeed(posts)
        runtime = restore_runtime(
            source,
            feed,
            database,
            base=base,
            target=spec.target,
            config=config,
            compact_threshold=REPLAY_COMPACT_THRESHOLD,
            compact_ratio=REPLAY_COMPACT_RATIO,
            warm_span_days=warm_span_days,
            cold_age_days=cold_age_days,
            spill_dir=spill_dir,
            max_resident_cold=max_resident_cold,
        )
        return runtime, (feed,), database
    assert sharded_state is not None
    runtime, feeds, database = _build_stream(
        spec, posts, shards=shards, workers=workers, config=config,
        warm_span_days=warm_span_days, cold_age_days=cold_age_days,
        spill_dir=spill_dir, max_resident_cold=max_resident_cold,
    )
    runtime.load_state(json.loads(sharded_state))
    return runtime, feeds, database


# -- poisoning defence audit --------------------------------------------------


@dataclass
class PoisonDefenceReport:
    """Outcome of a poisoned-vs-clean replay comparison."""

    scenario: str
    boundaries: int
    poison_posts: int
    poison_rejected: int
    organic_rejected: int
    alerts_match: bool
    table_match: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def all_poison_rejected(self) -> bool:
        """Whether the filter caught every injected post."""
        return self.poison_rejected == self.poison_posts

    @property
    def ok(self) -> bool:
        """Whether the defence held end to end."""
        return self.all_poison_rejected and self.alerts_match and self.table_match

    def describe(self) -> str:
        """Human-readable defence summary."""
        return (
            f"poison defence {self.scenario}: "
            f"{self.poison_rejected}/{self.poison_posts} injected posts "
            f"rejected ({self.organic_rejected} organic casualties), "
            f"alerts {'match' if self.alerts_match else 'DIVERGED'}, "
            f"final table {'match' if self.table_match else 'DIVERGED'} "
            f"over {self.boundaries} boundaries — "
            f"{'PASS' if self.ok else 'FAIL'}"
        )


def replay_poison_defence(
    scenario: Union[str, ScenarioSpec],
    *,
    months: Optional[int] = None,
    config: Optional[PSPConfig] = None,
) -> PoisonDefenceReport:
    """Audit the authenticity filter against a scenario's bursts.

    Replays the scenario twice through single-shard runtimes: once over
    the clean corpus without a filter, once over the poisoned corpus
    behind the **default** :class:`~repro.core.poisoning.
    PostAuthenticityFilter`.  The defence holds when every injected
    post is rejected and the filtered run raises the clean run's alerts
    and final insider table.

    Single-shard and yearly-cadence by design: the filter's population
    rules (duplicate share, author concentration, engagement MAD) are
    statistics over one micro-batch, so they need batches big enough to
    carry a signal — a dozen-post monthly batch makes the MAD estimate
    noise and innocently spiky organic posts collateral damage, while a
    year batch cleanly separates a 20-copy flood from organic chatter.
    The unsharded arrival order is likewise part of the contract: the
    burst must hit the filter as the contiguous flood it is.
    """
    spec = _resolve(scenario)
    if not spec.poisoning:
        raise ValueError(
            f"scenario {spec.name!r} declares no poisoning bursts"
        )
    boundaries = month_boundaries(
        spec.start_year,
        spec.end_year,
        months=months,
        cadence="yearly",
    )
    clean_posts = list(spec.corpus().posts)
    poisoned_posts = list(spec.poisoned_corpus().posts)
    poison_ids = {
        post.post_id
        for post in poisoned_posts
        if ":poison" in post.post_id
    }
    mismatches: List[str] = []

    clean_runtime, _, _ = _build_stream(
        spec, clean_posts, shards=1, workers=None, config=config
    )
    filtered_runtime, _, _ = _build_stream(
        spec,
        poisoned_posts,
        shards=1,
        workers=None,
        config=config,
        post_filter=PostAuthenticityFilter(),
    )
    alerts_match = True
    try:
        for boundary in boundaries:
            clean_tick = clean_runtime.advance_to(
                boundary, upto_year=boundary.year
            )
            filtered_tick = filtered_runtime.advance_to(
                boundary, upto_year=boundary.year
            )
            if _alert_key(clean_tick.alert) != _alert_key(
                filtered_tick.alert
            ):
                alerts_match = False
                mismatches.append(
                    f"{boundary}: filtered alert "
                    f"{_alert_key(filtered_tick.alert)!r} != clean "
                    f"{_alert_key(clean_tick.alert)!r}"
                )
        table_match = _table_rows(
            clean_runtime.current_table
        ) == _table_rows(filtered_runtime.current_table)
        if not table_match:
            mismatches.append("final insider tables diverged")
        rejected_ids = {
            rejection.post.post_id
            for report in filtered_runtime.filter_reports
            for rejection in report.rejected
        }
    finally:
        clean_runtime.close()
        filtered_runtime.close()

    poison_rejected = len(rejected_ids & poison_ids)
    if poison_rejected != len(poison_ids):
        survivors = sorted(poison_ids - rejected_ids)[:5]
        mismatches.append(
            f"{len(poison_ids) - poison_rejected} poison post(s) "
            f"slipped through, e.g. {survivors}"
        )
    return PoisonDefenceReport(
        scenario=spec.name,
        boundaries=len(boundaries),
        poison_posts=len(poison_ids),
        poison_rejected=poison_rejected,
        organic_rejected=len(rejected_ids - poison_ids),
        alerts_match=alerts_match,
        table_match=table_match,
        mismatches=mismatches,
    )
